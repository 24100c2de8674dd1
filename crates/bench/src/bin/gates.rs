//! Every bench floor of the repository behind one runner; see
//! [`sgfs_bench::gate`].

fn main() -> std::process::ExitCode {
    sgfs_bench::gate::main()
}
