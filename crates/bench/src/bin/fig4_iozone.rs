//! Figure 4: IOzone read/reread runtime on eight DFS setups in the LAN.
//!
//! Paper result shape: the user-level systems are >2× slower than kernel
//! NFS; relative to `gfs`, the security levels add ~9% (`sgfs-sha`),
//! ~15% (`sgfs-rc`) and ~50% (`sgfs-aes`); `gfs-ssh`'s double forwarding
//! is several-fold worse; `sfs` sits near `gfs`/`sgfs-rc`.

use sgfs::session::GridWorld;
use sgfs_bench::{fig4_setups, lan_session, mean_std, print_table, s, save_json, Row, RunOpts};
use sgfs_workloads::iozone::{self, IozoneConfig};

/// Approximate values read off the paper's Figure 4 bars (seconds). The
/// text gives only the relative statements; these anchor them to the plot.
/// `None` for a setup the paper did not run.
fn paper_value(label: &str) -> Option<f64> {
    Some(match label {
        "nfs-v3" => 25.0,
        "nfs-v4" => 27.0,
        "sfs" => 60.0,
        "gfs" => 60.0,
        "sgfs-sha" => 65.0,
        "sgfs-rc" => 69.0,
        "sgfs-aes" => 90.0,
        "gfs-ssh" => 370.0,
        _ => return None,
    })
}

fn main() {
    let opts = RunOpts::parse();
    let world = GridWorld::new();
    let cache = opts.mem_cache();
    let cfg = IozoneConfig::for_cache(cache);
    println!(
        "IOzone read/reread: file {} MB, client cache {} MB, {} run(s) per setup{}",
        cfg.file_size >> 20,
        cache >> 20,
        opts.runs,
        if opts.full { " [FULL]" } else { " [scaled]" },
    );

    let mut rows = Vec::new();
    let mut measured = std::collections::HashMap::new();
    for kind in fig4_setups() {
        let mut totals = Vec::new();
        for _ in 0..opts.runs {
            let mut session = lan_session(&world, kind, cache);
            iozone::preload(session.server().vfs(), &cfg);
            let clock = session.clock().clone();
            let res = iozone::run(&mut session.mount, &clock, &cfg)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
            totals.push(s(res.total));
            session.finish().expect("teardown");
        }
        let (mean, std) = mean_std(&totals);
        measured.insert(kind.label().to_string(), mean);
        let mut cells = vec![("runtime".to_string(), mean, std)];
        cells.extend(paper_value(kind.label()).map(|paper| ("paper".to_string(), paper, 0.0)));
        rows.push(Row { label: kind.label().to_string(), cells });
        eprintln!("  {} done: {:.2}s", kind.label(), mean);
    }
    print_table("Figure 4 — IOzone runtime (LAN), seconds", &["measured", "paper(~)"], &rows);
    save_json("fig4_iozone", &rows);

    // Shape checks from the paper's claims.
    let g = measured["gfs"];
    println!("\nshape checks (paper expectation):");
    println!(
        "  sgfs-sha overhead vs gfs: {:+.0}% (paper ~ +9%)",
        (measured["sgfs-sha"] / g - 1.0) * 100.0
    );
    println!(
        "  sgfs-rc  overhead vs gfs: {:+.0}% (paper ~ +15%)",
        (measured["sgfs-rc"] / g - 1.0) * 100.0
    );
    println!(
        "  sgfs-aes overhead vs gfs: {:+.0}% (paper ~ +50%)",
        (measured["sgfs-aes"] / g - 1.0) * 100.0
    );
    println!(
        "  sgfs-gcm overhead vs gfs: {:+.0}% (not in the paper: AES-256-GCM records)",
        (measured["sgfs-gcm"] / g - 1.0) * 100.0
    );
    println!(
        "  gfs-ssh slowdown vs gfs:  {:.1}x (paper > 6x)",
        measured["gfs-ssh"] / g
    );
    println!(
        "  user-level (gfs) vs kernel (nfs-v3): {:.1}x (paper > 2x)",
        g / measured["nfs-v3"]
    );
}
