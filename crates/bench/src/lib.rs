//! The evaluation harness: one binary per paper figure (§6), plus shared
//! plumbing for building testbeds, repeating runs, and printing paper-vs-
//! measured tables.
//!
//! | binary             | reproduces |
//! |--------------------|------------|
//! | `fig4_iozone`      | Figure 4 — IOzone runtime per DFS setup (LAN) |
//! | `fig5_6_cpu`       | Figures 5 & 6 — proxy/daemon CPU utilization |
//! | `fig7_postmark_lan`| Figure 7 — PostMark per-phase runtimes (LAN) |
//! | `fig8_postmark_wan`| Figure 8 — PostMark total vs RTT, nfs-v3 vs sgfs |
//! | `fig9_mab`         | Figure 9 — MAB phases, LAN + 40 ms WAN |
//! | `fig10_seismic`    | Figure 10 — Seismic phases, LAN + 40 ms WAN |
//!
//! Absolute numbers are not expected to match the paper's 2007 testbed;
//! the *shape* (ordering, ratios, crossovers) is what each binary checks
//! and what EXPERIMENTS.md records. Default sizes are scaled down from
//! the paper's (ratios preserved — e.g. IOzone keeps file = 2× client
//! cache); `--full` runs paper sizes.

pub mod gate;

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use std::time::Duration;

/// Command-line options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Repetitions per data point (paper reports avg ± std of several).
    pub runs: usize,
    /// Use the paper's full sizes instead of the scaled defaults.
    pub full: bool,
    /// Extra-quick mode for smoke testing.
    pub quick: bool,
}

impl RunOpts {
    /// Parse from `std::env::args`: `[--runs N] [--full] [--quick]`.
    pub fn parse() -> Self {
        let mut opts = Self { runs: 2, full: false, quick: false };
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--runs" => {
                    i += 1;
                    opts.runs = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--runs needs a number");
                }
                "--full" => opts.full = true,
                "--quick" => {
                    opts.quick = true;
                    opts.runs = 1;
                }
                // Anything else is the binary's own (`gates` takes suite
                // names and `--contract`).
                _ => {}
            }
            i += 1;
        }
        opts
    }

    /// Kernel-client memory cache for IOzone-style experiments.
    pub fn mem_cache(&self) -> usize {
        if self.full {
            256 * 1024 * 1024
        } else if self.quick {
            2 * 1024 * 1024
        } else {
            16 * 1024 * 1024
        }
    }
}

/// The setups of Figure 4, in the paper's plotting order, with the AEAD
/// level (AES-256-GCM records — not in the paper) after its CBC ladder.
pub fn fig4_setups() -> Vec<SetupKind> {
    vec![
        SetupKind::NfsV3,
        SetupKind::NfsV4,
        SetupKind::Sfs,
        SetupKind::Gfs,
        SetupKind::Sgfs(SecurityLevel::IntegrityOnly),
        SetupKind::Sgfs(SecurityLevel::MediumCipher),
        SetupKind::Sgfs(SecurityLevel::StrongCipher),
        SetupKind::Sgfs(SecurityLevel::AeadCipher),
        SetupKind::GfsSsh,
    ]
}

/// Build a LAN session of `kind` with the given memory cache.
pub fn lan_session(world: &GridWorld, kind: SetupKind, mem_cache: usize) -> Session {
    let mut params = SessionParams::lan(kind);
    params.mem_cache_bytes = mem_cache;
    Session::build(world, &params).unwrap_or_else(|e| panic!("{}: {e}", kind.label()))
}

/// Build a WAN session of `kind` at `rtt` (SGFS gets its disk cache).
pub fn wan_session(world: &GridWorld, kind: SetupKind, rtt: Duration, mem_cache: usize) -> Session {
    let mut params = SessionParams::wan(kind, rtt);
    params.mem_cache_bytes = mem_cache;
    Session::build(world, &params).unwrap_or_else(|e| panic!("{}: {e}", kind.label()))
}

/// One PostMark run on a WAN session of `kind`, and what crossed the WAN.
pub struct WanPostmark {
    /// PostMark's own runtime: the number Figure 8 plots.
    pub runtime: Duration,
    /// The final write-back at teardown, which PostMark does not time.
    pub writeback: Duration,
    /// Upstream calls by procedure during the run; `None` without a
    /// client proxy.
    pub forwarded: Option<[u64; sgfs_obs::NUM_PROCS]>,
    /// Upstream calls the teardown forwarded: names shipped there.
    pub shipped_at_teardown: u64,
}

/// Run PostMark `cfg` on a WAN session of `kind` at `rtt`, then tear the
/// session down.
pub fn postmark_wan(
    world: &GridWorld,
    kind: SetupKind,
    rtt: Duration,
    mem_cache: usize,
    cfg: &sgfs_workloads::postmark::PostmarkConfig,
) -> WanPostmark {
    let mut session = wan_session(world, kind, rtt, mem_cache);
    let clock = session.clock().clone();
    let res = sgfs_workloads::postmark::run(&mut session.mount, &clock, cfg)
        .unwrap_or_else(|e| panic!("{} @ {rtt:?}: {e}", kind.label()));
    let forwarded = session.client_proxy_stats().map(|s| s.forwarded_by_proc());
    let (report, after) = session.finish_with(|proxy| proxy.forwarded_by_proc()).expect("teardown");
    let total = |counts: Option<[u64; sgfs_obs::NUM_PROCS]>| counts.map_or(0, |c| c.iter().sum());
    WanPostmark {
        runtime: res.total,
        writeback: report.writeback_time,
        shipped_at_teardown: total(after) - total(forwarded),
        forwarded,
    }
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

/// One row of a figure table.
#[derive(Debug, serde::Serialize)]
pub struct Row {
    /// Setup / series label.
    pub label: String,
    /// Column name → (mean, std) in seconds.
    pub cells: Vec<(String, f64, f64)>,
}

/// Render rows as an aligned table with a title.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!("\n== {title} ==");
    print!("{:<12}", "setup");
    for c in columns {
        print!(" {c:>16}");
    }
    println!();
    for row in rows {
        print!("{:<12}", row.label);
        for (_, mean, std) in &row.cells {
            print!(" {:>10.2}±{:<5.2}", mean, std);
        }
        println!();
    }
}

/// Persist a figure's rows or a gate's report as `results/<name>.json`,
/// the one copy anything reads.
pub fn save_json<T: serde::Serialize + ?Sized>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        if std::fs::write(&path, json).is_ok() {
            println!("[saved {}]", path.display());
        }
    }
}

/// Seconds as f64 from a Duration.
pub fn s(d: Duration) -> f64 {
    d.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, sd) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((sd - 2.138).abs() < 0.01);
        let (m, sd) = mean_std(&[3.5]);
        assert_eq!((m, sd), (3.5, 0.0));
    }

    #[test]
    fn fig4_setups_are_the_papers_eight_plus_the_aead_level() {
        assert_eq!(fig4_setups().len(), 9);
    }
}
