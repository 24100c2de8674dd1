//! Figure 8: PostMark total runtime vs network RTT — nfs-v3 vs sgfs.
//!
//! The paper sweeps the emulated RTT over {5, 10, 20, 40, 80} ms. Native
//! NFS degrades roughly linearly with RTT (every RPC pays a round trip);
//! SGFS with disk caching decays only slightly and is about 2× faster at
//! 80 ms.

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, SetupKind};
use sgfs_bench::{mean_std, postmark_wan, print_table, s, save_json, Row, RunOpts, WanPostmark};
use sgfs_workloads::postmark::PostmarkConfig;
use std::time::Duration;

fn main() {
    let opts = RunOpts::parse();
    let world = GridWorld::new();
    let cfg = if opts.quick {
        PostmarkConfig { dirs: 10, files: 50, transactions: 100, ..Default::default() }
    } else {
        PostmarkConfig::default()
    };
    let rtts = [5u64, 10, 20, 40, 80];
    println!(
        "PostMark over emulated WAN: RTT sweep {:?} ms, {} run(s) per point",
        rtts, opts.runs
    );

    let mut rows = Vec::new();
    // Per setup, beside the runtime: the final write-back PostMark does
    // not time, and the upstream calls the teardown forwarded — a name
    // deferred past the run shows there.
    let mut teardown = Vec::new();
    for kind in [SetupKind::NfsV3, SetupKind::Sgfs(SecurityLevel::StrongCipher)] {
        let (mut cells, mut writeback, mut shipped) = (Vec::new(), Vec::new(), Vec::new());
        for rtt_ms in rtts {
            let rtt = Duration::from_millis(rtt_ms);
            let runs: Vec<_> = (0..opts.runs)
                .map(|_| postmark_wan(&world, kind, rtt, opts.mem_cache(), &cfg))
                .collect();
            let cell = |f: &dyn Fn(&WanPostmark) -> f64| {
                let (m, sd) = mean_std(&runs.iter().map(f).collect::<Vec<_>>());
                (format!("{rtt_ms}ms"), m, sd)
            };
            cells.push(cell(&|r| s(r.runtime)));
            writeback.push(cell(&|r| s(r.writeback)));
            shipped.push(cell(&|r| r.shipped_at_teardown as f64));
            eprintln!("  {} @ {rtt_ms}ms: {:.1}s", kind.label(), cells.last().unwrap().1);
        }
        rows.push(Row { label: kind.label().to_string(), cells });
        teardown.push(Row { label: format!("{} write-back s", kind.label()), cells: writeback });
        teardown.push(Row { label: format!("{} shipped", kind.label()), cells: shipped });
    }

    print_table(
        "Figure 8 — PostMark total runtime vs RTT, seconds",
        &["5ms", "10ms", "20ms", "40ms", "80ms"],
        &rows,
    );
    print_table(
        "Figure 8 — at teardown: final write-back (s) and calls shipped",
        &["5ms", "10ms", "20ms", "40ms", "80ms"],
        &teardown,
    );
    let mut saved: Vec<&Row> = rows.iter().collect();
    saved.extend(&teardown);
    save_json("fig8_postmark_wan", &saved);

    let nfs = &rows[0].cells;
    let sgfs = &rows[1].cells;
    println!("\nshape checks (paper expectation):");
    println!(
        "  nfs-v3 growth 5→80ms: {:.1}x (paper: ~linear in RTT, large)",
        nfs[4].1 / nfs[0].1
    );
    println!(
        "  sgfs growth 5→80ms:   {:.2}x (paper: very slow decrease in performance)",
        sgfs[4].1 / sgfs[0].1
    );
    println!(
        "  speedup at 80ms:      {:.1}x (paper: about two-fold)",
        nfs[4].1 / sgfs[4].1
    );
}
