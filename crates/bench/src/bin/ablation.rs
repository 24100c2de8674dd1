//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Client-proxy disk cache** on/off for SGFS on a 40 ms WAN — where
//!    does the wide-area win come from?
//! 2. **Read-ahead ceiling** for SGFS on a cold sequential scan over a
//!    40 ms WAN — how many round trips does the client proxy hide, and
//!    does the default match the best explicit ceiling?
//! 3. **Rekey frequency** — what does the paper's periodic session-key
//!    renegotiation cost at different intervals?

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_bench::{mean_std, print_table, s, save_json, Row, RunOpts};
use sgfs_workloads::postmark::{self, PostmarkConfig};
use std::time::Duration;

fn main() {
    let opts = RunOpts::parse();
    let world = GridWorld::new();

    // ---- 1. disk cache on/off over the WAN -------------------------------
    let pm = if opts.quick {
        PostmarkConfig { dirs: 10, files: 50, transactions: 100, ..Default::default() }
    } else {
        PostmarkConfig { dirs: 50, files: 250, transactions: 500, ..Default::default() }
    };
    let mut rows = Vec::new();
    for (label, disk_cache) in [("sgfs no-cache", false), ("sgfs disk-cache", true)] {
        let mut totals = Vec::new();
        for _ in 0..opts.runs {
            let mut params = SessionParams::wan(
                SetupKind::Sgfs(SecurityLevel::StrongCipher),
                Duration::from_millis(40),
            );
            if !disk_cache {
                params.disk_cache_dir = None;
            }
            let mut session = Session::build(&world, &params).expect("setup");
            let clock = session.clock().clone();
            let res = postmark::run(&mut session.mount, &clock, &pm).expect("postmark");
            totals.push(s(res.total));
            session.finish().expect("teardown");
        }
        let (m, sd) = mean_std(&totals);
        rows.push(Row { label: label.into(), cells: vec![("postmark@40ms".into(), m, sd)] });
        eprintln!("  {label}: {m:.1}s");
    }
    print_table(
        "Ablation 1 — client-proxy disk cache (PostMark, 40 ms WAN)",
        &["postmark@40ms"],
        &rows,
    );
    save_json("ablation_cache", &rows);

    // ---- 2. read-ahead ceiling on a cold sequential scan over the WAN ------
    let scan_bytes = if opts.quick { 2 << 20 } else { 8 << 20 };
    let mut rows = Vec::new();
    for ceiling in [Some(0u32), Some(2), Some(4), Some(8), None] {
        let mut totals = Vec::new();
        for _ in 0..opts.runs {
            let mut params = SessionParams::wan(
                SetupKind::Sgfs(SecurityLevel::AeadCipher),
                Duration::from_millis(40),
            );
            params.readahead = ceiling;
            let mut session = Session::build(&world, &params).expect("setup");
            let clock = session.clock().clone();
            // Preload a file on the server, scan it once (cold).
            {
                use sgfs_vfs::UserContext;
                let root = UserContext::root();
                let vfs = session.server().vfs();
                let gfs = vfs.resolve("/GFS", &root).expect("export");
                let f = vfs.create(gfs.ino, "scan.bin", 0o644, false, &root).expect("create");
                vfs.write(f.ino, 0, &vec![5u8; scan_bytes], &root).expect("preload");
            }
            let t0 = clock.now();
            let read = session.mount.read_file("/scan.bin").expect("scan");
            assert_eq!(read.len(), scan_bytes);
            totals.push(s(clock.now() - t0));
            session.finish().expect("teardown");
        }
        let (m, sd) = mean_std(&totals);
        let label = ceiling.map_or("default".into(), |c| format!("ceiling={c}"));
        eprintln!("  {label}: {m:.2}s");
        rows.push(Row { label, cells: vec![("seq scan".into(), m, sd)] });
    }
    print_table(
        "Ablation 2 — read-ahead ceiling (sgfs-gcm cold sequential scan, 40 ms WAN)",
        &["seq scan"],
        &rows,
    );
    save_json("ablation_readahead", &rows);

    // ---- 3. rekey frequency -----------------------------------------------
    let mut rows = Vec::new();
    for (label, every) in [("no rekey", None), ("rekey/200", Some(200u64)), ("rekey/50", Some(50))] {
        let mut totals = Vec::new();
        for _ in 0..opts.runs {
            let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::StrongCipher));
            params.rekey_every = every;
            let mut session = Session::build(&world, &params).expect("setup");
            let clock = session.clock().clone();
            let t0 = clock.now();
            for i in 0..200 {
                session
                    .mount
                    .write_file(&format!("/rk{i}"), &vec![1u8; 8 * 1024])
                    .expect("write");
            }
            totals.push(s(clock.now() - t0));
            session.finish().expect("teardown");
        }
        let (m, sd) = mean_std(&totals);
        rows.push(Row { label: label.into(), cells: vec![("200 writes".into(), m, sd)] });
        eprintln!("  {label}: {m:.2}s");
    }
    print_table("Ablation 3 — periodic session rekey cost (LAN)", &["200 writes"], &rows);
    save_json("ablation_rekey", &rows);
}
