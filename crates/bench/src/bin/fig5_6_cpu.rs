//! Figures 5 & 6: client- and server-side proxy/daemon CPU utilization
//! during the IOzone run.
//!
//! The paper samples each proxy's user CPU time every 5 seconds. Here a
//! sampler thread records each proxy's cumulative busy time while IOzone
//! runs, and the binary reports the average and peak utilization per
//! setup. Paper shape: client side — gfs under 1%, sgfs-sha ~5%,
//! sgfs-rc/aes ~8%; server side — gfs 0.3%, sgfs-sha 1.5%, sgfs-rc 3.6%;
//! SFS's daemons above 30% on both sides.

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, SetupKind};
use sgfs_bench::{lan_session, print_table, save_json, Row, RunOpts};
use sgfs_workloads::iozone::{self, IozoneConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One sampler reading: simulated time, then the client and the server
/// proxy's cumulative busy time.
type Sample = (Duration, Duration, Duration);

/// Peak utilization percentage of the proxy `busy` selects: the largest
/// `100 · Δbusy / Δt` over consecutive samples.
fn peak_pct(samples: &[Sample], busy: impl Fn(&Sample) -> Duration) -> f64 {
    samples
        .windows(2)
        .map(|w| {
            let dt = w[1].0.saturating_sub(w[0].0);
            let db = busy(&w[1]).saturating_sub(busy(&w[0]));
            if dt.is_zero() {
                0.0
            } else {
                100.0 * db.as_secs_f64() / dt.as_secs_f64()
            }
        })
        .fold(0.0f64, f64::max)
}

fn main() {
    let opts = RunOpts::parse();
    let world = GridWorld::new();
    let cache = opts.mem_cache();
    let cfg = IozoneConfig::for_cache(cache);
    println!(
        "Proxy CPU utilization during IOzone (file {} MB): paper Figures 5 (client) and 6 (server)",
        cfg.file_size >> 20
    );

    let setups = vec![
        SetupKind::Gfs,
        SetupKind::Sgfs(SecurityLevel::IntegrityOnly),
        SetupKind::Sgfs(SecurityLevel::MediumCipher),
        SetupKind::Sgfs(SecurityLevel::StrongCipher),
        SetupKind::Sgfs(SecurityLevel::AeadCipher),
        SetupKind::Sfs,
    ];

    let mut rows = Vec::new();
    for kind in setups {
        let mut session = lan_session(&world, kind, cache);
        iozone::preload(session.server().vfs(), &cfg);
        let clock = session.clock().clone();
        let client_stats = session.client_proxy_stats().expect("proxied setup").clone();
        let server_stats = session.server_proxy().expect("proxied setup").stats().clone();

        // Sampler: (sim time, client busy, server busy) in 100 ms
        // real-time buckets over the run.
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (stop, clock) = (stop.clone(), clock.clone());
            let (cs, ss) = (client_stats.clone(), server_stats.clone());
            std::thread::spawn(move || {
                let mut samples: Vec<Sample> = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    samples.push((clock.now(), cs.busy(), ss.busy()));
                    std::thread::sleep(Duration::from_millis(100));
                }
                samples
            })
        };

        let t0 = clock.now();
        let res = iozone::run(&mut session.mount, &clock, &cfg).expect("iozone");
        let elapsed = (clock.now() - t0).as_secs_f64();
        stop.store(true, Ordering::Release);
        let samples = sampler.join().expect("sampler");

        let avg = |stats: &sgfs_obs::Emitter| 100.0 * stats.busy().as_secs_f64() / elapsed;
        rows.push(Row {
            label: kind.label().to_string(),
            cells: vec![
                ("client avg%".into(), avg(&client_stats), 0.0),
                ("client peak%".into(), peak_pct(&samples, |s| s.1), 0.0),
                ("server avg%".into(), avg(&server_stats), 0.0),
                ("server peak%".into(), peak_pct(&samples, |s| s.2), 0.0),
            ],
        });
        eprintln!("  {} done ({:.1}s runtime, {} samples)", kind.label(),
            res.total.as_secs_f64(), samples.len());
        session.finish().expect("teardown");
    }

    print_table(
        "Figures 5+6 — proxy/daemon CPU utilization during IOzone",
        &["client avg%", "client peak%", "server avg%", "server peak%"],
        &rows,
    );
    save_json("fig5_6_cpu", &rows);
    println!("\npaper shape: client gfs <1%, sha ~5%, rc/aes ~8%; server gfs 0.3%,");
    println!("sha 1.5%, rc 3.6%; sfs >30% both sides. Expect the same ordering here");
    println!("(gfs lowest, utilization rising with cipher strength; sfs's daemon");
    println!("doing caching + read-ahead work is the busiest).");
}
