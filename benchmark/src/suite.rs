//! `suite`: every workload in its own child process (so set-up time, peak
//! memory and CPU are per workload), end to end and then per layer, merged
//! into `result.json`. `selfcheck`: the end-to-end set twice on the same
//! build, compared against the bounds `BENCHMARK.json` fixes.

use crate::manifest::manifest;
use crate::report::{self, RunResult};
use crate::workloads::Workload;
use crate::Args;
use std::process::Command;
use std::time::Instant;

#[derive(serde::Serialize)]
struct SuiteResult {
    seed: u64,
    quick: bool,
    nproc: u64,
    transport: String,
    wall_s: f64,
    runs: Vec<RunResult>,
}

/// Run one workload in a child process and read back what it saved.
fn child(args: &Args, workload: Workload, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
    ])
    .args(["--seconds", &args.seconds.to_string()])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--out")
    .arg(&args.out);
    if args.quick {
        cmd.arg("--quick");
    }
    // The child's own report goes to the terminal; the merged one follows.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let saved = args
        .out
        .join(format!("run-{}-t{}.json", workload.name(), traced as u8));
    let text = std::fs::read_to_string(&saved)
        .map_err(|e| format!("{} left no {}: {e}", workload.name(), saved.display()))?;
    let run: RunResult =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", saved.display()))?;
    if !status.success() && run.failed == 0 {
        return Err(format!("{} exited with {status}", workload.name()));
    }
    Ok(run)
}

fn selected(args: &Args) -> Vec<Workload> {
    Workload::ALL
        .into_iter()
        .filter(|w| args.workload.is_none_or(|only| only == *w))
        .collect()
}

fn run_set(args: &Args, traced: bool) -> Result<Vec<RunResult>, String> {
    selected(args)
        .into_iter()
        .map(|w| child(args, w, traced))
        .collect()
}

fn print_failures(runs: &[RunResult]) -> u64 {
    let mut failed = 0;
    for r in runs {
        println!(
            "  {:<14} {} failed_frac {} ({} of {} calls)",
            r.workload,
            if r.traced { "per-layer " } else { "end-to-end" },
            r.failed_frac(),
            r.failed,
            r.attempted
        );
        for w in &r.warnings {
            println!("  warning: {}: {w}", r.workload);
        }
        failed += r.failed;
    }
    failed
}

/// The budget of one call, from outside: what the probes can explain of
/// the measured median, per call kind. A remote call costs the codec, the
/// record layer on both proxies, seal + open on both proxies, and the
/// server proxy (whose probe includes `nfsd` and `vfs` beneath it); the
/// remainder — thread hand-offs and queue waits — is `unexplained`.
/// `r` is the run whose calls are budgeted, `probed` the one that ran
/// the probes.
pub fn print_budget(r: &RunResult, probed: &RunResult) {
    let probe = |name: &str| probed.metric(name).map_or(0.0, |m| m.value);
    let mib_ns = |name: &str| 32.0 * 1024.0 / (1024.0 * 1024.0) / probe(name) * 1e9;
    let small = [
        probe("nfs3.getattr_codec_ns"),
        2.0 * 2.0 * probe("oncrpc.record_small_ns"),
        2.0 * probe("gtls.seal_open_small_ns.aes256gcm"),
        probe("proxy.server.getattr_ns"),
    ];
    let bulk_crypto = mib_ns("gtls.seal_mb_s.aes256gcm")
        + mib_ns("gtls.open_mb_s.aes256gcm")
        + probe("gtls.seal_open_small_ns.aes256gcm");
    let bulk_record = 2.0 * (probe("oncrpc.record_small_ns") + probe("oncrpc.record_32k_ns"));
    let bulk_read = [
        probe("nfs3.read_codec_32k_ns"),
        bulk_record,
        bulk_crypto,
        probe("proxy.server.read_32k_ns"),
    ];
    // No server-proxy WRITE probe: nfsd's stands in (the proxy forwards it).
    let bulk_write = [
        probe("nfs3.write_codec_32k_ns"),
        bulk_record,
        bulk_crypto,
        probe("nfsd.write_32k_ns"),
    ];
    println!(
        "-- budget from outside: {} (us per call; probes x rpcs/op) --",
        r.workload
    );
    println!(
        "  {:<12} {:>8} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>11}",
        "call",
        "rpcs/op",
        "codec",
        "record",
        "crypto",
        "server",
        "explained",
        "measured",
        "unexplained"
    );
    for k in &r.kinds {
        let stream = r.workload == Workload::LanStream.name();
        let per_rpc = match k.kind.as_str() {
            "read" if stream => bulk_read,
            "fsync" if stream => bulk_write,
            _ => small,
        };
        let parts = per_rpc.map(|ns| ns * k.rpcs_per_op / 1e3);
        let explained: f64 = parts.iter().sum();
        println!(
            "  {:<12} {:>8.2} {:>8.1} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>10.1} {:>11.1}",
            k.kind,
            k.rpcs_per_op,
            parts[0],
            parts[1],
            parts[2],
            parts[3],
            explained,
            k.p50_us,
            k.p50_us - explained
        );
    }
}

fn suite(args: &Args) -> Result<u64, String> {
    let started = Instant::now();
    let mut runs = run_set(args, false)?;
    runs.extend(run_set(args, true)?);

    println!(
        "\n==== merged: seed {}, nproc {}, {} ====",
        args.seed,
        crate::nproc(),
        crate::TRANSPORT
    );
    let probed = runs
        .iter()
        .find(|r| r.traced && r.workload == crate::PROBED.name());
    for r in runs.iter().filter(|r| !r.traced) {
        report::print_run(r);
    }
    for r in runs.iter().filter(|r| r.traced) {
        println!("== {} per-layer counters and trace ==", r.workload);
        r.metrics
            .iter()
            .skip(crate::probes::COUNT)
            .for_each(report::print_metric);
    }
    if let Some(probed) = probed {
        println!("== probes ==");
        probed
            .metrics
            .iter()
            .take(crate::probes::COUNT)
            .for_each(report::print_metric);
        for name in [Workload::LanSmallfile.name(), Workload::LanStream.name()] {
            if let Some(r) = runs.iter().find(|r| r.traced && r.workload == name) {
                print_budget(r, probed);
            }
        }
    }
    println!("== outputs checked ==");
    let failed = print_failures(&runs);

    let merged = SuiteResult {
        seed: args.seed,
        quick: args.quick,
        nproc: crate::nproc(),
        transport: crate::TRANSPORT.into(),
        wall_s: started.elapsed().as_secs_f64(),
        runs,
    };
    let path = args.out.join("result.json");
    let json = serde_json::to_string_pretty(&merged).map_err(|e| e.to_string())?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("[{} written; {:.0} s]", path.display(), merged.wall_s);
    Ok(failed)
}

/// The end-to-end set twice on the same build, the second with the next
/// seed. Per metric and workload it prints both values and by how much
/// the second is worse; worse by more than the metric's bound fails.
fn selfcheck(args: &Args) -> Result<u64, String> {
    let first = run_set(args, false)?;
    let second = run_set(
        &Args {
            seed: args.seed + 1,
            ..args.clone()
        },
        false,
    )?;
    println!(
        "\n==== selfcheck: every workload twice, seeds {} and {} ====",
        args.seed,
        args.seed + 1
    );
    println!(
        "  {:<14} {:<14} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "run 1", "run 2", "worse", "bound"
    );
    let mut disagreements = 0;
    for (a, b) in first.iter().zip(&second) {
        for d in &manifest().end_to_end {
            let value = |r: &RunResult| {
                r.metric(&d.name)
                    .map(|m| m.value)
                    .ok_or_else(|| format!("{} did not report {}", r.workload, d.name))
            };
            let (x, y) = (value(a)?, value(b)?);
            let worse = d.worsening(x, y);
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let verdict = if worse > bound {
                disagreements += 1;
                "  BEYOND BOUND"
            } else {
                ""
            };
            println!(
                "  {:<14} {:<14} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%{verdict}",
                a.workload,
                d.name,
                x,
                y,
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    let all: Vec<RunResult> = first.into_iter().chain(second).collect();
    let failed = print_failures(&all);
    if disagreements > 0 {
        println!("{disagreements} metric(s) beyond their bound between identical builds");
    }
    Ok(failed + disagreements)
}

pub fn run(args: &Args, check: bool) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return 2;
    }
    match if check { selfcheck(args) } else { suite(args) } {
        Ok(0) => 0,
        Ok(_) => 1,
        Err(e) => {
            eprintln!("{e}");
            2
        }
    }
}
