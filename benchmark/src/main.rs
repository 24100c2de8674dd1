//! The SGFS benchmark. One process measures one workload:
//!
//! ```text
//! sgfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace 1`
//! prints the per-layer metrics (public counters of an untraced stretch, a
//! traced stretch with `sgfs-obs` on, and — on `lan_smallfile` — the
//! single-layer probes). The last line of standard output is the JSON
//! result. `suite` and `selfcheck` run every workload in child processes
//! and merge the results — see `README.md`.

mod bench;
mod exec;
mod gen;
mod manifest;
mod measure;
mod nohalt;
mod probes;
mod report;
mod suite;
mod trace;
mod workloads;

use bench::{run_segment, Metric, Segment};
use report::RunResult;
use sgfs_obs::Obs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{Env, Sizes, Workload};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 2007;
/// `setup_s` is the median of the set-ups of an end-to-end run: at least
/// three, then more for as long as they have taken less than two seconds
/// together. A quick set-up is mostly key generation, whose time scatters
/// ±30 %; those get a median over many.
const SETUPS: (usize, usize) = (3, 25);
const SETUP_TIME: f64 = 2.0;
/// Fewest timed rounds a median is taken over.
const MIN_ROUNDS: usize = 3;
/// Calls between two drains of the obs rings in the traced stretch. A
/// ring holds 16 Ki events per thread and a call emits about ten; a
/// drain copies and sorts every retained event, so it must stay rare.
const TRACE_CHUNK: usize = 1024;
pub const TRANSPORT: &str = "in-memory sgfs-net pipes";
/// The workload whose per-layer run also runs the single-layer probes:
/// they do not depend on the workload, so one run of them is enough.
pub const PROBED: Workload = Workload::LanSmallfile;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: sgfs-benchmark [suite|selfcheck] [--workload <name>] [--seed <n>] \
         [--seconds <s>] [--trace <0|1>] [--quick] [--out <dir>]\n\
         workloads: {}",
        Workload::ALL.map(Workload::name).join(" ")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(value()).unwrap_or_else(|| usage()))
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => args.trace = value() != "0",
            "--out" => args.out = PathBuf::from(value()),
            "--quick" => args.quick = true,
            _ => usage(),
        }
    }
    // A smoke run only has to get through every code path once.
    args.seconds = seconds.unwrap_or(if args.quick {
        0.5
    } else {
        manifest::manifest().run_seconds as f64
    });
    args
}

/// CPUs the process was given; first asked before it confines itself.
pub fn nproc() -> u64 {
    measure::given_cpus().len() as u64
}

/// `GridWorld::new`, `Session::build`, preload and one warm-up round.
/// Returns the environment, the set-up's wall seconds, and the warm-up's
/// `(attempted, failed)`.
fn set_up(
    args: &Args,
    epoch: Instant,
    obs: Option<std::sync::Arc<Obs>>,
    n: u64,
) -> (Env, f64, (u64, u64)) {
    let workload = args.workload.expect("a run names its workload");
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    let t = Instant::now();
    let mut env = Env::build(workload, sizes, epoch, obs);
    let mut calls = Vec::new();
    let warm = env.warm_up(args.seed, n, &mut calls);
    (
        env,
        t.elapsed().as_secs_f64(),
        (calls.len() as u64, warm.failed),
    )
}

struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn segment(&mut self, seg: &Segment) {
        self.add((seg.attempted(), seg.failed()));
    }
}

fn min_rounds(args: &Args) -> usize {
    if args.quick {
        1
    } else {
        MIN_ROUNDS
    }
}

fn result(
    args: &Args,
    traced: bool,
    rounds: usize,
    tally: Tally,
    metrics: Vec<Metric>,
) -> RunResult {
    RunResult {
        workload: args
            .workload
            .expect("a run names its workload")
            .name()
            .into(),
        seed: args.seed,
        traced,
        quick: args.quick,
        nproc: nproc(),
        transport: format!(
            "{TRANSPORT}, {}",
            if args.workload.is_some_and(on_two_cpus) {
                "client side on one CPU, server core on another, both kept awake"
            } else {
                "one CPU"
            }
        ),
        timed_rounds: rounds as u64,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        kinds: Vec::new(),
        warnings: Vec::new(),
    }
}

/// `--trace 0`: set up several times ([`SETUPS`]), then time rounds for
/// `--seconds` with tracing off.
fn run_end_to_end(args: &Args, epoch: Instant) -> RunResult {
    let workload = args.workload.expect("a run names its workload");
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let (fewest, most) = if args.quick { (1, 1) } else { SETUPS };
    let mut setups = Vec::new();
    let mut env = None;
    while setups.len() < fewest || (setups.len() < most && setups.iter().sum::<f64>() < SETUP_TIME)
    {
        if let Some(mut previous) = env.take() {
            tally.failed += Env::teardown(&mut previous);
        }
        let (e, seconds, warm) = set_up(args, epoch, None, setups.len() as u64);
        tally.add(warm);
        setups.push(seconds);
        env = Some(e);
    }
    let mut env = env.expect("at least one set-up");
    let seg = run_segment(
        &mut env,
        args.seed,
        0,
        Duration::from_secs_f64(args.seconds),
        min_rounds(args),
        usize::MAX,
        &mut || {},
    );
    tally.failed += env.teardown();
    tally.segment(&seg);
    let metrics = bench::end_to_end(workload, &seg, &setups);
    let mut r = result(args, false, seg.rounds.len(), tally, metrics);
    r.kinds = bench::kind_rows(&seg);
    r
}

/// How a per-layer run divides `--seconds`.
struct Shares {
    /// `lan_multi`: one session alone, for `oncrpc.scale_ratio`.
    solo: f64,
    untraced: f64,
    traced: f64,
    probes: f64,
}

fn shares(workload: Workload, quick: bool) -> Shares {
    let solo = if workload == Workload::LanMulti {
        0.15
    } else {
        0.0
    };
    let probes = match (workload == PROBED, quick) {
        (false, _) => 0.0,
        (true, false) => 0.3,
        (true, true) => 0.05,
    };
    let rest = 1.0 - solo - probes;
    Shares {
        solo,
        untraced: rest * 0.55,
        traced: rest * 0.45,
        probes,
    }
}

/// Median latency of a histogram in microseconds; 0 while it is empty
/// (hops the program only emits as events have no duration).
fn p50_us(hist: &sgfs_obs::Hist) -> f64 {
    if hist.count() > 0 {
        hist.quantile(0.5) as f64 / 1e3
    } else {
        0.0
    }
}

/// The `obs.hop.*` and `obs.proc.*` metrics `BENCHMARK.json` declares,
/// read from the obs domain of a traced stretch of `rounds` rounds.
fn obs_metrics(obs: &Obs, hops: &trace::HopCounter, rounds: u64) -> Vec<Metric> {
    let mut metrics = Vec::new();
    for d in &manifest::manifest().per_layer {
        if let Some((name, field)) = d
            .name
            .strip_prefix("obs.hop.")
            .and_then(|rest| rest.rsplit_once('.'))
        {
            let hop = sgfs_obs::ALL_HOPS
                .into_iter()
                .find(|h| h.as_str() == name)
                .expect("BENCHMARK.json names hops as Hop::as_str spells them");
            let hist = obs.hop_hist(hop);
            metrics.push(match field {
                "count" => Metric::single(&d.name, hops.count(hop) as f64 / rounds as f64, rounds),
                _ => Metric::single(&d.name, p50_us(hist), hist.count()),
            });
        } else if let Some(name) = d
            .name
            .strip_prefix("obs.proc.")
            .and_then(|rest| rest.strip_suffix(".p50_us"))
        {
            let hist = (0..sgfs_obs::NUM_PROCS as u32)
                .find(|p| sgfs_obs::proc_name(*p) == name)
                .and_then(|p| obs.proc_hist(p))
                .expect("BENCHMARK.json names NFS procedures as sgfs_obs::proc_name does");
            metrics.push(Metric::single(&d.name, p50_us(hist), hist.count()));
        }
    }
    metrics
}

/// `--trace 1`: the time is split between an untraced stretch (public
/// counters, baseline rate), a traced stretch (`SessionParams.obs` set)
/// and, on [`PROBED`], the single-layer probes.
fn run_per_layer(args: &Args, epoch: Instant) -> RunResult {
    let workload = args.workload.expect("a run names its workload");
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
    };
    let shares = shares(workload, args.quick);
    let share = |f: f64| Duration::from_secs_f64(args.seconds * f);

    // --- untraced: counters are read from outside, after the fact ---
    let (mut env, _, warm) = set_up(args, epoch, None, 0);
    tally.add(warm);
    let mut scale_ratio = 0.0;
    let mut next_round = 0;
    if workload == Workload::LanMulti {
        // One of the sessions alone on the same shared shard core and pool.
        env.active_sessions = 1;
        let solo = run_segment(
            &mut env,
            args.seed,
            0,
            share(shares.solo),
            1,
            usize::MAX,
            &mut || {},
        );
        env.active_sessions = workload.sessions();
        tally.segment(&solo);
        next_round = solo.rounds.len() as u64;
        scale_ratio = measure::median(&solo.ops_per_s());
    }
    let plain = run_segment(
        &mut env,
        args.seed,
        next_round,
        share(shares.untraced),
        min_rounds(args),
        usize::MAX,
        &mut || {},
    );
    tally.failed += env.teardown();
    tally.segment(&plain);
    if scale_ratio > 0.0 {
        scale_ratio = measure::median(&plain.ops_per_s()) / scale_ratio;
    }
    // Tracing costs real time, which the WAN's SimClock drowns in round trips.
    let plain_rate = measure::median(&plain.ops_per_wall_s());

    // --- traced: same rounds, one obs domain under every session ---
    let obs = Obs::new();
    let mut hops = trace::HopCounter::new(obs.clone());
    let (mut env, _, warm) = set_up(args, epoch, Some(obs.clone()), 1);
    tally.add(warm);
    hops.reset();
    let traced = run_segment(
        &mut env,
        args.seed,
        0,
        share(shares.traced),
        1,
        TRACE_CHUNK,
        &mut || hops.drain(),
    );
    tally.failed += env.teardown();
    hops.drain();
    tally.segment(&traced);
    let traced_rate = measure::median(&traced.ops_per_wall_s());
    let trace_path = args.out.join(format!("trace-{}.json", workload.name()));
    if let Err(e) = trace::write(&trace_path, workload.name(), args.seed, 0, &traced, &hops) {
        eprintln!("cannot write {}: {e}", trace_path.display());
        tally.failed += 1;
    }

    // --- probes: each layer alone, on one thread; elsewhere they read 0 ---
    let mut metrics = if workload == PROBED {
        probes::run_all(share(shares.probes), args.seed, &args.out)
    } else {
        manifest::manifest().per_layer[..probes::COUNT]
            .iter()
            .map(|d| Metric::single(&d.name, 0.0, 0))
            .collect()
    };
    metrics.extend(bench::layer_counters(workload, &plain));
    let n = plain.attempted();
    metrics.push(Metric::single("oncrpc.scale_ratio", scale_ratio, n));
    metrics.push(Metric::single(
        "obs.trace_overhead_frac",
        1.0 - traced_rate / plain_rate,
        traced.attempted(),
    ));
    metrics.extend(obs_metrics(&obs, &hops, traced.rounds.len() as u64));
    metrics.push(Metric::single(
        "failed_frac",
        tally.failed as f64 / tally.attempted as f64,
        tally.attempted,
    ));

    let mut r = result(args, true, plain.rounds.len(), tally, metrics);
    r.kinds = bench::kind_rows(&plain);
    for name in ["proxy.client.retries", "oncrpc.shard.shed"] {
        if r.metric(name).is_some_and(|m| m.value > 0.0) {
            r.warnings
                .push(format!("{name} > 0 on an unloaded workload"));
        }
    }
    r
}

/// Several callers keep a client CPU and a server CPU busy; see [`place`].
fn on_two_cpus(workload: Workload) -> bool {
    workload.sessions() > 1
}

/// Put the process where its workload runs, before any thread exists.
///
/// A workload with one caller has one runnable thread at any instant: the
/// program hands each RPC from thread to thread. It gets one CPU, where a
/// hand-off is a context switch and runs repeat to a few percent; what it
/// measures is work per core. On two CPUs the same calls cost twice the
/// CPU time (every hand-off is then a wake-up on the other CPU) and, with
/// both vCPUs busy, their speed follows wherever the host puts them:
/// sets of ten identical `lan_smallfile` runs half an hour apart read
/// 8.6 k and 7.3 k `ops_s` (on one CPU: 17.9 k and 18.0 k).
///
/// A workload with several callers has work for two CPUs at once. Left to
/// the scheduler, its threads settle into one of three placements for
/// seconds at a time and identical `lan_multi` rounds take 0.07, 0.22 or
/// 0.45 s inside one run. So the process still starts on one CPU — callers,
/// client proxies and client pool stay there — and `Env::build` constructs
/// the shared server core on another: the paper's two hosts. Every RPC
/// crosses CPUs twice, nothing is left to placement, and [`nohalt`] keeps
/// both CPUs awake.
fn place(workload: Workload) -> Option<nohalt::NoHalt> {
    let awake = on_two_cpus(workload).then(nohalt::NoHalt::start);
    let pinned = measure::given_cpus()
        .last()
        .is_some_and(|cpu| measure::pin_self_to(*cpu));
    if !pinned {
        eprintln!("warning: cannot pin to one CPU; wall-clock metrics will be noisier");
    }
    awake
}

fn run_one(args: &Args, epoch: Instant) -> i32 {
    let workload = args.workload.unwrap_or_else(|| usage());
    // SessionParams::wan spools the proxy disk cache under temp_dir();
    // keep that inside the benchmark's own output directory.
    let tmp = args.out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return 2;
    }
    std::env::set_var("TMPDIR", std::path::absolute(&tmp).unwrap_or(tmp.clone()));

    let awake = place(workload);
    let r = if args.trace {
        run_per_layer(args, epoch)
    } else {
        run_end_to_end(args, epoch)
    };
    drop(awake);
    let _ = std::fs::remove_dir_all(&tmp);
    // The result must carry exactly the metrics BENCHMARK.json declares.
    let declared = if args.trace {
        &manifest::manifest().per_layer
    } else {
        &manifest::manifest().end_to_end
    };
    if !r
        .metrics
        .iter()
        .map(|m| &m.name)
        .eq(declared.iter().map(|d| &d.name))
    {
        eprintln!("the metrics reported differ from those BENCHMARK.json declares");
        return 2;
    }

    report::print_run(&r);
    if args.trace && workload == PROBED {
        suite::print_budget(&r, &r);
    }
    let saved = args.out.join(format!(
        "run-{}-t{}.json",
        workload.name(),
        args.trace as u8
    ));
    match serde_json::to_string_pretty(&r) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&saved, json) {
                eprintln!("cannot write {}: {e}", saved.display());
            }
        }
        Err(e) => eprintln!("cannot serialize the result: {e}"),
    }
    println!("{}", report::result_line(&r));
    if r.failed > 0 {
        eprintln!("{} of {} operations failed", r.failed, r.attempted);
        return 1;
    }
    0
}

fn main() {
    let epoch = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("suite") => suite::run(&parse_args(&argv[1..]), false),
        Some("selfcheck") => suite::run(&parse_args(&argv[1..]), true),
        // A helper of `nohalt`, not for the command line.
        Some("spin") => match argv.get(1).and_then(|cpu| cpu.parse().ok()) {
            Some(cpu) => nohalt::spin(cpu),
            None => usage(),
        },
        _ => run_one(&parse_args(&argv), epoch),
    };
    std::process::exit(code);
}
