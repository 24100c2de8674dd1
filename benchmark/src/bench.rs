//! Running rounds for a stretch of time and turning what they recorded
//! into named metrics.
//!
//! Every duration behind an end-to-end metric is read off the session's
//! `SimClock`. On the LAN workloads that clock adds nothing (no latency,
//! free hops), so the numbers are wall time of the real program; on the
//! WAN workloads it adds the emulated round trips and the calibrated hop
//! charges, which dominate.

use crate::exec::Sample;
use crate::gen::{Kind, Phase};
use crate::manifest::unit_of;
use crate::measure::{self, median, percentile, quartiles};
use crate::workloads::{Counters, Env, Round, Workload};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;
/// `peak_rss_mb` is the median high-water mark of the first this-many
/// timed rounds, each starting from a reset mark. One reading of a small
/// process moves 20 % with the allocator's mood; and a run that fits
/// more rounds into its time must not look fatter for it.
const RSS_ROUNDS: usize = 10;

/// One reported number. Medians over rounds carry their quartiles and the
/// number of rounds; pooled latencies carry the number of calls.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: u64,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    /// A metric declared in the manifest (which fixes its unit). A value
    /// that is not a finite number is reported as 0.
    pub fn single(name: &str, value: f64, samples: u64) -> Metric {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name: name.into(),
            value,
            unit: unit_of(name).into(),
            samples,
            q1: value,
            q3: value,
        }
    }

    pub fn median_of(name: &str, values: &[f64]) -> Metric {
        let (q1, q3) = quartiles(values);
        Metric {
            samples: values.len() as u64,
            q1,
            q3,
            ..Metric::single(name, median(values), 0)
        }
    }
}

/// A stretch of consecutive timed rounds in one environment.
pub struct Segment {
    pub rounds: Vec<Round>,
    pub samples: Vec<Sample>,
    /// Counter movement over the stretch.
    pub counters: Counters,
}

/// Run rounds `first_round..` until `budget` wall time has passed, but at
/// least `min_rounds`. `pause` runs between chunks of `chunk` calls with
/// the clocks stopped.
pub fn run_segment(
    env: &mut Env,
    seed: u64,
    first_round: u64,
    budget: Duration,
    min_rounds: usize,
    chunk: usize,
    pause: &mut (dyn FnMut() + Send),
) -> Segment {
    let before = env.counters();
    let started = Instant::now();
    let mut seg = Segment {
        rounds: Vec::new(),
        samples: Vec::new(),
        counters: before,
    };
    while seg.rounds.len() < min_rounds || started.elapsed() < budget {
        let round = first_round + seg.rounds.len() as u64;
        seg.rounds
            .push(env.round(seed, round, &mut seg.samples, chunk, pause));
    }
    seg.counters = env.counters().since(&before);
    seg
}

impl Segment {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.rounds.iter().map(|r| r.failed).sum()
    }

    fn per_round(&self, f: impl Fn(&Round, &[Sample]) -> f64) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| f(r, &self.samples[r.samples.clone()]))
            .collect()
    }

    /// `NfsMount` calls per `SimClock` second, one value per round.
    pub fn ops_per_s(&self) -> Vec<f64> {
        self.per_round(|r, s| s.len() as f64 / r.sim_s)
    }

    /// `NfsMount` calls per wall second, one value per round.
    pub fn ops_per_wall_s(&self) -> Vec<f64> {
        self.per_round(|r, s| s.len() as f64 / r.wall_s)
    }

    /// The `p`-th percentile of each round's `SimClock` call latencies, in
    /// microseconds. Taken per round, not pooled: the scheduler keeps one
    /// placement of the program's threads for rounds at a time, and a
    /// pooled percentile lands wherever the mix of placements puts it.
    fn latency_percentiles(&self, p: f64) -> Vec<f64> {
        self.per_round(|_, s| {
            let mut lat: Vec<u64> = s.iter().map(|c| c.sim_ns).collect();
            lat.sort_unstable();
            percentile(&lat, p) as f64 / 1e3
        })
    }

    /// Pooled, sorted `SimClock` latencies in nanoseconds.
    pub fn latencies(&self, keep: impl Fn(&Sample) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.sim_ns)
            .collect();
        v.sort_unstable();
        v
    }
}

fn payload_mib(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> f64 {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.bytes as f64)
        .sum::<f64>()
        / MIB
}

fn seconds_in(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> f64 {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.sim_ns as f64)
        .sum::<f64>()
        / 1e9
}

/// `(read, write)` payload MiB per second, one pair per round.
///
/// Stream workloads have phases, so each rate is payload over the time
/// inside that phase's calls: reads are both passes on the LAN (LRU never
/// helps, they cost the same) but only the cold pass on the WAN (the warm
/// one is the proxy disk cache's, reported per layer); writes include
/// what makes them durable — fsync and close, plus on the WAN the
/// session's final write-back. Small-file workloads interleave
/// everything, so their rates are payload over the whole round.
fn throughputs(workload: Workload, seg: &Segment) -> (Vec<f64>, Vec<f64>) {
    let reads = seg.per_round(|r, s| match workload {
        Workload::LanStream => {
            let both = |c: &Sample| matches!(c.phase, Phase::Read | Phase::Reread);
            payload_mib(s, both) / seconds_in(s, both)
        }
        Workload::WanStream => {
            let cold = |c: &Sample| c.phase == Phase::Read;
            payload_mib(s, cold) / seconds_in(s, cold)
        }
        _ => payload_mib(s, |c| c.kind == Kind::ReadFile) / r.sim_s,
    });
    let writes = seg.per_round(|r, s| match workload {
        Workload::LanStream | Workload::WanStream => {
            let phase = |c: &Sample| c.phase == Phase::Write;
            payload_mib(s, phase) / (seconds_in(s, phase) + r.writeback_sim_s)
        }
        _ => payload_mib(s, |c| matches!(c.kind, Kind::WriteFile | Kind::Pwrite)) / r.sim_s,
    });
    (reads, writes)
}

/// The end-to-end metrics of an untraced stretch, `setup_s` included.
pub fn end_to_end(workload: Workload, seg: &Segment, setups: &[f64]) -> Vec<Metric> {
    let (reads, writes) = throughputs(workload, seg);
    let sim: Vec<f64> = seg.rounds.iter().map(|r| r.sim_s).collect();
    let rss: Vec<f64> = seg
        .rounds
        .iter()
        .take(RSS_ROUNDS)
        .map(|r| r.peak_rss_mb)
        .collect();
    vec![
        Metric::median_of("setup_s", setups),
        Metric::median_of("ops_s", &seg.ops_per_s()),
        Metric::median_of("op_p50_us", &seg.latency_percentiles(50.0)),
        Metric::median_of("op_p95_us", &seg.latency_percentiles(95.0)),
        Metric::median_of("read_mb_s", &reads),
        Metric::median_of("write_mb_s", &writes),
        Metric::median_of("sim_runtime_s", &sim),
        Metric::median_of("peak_rss_mb", &rss),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer counters of an untraced stretch (names as in the README).
/// Counts are per round unless the name says per op.
pub fn layer_counters(workload: Workload, seg: &Segment) -> Vec<Metric> {
    let c = &seg.counters;
    let rounds = seg.rounds.len() as f64;
    let calls = seg.samples.len() as f64;
    let payload: f64 = seg.samples.iter().map(|s| s.bytes as f64).sum();
    let lat = seg.latencies(|_| true);
    let ctx: u64 = seg.rounds.iter().map(|r| r.ctx_switches).sum();
    let walls: Vec<f64> = seg.rounds.iter().map(|r| r.wall_s).collect();
    let (user, system) = seg.rounds.iter().fold((0.0, 0.0), |(u, s), r| {
        (u + r.cpu_split_s.0, s + r.cpu_split_s.1)
    });
    let cpu: Vec<f64> = seg.rounds.iter().map(|r| r.cpu_s).collect();
    let warm = seg.per_round(|_, s| {
        let warm = |c: &Sample| c.phase == Phase::Reread;
        payload_mib(s, warm) / seconds_in(s, warm)
    });
    let n = lat.len() as u64;
    let metric = |name: &str, v: f64| Metric::single(name, v, n);
    vec![
        metric("nfsclient.rpcs_per_op", ratio(c.rpcs as f64, calls)),
        metric(
            "nfsclient.mem_hit_ratio",
            ratio(c.page_hits as f64, (c.page_hits + c.page_misses) as f64),
        ),
        metric("proxy.client.busy_s", c.client_busy_s / rounds),
        metric("proxy.client.msgs", c.client_msgs as f64 / rounds),
        metric(
            "proxy.client.meta_hit_ratio",
            ratio(c.meta_hits as f64, (c.meta_hits + c.meta_misses) as f64),
        ),
        metric(
            "proxy.client.prefetch_hits",
            c.prefetch_hits as f64 / rounds,
        ),
        metric("proxy.client.pipeline_peak", c.pipeline_peak as f64),
        metric(
            "proxy.client.record_alloc_bytes",
            c.record_alloc_bytes as f64 / rounds,
        ),
        metric(
            "proxy.client.journal_appends",
            c.journal_appends as f64 / rounds,
        ),
        metric("proxy.client.retries", c.retries as f64),
        metric("proxy.client.writeback_sim_s", c.writeback_sim_s / rounds),
        metric(
            "proxy.client.writeback_bytes",
            c.writeback_bytes as f64 / rounds,
        ),
        if workload == Workload::WanStream {
            Metric::median_of("proxy.client.warm_reread_mb_s", &warm)
        } else {
            metric("proxy.client.warm_reread_mb_s", 0.0)
        },
        metric("proxy.server.busy_s", c.server_busy_s / rounds),
        metric("proxy.server.msgs", c.server_msgs as f64 / rounds),
        metric("net.link.msgs_per_op", ratio(c.link_msgs as f64, calls)),
        metric(
            "net.link.wire_bytes_per_payload_byte",
            ratio(c.link_bytes as f64, payload),
        ),
        metric("oncrpc.shard.served", c.shard_served as f64 / rounds),
        metric("oncrpc.shard.shed", c.shard_shed as f64),
        metric("oncrpc.shard.backlog_hwm", c.shard_backlog_hwm as f64),
        metric("client.op_p99_us", percentile(&lat, 99.0) as f64 / 1e3),
        metric(
            "client.op_max_us",
            lat.last().copied().unwrap_or(0) as f64 / 1e3,
        ),
        metric(
            "proc.threads",
            seg.rounds.iter().map(|r| r.threads).max().unwrap_or(0) as f64,
        ),
        metric("proc.ctx_switches_per_op", ratio(ctx as f64, calls)),
        Metric::median_of("proc.cpu_s", &cpu),
        metric("proc.sys_frac", ratio(system, user + system)),
        Metric::median_of("proc.wall_s", &walls),
    ]
}

/// Per call kind: how many, median latency, RPCs per call.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct KindRow {
    pub kind: String,
    pub calls: u64,
    pub p50_us: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail_percentile: f64,
    pub tail_us: f64,
    pub rpcs_per_op: f64,
    pub payload_bytes_per_op: f64,
}

pub fn kind_rows(seg: &Segment) -> Vec<KindRow> {
    Kind::ALL
        .into_iter()
        .filter_map(|kind| {
            let lat = seg.latencies(|s| s.kind == kind);
            if lat.is_empty() {
                return None;
            }
            let of_kind = || seg.samples.iter().filter(move |s| s.kind == kind);
            let rpcs: u64 = of_kind().map(|s| s.rpcs as u64).sum();
            let bytes: u64 = of_kind().map(|s| s.bytes as u64).sum();
            let tail = measure::highest_supported_percentile(lat.len()).unwrap_or(50.0);
            Some(KindRow {
                kind: kind.name().into(),
                calls: lat.len() as u64,
                p50_us: percentile(&lat, 50.0) as f64 / 1e3,
                tail_percentile: tail,
                tail_us: percentile(&lat, tail) as f64 / 1e3,
                rpcs_per_op: rpcs as f64 / lat.len() as f64,
                payload_bytes_per_op: bytes as f64 / lat.len() as f64,
            })
        })
        .collect()
}
