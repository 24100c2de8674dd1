//! What a run prints and saves: every metric by name with unit, sample
//! count and quartiles, and the one-line JSON result that ends the output.

use crate::bench::{KindRow, Metric};

/// Everything one process measured, as saved to `run-<workload>-t<n>.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub quick: bool,
    /// `std::thread::available_parallelism` — thread-dependent results
    /// mean nothing without it.
    pub nproc: u64,
    pub transport: String,
    pub timed_rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub kinds: Vec<KindRow>,
    pub warnings: Vec<String>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn print_metric(m: &Metric) {
    let value = if m.value.abs() >= 100.0 {
        format!("{:.1}", m.value)
    } else {
        format!("{:.4}", m.value)
    };
    let quartiles = if m.q1 != m.value || m.q3 != m.value {
        format!("  q1 {:.4}  q3 {:.4}", m.q1, m.q3)
    } else {
        String::new()
    };
    println!(
        "  {:<44} {:>14} {:<6} n={}{}",
        m.name, value, m.unit, m.samples, quartiles
    );
}

pub fn print_kinds(kinds: &[KindRow]) {
    println!(
        "  {:<12} {:>8} {:>10} {:>16} {:>9} {:>11}",
        "call", "calls", "p50 us", "tail us", "rpcs/op", "bytes/op"
    );
    for k in kinds {
        println!(
            "  {:<12} {:>8} {:>10.1} {:>10.1} (p{:<4}) {:>9.2} {:>11.0}",
            k.kind,
            k.calls,
            k.p50_us,
            k.tail_us,
            k.tail_percentile,
            k.rpcs_per_op,
            k.payload_bytes_per_op
        );
    }
}

pub fn print_run(r: &RunResult) {
    println!(
        "== {} seed {} {} ({} timed rounds, nproc {}, {}) ==",
        r.workload,
        r.seed,
        if r.traced {
            "per-layer run"
        } else {
            "end-to-end run"
        },
        r.timed_rounds,
        r.nproc,
        r.transport
    );
    println!("  why: {}", crate::manifest::why(&r.workload));
    for m in &r.metrics {
        print_metric(m);
    }
    // A per-layer run carries it among its metrics.
    if !r.traced {
        println!(
            "  {:<44} {:>14.4} {:<6} n={}",
            "failed_frac",
            r.failed_frac(),
            "ratio",
            r.attempted
        );
    }
    if !r.kinds.is_empty() {
        print_kinds(&r.kinds);
    }
    for w in &r.warnings {
        println!("warning: {w}");
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` (name → value + unit). `{}` prints an `f64`
/// with all its digits and never in exponent form.
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}
