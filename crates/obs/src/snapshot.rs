//! Serializable snapshot types — the JSON surface of the observability
//! plane, exported in-process and over the FSS `Query` operation.

use crate::hist::Hist;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Quantile summary of one latency histogram, in microseconds (the
/// natural unit at NFS-over-WAN scale; nanosecond precision survives as
/// fractions).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Procedure or hop name (`read`, `seal`, …).
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_micros: f64,
    /// Median estimate (±12.5% bucket width).
    pub p50_micros: f64,
    /// 95th percentile estimate.
    pub p95_micros: f64,
    /// 99th percentile estimate.
    pub p99_micros: f64,
    /// 99.9th percentile estimate.
    pub p999_micros: f64,
    /// Largest sample (exact).
    pub max_micros: f64,
}

impl LatencySummary {
    /// Summarize `h` under `name`.
    pub fn of(name: &str, h: &Hist) -> Self {
        let (p50, p95, p99) = h.percentiles();
        let us = |ns: u64| ns as f64 / 1000.0;
        Self {
            name: name.to_string(),
            count: h.count(),
            mean_micros: h.mean() / 1000.0,
            p50_micros: us(p50),
            p95_micros: us(p95),
            p99_micros: us(p99),
            p999_micros: us(h.p999()),
            max_micros: us(h.max()),
        }
    }
}

/// One trace event in export form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EventOut {
    /// Logical-clock tick (global emission order).
    pub seq: u64,
    /// FSS session id of the domain.
    pub session: u64,
    /// Wire xid (0 = not applicable).
    pub xid: u32,
    /// NFS procedure number.
    pub proc: u32,
    /// Hop name (`cache_hit`, `upstream_send`, …).
    pub hop: String,
    /// Hop-specific payload word.
    pub aux: u64,
}

/// A full observability snapshot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// FSS session id this domain is tagged with (0 = untagged).
    pub session: u64,
    /// Logical clock reading at snapshot time.
    pub logical_now: u64,
    /// Whether tracing was live.
    pub enabled: bool,
    /// Events retained across all ring shards at snapshot time.
    pub events_captured: u64,
    /// Events lost to ring wrap-around.
    pub events_dropped: u64,
    /// Every attached emitter's counter table, keyed `role#n` in attach
    /// order (`client#0`, `shard#1`, …): row name → value. Hop rows are
    /// event counts under the hop's name (`reconnect`, `cache_hit`) with
    /// the aux sum beside them as `<hop>_ns` (timed hops) or `<hop>_sum`.
    /// Counted whether or not tracing was on. Absent in payloads saved
    /// before the field existed.
    #[serde(default)]
    pub counters: BTreeMap<String, BTreeMap<String, u64>>,
    /// Per-NFS-procedure latency summaries (only procs with samples).
    pub procs: Vec<LatencySummary>,
    /// Per-hop latency summaries (only hops with samples).
    pub hops: Vec<LatencySummary>,
    /// Most recent trace events, oldest first.
    pub events: Vec<EventOut>,
}
