//! The traced run: the benchmark's own spans around every `NfsMount` call
//! plus what the program's `sgfs-obs` domain recorded underneath them.
//!
//! Spans are kept in memory and written once, at exit, to
//! `trace-<workload>.json`:
//!
//! ```text
//! { "workload": ..., "seed": ..., "nproc": ...,
//!   "spans": [ { "id": "lan_smallfile/r3", "name": "round", "parent": "", "start_ns", "end_ns" },
//!              { "id": "lan_smallfile/r3/s0/17", "name": "read_file",
//!                "parent": "lan_smallfile/r3", "start_ns", "end_ns" }, ... ],
//!   "hop_events_per_round": [ { "hop": "cache_miss", "count": ... }, ... ],
//!   "obs": <sgfs_obs::Snapshot> }
//! ```
//!
//! `start_ns`/`end_ns` are wall nanoseconds since the process started. A
//! call's self time is its span; the hops below it are not spans yet
//! (the program records them as events and histograms, not intervals).

use crate::bench::Segment;
use sgfs_obs::{Hop, Obs, Snapshot, ALL_HOPS};
use std::sync::Arc;

/// Events kept in the written snapshot (the histograms cover all of them).
const SNAPSHOT_EVENTS: usize = 2048;

/// Counts obs events per hop. The per-thread rings hold 16 Ki events, so
/// the traced run drains them between chunks of calls.
pub struct HopCounter {
    obs: Arc<Obs>,
    last_seq: Option<u64>,
    counts: [u64; ALL_HOPS.len()],
}

impl HopCounter {
    pub fn new(obs: Arc<Obs>) -> Self {
        Self {
            obs,
            last_seq: None,
            counts: [0; ALL_HOPS.len()],
        }
    }

    /// Count the events emitted since the previous drain.
    pub fn drain(&mut self) {
        let (events, _) = self.obs.events();
        for e in &events {
            if self.last_seq.is_none_or(|last| e.seq > last) {
                self.counts[e.hop as usize] += 1;
            }
        }
        if let Some(e) = events.last() {
            self.last_seq = Some(self.last_seq.map_or(e.seq, |last| last.max(e.seq)));
        }
    }

    pub fn count(&self, hop: Hop) -> u64 {
        self.counts[hop as usize]
    }

    /// Forget what was counted so far (the warm-up's events).
    pub fn reset(&mut self) {
        self.drain();
        self.counts = [0; ALL_HOPS.len()];
    }
}

#[derive(serde::Serialize)]
struct Span {
    id: String,
    name: String,
    parent: String,
    start_ns: u64,
    end_ns: u64,
}

#[derive(serde::Serialize)]
struct HopCount {
    hop: String,
    count: f64,
}

#[derive(serde::Serialize)]
struct TraceFile {
    workload: String,
    seed: u64,
    nproc: u64,
    transport: String,
    spans: Vec<Span>,
    hop_events_per_round: Vec<HopCount>,
    obs: Snapshot,
}

/// Write `trace-<workload>.json` for a traced stretch.
pub fn write(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    first_round: u64,
    seg: &Segment,
    hops: &HopCounter,
) -> std::io::Result<()> {
    let mut spans = Vec::with_capacity(seg.samples.len() + seg.rounds.len());
    for (i, round) in seg.rounds.iter().enumerate() {
        let calls = &seg.samples[round.samples.clone()];
        let round_id = format!("{workload}/r{}", first_round + i as u64);
        spans.push(Span {
            id: round_id.clone(),
            name: "round".into(),
            parent: String::new(),
            start_ns: calls.iter().map(|s| s.start_ns).min().unwrap_or(0),
            end_ns: calls
                .iter()
                .map(|s| s.start_ns + s.wall_ns)
                .max()
                .unwrap_or(0),
        });
        let mut seq = [0u64; 256];
        for s in calls {
            let n = &mut seq[s.session as usize];
            spans.push(Span {
                id: format!("{round_id}/s{}/{n}", s.session),
                name: s.kind.name().into(),
                parent: round_id.clone(),
                start_ns: s.start_ns,
                end_ns: s.start_ns + s.wall_ns,
            });
            *n += 1;
        }
    }
    let rounds = seg.rounds.len().max(1) as f64;
    let file = TraceFile {
        workload: workload.into(),
        seed,
        nproc: crate::nproc(),
        transport: crate::TRANSPORT.into(),
        spans,
        hop_events_per_round: ALL_HOPS
            .iter()
            .map(|&h| HopCount {
                hop: h.as_str().into(),
                count: hops.count(h) as f64 / rounds,
            })
            .collect(),
        obs: hops.obs.snapshot(SNAPSHOT_EVENTS),
    };
    let json = serde_json::to_string(&file).map_err(std::io::Error::other)?;
    std::fs::write(path, json)
}
