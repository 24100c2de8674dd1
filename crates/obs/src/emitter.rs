//! The per-emitter half of the metrics plane: one counter table per
//! client proxy, server proxy or shard, and the one call that feeds it.
//!
//! # Memory-ordering contract
//!
//! Every cell of the table — like every histogram bucket of the domain —
//! is a **relaxed** atomic, deliberately. The cells are independent
//! monotone counts (or advisory gauges): no reader derives a decision from
//! the *relationship* between two of them, so no acquire/release pairing
//! is needed and none is provided. Increments may be observed out of order
//! across cells — a live read can see `messages = 10` while
//! `prefetch_hits` still misses the tenth message's hit — so treat a live
//! snapshot as approximate and quiesce the emitting threads before
//! asserting exact totals. Every update is an atomic read-modify-write
//! (or, for a gauge, a plain store of a value its one writer computed), so
//! no increment is ever lost even where two threads feed one cell (the
//! proxy's caller and the GTLS records on its I/O worker both charge
//! [`Emitter::busy`]). The trace rings are the one structure with a real
//! ordering need and handle it internally (see the crate docs).

use crate::{Hop, Obs, ALL_HOPS, NUM_PROCS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// An event count that is not a [`Hop`] (nothing to trace, only to sum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Counter {
    /// Nanoseconds of [`Emitter::message`] processing, net of
    /// [`Emitter::exclude`]d waits.
    BusyNs = 0,
    /// Messages processed.
    Messages = 1,
    /// Heap capacity growth (bytes) of the upstream record scratch
    /// buffers — flat at steady state.
    RecordAllocBytes = 2,
    /// READs served from the read-ahead landing zone.
    PrefetchHits = 3,
    /// Cache I/O errors absorbed by degrading to write-through. Non-zero
    /// means the disk cache lost residency, never that data was lost.
    CacheIoErrors = 4,
    /// Bytes re-marked dirty by crash recovery (the block count is
    /// [`Hop::RecoveryComplete`]'s aux sum).
    RecoveredBytes = 5,
    /// Request records a shard executed and answered.
    Served = 6,
}

const ALL_COUNTERS: [(Counter, &str); 7] = [
    (Counter::BusyNs, "busy_ns"),
    (Counter::Messages, "messages"),
    (Counter::RecordAllocBytes, "record_alloc_bytes"),
    (Counter::PrefetchHits, "prefetch_hits"),
    (Counter::CacheIoErrors, "cache_io_errors"),
    (Counter::RecoveredBytes, "recovered_bytes"),
    (Counter::Served, "served"),
];

/// A last-value (or high-water) reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Gauge {
    /// Upstream calls currently in the pipelined window.
    PipelineDepth = 0,
    /// Deepest the window has been.
    PipelinePeak = 1,
    /// Stripe-set members currently marked down (0 = full redundancy).
    Degraded = 2,
    /// Dirty bytes still cached after the teardown flush — non-zero means
    /// the flush failed and the journal is the only copy of those bytes.
    DirtyAtShutdown = 3,
}

const ALL_GAUGES: [(Gauge, &str); 4] = [
    (Gauge::PipelineDepth, "pipeline_depth"),
    (Gauge::PipelinePeak, "pipeline_peak"),
    (Gauge::Degraded, "degraded"),
    (Gauge::DirtyAtShutdown, "dirty_at_shutdown"),
];

#[derive(Default)]
struct HopCell {
    count: AtomicU64,
    /// Sum of the events' aux words (nanoseconds for a timed hop).
    sum: AtomicU64,
}

/// One emitter's counters. Cache-line aligned so two emitters fed from
/// different CPUs never share a line.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Table {
    pub(crate) role: &'static str,
    hops: [HopCell; ALL_HOPS.len()],
    counters: [AtomicU64; ALL_COUNTERS.len()],
    gauges: [AtomicU64; ALL_GAUGES.len()],
    /// Calls forwarded upstream, per NFS procedure.
    forwarded: [AtomicU64; NUM_PROCS],
}

impl Table {
    pub(crate) fn count(&self, hop: Hop) -> u64 {
        self.hops[hop as usize].count.load(Relaxed)
    }

    /// Every row by name: all hop counts, counters and gauges (zero or
    /// not, so a reader can tell "0" from "not exported"), plus the aux
    /// sums and per-procedure forward counts that are non-zero.
    pub(crate) fn rows(&self) -> BTreeMap<String, u64> {
        let mut rows = BTreeMap::new();
        for hop in ALL_HOPS {
            let cell = &self.hops[hop as usize];
            rows.insert(hop.as_str().to_string(), cell.count.load(Relaxed));
            let sum = cell.sum.load(Relaxed);
            if sum > 0 {
                let unit = if hop.timed() { "ns" } else { "sum" };
                rows.insert(format!("{}_{unit}", hop.as_str()), sum);
            }
        }
        for (c, name) in ALL_COUNTERS {
            rows.insert(name.to_string(), self.counters[c as usize].load(Relaxed));
        }
        for (g, name) in ALL_GAUGES {
            rows.insert(name.to_string(), self.gauges[g as usize].load(Relaxed));
        }
        for (p, n) in self.forwarded.iter().enumerate() {
            let n = n.load(Relaxed);
            if n > 0 {
                rows.insert(format!("forwarded_{}", crate::proc_name(p as u32)), n);
            }
        }
        rows
    }
}

/// The handle every layer of one proxy or shard counts through. Each
/// [`emit`](Self::emit) always lands in this emitter's table and, while
/// the attached domain has tracing on, also in the domain's trace ring
/// and (for a timed hop) latency histogram — one call, three views, so
/// they cannot disagree. Clones share the table.
#[derive(Clone)]
pub struct Emitter {
    obs: Arc<Obs>,
    table: Arc<Table>,
}

impl Emitter {
    /// A fresh table attached to `obs` under `role` (`"client"`,
    /// `"server"`, `"shard"`, …); [`Obs::snapshot`] lists it from now on.
    pub fn new(obs: &Arc<Obs>, role: &'static str) -> Self {
        let table = Arc::new(Table { role, ..Table::default() });
        obs.attach(table.clone());
        Self { obs: obs.clone(), table }
    }

    /// An emitter in an untraced domain of its own: it only counts.
    pub fn detached(role: &'static str) -> Self {
        Self::new(&Obs::disabled(), role)
    }

    /// The domain this emitter traces into.
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// Record one event: count it, add `aux` to the hop's sum, and trace
    /// it if the domain is tracing.
    #[inline]
    pub fn emit(&self, hop: Hop, xid: u32, proc_no: u32, aux: u64) {
        let cell = &self.table.hops[hop as usize];
        cell.count.fetch_add(1, Relaxed);
        if aux > 0 {
            cell.sum.fetch_add(aux, Relaxed);
        }
        if self.obs.enabled() {
            self.obs.trace(hop, xid, proc_no, aux);
        }
    }

    /// Events of `hop` this emitter has recorded.
    pub fn count(&self, hop: Hop) -> u64 {
        self.table.count(hop)
    }

    /// Sum of the aux words of this emitter's `hop` events.
    pub fn sum(&self, hop: Hop) -> u64 {
        self.table.hops[hop as usize].sum.load(Relaxed)
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        if n > 0 {
            self.table.counters[counter as usize].fetch_add(n, Relaxed);
        }
    }

    /// A counter's value.
    pub fn get(&self, counter: Counter) -> u64 {
        self.table.counters[counter as usize].load(Relaxed)
    }

    /// Overwrite a gauge.
    #[inline]
    pub fn set(&self, gauge: Gauge, value: u64) {
        self.table.gauges[gauge as usize].store(value, Relaxed);
    }

    /// Raise a high-water gauge to at least `value` (monotone under
    /// races).
    #[inline]
    pub fn raise(&self, gauge: Gauge, value: u64) {
        self.table.gauges[gauge as usize].fetch_max(value, Relaxed);
    }

    /// A gauge's value.
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.table.gauges[gauge as usize].load(Relaxed)
    }

    /// One message was processed in `wall`: charged as busy time and,
    /// while tracing, recorded as one latency sample of procedure
    /// `proc_no` ([`NO_PROC`](crate::NO_PROC) for none).
    #[inline]
    pub fn message(&self, proc_no: u32, wall: Duration) {
        let nanos = wall.as_nanos() as u64;
        self.add(Counter::BusyNs, nanos);
        self.add(Counter::Messages, 1);
        self.obs.record_proc(proc_no, nanos);
    }

    /// Subtract blocked-I/O wall time a [`message`](Self::message)'s
    /// `wall` includes (a wait on an upstream reply is not CPU time).
    #[inline]
    pub fn exclude(&self, d: Duration) {
        let sub = d.as_nanos() as u64;
        let _ = self.table.counters[Counter::BusyNs as usize]
            .fetch_update(Relaxed, Relaxed, |cur| Some(cur.saturating_sub(sub)));
    }

    /// One call of NFS procedure `proc_no` was forwarded upstream.
    #[inline]
    pub fn forwarded(&self, proc_no: u32) {
        if let Some(n) = self.table.forwarded.get(proc_no as usize) {
            n.fetch_add(1, Relaxed);
        }
    }

    /// Calls forwarded upstream, indexed by NFS procedure number.
    pub fn forwarded_by_proc(&self) -> [u64; NUM_PROCS] {
        std::array::from_fn(|p| self.table.forwarded[p].load(Relaxed))
    }

    /// Cumulative busy time: message processing plus the record crypto
    /// the GTLS layer timed on this emitter's behalf.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.get(Counter::BusyNs) + self.sum(Hop::Seal) + self.sum(Hop::Open))
    }

    /// Messages processed.
    pub fn messages(&self) -> u64 {
        self.get(Counter::Messages)
    }

    /// READs served from prefetched blocks.
    pub fn prefetch_hits(&self) -> u64 {
        self.get(Counter::PrefetchHits)
    }

    /// Deepest the in-flight window has been.
    pub fn pipeline_peak(&self) -> u64 {
        self.gauge(Gauge::PipelinePeak)
    }

    /// Total heap capacity growth of the upstream record buffers.
    pub fn record_alloc_bytes(&self) -> u64 {
        self.get(Counter::RecordAllocBytes)
    }

    /// Records appended to the write-ahead journal.
    pub fn journal_appends(&self) -> u64 {
        self.count(Hop::JournalAppend)
    }

    /// Successful upstream reconnections.
    pub fn reconnects(&self) -> u64 {
        self.count(Hop::Reconnect)
    }

    /// Idempotent calls replayed across reconnections.
    pub fn replays(&self) -> u64 {
        self.count(Hop::Replay)
    }

    /// JUKEBOX replies absorbed by backing off and retrying.
    pub fn jukebox_retries(&self) -> u64 {
        self.count(Hop::JukeboxRetry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NO_PROC;

    #[test]
    fn emit_counts_sums_and_traces() {
        let obs = Obs::new();
        let em = Emitter::new(&obs, "client");
        em.emit(Hop::CacheMiss, 1, 6, 0);
        em.emit(Hop::UpstreamSend, 1, 6, 120);
        em.emit(Hop::UpstreamSend, 2, 6, 80);
        em.emit(Hop::Seal, 0, NO_PROC, 1_000);
        assert_eq!(em.count(Hop::UpstreamSend), 2);
        assert_eq!(em.sum(Hop::UpstreamSend), 200);
        assert_eq!((em.count(Hop::CacheMiss), em.sum(Hop::CacheMiss)), (1, 0));
        let (events, _) = obs.events();
        assert_eq!(events.len(), 4, "every emit is one ring event");
        for hop in ALL_HOPS {
            let traced = events.iter().filter(|e| e.hop == hop).count() as u64;
            assert_eq!(obs.counted(hop), traced, "{}", hop.as_str());
        }
        // Only a timed hop feeds its latency histogram.
        assert_eq!(obs.hop_hist(Hop::Seal).count(), 1);
        assert_eq!(obs.hop_hist(Hop::UpstreamSend).count(), 0);
    }

    #[test]
    fn tracing_off_still_counts() {
        let obs = Obs::disabled();
        let em = Emitter::new(&obs, "client");
        em.emit(Hop::Open, 0, NO_PROC, 500);
        em.message(6, Duration::from_nanos(40));
        assert_eq!((em.count(Hop::Open), em.sum(Hop::Open)), (1, 500));
        assert_eq!(em.messages(), 1);
        assert!(obs.events().0.is_empty());
        assert_eq!(obs.hop_hist(Hop::Open).count(), 0);
        assert_eq!(obs.proc_hist(6).unwrap().count(), 0);
        assert!(em.busy() >= Duration::from_nanos(500), "record crypto is busy time");
    }

    #[test]
    fn counters_add_and_gauges_overwrite() {
        let em = Emitter::detached("client");
        em.add(Counter::RecordAllocBytes, 128);
        em.add(Counter::RecordAllocBytes, 0);
        em.add(Counter::PrefetchHits, 1);
        assert_eq!(em.record_alloc_bytes(), 128);
        assert_eq!(em.prefetch_hits(), 1);
        em.set(Gauge::Degraded, 1);
        em.set(Gauge::DirtyAtShutdown, 64);
        em.set(Gauge::Degraded, 0);
        assert_eq!(em.gauge(Gauge::Degraded), 0, "gauge, not counter");
        assert_eq!(em.gauge(Gauge::DirtyAtShutdown), 64);
        em.add(Counter::BusyNs, 10);
        em.exclude(Duration::from_nanos(4));
        em.exclude(Duration::from_nanos(100));
        assert_eq!(em.get(Counter::BusyNs), 0, "exclusion saturates at zero");
        em.forwarded(6);
        em.forwarded(6);
        em.forwarded(u32::MAX);
        assert_eq!(em.forwarded_by_proc()[6], 2);
        assert_eq!(em.forwarded_by_proc().iter().sum::<u64>(), 2);
    }

    #[test]
    fn peak_is_monotone_and_no_add_is_lost_under_two_threads() {
        let em = Emitter::detached("client");
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (em, barrier) = (&em, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..10_000u64 {
                        // Thread 0 climbs, thread 1 descends: the peak
                        // must end at the overall maximum either way.
                        let depth = if t == 0 { i } else { 10_000 - i };
                        em.set(Gauge::PipelineDepth, depth);
                        em.raise(Gauge::PipelinePeak, depth);
                        em.add(Counter::Messages, 1);
                        em.emit(Hop::Replay, 0, NO_PROC, 2);
                    }
                });
            }
        });
        assert_eq!(em.pipeline_peak(), 10_000);
        assert_eq!(em.messages(), 20_000);
        assert_eq!((em.count(Hop::Replay), em.sum(Hop::Replay)), (20_000, 40_000));
    }

    #[test]
    fn snapshot_lists_every_attached_emitter_by_name() {
        let obs = Obs::new();
        let client = Emitter::new(&obs, "client");
        let shard = Emitter::new(&obs, "shard");
        client.message(1, Duration::from_nanos(40));
        client.emit(Hop::Backoff, 0, NO_PROC, 7);
        shard.add(Counter::Served, 3);
        drop(shard); // the domain keeps what a finished emitter counted
        let snap = obs.snapshot(0);
        assert_eq!(snap.counters.len(), 2);
        let c = &snap.counters["client#0"];
        assert_eq!((c["messages"], c["backoff"], c["backoff_ns"]), (1, 1, 7));
        assert_eq!(c["reconnect"], 0, "zero rows are exported, by name");
        assert_eq!(c["dirty_at_shutdown"], 0);
        assert!(!c.contains_key("seal_ns"), "empty sums are not");
        assert_eq!(snap.counters["shard#1"]["served"], 3);
        let back: crate::Snapshot = serde_json::from_str(&obs.json(0)).expect("parses");
        assert_eq!(back.counters, snap.counters);
    }
}
