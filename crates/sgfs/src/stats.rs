//! Proxy instrumentation: busy-time accounting behind Figures 5 and 6.
//!
//! The paper samples the user CPU time of each proxy/daemon every five
//! seconds during IOzone. Here each proxy wraps its per-message processing
//! in [`ProxyStats::track`]; the harness reads cumulative busy time and
//! derives utilization per interval of simulated time.
//!
//! # Memory-ordering contract
//!
//! Every counter in [`ProxyStats`] — and every histogram bucket in the
//! attached [`Obs`] domain — uses **relaxed** atomics, deliberately. The
//! counters are independent monotone event counts: no reader derives a
//! decision from the *relationship* between two counters, so no
//! acquire/release pairing is needed and none is provided. Concretely:
//!
//! * Increments may be observed out of order across counters. A snapshot
//!   taken mid-workload can see `messages = 10` but `prefetch_hits` still
//!   missing the tenth message's hit. Consumers must treat a live
//!   snapshot as approximate, and quiesce (join worker threads) before
//!   asserting exact totals — every test in this workspace does.
//! * `busy_nanos` is shared with the GTLS layer via
//!   [`busy_counter`](ProxyStats::busy_counter); `fetch_add`/`fetch_update`
//!   are atomic read-modify-writes, so no increment is ever lost even
//!   though ordering between the two writers is unspecified.
//! * `pipeline_depth`/`pipeline_peak` are written with plain stores (the
//!   new depth is computed by the pipeline under its own synchronization,
//!   so the gauge needs no RMW on the depth itself); `fetch_max` keeps the
//!   peak monotone under races.
//! * The one structure with a cross-field invariant — the utilization
//!   sample series — is behind a `Mutex`, not atomics.
//!
//! The trace-event rings in [`Obs`] are the exception with a real
//! ordering need, and they handle it internally (release publish of the
//! shard head, acquire on read); see `sgfs_obs`'s module docs.

use parking_lot::Mutex;
use sgfs_obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Shared counters for one proxy.
#[derive(Default)]
pub struct ProxyStats {
    /// Nanoseconds spent processing messages (real CPU time). Shared so
    /// the GTLS layer can charge its crypto time into the same account.
    busy_nanos: Arc<AtomicU64>,
    /// Messages processed.
    messages: AtomicU64,
    /// Upstream calls currently in the pipelined window.
    pipeline_depth: AtomicU64,
    /// High-water mark of the pipelined window.
    pipeline_peak: AtomicU64,
    /// READs served from the pipelined read-ahead landing zone.
    prefetch_hits: AtomicU64,
    /// Heap capacity growth (bytes) of the upstream record scratch
    /// buffers — zero at steady state once they reach their high-water
    /// size.
    record_alloc_bytes: AtomicU64,
    /// Successful upstream reconnections after a transient failure.
    reconnects: AtomicU64,
    /// In-flight idempotent calls replayed across reconnections.
    replays: AtomicU64,
    /// Nanoseconds slept in reconnect backoff.
    backoff_nanos: AtomicU64,
    /// Cache I/O errors absorbed by degrading to write-through (spool
    /// write failures, spool-file removal failures). Non-zero means the
    /// disk cache lost residency, never that data was lost.
    cache_io_errors: AtomicU64,
    /// Records appended to the write-ahead journal.
    journal_appends: AtomicU64,
    /// Journal compactions (dead records rewritten away).
    journal_compactions: AtomicU64,
    /// Blocks re-marked dirty by crash recovery.
    recovered_blocks: AtomicU64,
    /// Bytes re-marked dirty by crash recovery.
    recovered_bytes: AtomicU64,
    /// Gauge: dirty bytes still cached when the session tore down
    /// (after the teardown flush — non-zero means the flush failed and
    /// the journal is the only copy).
    dirty_at_shutdown: AtomicU64,
    /// Gauge: stripe-set members currently marked down (0 = full
    /// redundancy; writes proceed at reduced redundancy while non-zero).
    degraded: AtomicU64,
    /// Replica WRITE batches confirmed under a write verifier (one per
    /// member per replicated flush round).
    replica_writes: AtomicU64,
    /// Stripe-set members failed over (marked down, traffic re-routed).
    failovers: AtomicU64,
    /// JUKEBOX replies the client side absorbed by backing off and
    /// retrying the identical record.
    jukebox_retries: AtomicU64,
    /// (sample_time, cumulative_busy) pairs for utilization series.
    samples: Mutex<Vec<(Duration, Duration)>>,
    /// The observability domain this proxy emits trace events and latency
    /// samples into, when one is attached (set once at session build).
    obs: OnceLock<Arc<Obs>>,
}

impl ProxyStats {
    /// Fresh counters.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// The shared busy counter, for layers (GTLS records) that charge
    /// their processing time into this proxy's account.
    pub fn busy_counter(&self) -> Arc<AtomicU64> {
        self.busy_nanos.clone()
    }

    /// Attach an observability domain. First attachment wins; later calls
    /// are ignored (the session wires this exactly once, before the proxy
    /// threads start).
    pub fn set_obs(&self, obs: Arc<Obs>) {
        let _ = self.obs.set(obs);
    }

    /// The attached observability domain, if any.
    pub fn obs(&self) -> Option<&Arc<Obs>> {
        self.obs.get()
    }

    /// Subtract blocked-I/O wall time that [`track`](Self::track)
    /// over-counted (waits on upstream replies are not CPU time).
    pub fn exclude(&self, d: Duration) {
        let sub = d.as_nanos() as u64;
        let _ = self
            .busy_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(cur.saturating_sub(sub))
            });
    }

    /// Run `f`, charging its wall time as busy time.
    pub fn track<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// One call entered the pipelined upstream window (the new depth is
    /// passed so the peak gauge needs no read-modify cycle on the depth).
    pub fn pipeline_admitted(&self, depth: u64) {
        self.pipeline_depth.store(depth, Ordering::Relaxed);
        self.pipeline_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// One call left the pipelined upstream window.
    pub fn pipeline_completed(&self, depth: u64) {
        self.pipeline_depth.store(depth, Ordering::Relaxed);
    }

    /// Calls currently in flight upstream.
    pub fn pipeline_depth(&self) -> u64 {
        self.pipeline_depth.load(Ordering::Relaxed)
    }

    /// Deepest the in-flight window has been.
    pub fn pipeline_peak(&self) -> u64 {
        self.pipeline_peak.load(Ordering::Relaxed)
    }

    /// A READ was served from the pipelined read-ahead landing zone.
    pub fn add_prefetch_hit(&self) {
        self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// READs served from prefetched blocks.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits.load(Ordering::Relaxed)
    }

    /// Record scratch buffers grew by `n` bytes of heap capacity.
    pub fn add_record_alloc(&self, n: u64) {
        if n > 0 {
            self.record_alloc_bytes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Total heap capacity growth of the upstream record buffers; divide
    /// by [`messages`](Self::messages) for the per-record figure, which
    /// converges to zero at steady state.
    pub fn record_alloc_bytes(&self) -> u64 {
        self.record_alloc_bytes.load(Ordering::Relaxed)
    }

    /// One upstream reconnection completed (handshake done, channel live).
    pub fn add_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// `n` in-flight calls were replayed on a fresh channel.
    pub fn add_replays(&self, n: u64) {
        if n > 0 {
            self.replays.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Slept `d` in reconnect backoff.
    pub fn add_backoff(&self, d: Duration) {
        self.backoff_nanos.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Successful upstream reconnections.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Idempotent calls replayed across reconnections.
    pub fn replays(&self) -> u64 {
        self.replays.load(Ordering::Relaxed)
    }

    /// Total time spent in reconnect backoff.
    pub fn backoff(&self) -> Duration {
        Duration::from_nanos(self.backoff_nanos.load(Ordering::Relaxed))
    }

    /// One cache I/O error was absorbed (the block degraded to
    /// write-through instead of silently pretending to be cached).
    pub fn add_cache_io_error(&self) {
        self.cache_io_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache I/O errors absorbed so far.
    pub fn cache_io_errors(&self) -> u64 {
        self.cache_io_errors.load(Ordering::Relaxed)
    }

    /// One record reached the write-ahead journal.
    pub fn add_journal_append(&self) {
        self.journal_appends.fetch_add(1, Ordering::Relaxed);
    }

    /// Records appended to the journal.
    pub fn journal_appends(&self) -> u64 {
        self.journal_appends.load(Ordering::Relaxed)
    }

    /// The journal was compacted.
    pub fn add_journal_compaction(&self) {
        self.journal_compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// Journal compactions performed.
    pub fn journal_compactions(&self) -> u64 {
        self.journal_compactions.load(Ordering::Relaxed)
    }

    /// Crash recovery re-marked `blocks` blocks (`bytes` bytes) dirty.
    pub fn add_recovered(&self, blocks: u64, bytes: u64) {
        self.recovered_blocks.fetch_add(blocks, Ordering::Relaxed);
        self.recovered_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// (blocks, bytes) re-marked dirty by crash recovery.
    pub fn recovered(&self) -> (u64, u64) {
        (
            self.recovered_blocks.load(Ordering::Relaxed),
            self.recovered_bytes.load(Ordering::Relaxed),
        )
    }

    /// Record the dirty-byte gauge at session teardown.
    pub fn set_dirty_at_shutdown(&self, bytes: u64) {
        self.dirty_at_shutdown.store(bytes, Ordering::Relaxed);
    }

    /// Dirty bytes still cached when the session tore down.
    pub fn dirty_at_shutdown(&self) -> u64 {
        self.dirty_at_shutdown.load(Ordering::Relaxed)
    }

    /// Record the number of stripe-set members currently down.
    pub fn set_degraded(&self, members_down: u64) {
        self.degraded.store(members_down, Ordering::Relaxed);
    }

    /// Stripe-set members currently marked down (gauge).
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// One replica's WRITE batch was confirmed under its write verifier.
    pub fn add_replica_write(&self) {
        self.replica_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Replica WRITE batches confirmed.
    pub fn replica_writes(&self) -> u64 {
        self.replica_writes.load(Ordering::Relaxed)
    }

    /// One stripe-set member was failed over to the survivors.
    pub fn add_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Stripe-set members failed over so far.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// One JUKEBOX reply absorbed client-side (backoff + verbatim retry).
    pub fn add_jukebox_retry(&self) {
        self.jukebox_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// JUKEBOX retries performed by the client side so far.
    pub fn jukebox_retries(&self) -> u64 {
        self.jukebox_retries.load(Ordering::Relaxed)
    }

    /// Cumulative busy time.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    /// Messages processed.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Record a utilization sample at simulated time `now`.
    pub fn sample(&self, now: Duration) {
        self.samples.lock().push((now, self.busy()));
    }

    /// Utilization percentage per sample interval:
    /// `(t, 100 * Δbusy / Δt)` for each consecutive sample pair.
    pub fn utilization_series(&self) -> Vec<(Duration, f64)> {
        let samples = self.samples.lock();
        samples
            .windows(2)
            .map(|w| {
                let dt = w[1].0.saturating_sub(w[0].0);
                let db = w[1].1.saturating_sub(w[0].1);
                let pct = if dt.is_zero() {
                    0.0
                } else {
                    100.0 * db.as_secs_f64() / dt.as_secs_f64()
                };
                (w[1].0, pct)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_accumulates_busy_time() {
        let s = ProxyStats::new();
        s.track(|| std::thread::sleep(Duration::from_millis(10)));
        s.track(|| std::thread::sleep(Duration::from_millis(10)));
        assert!(s.busy() >= Duration::from_millis(20));
        assert_eq!(s.messages(), 2);
    }

    #[test]
    fn utilization_series_from_samples() {
        let s = ProxyStats::new();
        s.sample(Duration::from_secs(0));
        s.track(|| std::thread::sleep(Duration::from_millis(50)));
        s.sample(Duration::from_secs(1));
        s.sample(Duration::from_secs(2));
        let series = s.utilization_series();
        assert_eq!(series.len(), 2);
        assert!(series[0].1 >= 4.0, "≈5% busy in first interval, got {}", series[0].1);
        assert!(series[1].1 < 1.0, "idle second interval");
    }

    #[test]
    fn pipeline_gauges() {
        let s = ProxyStats::new();
        s.pipeline_admitted(1);
        s.pipeline_admitted(2);
        s.pipeline_completed(1);
        assert_eq!(s.pipeline_depth(), 1);
        assert_eq!(s.pipeline_peak(), 2);
        s.add_prefetch_hit();
        assert_eq!(s.prefetch_hits(), 1);
        s.add_record_alloc(128);
        s.add_record_alloc(0);
        assert_eq!(s.record_alloc_bytes(), 128);
    }

    #[test]
    fn recovery_counters() {
        let s = ProxyStats::new();
        s.add_reconnect();
        s.add_replays(3);
        s.add_replays(0);
        s.add_backoff(Duration::from_millis(10));
        s.add_backoff(Duration::from_millis(20));
        assert_eq!(s.reconnects(), 1);
        assert_eq!(s.replays(), 3);
        assert_eq!(s.backoff(), Duration::from_millis(30));
    }

    #[test]
    fn durability_counters() {
        let s = ProxyStats::new();
        s.add_cache_io_error();
        s.add_journal_append();
        s.add_journal_append();
        s.add_journal_compaction();
        s.add_recovered(3, 96);
        s.set_dirty_at_shutdown(64);
        assert_eq!(s.cache_io_errors(), 1);
        assert_eq!(s.journal_appends(), 2);
        assert_eq!(s.journal_compactions(), 1);
        assert_eq!(s.recovered(), (3, 96));
        assert_eq!(s.dirty_at_shutdown(), 64);
        s.set_dirty_at_shutdown(0);
        assert_eq!(s.dirty_at_shutdown(), 0, "gauge, not counter");
    }

    #[test]
    fn replica_counters() {
        let s = ProxyStats::new();
        s.add_replica_write();
        s.add_replica_write();
        s.add_failover();
        s.set_degraded(1);
        assert_eq!(s.replica_writes(), 2);
        assert_eq!(s.failovers(), 1);
        assert_eq!(s.degraded(), 1);
        s.set_degraded(0);
        assert_eq!(s.degraded(), 0, "gauge, not counter");
    }
}
