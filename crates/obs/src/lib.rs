//! The SGFS metrics plane.
//!
//! The paper's management services (FSS/DSS) create and *monitor*
//! per-session proxies; this crate supplies the monitoring substrate the
//! reproduction's data plane threads through every hop. Everything is
//! counted by **one call**, [`Emitter::emit`], on the handle each client
//! proxy, server proxy and shard holds; that one event is then visible
//! three ways:
//!
//! * **Counters** — the emitter's own table: a count and an aux sum per
//!   [`Hop`], plus the few [`Counter`]s and [`Gauge`]s that are not hops
//!   (busy time, messages, pipeline depth, …). Always on, relaxed
//!   atomics, a few hundred bytes per emitter; the typed accessors the
//!   harnesses read (`reconnects()`, `busy()`, …) are one-line reads of
//!   it. An [`Obs`] domain lists the tables of every emitter attached to
//!   it, so the exported snapshot carries them.
//! * **Trace events** — a lock-free, per-thread ring buffer of
//!   [`TraceEvent`]s (wire xid, NFS proc, [`Hop`], free-form aux word),
//!   sequenced by a deterministic [`LogicalClock`] from `sgfs-net` so two
//!   runs of the same scripted workload produce the same relative event
//!   order. This is what makes *golden-trace* tests possible: assert the
//!   exact hop sequence of a workload and fail on any silent behavior
//!   change (extra round trip, lost cache hit, unexpected replay).
//! * **Latency histograms** — log-bucketed ([`Hist`]) per NFS procedure
//!   and per timed hop ([`Hop::timed`]: the aux word is nanoseconds),
//!   mergeable across threads, with p50/p95/p99 snapshots.
//!
//! The trace and the histograms belong to the domain and are fed only
//! while it has tracing on; the counters belong to the emitter and are
//! fed always, so turning tracing off changes no count. All three leave
//! the process together as [`Obs::snapshot`] / [`Obs::json`], in-process
//! and over the wire by the FSS `Query` operation.
//!
//! # Concurrency model
//!
//! Each emitting thread owns a private ring shard: slots are plain
//! atomics written only by the owner, then published with one release
//! store of the shard head. Snapshot readers acquire the head and read
//! slots below it — no locks on the hot path, ever (the only mutex
//! guards shard *registration*, once per thread per `Obs`). Sequence
//! numbers come from one shared atomic counter, so sorting merged shards
//! by `seq` reconstructs the global emission order. A thread that exits
//! leaves its ring behind until the next [`Obs::events`] reads and retires
//! it. If a shard wraps, the
//! oldest events are overwritten and counted in `events_dropped`; slots
//! being overwritten concurrently with a snapshot can yield a torn
//! (mixed-generation) event but never undefined behavior — quiesce
//! writers before asserting exact sequences, as the golden tests do.
//!
//! When tracing is disabled ([`Obs::set_enabled`]) an emit is its relaxed
//! counter adds plus one relaxed load; the `obs` suite of `sgfs-bench`'s
//! `gates` holds that under 10 ns and the *enabled* cost under 50 ns — 2%
//! of pipeline throughput. The relaxed-ordering contract of the counters is
//! stated once, on the [`emitter`](Emitter) module.

mod emitter;
mod hist;
mod snapshot;

pub use emitter::{Counter, Emitter, Gauge};
pub use hist::Hist;
pub use snapshot::{EventOut, LatencySummary, Snapshot};

use parking_lot::Mutex;
use sgfs_net::LogicalClock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Where in the data plane an event happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Hop {
    /// Client-proxy cache served the call locally.
    CacheHit = 0,
    /// Client-proxy cache missed; the call goes upstream.
    CacheMiss = 1,
    /// A GTLS record was sealed (encrypt + MAC).
    Seal = 2,
    /// A GTLS record was opened (verify + decrypt).
    Open = 3,
    /// A call entered the pipelined upstream window.
    UpstreamSend = 4,
    /// A reply returned from upstream.
    UpstreamReply = 5,
    /// An in-flight call was replayed on a fresh channel.
    Replay = 6,
    /// The proxy slept in reconnect backoff (aux = nanoseconds).
    Backoff = 7,
    /// One round of split-phase write-back flushing (aux = dirty blocks).
    FlushRound = 8,
    /// Upstream channel re-established after a failure.
    Reconnect = 9,
    /// Block store read (aux = nanoseconds).
    BlockRead = 10,
    /// Block store write (aux = nanoseconds).
    BlockWrite = 11,
    /// A record was appended to the write-ahead journal (aux = bytes).
    JournalAppend = 12,
    /// The journal was compacted (aux = live records retained).
    JournalCompact = 13,
    /// Recovery replayed the journal (aux = records replayed).
    RecoveryReplay = 14,
    /// Recovery detected and discarded a torn/corrupt journal tail
    /// (aux = bytes discarded).
    RecoveryTorn = 15,
    /// Recovery finished rebuilding the cache index (aux = blocks
    /// re-marked dirty); the timed variant feeds the recovery-latency
    /// histogram.
    RecoveryComplete = 16,
    /// A GTLS record was sealed, tagged with the cipher suite (xid =
    /// suite wire id, aux = payload bytes). Deterministic per workload,
    /// unlike the nanosecond-aux [`Hop::Seal`] timing event.
    RecordSeal = 17,
    /// A GTLS record was opened, tagged with the cipher suite (xid =
    /// suite wire id, aux = payload bytes).
    RecordOpen = 18,
    /// The sharded server accepted a session and chose its shard
    /// (xid = session id, aux = shard index). Emitted by the acceptor
    /// before the cross-shard handoff.
    ShardAccept = 19,
    /// A shard's event loop picked the session out of its handoff inbox
    /// and pinned it (xid = session id, aux = shard index).
    ShardHandoff = 20,
    /// A striped READ was served by one member of the session's upstream
    /// stripe set (aux = member index).
    StripeRead = 21,
    /// One replica's WRITE batch of a replicated flush round was
    /// confirmed under its write verifier (aux = member index).
    ReplicaWrite = 22,
    /// A stripe-set member was marked down and traffic re-routed to the
    /// survivors (aux = member index).
    ReplicaFailover = 23,
    /// Admission control shed a record: the server replied
    /// NFS3ERR_JUKEBOX without executing the call (aux = the session's
    /// sampled backlog in bytes at the moment of the shed).
    Shed = 24,
    /// A shard crossed its overload hysteresis boundary (aux = 1 on
    /// entering overload, 0 on leaving; xid = shard index).
    Overload = 25,
    /// The client received a JUKEBOX reply and is backing off before
    /// retrying the identical record (aux = backoff in nanoseconds).
    JukeboxRetry = 26,
}

/// Every hop, for iteration and snapshot ordering.
pub const ALL_HOPS: [Hop; 27] = [
    Hop::CacheHit,
    Hop::CacheMiss,
    Hop::Seal,
    Hop::Open,
    Hop::UpstreamSend,
    Hop::UpstreamReply,
    Hop::Replay,
    Hop::Backoff,
    Hop::FlushRound,
    Hop::Reconnect,
    Hop::BlockRead,
    Hop::BlockWrite,
    Hop::JournalAppend,
    Hop::JournalCompact,
    Hop::RecoveryReplay,
    Hop::RecoveryTorn,
    Hop::RecoveryComplete,
    Hop::RecordSeal,
    Hop::RecordOpen,
    Hop::ShardAccept,
    Hop::ShardHandoff,
    Hop::StripeRead,
    Hop::ReplicaWrite,
    Hop::ReplicaFailover,
    Hop::Shed,
    Hop::Overload,
    Hop::JukeboxRetry,
];

impl Hop {
    /// Stable snake_case name used in snapshots and golden traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Hop::CacheHit => "cache_hit",
            Hop::CacheMiss => "cache_miss",
            Hop::Seal => "seal",
            Hop::Open => "open",
            Hop::UpstreamSend => "upstream_send",
            Hop::UpstreamReply => "upstream_reply",
            Hop::Replay => "replay",
            Hop::Backoff => "backoff",
            Hop::FlushRound => "flush_round",
            Hop::Reconnect => "reconnect",
            Hop::BlockRead => "block_read",
            Hop::BlockWrite => "block_write",
            Hop::JournalAppend => "journal_append",
            Hop::JournalCompact => "journal_compact",
            Hop::RecoveryReplay => "recovery_replay",
            Hop::RecoveryTorn => "recovery_torn",
            Hop::RecoveryComplete => "recovery_complete",
            Hop::RecordSeal => "record_seal",
            Hop::RecordOpen => "record_open",
            Hop::ShardAccept => "shard_accept",
            Hop::ShardHandoff => "shard_handoff",
            Hop::StripeRead => "stripe_read",
            Hop::ReplicaWrite => "replica_write",
            Hop::ReplicaFailover => "replica_failover",
            Hop::Shed => "shed",
            Hop::Overload => "overload",
            Hop::JukeboxRetry => "jukebox_retry",
        }
    }

    /// Whether the hop's aux word is a duration in nanoseconds, which a
    /// tracing domain also records into the hop's latency histogram.
    pub fn timed(self) -> bool {
        matches!(
            self,
            Hop::Seal
                | Hop::Open
                | Hop::UpstreamReply
                | Hop::Backoff
                | Hop::BlockRead
                | Hop::BlockWrite
        )
    }

    fn from_u8(v: u8) -> Option<Hop> {
        ALL_HOPS.get(v as usize).copied()
    }
}

/// NFSv3 procedure names, for human-readable snapshots.
pub fn proc_name(proc_no: u32) -> &'static str {
    const NAMES: [&str; 22] = [
        "null", "getattr", "setattr", "lookup", "access", "readlink", "read", "write",
        "create", "mkdir", "symlink", "mknod", "remove", "rmdir", "rename", "link",
        "readdir", "readdirplus", "fsstat", "fsinfo", "pathconf", "commit",
    ];
    NAMES.get(proc_no as usize).copied().unwrap_or("unknown")
}

/// Highest NFSv3 procedure number plus one (COMMIT = 21).
pub const NUM_PROCS: usize = 22;

/// Sentinel "no procedure" value for events below the RPC layer (GTLS
/// records, block I/O). The largest value the packed slot encoding can
/// carry; renders as `unknown`.
pub const NO_PROC: u32 = 0xff_ffff;

/// The xid of an ONC RPC record (bytes 0..4, big-endian), or 0 when the
/// record is too short to carry one.
pub fn peek_xid(record: &[u8]) -> u32 {
    record
        .get(0..4)
        .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        .unwrap_or(0)
}

/// The procedure number of an ONC RPC *call* record (bytes 20..24 after
/// xid, msg_type, rpcvers, prog, vers), or [`NO_PROC`] when the record is
/// too short or the value would not fit the packed event encoding.
pub fn peek_proc(record: &[u8]) -> u32 {
    match record.get(20..24) {
        Some(b) => {
            let p = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
            if p < NO_PROC {
                p
            } else {
                NO_PROC
            }
        }
        None => NO_PROC,
    }
}

/// One observed event, reconstructed from a ring shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical-clock tick: total emission order across all threads.
    pub seq: u64,
    /// Wire xid of the RPC this event belongs to (0 when not applicable,
    /// e.g. GTLS record seal/open below the RPC layer).
    pub xid: u32,
    /// NFS procedure number (`NUM_PROCS` and above = not applicable).
    pub proc: u32,
    /// Which hop.
    pub hop: Hop,
    /// Hop-specific payload (bytes, nanoseconds, counts — see [`Hop`]).
    pub aux: u64,
}

/// Default per-thread ring capacity (events). Power of two.
const DEFAULT_RING: usize = 1 << 14;

struct Slot {
    seq: AtomicU64,
    /// `hop << 56 | (proc & 0xff_ffff) << 32 | xid`.
    meta: AtomicU64,
    aux: AtomicU64,
}

struct Shard {
    /// Events ever pushed; slot index = head % capacity. Written only by
    /// the owning thread (release), read by snapshotters (acquire).
    head: AtomicUsize,
    slots: Box<[Slot]>,
}

impl Shard {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            head: AtomicUsize::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    aux: AtomicU64::new(0),
                })
                .collect(),
        })
    }

    fn push(&self, seq: u64, hop: Hop, xid: u32, proc_no: u32, aux: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[head & (self.slots.len() - 1)];
        slot.seq.store(seq, Ordering::Relaxed);
        slot.meta.store(
            ((hop as u64) << 56) | ((proc_no as u64 & 0xff_ffff) << 32) | xid as u64,
            Ordering::Relaxed,
        );
        slot.aux.store(aux, Ordering::Relaxed);
        // Publish: everything stored above happens-before a reader that
        // acquires the new head.
        self.head.store(head + 1, Ordering::Release);
    }

    /// (events, dropped): all retained events plus how many were lost to
    /// ring wrap-around.
    fn drain(&self, out: &mut Vec<TraceEvent>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len();
        let retained = head.min(cap);
        for i in (head - retained)..head {
            let slot = &self.slots[i & (cap - 1)];
            let meta = slot.meta.load(Ordering::Relaxed);
            let Some(hop) = Hop::from_u8((meta >> 56) as u8) else { continue };
            out.push(TraceEvent {
                seq: slot.seq.load(Ordering::Relaxed),
                xid: meta as u32,
                proc: ((meta >> 32) & 0xff_ffff) as u32,
                hop,
                aux: slot.aux.load(Ordering::Relaxed),
            });
        }
        (head - retained) as u64
    }
}

thread_local! {
    /// Per-thread cache of (obs id → this thread's shard of that obs).
    static LOCAL_SHARDS: RefCell<Vec<(u64, Arc<Shard>)>> = const { RefCell::new(Vec::new()) };
}

static NEXT_OBS_ID: AtomicU64 = AtomicU64::new(1);

/// The latency histograms of one domain: per NFS procedure, then per hop.
struct Hists {
    per_proc: Box<[Hist]>,
    per_hop: Box<[Hist]>,
}

/// One observability domain — typically one per session, shared by every
/// layer of that session's data plane. Cheap to clone via `Arc`.
pub struct Obs {
    id: u64,
    enabled: AtomicBool,
    session: AtomicU64,
    ring_capacity: usize,
    clock: Arc<LogicalClock>,
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Allocated by the first sample or reader, so a domain that never
    /// traces (an untraced session's own) stays a few hundred bytes.
    hists: OnceLock<Hists>,
    /// The counter table of every emitter ever attached, in attach
    /// order. Kept past the emitter's life: what a finished proxy counted
    /// (its `dirty_at_shutdown`) is still in the next snapshot.
    emitters: Mutex<Vec<Arc<emitter::Table>>>,
}

impl Obs {
    /// A fresh, enabled domain with its own logical clock.
    pub fn new() -> Arc<Self> {
        Self::with_clock(LogicalClock::new())
    }

    /// A fresh, enabled domain sequenced by `clock` (share one clock
    /// across domains to get a global order over all their events).
    pub fn with_clock(clock: Arc<LogicalClock>) -> Arc<Self> {
        Arc::new(Self {
            id: NEXT_OBS_ID.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(true),
            session: AtomicU64::new(0),
            ring_capacity: DEFAULT_RING,
            clock,
            shards: Mutex::new(Vec::new()),
            hists: OnceLock::new(),
            emitters: Mutex::new(Vec::new()),
        })
    }

    /// A domain that starts disabled: its emitters count, nothing is
    /// traced.
    pub fn disabled() -> Arc<Self> {
        let obs = Self::new();
        obs.set_enabled(false);
        obs
    }

    /// Turn tracing on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether instrumentation is live.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Tag this domain with an FSS-visible session id.
    pub fn set_session(&self, id: u64) {
        self.session.store(id, Ordering::Relaxed);
    }

    /// The logical clock sequencing this domain.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// Push one event into the trace ring alone — no counter, no
    /// histogram. The data plane never calls this: it emits through an
    /// [`Emitter`], which counts the event and then traces it. Lock-free:
    /// one logical-clock tick plus four relaxed stores and a release store
    /// into this thread's ring shard.
    pub fn emit(&self, hop: Hop, xid: u32, proc_no: u32, aux: u64) {
        if !self.enabled() {
            return;
        }
        let seq = self.clock.tick();
        self.with_shard(|shard| shard.push(seq, hop, xid, proc_no, aux));
    }

    /// The trace and histogram views of one emitted event; the caller
    /// (the emitter) has checked that tracing is on.
    fn trace(&self, hop: Hop, xid: u32, proc_no: u32, aux: u64) {
        if hop.timed() {
            self.hists().per_hop[hop as usize].record(aux);
        }
        let seq = self.clock.tick();
        self.with_shard(|shard| shard.push(seq, hop, xid, proc_no, aux));
    }

    /// Record a latency sample (nanoseconds) for an NFS procedure.
    #[inline]
    pub fn record_proc(&self, proc_no: u32, nanos: u64) {
        if !self.enabled() {
            return;
        }
        if let Some(h) = self.hists().per_proc.get(proc_no as usize) {
            h.record(nanos);
        }
    }

    /// Record a latency sample (nanoseconds) for a hop whose events carry
    /// something other than their duration (recovery: the event counts
    /// blocks, this times the replay).
    pub fn record_hop(&self, hop: Hop, nanos: u64) {
        if !self.enabled() {
            return;
        }
        self.hists().per_hop[hop as usize].record(nanos);
    }

    fn hists(&self) -> &Hists {
        self.hists.get_or_init(|| Hists {
            per_proc: (0..NUM_PROCS).map(|_| Hist::new()).collect(),
            per_hop: (0..ALL_HOPS.len()).map(|_| Hist::new()).collect(),
        })
    }

    /// The per-proc histogram (for merges and direct inspection).
    pub fn proc_hist(&self, proc_no: u32) -> Option<&Hist> {
        self.hists().per_proc.get(proc_no as usize)
    }

    /// The per-hop histogram.
    pub fn hop_hist(&self, hop: Hop) -> &Hist {
        &self.hists().per_hop[hop as usize]
    }

    fn attach(&self, table: Arc<emitter::Table>) {
        self.emitters.lock().push(table);
    }

    /// Events of `hop` counted by every emitter attached to this domain.
    /// With tracing on since the first emit and no ring wrap-around, this
    /// equals the number of `hop` events in [`events`](Self::events).
    pub fn counted(&self, hop: Hop) -> u64 {
        self.emitters.lock().iter().map(|t| t.count(hop)).sum()
    }

    fn with_shard(&self, f: impl FnOnce(&Shard)) {
        LOCAL_SHARDS.with(|cell| {
            let mut local = cell.borrow_mut();
            if let Some((_, shard)) = local.iter().find(|(id, _)| *id == self.id) {
                f(shard);
                return;
            }
            // First event from this thread in this domain: register a
            // shard. Drop cached shards whose domain is gone (we hold the
            // only Arc) so long-lived threads don't accumulate them.
            local.retain(|(_, s)| Arc::strong_count(s) > 1);
            let shard = Shard::new(self.ring_capacity);
            self.shards.lock().push(shard.clone());
            f(&shard);
            local.push((self.id, shard));
        });
    }

    /// All retained events from every thread, sorted by logical sequence,
    /// plus the count lost to ring wrap-around.
    ///
    /// The ring of a thread that has exited is retired by the call that
    /// reads it: its events are in this result and in no later one, so a
    /// domain fed by short-lived threads holds one ring per *live* thread
    /// instead of growing by one per thread ever seen.
    pub fn events(&self) -> (Vec<TraceEvent>, u64) {
        let mut out = Vec::new();
        let mut dropped = 0;
        self.shards.lock().retain(|shard| {
            // Sole owner = the emitting thread's local handle is gone, so
            // nothing can be pushed after this check: the drain is final.
            let orphaned = Arc::strong_count(shard) == 1;
            dropped += shard.drain(&mut out);
            !orphaned
        });
        out.sort_by_key(|e| e.seq);
        (out, dropped)
    }

    /// A self-describing snapshot: every attached emitter's counters,
    /// per-proc and per-hop latency summaries, and the `max_events` most
    /// recent trace events.
    pub fn snapshot(&self, max_events: usize) -> Snapshot {
        let (mut events, dropped) = self.events();
        let captured = events.len() as u64;
        if events.len() > max_events {
            events.drain(..events.len() - max_events);
        }
        let session = self.session.load(Ordering::Relaxed);
        // Not `hists()`: a snapshot of a domain that never traced must not
        // be what allocates its histograms.
        let hists = self.hists.get();
        Snapshot {
            session,
            logical_now: self.clock.current(),
            enabled: self.enabled(),
            events_captured: captured,
            events_dropped: dropped,
            counters: self
                .emitters
                .lock()
                .iter()
                .enumerate()
                .map(|(n, t)| (format!("{}#{n}", t.role), t.rows()))
                .collect(),
            procs: summaries(hists.map(|h| &*h.per_proc), |p| proc_name(p as u32)),
            hops: summaries(hists.map(|h| &*h.per_hop), |h| ALL_HOPS[h].as_str()),
            events: events
                .into_iter()
                .map(|e| EventOut {
                    seq: e.seq,
                    session,
                    xid: e.xid,
                    proc: e.proc,
                    hop: e.hop.as_str().to_string(),
                    aux: e.aux,
                })
                .collect(),
        }
    }

    /// The snapshot rendered as pretty JSON (the FSS `Query` payload).
    pub fn json(&self, max_events: usize) -> String {
        serde_json::to_string_pretty(&self.snapshot(max_events))
            .expect("snapshot is serializable")
    }
}

/// Summaries of the histograms in `hists` that hold samples, in index
/// order under `name(index)`.
fn summaries(hists: Option<&[Hist]>, name: impl Fn(usize) -> &'static str) -> Vec<LatencySummary> {
    let hists = hists.unwrap_or_default().iter().enumerate();
    hists.filter(|(_, h)| h.count() > 0).map(|(i, h)| LatencySummary::of(name(i), h)).collect()
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("id", &self.id)
            .field("enabled", &self.enabled())
            .field("logical_now", &self.clock.current())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_come_back_in_emission_order() {
        let obs = Obs::new();
        obs.emit(Hop::CacheMiss, 1, 6, 0);
        obs.emit(Hop::UpstreamSend, 1, 6, 0);
        obs.emit(Hop::UpstreamReply, 1, 6, 0);
        obs.emit(Hop::CacheHit, 2, 6, 4096);
        let (events, dropped) = obs.events();
        assert_eq!(dropped, 0);
        let hops: Vec<Hop> = events.iter().map(|e| e.hop).collect();
        assert_eq!(
            hops,
            [Hop::CacheMiss, Hop::UpstreamSend, Hop::UpstreamReply, Hop::CacheHit]
        );
        assert_eq!(events[3].aux, 4096);
        assert_eq!(events[3].xid, 2);
        assert_eq!(events[3].proc, 6);
    }

    #[test]
    fn disabled_emits_nothing() {
        let obs = Obs::disabled();
        obs.emit(Hop::Seal, 0, 0, 0);
        obs.record_proc(6, 1000);
        obs.record_hop(Hop::Open, 500);
        let (events, _) = obs.events();
        assert!(events.is_empty());
        assert_eq!(obs.hop_hist(Hop::Open).count(), 0);
        obs.set_enabled(true);
        obs.emit(Hop::Seal, 0, 0, 0);
        assert_eq!(obs.events().0.len(), 1);
    }

    #[test]
    fn cross_thread_events_merge_by_seq() {
        let obs = Obs::new();
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let threads: Vec<_> = (0..2u32)
            .map(|t| {
                let obs = obs.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..500 {
                        obs.emit(Hop::UpstreamSend, t * 1000 + i, 6, 0);
                    }
                })
            })
            .collect();
        barrier.wait();
        for t in threads {
            t.join().unwrap();
        }
        let (events, dropped) = obs.events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1000);
        // Sorted by a globally unique sequence.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        // Per-thread subsequences preserve their program order.
        for t in 0..2u32 {
            let xids: Vec<u32> = events
                .iter()
                .filter(|e| e.xid / 1000 == t)
                .map(|e| e.xid)
                .collect();
            assert_eq!(xids.len(), 500);
            assert!(xids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn exited_threads_rings_are_retired_by_the_drain_that_reads_them() {
        let obs = Obs::new();
        obs.emit(Hop::CacheHit, 0, 6, 0); // this (live) thread's ring
        for t in 1..=64u32 {
            let obs = obs.clone();
            std::thread::spawn(move || obs.emit(Hop::UpstreamSend, t, 6, 0)).join().unwrap();
        }
        assert_eq!(obs.shards.lock().len(), 65);
        let (events, dropped) = obs.events();
        assert_eq!(dropped, 0);
        let xids: Vec<u32> = events.iter().map(|e| e.xid).collect();
        assert_eq!(xids, (0..=64).collect::<Vec<u32>>(), "no event lost");
        assert_eq!(obs.shards.lock().len(), 1, "only the live thread keeps a ring");
        // The live ring keeps serving; the retired ones are gone for good.
        obs.emit(Hop::CacheHit, 65, 6, 0);
        let xids: Vec<u32> = obs.events().0.iter().map(|e| e.xid).collect();
        assert_eq!(xids, [0, 65]);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let obs = Obs::new();
        let n = (DEFAULT_RING + 100) as u32;
        for i in 0..n {
            obs.emit(Hop::Seal, i, 0, 0);
        }
        let (events, dropped) = obs.events();
        assert_eq!(events.len(), DEFAULT_RING);
        assert_eq!(dropped, 100);
        // The retained window is the most recent events.
        assert_eq!(events.last().unwrap().xid, n - 1);
        assert_eq!(events.first().unwrap().xid, 100);
    }

    #[test]
    fn snapshot_summarizes_and_serializes() {
        let obs = Obs::new();
        obs.set_session(42);
        let em = Emitter::new(&obs, "client");
        for _ in 0..100 {
            obs.record_proc(6, 1_000_000); // READ, 1ms
            em.emit(Hop::Seal, 0, 6, 10_000);
        }
        em.emit(Hop::CacheHit, 7, 6, 0);
        let snap = obs.snapshot(16);
        assert_eq!(snap.session, 42);
        assert_eq!(snap.events_captured, 101);
        assert_eq!(snap.procs.len(), 1);
        assert_eq!(snap.procs[0].name, "read");
        assert_eq!(snap.procs[0].count, 100);
        assert!(snap.procs[0].p50_micros > 800.0 && snap.procs[0].p50_micros < 1200.0);
        assert_eq!(snap.hops.len(), 1);
        assert_eq!(snap.hops[0].name, "seal");
        assert_eq!(snap.events.len(), 16);
        let json = obs.json(16);
        let back: Snapshot = serde_json::from_str(&json).expect("snapshot JSON parses");
        assert_eq!(back.session, 42);
        assert_eq!(back.procs[0].count, 100);
        assert_eq!(back.events.len(), 16);
    }

    #[test]
    fn peek_helpers_parse_call_headers() {
        // xid=0x9000_0001, CALL, rpcvers 2, prog 100003, vers 3, proc 6.
        let mut rec = Vec::new();
        for w in [0x9000_0001u32, 0, 2, 100_003, 3, 6] {
            rec.extend_from_slice(&w.to_be_bytes());
        }
        assert_eq!(peek_xid(&rec), 0x9000_0001);
        assert_eq!(peek_proc(&rec), 6);
        // Short records degrade to the sentinels, never panic.
        assert_eq!(peek_xid(&rec[..3]), 0);
        assert_eq!(peek_proc(&rec[..20]), NO_PROC);
        assert_eq!(peek_proc(&[]), NO_PROC);
    }

    #[test]
    fn shared_clock_orders_two_domains() {
        let clock = LogicalClock::new();
        let a = Obs::with_clock(clock.clone());
        let b = Obs::with_clock(clock);
        a.emit(Hop::UpstreamSend, 1, 0, 0);
        b.emit(Hop::UpstreamReply, 1, 0, 0);
        a.emit(Hop::CacheHit, 2, 0, 0);
        let (ea, _) = a.events();
        let (eb, _) = b.events();
        assert!(ea[0].seq < eb[0].seq && eb[0].seq < ea[1].seq);
    }
}
