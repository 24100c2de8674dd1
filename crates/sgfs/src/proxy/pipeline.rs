//! Xid-demultiplexed RPC pipelining over the upstream channel, driven by
//! whoever waits on it: the caller blocked on a reply, or the shared
//! client I/O pool.
//!
//! The client proxy used to issue upstream calls strictly serially: write
//! one record, block for its reply, repeat. Over a WAN that bounds
//! throughput at one call per round trip. A [`Pipeline`] instead owns the
//! upstream channel and admits up to `window` calls before requiring a
//! reply, matching replies back to callers by RPC xid — the transaction
//! id that is the first word of every ONC RPC call *and* reply record
//! (RFC 5531 §9).
//!
//! Who drives the channel. Earlier revisions parked a dedicated blocking
//! reader thread per pipeline (N sessions cost N stacks, and a dropped
//! handle leaked its thread); the next made every call cross to a
//! [`ClientIoPool`] worker and back — caller → submission ring → worker →
//! wire → worker → reply channel → caller, four thread hand-offs where
//! the wire needs two. Now the pipeline's whole I/O state sits behind one
//! mutex that either of two parties may hold, and both run the same
//! `pump_once` / `send_call` / `read_one_reply` / `recover` code:
//!
//! * **The caller.** One that finds the state free, the window empty,
//!   nothing queued (in the pump or the ring), no rekey due and the
//!   connection attached admits its own call: it seals and writes on its
//!   own thread, with no ring push and no worker wake-up. Whoever then
//!   waits on a reply ([`PendingReply::wait`]) pumps the state until that
//!   reply lands, completing every other reply it reads on the way. While
//!   it pumps, the wire's readiness is withheld from the worker; it is
//!   re-registered afterwards, and registration fires at once if input is
//!   pending.
//! * **The pool worker.** The state is pinned to a [`ClientIoPool`]
//!   worker as a [`PoolConn`] and keeps everything no caller is waiting
//!   on: read-ahead landing, write-back batches, late replies, and rekey
//!   and reconnect when nobody drives. Its event
//!   sources — the upstream transport's [`PipeWatch`] and a wake-aware
//!   submission ring ([`sgfs_net::submit_ring`]) carrying the commands
//!   callers did not admit themselves — share one readiness token, and a
//!   `pump` pass drains whatever is actionable without ever blocking for
//!   *new* input.
//!
//! Neither is a mode. A caller that finds the state held takes the ring
//! path and waits on its reply channel; a worker that finds it held by a
//! caller leaves a mark, and the caller wakes it on release.
//!
//! One copy each way. A submitted record is copied once, into the
//! pipeline's own buffer behind room for its RFC 5531 record mark; that
//! buffer is sealed and written as it is (`write_marked`, no staging
//! copy) and kept for retransmission. A reply is read out of the
//! transport once, into the reply buffer, which then rides to its waiter
//! as the reply itself while the completed call's buffer becomes the next
//! reply buffer — so a read whose reply outgrows that recycled buffer
//! regrows it, the only zero-fill on this path.
//!
//! The submission ring is a fixed-capacity ladder. Dropping the last
//! handle closes the ring; the worker observes the close, delivers any
//! replies that already arrived, fails the rest, flushes the depth gauge,
//! and retires the connection — the handle's `Drop` blocks (bounded)
//! until that retirement is signalled, so teardown is deterministic and
//! nothing is left parked.
//!
//! Because independently numbered calls (the kernel client's forwarded
//! requests, the proxy's own split-phase write-back and read-ahead) share
//! one channel, their original xids could collide. The pipeline therefore rewrites the xid of
//! each admitted call to a private monotonically increasing wire xid,
//! remembers the mapping, and rewrites the reply's xid back before
//! completing the caller — callers observe byte-identical replies to the
//! serial protocol.
//!
//! Renegotiation (rekey) must not interleave with data records: the GTLS
//! rekey runs over the protected channel and expects only handshake
//! records, so in-flight DATA replies would break it. The pipeline
//! *quiesces* first — stops admitting, drains every outstanding reply —
//! and only then renegotiates. The periodic `rekey_every` threshold is
//! tracked here, not in the stream's writer (which would fire
//! mid-window), for the same reason.
//!
//! Fault recovery: sessions are expected to outlive transient WAN
//! failures, so a transport error is not the end of the channel when a
//! [`Reconnector`] is installed. The pump classifies the error
//! ([`is_transient_io`]), fails the in-flight calls that are unsafe to
//! retransmit (see [`retry::replayable`]), re-dials with capped
//! exponential backoff, and replays the idempotent remainder — in their
//! original wire-xid order — on the fresh channel, re-registering the
//! replacement transport's watch on the same pool token. A successful
//! reconnect re-runs the full GTLS handshake, which also satisfies any
//! pending rekey request. Without a reconnector any transport error
//! remains terminal, as before.
//!
//! Blocking inside the pump: the emulated transport's `Stream` objects
//! are not splittable into read/write halves, so one pump alternates
//! between admitting writes and collecting replies. Replies are only
//! read once the transport watch reports input, and the message-atomic
//! writer invariant (see the pool module docs in `sgfs-oncrpc`)
//! guarantees a whole record follows, so the bounded blocking record
//! read stalls neither party. Only a caller ever waits for *new* input:
//! with nothing actionable it sleeps in [`PipeWatch::wait_input`], still
//! holding the state, until input, EOF, a [`PipeWatch::nudge`] from a
//! handle that pushed a command the window has room for (its next pass
//! admits it, so a concurrent caller does not wait a round trip behind
//! it) or the per-call deadline of
//! [`RetryPolicy::call_deadline`] — a silent server yields `TimedOut`
//! rather than a hang. A timed-out call stays in flight; its
//! late reply is collected (and discarded) by the worker, as any reply
//! nobody is waiting on. Renegotiation and reconnect backoff block
//! whichever party is driving (they are rare, bounded control-plane
//! events); pool sizing accounts for that.

use crate::config::RetryPolicy;
use crate::proxy::retry::{self, Reconnector};
use sgfs_obs::{Counter, Emitter, Gauge, Hop, NO_PROC};
use crate::proxy::client::Upstream;
use parking_lot::{Condvar, Mutex};
use sgfs_net::{submit_ring, PipeWatch, Popped, Readiness, SubmitReceiver, SubmitSender};
use sgfs_oncrpc::record::{framed, is_transient_io, read_record_into, write_marked, MARK_LEN};
use sgfs_oncrpc::{ClientIoPool, ConnPump, PoolConn};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::time::{Duration, Instant};

/// Default in-flight window (calls admitted before a reply is required).
pub const DEFAULT_WINDOW: u32 = 8;

/// Capacity of the submission ring between handles and the pump.
/// Producers block (backpressure) when it is full.
const RING_CAPACITY: usize = 256;

/// Fairness budget: work items one pump pass performs before re-arming
/// its token so neighbor connections on the same worker get a turn.
const MAX_PUMP: usize = 32;

/// Upper bound a dropping handle waits for the pump to acknowledge
/// retirement. Retirement is normally immediate; the bound only guards
/// against a wedged pool worker.
const RETIRE_WAIT: Duration = Duration::from_secs(5);

/// Where one call's reply (original xid restored) is delivered.
type ReplyTx = mpsc::Sender<io::Result<Vec<u8>>>;

/// One record plus the channel its reply is delivered on.
type BatchEntry = (Vec<u8>, ReplyTx);

/// Commands from pipeline handles to the pool worker.
enum Cmd {
    /// Forward one raw call record, held in the pipeline's own copy
    /// behind mark headroom ([`framed`]: the one copy a call makes between
    /// its caller's buffer and the wire, resent as it is after a
    /// reconnect); the reply (original xid restored) goes back through
    /// `reply_tx`.
    Call { record: Vec<u8>, reply_tx: ReplyTx },
    /// Several calls submitted atomically: they reach the pump as a
    /// unit, so up to a window of them is guaranteed to be admitted
    /// before it reads a reply. Individual `submit` calls race against
    /// admission — a batch of N ≤ window never leaves a member stranded
    /// behind a blocking read.
    Batch(Vec<BatchEntry>),
    /// Quiesce the window and renegotiate the session keys.
    Rekey { done_tx: mpsc::Sender<io::Result<()>> },
}

/// State shared between handles and the pump.
struct Shared {
    /// Mirror of the upstream's completed-handshake count (cumulative
    /// across reconnections).
    handshakes: AtomicU64,
    /// Whether the upstream is GTLS-protected (rekey is meaningful).
    is_tls: bool,
    /// Per-call reply deadline applied by `PendingReply::wait`.
    deadline: Option<Duration>,
    /// The wire a driving caller sleeps on while it could admit another
    /// command; a handle that pushes one nudges it (`Pipeline::push`).
    asleep: Mutex<Option<PipeWatch>>,
}

/// Signals the handle side when the pump has retired the connection
/// (stats flushed, waiters completed, upstream released).
#[derive(Clone)]
struct RetireGate(Arc<(Mutex<bool>, Condvar)>);

impl RetireGate {
    fn new() -> Self {
        Self(Arc::new((Mutex::new(false), Condvar::new())))
    }

    fn set(&self) {
        let (lock, cvar) = &*self.0;
        *lock.lock() = true;
        cvar.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let (lock, cvar) = &*self.0;
        let until = Instant::now() + timeout;
        let mut done = lock.lock();
        while !*done {
            let left = until.saturating_duration_since(Instant::now());
            if cvar.wait_for(&mut done, left).timed_out() {
                break;
            }
        }
    }
}

/// The pipeline's I/O state, shared by the handles — whose callers drive
/// it while they wait — and the pool worker it is pinned to.
struct Conn {
    io: Mutex<IoState>,
    /// The worker came to pump while a caller held `io`. Stored before
    /// the worker's second `try_lock` and swapped after the caller's
    /// unlock, so either that retry wins or the caller sees the mark and
    /// wakes the worker.
    missed: AtomicBool,
}

impl Conn {
    /// Run `f` on the calling thread if the state is free, attached, not
    /// retired and `ready` for this caller; `None` leaves the work to
    /// whoever holds it. On release the worker is woken if it missed a
    /// pump meanwhile or is owed work the caller leaves behind.
    fn drive<R>(&self, ready: fn(&IoState) -> bool, f: impl FnOnce(&mut IoState) -> R) -> Option<R> {
        let mut io = self.io.try_lock().filter(|io| io.drivable() && ready(io))?;
        let out = f(&mut io);
        let owed = io.owes_worker();
        let readiness = io.readiness.clone();
        drop(io);
        if self.missed.swap(false, Ordering::SeqCst) || owed {
            if let Some(r) = readiness {
                r.notify();
            }
        }
        Some(out)
    }
}

/// The pool worker's hold on a [`Conn`].
struct Pump(Arc<Conn>);

impl PoolConn for Pump {
    fn attach(&mut self, readiness: Readiness, _: &mut ()) {
        self.0.io.lock().attach(readiness);
    }

    fn pump(&mut self, _: &mut ()) -> ConnPump {
        let conn = &self.0;
        let held = conn.io.try_lock().or_else(|| {
            conn.missed.store(true, Ordering::SeqCst);
            conn.io.try_lock()
        });
        // Held by a driving caller, who wakes us when it lets go.
        held.map_or(ConnPump::Idle, |mut io| io.pump())
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        // Pool shutdown drops a connection it never retired: flush every
        // waiter (and the depth gauge) before the handles learn of it.
        let mut io = self.0.io.lock();
        if !io.retired {
            io.fail_channel(&broken("client I/O pool shut down"));
            io.retire();
        }
    }
}

/// A cloneable handle to the pipelined upstream channel.
///
/// Dropping every handle closes the submission ring; the pool worker
/// observes the close, delivers replies that already arrived, fails the
/// remainder, flushes stats, and retires the connection. The last
/// handle's drop blocks (bounded by [`RETIRE_WAIT`]) for that
/// acknowledgment — the event-plane equivalent of joining the old
/// per-pipeline reader thread.
#[derive(Clone)]
pub struct Pipeline {
    inner: Arc<PipelineInner>,
}

struct PipelineInner {
    /// `Some` until drop; taken there so the ring closes before the
    /// retirement wait begins.
    cmd_tx: Option<SubmitSender<Cmd>>,
    conn: Arc<Conn>,
    shared: Arc<Shared>,
    retired: RetireGate,
    /// Keeps the I/O pool alive for as long as the pipeline is; a
    /// private (per-pipeline) pool shuts down and joins when this Arc
    /// drops.
    _pool: Arc<ClientIoPool>,
}

impl Drop for PipelineInner {
    fn drop(&mut self) {
        self.cmd_tx.take();
        self.retired.wait(RETIRE_WAIT);
    }
}

/// A submitted call whose reply has not been collected yet.
pub struct PendingReply {
    rx: mpsc::Receiver<io::Result<Vec<u8>>>,
    deadline: Option<Duration>,
    /// The pipeline's state when this thread admitted the call itself,
    /// for the waiter to drive; empty for a call that took the ring —
    /// the worker delivers those — and gone once the pipeline dropped.
    conn: Weak<Conn>,
}

impl PendingReply {
    /// The reply if it has already arrived (or the channel has died),
    /// without blocking; `None` while it is still on the wire.
    pub fn try_wait(&self) -> Option<io::Result<Vec<u8>>> {
        let landed = self.landed();
        if landed.is_none() {
            // A poller does not pump: if this thread's own admission
            // withheld the wire, the worker gets it back to land the reply.
            if let Some(conn) = self.conn.upgrade() {
                conn.drive(|io| io.withheld, IoState::hand_back);
            }
        }
        landed
    }

    fn landed(&self) -> Option<io::Result<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(terminated())),
        }
    }

    /// Block until the reply arrives (original xid restored), or until
    /// the per-call deadline expires — a silent server yields `TimedOut`
    /// rather than a hang.
    ///
    /// Whoever waits, pumps: for a call its own thread admitted, the
    /// waiter drives the pipeline's state until the reply lands, unless
    /// somebody else holds it — then, as for every ring-path call,
    /// whoever holds it delivers the reply through the channel.
    pub fn wait(self) -> io::Result<Vec<u8>> {
        let deadline = self.deadline.map(|d| Instant::now() + d);
        if let Some(reply) = self.landed() {
            return reply;
        }
        let driven = self
            .conn
            .upgrade()
            .and_then(|conn| conn.drive(|_| true, |io| io.pump_until(&self.rx, deadline)));
        if let Some(Some(reply)) = driven {
            return reply;
        }
        match deadline {
            None => self.rx.recv().unwrap_or_else(|_| Err(terminated())),
            Some(at) => match self.rx.recv_timeout(at.saturating_duration_since(Instant::now())) {
                Ok(reply) => reply,
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(terminated()),
                Err(mpsc::RecvTimeoutError::Timeout) => Err(timed_out()),
            },
        }
    }
}

impl Pipeline {
    /// Take ownership of `upstream` and pin it onto a private pool, with
    /// no fault recovery: any transport error is terminal for the channel.
    ///
    /// `window` is clamped to at least 1 (a window of 1 degenerates to
    /// the serial protocol); `rekey_every` renegotiates after that many
    /// calls, at a quiesce point.
    pub fn new(
        upstream: Upstream,
        watch: PipeWatch,
        window: u32,
        rekey_every: Option<u64>,
        stats: Emitter,
    ) -> Self {
        Self::with_recovery(
            upstream,
            watch,
            window,
            rekey_every,
            stats,
            None,
            RetryPolicy::default(),
        )
    }

    /// Like [`new`](Self::new), but with fault recovery: on a transient
    /// transport error the pump re-dials through `reconnector` under
    /// `retry`'s backoff bounds and replays idempotent in-flight calls
    /// on the fresh channel.
    ///
    /// The pipeline runs on a private single-worker [`ClientIoPool`] —
    /// thread-for-thread what the old dedicated reader cost, but with
    /// deterministic teardown. This is the standalone form (tests,
    /// benches); the client proxy always has a pool and builds every
    /// member channel with [`with_recovery_on`](Self::with_recovery_on).
    pub fn with_recovery(
        upstream: Upstream,
        watch: PipeWatch,
        window: u32,
        rekey_every: Option<u64>,
        stats: Emitter,
        reconnector: Option<Box<dyn Reconnector>>,
        retry: RetryPolicy,
    ) -> Self {
        let pool = ClientIoPool::new(1);
        Self::with_recovery_on(&pool, upstream, watch, window, rekey_every, stats, reconnector, retry)
            .expect("a fresh private pool accepts its first connection")
    }

    /// Pin this pipeline's upstream onto an existing client I/O pool so
    /// many sessions multiplex a fixed set of event-loop threads.
    /// `watch` must observe the raw transport under `upstream` (for a
    /// GTLS channel, the pipe beneath the secure stream). Fails only if
    /// `pool` is already shut down.
    #[allow(clippy::too_many_arguments)]
    pub fn with_recovery_on(
        pool: &Arc<ClientIoPool>,
        upstream: Upstream,
        watch: PipeWatch,
        window: u32,
        rekey_every: Option<u64>,
        stats: Emitter,
        reconnector: Option<Box<dyn Reconnector>>,
        retry: RetryPolicy,
    ) -> io::Result<Self> {
        let (cmd_tx, cmd_rx) = submit_ring(RING_CAPACITY);
        let (is_tls, handshakes) = match &upstream {
            Upstream::Tls(t) => (true, t.handshake_count()),
            Upstream::Plain(_) => (false, 0),
        };
        let shared = Arc::new(Shared {
            handshakes: AtomicU64::new(handshakes),
            is_tls,
            deadline: retry.call_deadline,
            asleep: Mutex::new(None),
        });
        let retired = RetireGate::new();
        let state = IoState {
            upstream,
            watch,
            cmd_rx,
            readiness: None,
            withheld: false,
            shutdown: false,
            retired: false,
            gate: retired.clone(),
            window: window.max(1),
            rekey_every,
            stats,
            shared: shared.clone(),
            reconnector,
            retry,
            reconnects_used: 0,
            queue: VecDeque::new(),
            in_flight: HashMap::new(),
            rekey_waiters: Vec::new(),
            rekey_due: false,
            wire_xid: 0x9000_0000,
            calls_since_rekey: 0,
            reply_buf: Vec::new(),
            reply_high_water: 0,
        };
        let conn = Arc::new(Conn { io: Mutex::new(state), missed: AtomicBool::new(false) });
        pool.add_conn(Box::new(Pump(conn.clone())))?;
        Ok(Self {
            inner: Arc::new(PipelineInner {
                cmd_tx: Some(cmd_tx),
                conn,
                shared,
                retired,
                _pool: pool.clone(),
            }),
        })
    }

    /// Hand `cmd` to whoever pumps: the ring wakes the worker, and a
    /// caller asleep on the wire is nudged to admit it itself. `Err` (the
    /// command back) once the pump has retired.
    fn push(&self, cmd: Cmd) -> Result<(), Cmd> {
        let sender = self.inner.cmd_tx.as_ref();
        let pushed = sender.expect("sender present until the last handle drops").push(cmd);
        if let Some(wire) = &*self.inner.shared.asleep.lock() {
            wire.nudge();
        }
        pushed
    }

    fn pending(&self, rx: mpsc::Receiver<io::Result<Vec<u8>>>, admitted: bool) -> PendingReply {
        let conn = if admitted { Arc::downgrade(&self.inner.conn) } else { Weak::new() };
        PendingReply { rx, deadline: self.inner.shared.deadline, conn }
    }

    /// Submit a raw call record without waiting for its reply — the
    /// split-phase half of pipelined write-back. The pipeline copies the
    /// record once, behind room for its record mark, and sends that copy
    /// as it is. Uncontended, with nothing ahead of it, the call is sealed
    /// and written on this thread; otherwise it goes through the
    /// submission ring, blocking only while the ring is full
    /// (backpressure against a slow upstream).
    pub fn submit(&self, record: impl AsRef<[u8]>) -> PendingReply {
        let (reply_tx, rx) = mpsc::channel();
        let mut call = Some((framed(record.as_ref()), reply_tx));
        self.inner.conn.drive(IoState::can_admit, |io| {
            let (record, reply_tx) = call.take().expect("driven at most once");
            io.admit(record, reply_tx);
        });
        let Some((record, reply_tx)) = call else { return self.pending(rx, true) };
        // A push failure means the pump retired; the rejected command's
        // reply sender drops here and wait() reports the broken channel.
        let _ = self.push(Cmd::Call { record, reply_tx });
        self.pending(rx, false)
    }

    /// Submit a group of call records atomically. Up to a window of them
    /// is admitted before the pump collects any reply, so a split-phase
    /// flush overlaps its round trips deterministically.
    pub fn submit_batch<R: AsRef<[u8]>>(
        &self,
        records: impl IntoIterator<Item = R>,
    ) -> Vec<PendingReply> {
        let (mut waiters, mut batch) = (Vec::new(), Vec::new());
        for record in records {
            let (reply_tx, rx) = mpsc::channel();
            batch.push((framed(record.as_ref()), reply_tx));
            waiters.push(self.pending(rx, false));
        }
        let _ = self.push(Cmd::Batch(batch));
        waiters
    }

    /// Forward one call record and block for its reply.
    pub fn call(&self, record: impl AsRef<[u8]>) -> io::Result<Vec<u8>> {
        self.submit(record).wait()
    }

    /// Quiesce the window and renegotiate the session keys, blocking
    /// until the new keys are in effect. No-op on a plaintext upstream.
    pub fn rekey(&self) -> io::Result<()> {
        let (done_tx, rx) = mpsc::channel();
        self.push(Cmd::Rekey { done_tx }).map_err(|_| terminated())?;
        rx.recv().map_err(|_| terminated())?
    }

    /// Completed handshakes on the secure channel (`None` when plain),
    /// cumulative across reconnections.
    pub fn handshake_count(&self) -> Option<u64> {
        self.inner
            .shared
            .is_tls
            .then(|| self.inner.shared.handshakes.load(Ordering::Acquire))
    }
}

/// One admitted call awaiting its reply.
struct InFlight {
    orig_xid: [u8; 4],
    /// The full wire record (wire xid already patched in) behind its mark
    /// headroom, kept so the call can be retransmitted across a
    /// reconnect. On completion this buffer is recycled: the reply is
    /// swapped into it and handed to the waiter, and the retired capacity
    /// becomes the next read scratch.
    record: Vec<u8>,
    /// Whether retransmission on a fresh channel is safe
    /// (see [`retry::replayable`]).
    replay: bool,
    /// NFS procedure number (peeked from the call header), for trace
    /// events and reply-latency attribution.
    proc: u32,
    /// When the call was last transmitted; reply RTT = `sent_at.elapsed()`.
    sent_at: Instant,
    reply_tx: ReplyTx,
}

/// Outcome of one unit of pump work.
enum Step {
    /// Did something; the pass may continue within its budget.
    Progress,
    /// Nothing actionable until the next readiness notification.
    Idle,
    /// The connection is retired: cleanly (ring closed and drained), or
    /// because the channel died and every waiter was failed.
    Retire,
}

/// The pipeline's entire I/O state, driven by a waiting caller or by the
/// pool worker it is pinned to; the recovery path re-enters the same
/// machinery on a fresh upstream.
struct IoState {
    upstream: Upstream,
    /// Readiness watch on the raw transport under `upstream`.
    watch: PipeWatch,
    /// Consumer side of the handle-to-pump submission ring.
    cmd_rx: SubmitReceiver<Cmd>,
    /// The pool token's readiness, kept so a reconnected transport's
    /// watch can be routed to the same token. `None` until the worker
    /// attaches.
    readiness: Option<Readiness>,
    /// The watch is deregistered on a caller's behalf: from its own
    /// admission until its wait ends, or until the worker pumps.
    withheld: bool,
    /// Every handle dropped (ring closed); retire once `queue` drains.
    shutdown: bool,
    /// Retired: waiters completed, ring closed, upstream released.
    retired: bool,
    gate: RetireGate,
    window: u32,
    rekey_every: Option<u64>,
    stats: Emitter,
    shared: Arc<Shared>,
    reconnector: Option<Box<dyn Reconnector>>,
    retry: RetryPolicy,
    /// Reconnections performed so far (lifetime budget).
    reconnects_used: u32,
    /// Commands accepted but not yet admitted (window full or rekeying).
    queue: VecDeque<Cmd>,
    in_flight: HashMap<u32, InFlight>,
    rekey_waiters: Vec<mpsc::Sender<io::Result<()>>>,
    rekey_due: bool,
    /// Wire xids live only between the two proxies; any monotonic counter
    /// works as long as at most `window` are outstanding at once.
    wire_xid: u32,
    calls_since_rekey: u64,
    /// Read scratch; replies are swapped out of it to their waiters and
    /// the retired call record's buffer is swapped in, so at steady state
    /// with same-sized calls and replies no allocation occurs here.
    reply_buf: Vec<u8>,
    /// Largest capacity `reply_buf` has reached. Because the swap recycles
    /// buffers of varying capacity, growth is charged against this
    /// high-water mark, not per-read capacity deltas.
    reply_high_water: usize,
}

impl IoState {
    fn attach(&mut self, readiness: Readiness) {
        // Both event sources share the token: commands and upstream data
        // each wake the same pump. Registration fires immediately when
        // anything is already pending, so submissions racing the pin are
        // not lost.
        self.watch.register(readiness.clone());
        self.cmd_rx.register(readiness.clone());
        self.readiness = Some(readiness);
    }

    /// Whether a caller may hold the state at all: the worker has
    /// attached it (so readiness can be handed back) and it is alive.
    fn drivable(&self) -> bool {
        self.readiness.is_some() && !self.retired
    }

    /// Whether a caller may admit its own call: nothing in flight beside
    /// it, nothing queued ahead of it, no rekey waiting for a quiesce.
    fn can_admit(&self) -> bool {
        self.in_flight.is_empty()
            && self.queue.is_empty()
            && !self.rekey_due
            && !self.cmd_rx.has_input()
    }

    /// Whether a pass may admit another command: the window has room and
    /// no rekey is quiescing it.
    fn admitting(&self) -> bool {
        !self.rekey_due && (self.in_flight.len() as u32) < self.window
    }

    /// Work a releasing caller leaves to the worker: the queue beyond the
    /// window, a due rekey, or unpinning a retired connection.
    fn owes_worker(&self) -> bool {
        self.retired || self.rekey_due || !self.queue.is_empty()
    }

    /// Deregister the wire's readiness on a caller's behalf: the reply
    /// it is about to wait for must not wake the worker.
    fn withhold(&mut self) {
        if !self.withheld {
            self.watch.deregister();
            self.withheld = true;
        }
    }

    /// Give the wire back to the worker; registration fires at once if
    /// input arrived meanwhile.
    fn hand_back(&mut self) {
        if self.withheld {
            self.withheld = false;
            if let Some(r) = &self.readiness {
                self.watch.register(r.clone());
            }
        }
    }

    /// The worker's pass: at most [`MAX_PUMP`] units of work. Whatever
    /// woke the worker, the wire is its business again.
    fn pump(&mut self) -> ConnPump {
        if self.retired {
            return ConnPump::Gone;
        }
        self.hand_back();
        for _ in 0..MAX_PUMP {
            match self.advance() {
                Step::Progress => {}
                Step::Idle => return ConnPump::Idle,
                Step::Retire => return ConnPump::Gone,
            }
        }
        // Budget spent; there may or may not be work left — re-arming
        // unconditionally costs at most one extra (idle) pass.
        ConnPump::Rearm
    }

    /// The caller's drive: pump until `rx` holds this caller's reply,
    /// completing every other reply read on the way, and sleep on the
    /// wire while nothing is actionable. The wire's readiness is withheld
    /// from the worker meanwhile and handed back on the way out. `None`
    /// if nothing is left in flight to wait for — the reply is then
    /// someone else's to deliver.
    fn pump_until(
        &mut self,
        rx: &mpsc::Receiver<io::Result<Vec<u8>>>,
        deadline: Option<Instant>,
    ) -> Option<io::Result<Vec<u8>>> {
        self.withhold();
        let reply = loop {
            match rx.try_recv() {
                Ok(reply) => break Some(reply),
                Err(mpsc::TryRecvError::Disconnected) => break Some(Err(terminated())),
                Err(mpsc::TryRecvError::Empty) => {}
            }
            match self.advance() {
                Step::Progress => {}
                // Retirement completed every waiter, or dropped its
                // command with the ring.
                Step::Retire => break Some(rx.try_recv().unwrap_or_else(|_| Err(terminated()))),
                Step::Idle if self.in_flight.is_empty() => break None,
                Step::Idle => {
                    if !self.sleep(deadline) {
                        break Some(Err(timed_out()));
                    }
                }
            }
        };
        self.hand_back();
        reply
    }

    /// A driving caller's sleep on the wire: until input or EOF, until
    /// `deadline` (false), or — while the window has room — until another
    /// thread pushes a command, which the next pass admits, so a call
    /// submitted meanwhile goes out now rather than a round trip later.
    /// The wire is published in `Shared::asleep` before the ring is
    /// looked at: a push the look misses nudges the wire.
    fn sleep(&mut self, deadline: Option<Instant>) -> bool {
        if !self.admitting() {
            return self.watch.wait_input(deadline);
        }
        *self.shared.asleep.lock() = Some(self.watch.clone());
        let woke = self.cmd_rx.has_input() || self.watch.wait_input(deadline);
        self.shared.asleep.lock().take();
        woke
    }

    /// Admit one call on the caller's thread: the worker's `send_call`,
    /// with the worker's recovery applied to a failed write. The wire is
    /// withheld from before the write — a fast reply must not wake the
    /// worker ahead of the caller's wait.
    fn admit(&mut self, record: Vec<u8>, reply_tx: ReplyTx) {
        self.withhold();
        if let Err(e) = self.send_call(record, reply_tx) {
            self.recover_or_retire(e);
        }
    }

    /// One unit of work with recovery applied to a transport error.
    fn advance(&mut self) -> Step {
        match self.pump_once() {
            Ok(Step::Retire) => {
                self.retire();
                Step::Retire
            }
            Ok(step) => step,
            Err(e) => self.recover_or_retire(e),
        }
    }

    /// Reconnect and replay after a transport error, or — when the
    /// channel is dead — fail every waiter and retire.
    fn recover_or_retire(&mut self, err: io::Error) -> Step {
        match self.recover(err) {
            Ok(()) => Step::Progress,
            Err(fatal) => {
                self.fail_channel(&fatal);
                self.retire();
                Step::Retire
            }
        }
    }

    /// Later submissions fail fast instead of queueing for nobody, the
    /// transport closes now rather than when the last handle drops, and
    /// a dropping handle stops waiting.
    fn retire(&mut self) {
        self.retired = true;
        self.cmd_rx.close();
        self.upstream = Upstream::Plain(Box::new(io::empty()));
        self.gate.set();
    }

    /// Perform at most one unit of work. Priority: retirement check,
    /// admission (fills the window), rekey at quiesce, reply collection.
    fn pump_once(&mut self) -> io::Result<Step> {
        if self.shutdown && self.queue.is_empty() {
            return Ok(self.finish());
        }

        // Admission: top the window up from queued commands, unless a
        // rekey is pending (which quiesces the channel first).
        if self.admitting() {
            let cmd = match self.queue.pop_front() {
                Some(c) => Some(c),
                None if !self.shutdown => match self.cmd_rx.pop() {
                    Popped::Value(c) => Some(c),
                    Popped::Empty => None,
                    Popped::Closed => {
                        self.shutdown = true;
                        // Loop back into the retirement check.
                        return Ok(Step::Progress);
                    }
                },
                None => None,
            };
            if let Some(cmd) = cmd {
                match cmd {
                    Cmd::Call { record, reply_tx } => self.send_call(record, reply_tx)?,
                    Cmd::Batch(calls) => {
                        // Expand at the head of the queue, preserving
                        // batch order; admission re-pops them before any
                        // reply is read (admission has priority) and
                        // parks overflow beyond the window.
                        for (record, reply_tx) in calls.into_iter().rev() {
                            self.queue.push_front(Cmd::Call { record, reply_tx });
                        }
                    }
                    Cmd::Rekey { done_tx } => {
                        self.rekey_due = true;
                        self.rekey_waiters.push(done_tx);
                    }
                }
                return Ok(Step::Progress);
            }
        }

        if self.rekey_due && self.in_flight.is_empty() {
            // Quiesced: safe to renegotiate over the shared channel. On
            // failure the waiters stay parked — a successful recovery
            // (full fresh handshake) satisfies them.
            self.rekey_due = false;
            self.calls_since_rekey = 0;
            renegotiate(&mut self.upstream, &self.shared)?;
            for w in self.rekey_waiters.drain(..) {
                let _ = w.send(Ok(()));
            }
            return Ok(Step::Progress);
        }

        if !self.in_flight.is_empty() {
            if self.watch.has_input() {
                self.read_one_reply()?;
                return Ok(Step::Progress);
            }
            if self.watch.is_closed() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "upstream EOF with calls in flight",
                ));
            }
        }

        Ok(Step::Idle)
    }

    /// Final drain once every handle is gone: deliver replies that have
    /// already arrived, then fail anything still outstanding — dropping
    /// the last handle abandons calls whose replies are still in the
    /// air. Leaves the depth gauge at zero.
    fn finish(&mut self) -> Step {
        while !self.in_flight.is_empty() && self.watch.has_input() {
            if self.read_one_reply().is_err() {
                break;
            }
        }
        if !self.in_flight.is_empty() {
            for (_, call) in self.in_flight.drain() {
                let _ = call
                    .reply_tx
                    .send(Err(broken("pipeline dropped with calls in flight")));
            }
            self.stats.set(Gauge::PipelineDepth, 0);
        }
        for w in self.rekey_waiters.drain(..) {
            let _ = w.send(Err(terminated()));
        }
        Step::Retire
    }

    /// Admit one [`framed`] call: rewrite its xid, register the waiter,
    /// transmit it from its own buffer. The call is registered *before*
    /// the write so a mid-write failure is recovered (replayed or failed)
    /// uniformly with every other in-flight call.
    fn send_call(&mut self, mut record: Vec<u8>, reply_tx: ReplyTx) -> io::Result<()> {
        let call = &mut record[MARK_LEN..];
        if call.len() < 4 {
            let _ = reply_tx.send(Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "RPC record shorter than an xid",
            )));
            return Ok(());
        }
        self.wire_xid = self.wire_xid.wrapping_add(1);
        let orig_xid = [call[0], call[1], call[2], call[3]];
        call[0..4].copy_from_slice(&self.wire_xid.to_be_bytes());
        // Classification is only consulted by the recovery path.
        let replay = self.reconnector.is_some() && retry::replayable(call);
        let proc = sgfs_obs::peek_proc(call);
        self.stats.emit(Hop::UpstreamSend, self.wire_xid, proc, call.len() as u64);
        self.in_flight.insert(
            self.wire_xid,
            InFlight { orig_xid, record, replay, proc, sent_at: Instant::now(), reply_tx },
        );
        self.admitted();
        self.calls_since_rekey += 1;
        if self.rekey_every.is_some_and(|n| self.calls_since_rekey >= n) {
            self.rekey_due = true;
        }
        let sent = self.in_flight.get_mut(&self.wire_xid).expect("admitted above");
        write_marked(self.upstream.stream(), &mut sent.record)
    }

    /// The window just grew (an admission, a replay): publish its depth.
    fn admitted(&self) {
        let depth = self.in_flight.len() as u64;
        self.stats.set(Gauge::PipelineDepth, depth);
        self.stats.raise(Gauge::PipelinePeak, depth);
    }

    /// Collect exactly one reply and complete its waiter, handing the
    /// reply buffer over without copying.
    fn read_one_reply(&mut self) -> io::Result<()> {
        match read_record_into(self.upstream.stream(), &mut self.reply_buf) {
            Ok(true) => {}
            Ok(false) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "upstream EOF with calls in flight",
                ))
            }
            Err(e) => return Err(e),
        }
        let cap = self.reply_buf.capacity();
        if cap > self.reply_high_water {
            self.stats.add(Counter::RecordAllocBytes, (cap - self.reply_high_water) as u64);
            self.reply_high_water = cap;
        }
        if self.reply_buf.len() < 4 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "upstream reply shorter than an xid",
            ));
        }
        let xid = u32::from_be_bytes([
            self.reply_buf[0],
            self.reply_buf[1],
            self.reply_buf[2],
            self.reply_buf[3],
        ]);
        let Some(mut call) = self.in_flight.remove(&xid) else {
            // A reply to nothing we sent: the stream framing can no
            // longer be trusted; a fresh connection can.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "upstream reply to unknown xid",
            ));
        };
        // aux = upstream round-trip time in nanoseconds.
        let rtt = call.sent_at.elapsed().as_nanos() as u64;
        self.stats.emit(Hop::UpstreamReply, xid, call.proc, rtt);
        // Zero-copy handoff: the reply rides out in `reply_buf`, and the
        // retired call record's buffer becomes the next read scratch.
        std::mem::swap(&mut self.reply_buf, &mut call.record);
        call.record[0..4].copy_from_slice(&call.orig_xid);
        self.reply_buf.clear();
        self.stats.set(Gauge::PipelineDepth, self.in_flight.len() as u64);
        // The caller may have given up on the reply; channel teardown
        // handles the rest.
        let _ = call.reply_tx.send(Ok(call.record));
        Ok(())
    }

    /// Transport failure: fail the in-flight calls that cannot be safely
    /// retransmitted, then re-dial and replay the rest. `Err` means the
    /// channel is truly dead (no reconnector, fatal error, or budget
    /// exhausted) and carries the terminal cause.
    fn recover(&mut self, err: io::Error) -> io::Result<()> {
        if self.reconnector.is_none()
            || !is_transient_io(&err)
            || self.reconnects_used >= self.retry.max_reconnects
        {
            return Err(err);
        }

        // Partition the window: idempotent calls survive for replay (in
        // wire-xid order, preserving relative submission order — COMMIT
        // never jumps ahead of a replayed WRITE because COMMIT is never
        // in flight while unstable WRITEs are, and non-idempotent calls
        // fail right here rather than replay).
        let mut replay: Vec<(u32, InFlight)> = Vec::new();
        for (xid, call) in self.in_flight.drain() {
            if call.replay {
                replay.push((xid, call));
            } else {
                let _ = call.reply_tx.send(Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "connection lost with a non-idempotent call in flight",
                )));
            }
        }
        replay.sort_by_key(|(xid, _)| *xid);
        self.stats.set(Gauge::PipelineDepth, 0);

        let mut backoff = self.retry.backoff_base;
        let mut last = err;
        for attempt in 0..self.retry.dial_attempts.max(1) {
            if attempt > 0 {
                let d = backoff.min(self.retry.backoff_cap);
                std::thread::sleep(d);
                self.stats.emit(Hop::Backoff, 0, NO_PROC, d.as_nanos() as u64);
                backoff = backoff.saturating_mul(2);
            }
            let dialed = self
                .reconnector
                .as_mut()
                .expect("checked above")
                .reconnect(attempt);
            match dialed {
                Ok((up, watch)) => {
                    self.install(up, watch);
                    match self.resend(&mut replay) {
                        Ok(()) => {
                            let replayed = replay.len() as u64;
                            for (xid, mut call) in replay {
                                self.stats.emit(Hop::Replay, xid, call.proc, 0);
                                call.sent_at = Instant::now();
                                self.in_flight.insert(xid, call);
                            }
                            self.stats.emit(Hop::Reconnect, 0, NO_PROC, replayed);
                            self.admitted();
                            self.reconnects_used += 1;
                            // The fresh connection ran a full handshake:
                            // any pending rekey request is satisfied.
                            self.rekey_due = false;
                            self.calls_since_rekey = 0;
                            for w in self.rekey_waiters.drain(..) {
                                let _ = w.send(Ok(()));
                            }
                            return Ok(());
                        }
                        Err(e) if is_transient_io(&e) => last = e,
                        Err(e) => {
                            fail_waiters(replay, &e);
                            return Err(e);
                        }
                    }
                }
                Err(e) if is_transient_io(&e) => last = e,
                Err(e) => {
                    fail_waiters(replay, &e);
                    return Err(e);
                }
            }
        }
        fail_waiters(replay, &last);
        Err(last)
    }

    /// Adopt a fresh upstream, carrying the cumulative handshake count
    /// (and crypto-time accounting) over to the replacement channel and
    /// routing the new transport's readiness into the existing pool
    /// token (registration fires immediately if data already arrived) —
    /// unless the wire is withheld, when handing it back registers it.
    fn install(&mut self, mut up: Upstream, watch: PipeWatch) {
        if let Upstream::Tls(t) = &mut up {
            t.obs = Some(self.stats.clone());
            let total = self.shared.handshakes.load(Ordering::Acquire) + t.handshake_count();
            t.set_handshake_count(total);
            self.shared.handshakes.store(total, Ordering::Release);
        }
        self.upstream = up;
        self.watch = watch;
        match &self.readiness {
            Some(r) if !self.withheld => self.watch.register(r.clone()),
            _ => {}
        }
    }

    /// Retransmit every surviving call on the (fresh) upstream. Nothing
    /// is re-registered until all writes land: a mid-resend failure kills
    /// this connection too, and the next dial attempt resends them all.
    fn resend(&mut self, replay: &mut [(u32, InFlight)]) -> io::Result<()> {
        for (_, call) in replay {
            write_marked(self.upstream.stream(), &mut call.record)?;
        }
        Ok(())
    }

    /// Complete every outstanding waiter with an error; the upstream is
    /// dead beyond recovery.
    fn fail_channel(&mut self, cause: &io::Error) {
        let msg = format!("upstream channel failed: {cause}");
        for (_, call) in self.in_flight.drain() {
            let _ = call.reply_tx.send(Err(broken(&msg)));
        }
        self.stats.set(Gauge::PipelineDepth, 0);
        for cmd in self.queue.drain(..) {
            match cmd {
                Cmd::Call { reply_tx, .. } => {
                    let _ = reply_tx.send(Err(broken(&msg)));
                }
                Cmd::Batch(calls) => {
                    for (_, reply_tx) in calls {
                        let _ = reply_tx.send(Err(broken(&msg)));
                    }
                }
                Cmd::Rekey { done_tx } => {
                    let _ = done_tx.send(Err(broken(&msg)));
                }
            }
        }
        for w in self.rekey_waiters.drain(..) {
            let _ = w.send(Err(broken(&msg)));
        }
    }
}

/// Fail a batch of replay candidates whose recovery did not pan out.
fn fail_waiters(replay: Vec<(u32, InFlight)>, cause: &io::Error) {
    let msg = format!("upstream recovery failed: {cause}");
    for (_, call) in replay {
        let _ = call.reply_tx.send(Err(broken(&msg)));
    }
}

fn renegotiate(upstream: &mut Upstream, shared: &Shared) -> io::Result<()> {
    match upstream {
        Upstream::Tls(t) => {
            t.renegotiate().map_err(io::Error::from)?;
            shared.handshakes.store(t.handshake_count(), Ordering::Release);
            Ok(())
        }
        // Nothing to rekey on a plaintext channel (gfs / tunneled).
        Upstream::Plain(_) => Ok(()),
    }
}

fn broken(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, msg.to_string())
}

fn terminated() -> io::Error {
    broken("upstream pipeline terminated")
}

fn timed_out() -> io::Error {
    io::Error::new(io::ErrorKind::TimedOut, "upstream reply deadline exceeded")
}
#[cfg(test)]
mod tests {
    use super::*;
    use sgfs_net::pipe_pair;
    use sgfs_oncrpc::record::{read_record, write_record};

    /// An echo server that reads `n` records and replies with each
    /// record's xid followed by a payload derived from the request —
    /// optionally delaying replies to force deep windows.
    fn echo_server(
        mut end: sgfs_net::PipeEnd,
        batch: usize,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || loop {
            let mut held = Vec::new();
            for _ in 0..batch {
                match read_record(&mut end) {
                    Ok(Some(r)) => held.push(r),
                    _ => return,
                }
            }
            // Reply in reverse order: exercises the demux.
            for r in held.into_iter().rev() {
                let mut reply = r[0..4].to_vec();
                reply.extend_from_slice(b"echo:");
                reply.extend_from_slice(&r[4..]);
                if write_record(&mut end, &reply).is_err() {
                    return;
                }
            }
        })
    }

    fn call_record(xid: u32, body: &[u8]) -> Vec<u8> {
        let mut r = xid.to_be_bytes().to_vec();
        r.extend_from_slice(body);
        r
    }

    /// Box a pipe end as a plaintext upstream, keeping its watch.
    fn plain_upstream(end: sgfs_net::PipeEnd) -> (Upstream, PipeWatch) {
        let watch = end.watch();
        (Upstream::Plain(Box::new(end)), watch)
    }

    fn plain_pipeline(end: sgfs_net::PipeEnd, window: u32, stats: Emitter) -> Pipeline {
        let (up, watch) = plain_upstream(end);
        Pipeline::new(up, watch, window, None, stats)
    }

    #[test]
    fn replies_match_calls_across_reordering() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 4);
        let stats = Emitter::detached("client");
        let p = plain_pipeline(client_end, 4, stats.clone());

        let pending: Vec<(u32, PendingReply)> = (0..4u32)
            .map(|i| {
                let record = call_record(0x1000 + i, format!("payload-{i}").as_bytes());
                (0x1000 + i, p.submit(record))
            })
            .collect();
        for (xid, reply) in pending {
            let reply = reply.wait().unwrap();
            assert_eq!(&reply[0..4], &xid.to_be_bytes(), "xid restored");
            let i = xid - 0x1000;
            assert_eq!(&reply[4..], format!("echo:payload-{i}").as_bytes());
        }
        assert_eq!(stats.pipeline_peak(), 4);
        assert_eq!(stats.gauge(Gauge::PipelineDepth), 0);
    }

    #[test]
    fn window_of_one_is_serial() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let p = plain_pipeline(client_end, 1, Emitter::detached("client"));
        for i in 0..20u32 {
            let reply = p.call(call_record(i, b"x")).unwrap();
            assert_eq!(&reply[0..4], &i.to_be_bytes());
        }
    }

    #[test]
    fn colliding_caller_xids_are_disambiguated() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 2);
        let p = plain_pipeline(client_end, 2, Emitter::detached("client"));
        // Two concurrent calls with the SAME caller xid: the wire rewrite
        // must keep them apart.
        let a = p.submit(call_record(7, b"first"));
        let b = p.submit(call_record(7, b"second"));
        let ra = a.wait().unwrap();
        let rb = b.wait().unwrap();
        assert_eq!(&ra[4..], b"echo:first");
        assert_eq!(&rb[4..], b"echo:second");
    }

    #[test]
    fn batch_admits_a_full_window_before_reading() {
        let (client_end, server_end) = pipe_pair();
        // The server releases nothing until 4 records have arrived: only
        // an atomic batch admission can satisfy it.
        let _server = echo_server(server_end, 4);
        let stats = Emitter::detached("client");
        let p = plain_pipeline(client_end, 4, stats.clone());
        let records: Vec<_> = (0..4u32).map(|i| call_record(i, b"batched")).collect();
        let pending = p.submit_batch(records);
        for (i, reply) in pending.into_iter().enumerate() {
            let reply = reply.wait().unwrap();
            assert_eq!(&reply[0..4], &(i as u32).to_be_bytes());
        }
        assert_eq!(stats.pipeline_peak(), 4);
    }

    #[test]
    fn batch_overflow_parks_behind_the_window() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let p = plain_pipeline(client_end, 2, Emitter::detached("client"));
        // 10 calls through a window of 2: overflow tops up as replies
        // complete, in submission order.
        let records: Vec<_> = (0..10u32).map(|i| call_record(i, b"over")).collect();
        let pending = p.submit_batch(records);
        for (i, reply) in pending.into_iter().enumerate() {
            let reply = reply.wait().unwrap();
            assert_eq!(&reply[0..4], &(i as u32).to_be_bytes());
        }
    }

    #[test]
    fn upstream_eof_fails_outstanding_calls() {
        let (client_end, server_end) = pipe_pair();
        let p = plain_pipeline(client_end, 4, Emitter::detached("client"));
        let pending = p.submit(call_record(1, b"doomed"));
        drop(server_end);
        assert!(pending.wait().is_err());
        // Subsequent calls fail fast rather than hanging.
        assert!(p.call(call_record(2, b"late")).is_err());
    }

    #[test]
    fn plain_rekey_is_noop() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let p = plain_pipeline(client_end, 4, Emitter::detached("client"));
        assert!(p.rekey().is_ok());
        assert_eq!(p.handshake_count(), None);
        assert_eq!(&p.call(call_record(9, b"after")).unwrap()[0..4], &9u32.to_be_bytes());
    }

    #[test]
    fn record_alloc_settles_at_steady_state() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let stats = Emitter::detached("client");
        let p = plain_pipeline(client_end, 4, stats.clone());
        let payload = vec![0xabu8; 4096];
        for i in 0..32u32 {
            p.call(call_record(i, &payload)).unwrap();
        }
        let settled = stats.record_alloc_bytes();
        assert!(settled > 0, "scratch growth must be accounted at warm-up");
        assert!(
            settled <= 64 * 1024,
            "settled scratch accounting implausibly large: {settled} B \
             (per-reply copies would inflate it every call)"
        );
        // Steady state at the settled size, then *varying* sizes: the
        // reply handoff recycles caller buffers of differing capacity,
        // and none of that churn may be charged as new scratch growth.
        for i in 32..96u32 {
            p.call(call_record(i, &payload)).unwrap();
        }
        for i in 96..128u32 {
            let len = 64 + ((i as usize * 509) % payload.len());
            p.call(call_record(i, &payload[..len])).unwrap();
        }
        assert_eq!(
            stats.record_alloc_bytes(),
            settled,
            "record scratch buffers must stop growing at steady state"
        );
    }

    // --- fault recovery -------------------------------------------------

    use sgfs_nfs3::proc::procnum;
    use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
    use sgfs_oncrpc::{AuthSysParams, CallHeader, OpaqueAuth};
    use sgfs_xdr::{XdrEncode, XdrEncoder};

    /// A minimal but *valid* NFSv3 call record (the replay classifier
    /// must be able to decode the header).
    fn nfs_record(xid: u32, proc: u32) -> Vec<u8> {
        let header = CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc,
            cred: OpaqueAuth::sys(&AuthSysParams::new("t", 1001, 1001)),
            verf: OpaqueAuth::none(),
        };
        let mut enc = XdrEncoder::with_capacity(64);
        header.encode(&mut enc);
        enc.into_bytes()
    }

    /// A reconnector serving fresh echo-server connections, refusing the
    /// first `refuse` dial attempts.
    fn echo_reconnector(refuse: u32) -> Box<dyn Reconnector> {
        let mut refusals = refuse;
        Box::new(move |_attempt: u32| {
            if refusals > 0 {
                refusals -= 1;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "injected connect refusal",
                ));
            }
            let (client_end, server_end) = pipe_pair();
            echo_server(server_end, 1);
            Ok(plain_upstream(client_end))
        })
    }

    fn quick_retry() -> RetryPolicy {
        RetryPolicy {
            max_reconnects: 4,
            dial_attempts: 6,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            call_deadline: Some(Duration::from_secs(10)),
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn reconnect_replays_idempotent_calls() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let (up, watch) = plain_upstream(client_end);
        let p = Pipeline::with_recovery(
            up,
            watch,
            4,
            None,
            stats.clone(),
            Some(echo_reconnector(0)),
            quick_retry(),
        );
        let pending = p.submit(nfs_record(0x77, procnum::GETATTR));
        // Kill the first connection before any reply: the GETATTR must be
        // replayed on the fresh channel and still complete correctly.
        drop(server_end);
        let reply = pending.wait().unwrap();
        assert_eq!(&reply[0..4], &0x77u32.to_be_bytes(), "caller xid restored");
        assert_eq!(stats.reconnects(), 1);
        assert_eq!(stats.replays(), 1);
        // Channel stays serviceable afterwards.
        assert!(p.call(nfs_record(0x78, procnum::ACCESS)).is_ok());
    }

    #[test]
    fn connect_refusals_are_retried_with_backoff() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let (up, watch) = plain_upstream(client_end);
        let p = Pipeline::with_recovery(
            up,
            watch,
            4,
            None,
            stats.clone(),
            Some(echo_reconnector(2)),
            quick_retry(),
        );
        let pending = p.submit(nfs_record(1, procnum::LOOKUP));
        drop(server_end);
        assert!(pending.wait().is_ok());
        assert_eq!(stats.reconnects(), 1);
        assert!(stats.sum(Hop::Backoff) > 0, "refused dials must back off");
    }

    #[test]
    fn non_idempotent_calls_fail_cleanly_on_reconnect() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let (up, watch) = plain_upstream(client_end);
        let p = Pipeline::with_recovery(
            up,
            watch,
            4,
            None,
            stats.clone(),
            Some(echo_reconnector(0)),
            quick_retry(),
        );
        // Batch admission puts both calls in flight atomically before
        // the pump collects any reply.
        let mut pending =
            p.submit_batch(vec![nfs_record(2, procnum::RENAME), nfs_record(3, procnum::GETATTR)]);
        let getattr = pending.pop().unwrap();
        let rename = pending.pop().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(server_end);
        let err = rename.wait().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{err}");
        assert!(getattr.wait().is_ok(), "idempotent neighbor must survive");
        assert_eq!(stats.replays(), 1, "only the GETATTR is replayed");
    }

    #[test]
    fn reconnect_budget_exhaustion_is_terminal() {
        let (client_end, server_end) = pipe_pair();
        let (up, watch) = plain_upstream(client_end);
        let p = Pipeline::with_recovery(
            up,
            watch,
            4,
            None,
            Emitter::detached("client"),
            // Every dial refused: recovery must give up, not spin.
            Some(Box::new(|_attempt: u32| {
                Err::<(Upstream, PipeWatch), _>(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "always refused",
                ))
            })),
            RetryPolicy {
                dial_attempts: 2,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                ..quick_retry()
            },
        );
        let pending = p.submit(nfs_record(4, procnum::GETATTR));
        drop(server_end);
        assert!(pending.wait().is_err());
        assert!(p.call(nfs_record(5, procnum::GETATTR)).is_err(), "channel is dead");
    }

    #[test]
    fn trace_events_cover_send_reply_and_recovery() {
        let (client_end, server_end) = pipe_pair();
        let obs = sgfs_obs::Obs::new();
        let stats = Emitter::new(&obs, "client");
        let (up, watch) = plain_upstream(client_end);
        let p = Pipeline::with_recovery(
            up,
            watch,
            4,
            None,
            stats.clone(),
            Some(echo_reconnector(1)),
            quick_retry(),
        );
        // A one-shot server: answers the first call, then hangs up — the
        // second call must ride the recovery path.
        let server = std::thread::spawn(move || {
            let mut end = server_end;
            let r = read_record(&mut end).unwrap().unwrap();
            let mut reply = r[0..4].to_vec();
            reply.extend_from_slice(b"ok");
            write_record(&mut end, &reply).unwrap();
        });
        p.call(nfs_record(0x41, procnum::GETATTR)).unwrap();
        server.join().unwrap();
        p.call(nfs_record(0x42, procnum::READ)).unwrap();
        let hops: Vec<Hop> = obs.events().0.iter().map(|e| e.hop).collect();
        // First call: clean send/reply pair.
        assert_eq!(&hops[0..2], &[Hop::UpstreamSend, Hop::UpstreamReply]);
        // Second call: sent, channel dies, backed off (one refused dial),
        // replayed on the fresh channel, then replied.
        assert_eq!(hops[2], Hop::UpstreamSend);
        for hop in [Hop::Backoff, Hop::Replay, Hop::Reconnect, Hop::UpstreamReply] {
            assert!(hops[3..].contains(&hop), "missing {hop:?} in {hops:?}");
        }
        // Procedure attribution survives the wire-xid rewrite.
        let (events, _) = obs.events();
        assert!(events.iter().any(|e| e.hop == Hop::UpstreamReply && e.proc == procnum::READ));
        assert_eq!(obs.hop_hist(Hop::UpstreamReply).count(), 2);
    }

    #[test]
    fn silent_server_trips_call_deadline() {
        let (client_end, server_end) = pipe_pair();
        // No echo server: the connection is open but never answers.
        let (up, watch) = plain_upstream(client_end);
        let p = Pipeline::with_recovery(
            up,
            watch,
            4,
            None,
            Emitter::detached("client"),
            None,
            RetryPolicy {
                call_deadline: Some(Duration::from_millis(50)),
                ..RetryPolicy::default()
            },
        );
        let err = p.call(nfs_record(6, procnum::GETATTR)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        drop(server_end);
    }

    // --- the caller drives ----------------------------------------------

    /// Reports that its worker entered `pump`, then parks it there until
    /// `release` is dropped.
    struct Parked {
        rx: SubmitReceiver<()>,
        entered: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl PoolConn for Parked {
        fn attach(&mut self, readiness: Readiness, _: &mut ()) {
            self.rx.register(readiness);
        }
        fn pump(&mut self, _: &mut ()) -> ConnPump {
            let _ = self.entered.send(());
            let _ = self.release.recv();
            ConnPump::Gone
        }
    }

    /// Pin `upstream` onto a one-worker pool, then park that worker inside
    /// another connection's pump: from here on only callers move the
    /// pipeline. Dropping the returned sender releases the worker.
    fn caller_driven(
        upstream: (Upstream, PipeWatch),
        stats: Emitter,
        reconnector: Option<Box<dyn Reconnector>>,
        retry: RetryPolicy,
    ) -> (Pipeline, mpsc::Sender<()>) {
        let pool = ClientIoPool::new(1);
        let (up, watch) = upstream;
        let p = Pipeline::with_recovery_on(&pool, up, watch, 4, None, stats, reconnector, retry)
            .unwrap();
        wait_for("pipeline attached", || pool.active_conns() == 1);
        let (wake, rx) = submit_ring(1);
        let (entered, entered_rx) = mpsc::channel();
        let (release, parked) = mpsc::channel();
        pool.add_conn(Box::new(Parked { rx, entered, release: parked })).unwrap();
        wake.push(()).unwrap();
        entered_rx.recv_timeout(Duration::from_secs(5)).expect("worker parked");
        (p, release)
    }

    /// Reads one call, then hangs up without answering it.
    fn hang_up_after_one(mut end: sgfs_net::PipeEnd) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let _ = read_record(&mut end);
        })
    }

    #[test]
    fn a_call_completes_while_the_only_worker_is_parked_elsewhere() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let (p, release) = caller_driven(
            plain_upstream(client_end),
            Emitter::detached("client"),
            None,
            RetryPolicy::default(),
        );
        // Run the call on its own thread: were it handed to the parked
        // worker it would hang, and the deadline below turns that into
        // a failure.
        let (done_tx, done) = mpsc::channel();
        let caller = {
            let p = p.clone();
            std::thread::spawn(move || {
                for i in 0..8u32 {
                    let reply = p.call(call_record(0x50 + i, b"self-driven"));
                    let _ = done_tx.send(reply.map(|r| (i, r)));
                }
            })
        };
        for i in 0..8u32 {
            let (n, reply) = done
                .recv_timeout(Duration::from_secs(5))
                .expect("an uncontended call is sealed, sent and collected by its caller")
                .unwrap();
            assert_eq!(n, i);
            assert_eq!(&reply[0..4], &(0x50 + i).to_be_bytes());
            assert_eq!(&reply[4..], b"echo:self-driven");
        }
        caller.join().unwrap();
        drop(release);
    }

    #[test]
    fn caller_driven_deadline_times_out_and_a_late_reply_does_not_break_the_next_call() {
        let (client_end, mut server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let deadline = Duration::from_millis(50);
        let (p, release) = caller_driven(
            plain_upstream(client_end),
            stats.clone(),
            None,
            RetryPolicy { call_deadline: Some(deadline), ..RetryPolicy::default() },
        );
        // The server reads the call and stays silent; with the worker
        // parked only the caller's own timed wait on the wire ends it.
        let start = Instant::now();
        let err = p.call(nfs_record(0x61, procnum::GETATTR)).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(waited >= deadline, "timed out early: {waited:?}");
        assert!(waited < deadline + Duration::from_secs(2), "deadline overrun: {waited:?}");

        // The reply turns up late: the worker, back at work, collects and
        // discards it.
        drop(release);
        let late = read_record(&mut server_end).unwrap().unwrap();
        let mut reply = late[0..4].to_vec();
        reply.extend_from_slice(b"late");
        write_record(&mut server_end, &reply).unwrap();
        wait_for("late reply collected", || stats.gauge(Gauge::PipelineDepth) == 0);

        let _server = echo_server(server_end, 1);
        let next = p.call(nfs_record(0x62, procnum::GETATTR)).unwrap();
        assert_eq!(&next[0..4], &0x62u32.to_be_bytes(), "the next call gets its own reply");
        assert!(!next.ends_with(b"late"));
    }

    #[test]
    fn concurrent_callers_beside_batches_each_get_their_own_reply() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let (up, watch) = plain_upstream(client_end);
        // No per-call deadline: a lost wake-up hangs, and the deadline on
        // `done` below names it.
        let p = Pipeline::with_recovery(
            up,
            watch,
            4,
            None,
            Emitter::detached("client"),
            None,
            RetryPolicy { call_deadline: None, ..RetryPolicy::default() },
        );
        let (done_tx, done) = mpsc::channel();
        let callers: Vec<_> = (1..=2u32)
            .map(|t| {
                let (p, done_tx) = (p.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    for i in 0..300u32 {
                        let xid = (t << 16) | i;
                        let body = format!("caller{t}-{i}");
                        let reply = p.call(call_record(xid, body.as_bytes())).unwrap();
                        assert_eq!(&reply[0..4], &xid.to_be_bytes());
                        assert_eq!(&reply[4..], format!("echo:{body}").as_bytes());
                    }
                    done_tx.send(t).unwrap();
                })
            })
            .collect();
        // Batches wider than the window ride the ring meanwhile.
        for round in 0..30u32 {
            let records: Vec<_> = (0..6u32).map(|i| call_record(round << 8 | i, b"batch")).collect();
            for (i, reply) in p.submit_batch(records).into_iter().enumerate() {
                let reply = reply.wait().unwrap();
                assert_eq!(&reply[0..4], &(round << 8 | i as u32).to_be_bytes());
                assert_eq!(&reply[4..], b"echo:batch");
            }
        }
        for _ in 0..2 {
            done.recv_timeout(Duration::from_secs(20)).expect("a caller hung: lost wake-up");
        }
        for c in callers {
            c.join().unwrap();
        }
    }

    /// A caller asleep on its own reply is woken by another thread's
    /// submission and admits it: the server here answers nothing until
    /// it holds both calls, and with the worker parked only that sleeping
    /// caller can send the second one.
    #[test]
    fn a_call_submitted_while_another_caller_sleeps_on_the_wire_goes_out_at_once() {
        let (client_end, mut server_end) = pipe_pair();
        let (got_first, first) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let a = read_record(&mut server_end).unwrap().unwrap();
            got_first.send(()).unwrap();
            let b = read_record(&mut server_end).unwrap().unwrap();
            for call in [b, a] {
                let mut reply = call[0..4].to_vec();
                reply.extend_from_slice(b"both");
                write_record(&mut server_end, &reply).unwrap();
            }
            server_end
        });
        let deadline = Duration::from_secs(10);
        let (p, release) = caller_driven(
            plain_upstream(client_end),
            Emitter::detached("client"),
            None,
            RetryPolicy { call_deadline: Some(deadline), ..RetryPolicy::default() },
        );
        let sleeper = {
            let p = p.clone();
            std::thread::spawn(move || p.call(call_record(0xa, b"first")))
        };
        first.recv_timeout(Duration::from_secs(5)).expect("the first call was sent");
        let start = Instant::now();
        let second = p.submit(call_record(0xb, b"second")).wait().unwrap();
        let waited = start.elapsed();
        assert_eq!(&second[..], &[0, 0, 0, 0xb, b'b', b'o', b't', b'h']);
        let first = sleeper.join().unwrap().unwrap();
        assert_eq!(&first[0..4], &0xau32.to_be_bytes());
        assert!(waited < deadline / 2, "the second call waited {waited:?} for the first's reply");
        drop(release);
        drop(server.join().unwrap());
    }

    #[test]
    fn reconnect_replays_an_idempotent_call_its_caller_drives() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let (p, release) = caller_driven(
            plain_upstream(client_end),
            stats.clone(),
            Some(echo_reconnector(0)),
            quick_retry(),
        );
        hang_up_after_one(server_end);
        let reply = p.call(nfs_record(0x77, procnum::GETATTR)).unwrap();
        assert_eq!(&reply[0..4], &0x77u32.to_be_bytes(), "caller xid restored");
        assert_eq!(stats.reconnects(), 1);
        assert_eq!(stats.replays(), 1);
        assert!(p.call(nfs_record(0x78, procnum::ACCESS)).is_ok(), "fresh channel serves");
        drop(release);
    }

    #[test]
    fn connect_refusals_are_retried_with_backoff_by_the_caller() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let (p, release) = caller_driven(
            plain_upstream(client_end),
            stats.clone(),
            Some(echo_reconnector(2)),
            quick_retry(),
        );
        hang_up_after_one(server_end);
        assert!(p.call(nfs_record(1, procnum::LOOKUP)).is_ok());
        assert_eq!(stats.reconnects(), 1);
        assert!(stats.sum(Hop::Backoff) > 0, "refused dials must back off");
        drop(release);
    }

    #[test]
    fn a_non_idempotent_call_its_caller_drives_fails_cleanly_on_reconnect() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let (p, release) = caller_driven(
            plain_upstream(client_end),
            stats.clone(),
            Some(echo_reconnector(0)),
            quick_retry(),
        );
        hang_up_after_one(server_end);
        let err = p.call(nfs_record(2, procnum::RENAME)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{err}");
        assert_eq!(stats.replays(), 0, "a RENAME is never replayed");
        assert_eq!(stats.reconnects(), 1);
        assert!(p.call(nfs_record(3, procnum::GETATTR)).is_ok(), "fresh channel serves");
        drop(release);
    }

    #[test]
    fn reconnect_budget_exhaustion_is_terminal_for_a_caller_driven_call() {
        let (client_end, server_end) = pipe_pair();
        let refuse = |_attempt: u32| {
            Err::<(Upstream, PipeWatch), _>(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "always refused",
            ))
        };
        let (p, release) = caller_driven(
            plain_upstream(client_end),
            Emitter::detached("client"),
            Some(Box::new(refuse)),
            RetryPolicy {
                dial_attempts: 2,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                ..quick_retry()
            },
        );
        hang_up_after_one(server_end);
        assert!(p.call(nfs_record(4, procnum::GETATTR)).is_err());
        assert!(p.call(nfs_record(5, procnum::GETATTR)).is_err(), "channel is dead");
        drop(release);
    }

    // --- event-plane teardown -------------------------------------------

    use sgfs_oncrpc::process_thread_count;

    fn wait_for<F: Fn() -> bool>(what: &str, f: F) {
        for _ in 0..1000 {
            if f() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn drop_flushes_stats_and_joins_private_pool() {
        let before = process_thread_count();
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let stats = Emitter::detached("client");
        let p = plain_pipeline(client_end, 4, stats.clone());
        for i in 0..8u32 {
            p.call(call_record(i, b"x")).unwrap();
        }
        assert_eq!(stats.pipeline_peak(), 1);
        // Dropping the last handle retires the connection: the depth
        // gauge is flushed to zero before drop returns, and the private
        // pool worker joins — no leaked reader thread.
        drop(p);
        assert_eq!(stats.gauge(Gauge::PipelineDepth), 0, "depth gauge flushed before drop returned");
        if let (Some(b), Some(_)) = (before, process_thread_count()) {
            wait_for("threads back to baseline", || {
                process_thread_count().is_some_and(|a| a <= b)
            });
        }
    }

    #[test]
    fn drop_with_calls_in_flight_fails_them_and_retires() {
        let (client_end, server_end) = pipe_pair();
        // Silent server: the reply never comes.
        let p = plain_pipeline(client_end, 4, Emitter::detached("client"));
        let pending = p.submit(call_record(1, b"abandoned"));
        // Give the pump time to admit the call before abandoning it.
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        drop(p);
        assert!(
            start.elapsed() < RETIRE_WAIT,
            "retirement must not wait out the backstop timeout"
        );
        // The abandoned call fails instead of hanging.
        assert!(pending.wait().is_err());
        drop(server_end);
    }

    #[test]
    fn pipelines_share_a_fixed_pool() {
        let before = process_thread_count();
        let pool = ClientIoPool::new(2);
        let mut servers = Vec::new();
        let pipelines: Vec<Pipeline> = (0..16)
            .map(|_| {
                let (client_end, server_end) = pipe_pair();
                servers.push(echo_server(server_end, 1));
                let (up, watch) = plain_upstream(client_end);
                Pipeline::with_recovery_on(
                    &pool,
                    up,
                    watch,
                    4,
                    None,
                    Emitter::detached("client"),
                    None,
                    RetryPolicy::default(),
                )
                .unwrap()
            })
            .collect();
        wait_for("all conns pinned", || pool.active_conns() == 16);
        // Interleave traffic across every pipeline on the 2 workers.
        for round in 0..4u32 {
            let pending: Vec<PendingReply> = pipelines
                .iter()
                .map(|p| p.submit(call_record(round, b"pooled")))
                .collect();
            for reply in pending {
                assert_eq!(&reply.wait().unwrap()[4..], b"echo:pooled");
            }
        }
        drop(pipelines);
        wait_for("all conns retired", || pool.active_conns() == 0);
        for s in servers {
            s.join().unwrap();
        }
        drop(pool);
        if let (Some(b), Some(_)) = (before, process_thread_count()) {
            wait_for("pool threads joined", || {
                process_thread_count().is_some_and(|a| a <= b)
            });
        }
    }
}
