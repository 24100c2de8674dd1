//! Xid-demultiplexed RPC pipelining over the upstream channel, driven only
//! by the threads that submit to it or wait on it.
//!
//! The client proxy used to issue upstream calls strictly serially: write
//! one record, block for its reply, repeat. Over a WAN that bounds
//! throughput at one call per round trip. A [`Pipeline`] instead owns the
//! upstream channel and admits up to `window` calls before requiring a
//! reply, matching replies back to callers by RPC xid — the transaction
//! id that is the first word of every ONC RPC call *and* reply record
//! (RFC 5531 §9).
//!
//! Who drives the channel: only its callers, as the paper's client proxy
//! is a loop-back process that runs when the kernel client calls it. The
//! pipeline owns no thread. Its whole I/O state sits behind one mutex,
//! and whichever thread holds it runs the `pump_once` / `send_call` /
//! `read_one_reply` / `recover` code:
//!
//! * **Submitting** queues the call and, when the state is free, sends
//!   what the window has room for on the submitting thread.
//! * **Waiting** ([`PendingReply::wait`]) pumps the state until the reply
//!   lands, completing every other reply it reads on the way, and sleeps
//!   on the wire while nothing is actionable.
//! * **Polling** ([`PendingReply::try_wait`]) lands what has already
//!   arrived and never sleeps; read-ahead lands this way, on the READs
//!   that follow it.
//!
//! Contention is a queue, not a thread. A caller that finds the state
//! held leaves its call in the queue and waits for its turn. The holder
//! sends queued calls as the window allows — a holder asleep on the wire
//! with room in the window is nudged awake to do so — and sends what fits
//! before it lets go. Each reply it delivers, and its letting go, wake
//! the waiting callers: one whose reply is still out takes the state
//! over. Calls beyond the window stay queued for whoever pumps next, and
//! so do late replies to calls whose caller gave up (the next pump reads
//! and drops them).
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
//! Dropping the last handle drains the pipeline on the dropping thread:
//! replies that already arrived are delivered, everything else fails, the
//! depth gauge is flushed and the transport closed — nothing is left
//! parked.
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
//! mid-window), for the same reason; once it is due, the next call's pump
//! runs it. [`Pipeline::rekey`] runs on its own caller's thread and, like
//! a call, gives up at the per-call deadline.
//!
//! Fault recovery: sessions are expected to outlive transient WAN
//! failures, so a transport error is not the end of the channel when a
//! [`Reconnector`] is installed. The pump classifies the error
//! ([`is_transient_io`]), fails the in-flight calls that are unsafe to
//! retransmit (see [`retry::replayable`]), re-dials with capped
//! exponential backoff, and replays the idempotent remainder — in their
//! original wire-xid order — on the fresh channel. A successful
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
//! read never stalls. Only a waiting caller ever sleeps for *new* input:
//! in [`PipeWatch::wait_input`], still holding the state, until input,
//! EOF, a [`PipeWatch::nudge`] from a submitter whose call the window has
//! room for, or the per-call deadline of [`RetryPolicy::call_deadline`]
//! — a silent server yields `TimedOut` rather than a hang. A timed-out
//! call stays in flight until its late reply turns up. Renegotiation and
//! reconnect backoff block whichever caller is driving (they are rare,
//! bounded control-plane events).

use crate::config::RetryPolicy;
use crate::proxy::client::Upstream;
use crate::proxy::retry::{self, Reconnector};
use parking_lot::{Condvar, Mutex, MutexGuard};
use sgfs_net::PipeWatch;
use sgfs_obs::{Counter, Emitter, Gauge, Hop, NO_PROC};
use sgfs_oncrpc::record::{framed, is_transient_io, read_record_into, write_marked, MARK_LEN};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Default in-flight window (calls admitted before a reply is required).
pub const DEFAULT_WINDOW: u32 = 8;

/// Longest a waiter sleeps on its own wire while a sibling it keeps
/// moving has calls out.
const SIBLING_SLICE: Duration = Duration::from_micros(500);

/// Where one call's reply (original xid restored) is delivered.
type ReplyTx = mpsc::Sender<io::Result<Vec<u8>>>;

/// One submitted call: the record, held in the pipeline's own copy behind
/// mark headroom ([`framed`]: the one copy a call makes between its
/// caller's buffer and the wire, resent as it is after a reconnect), and
/// the channel its reply goes back through.
type Call = (Vec<u8>, ReplyTx);

/// What handles and waiters share outside the state's lock.
struct Shared {
    /// Mirror of the upstream's completed-handshake count (cumulative
    /// across reconnections).
    handshakes: AtomicU64,
    /// Whether the upstream is GTLS-protected (rekey is meaningful).
    is_tls: bool,
    /// Per-call reply deadline applied by `PendingReply::wait`.
    deadline: Option<Duration>,
    /// Calls submitted and not yet sent, oldest first. Whoever holds the
    /// state sends them as the window allows. A batch lands here in one
    /// piece, so up to a window of it goes out before the holder reads a
    /// reply — a batch of N ≤ window never leaves a member stranded
    /// behind a blocking read.
    queue: Mutex<VecDeque<Call>>,
    /// The wire a holder sleeps on while it could send another call; a
    /// submitter nudges it (`Pipeline::enqueue`).
    asleep: Mutex<Option<PipeWatch>>,
    /// The turn, which moves on whenever a reply is delivered or the
    /// state is let go, and how many callers that found the state held
    /// sleep until it does.
    turn: Mutex<(u64, usize)>,
    turned: Condvar,
}

impl Shared {
    fn turn(&self) -> u64 {
        self.turn.lock().0
    }

    /// Move the turn on, waking every caller asleep on it.
    fn pass(&self) {
        let mut turn = self.turn.lock();
        turn.0 += 1;
        let asleep = turn.1 > 0;
        drop(turn);
        if asleep {
            self.turned.notify_all();
        }
    }

    /// Sleep until the turn moves past `seen`; false once `deadline`
    /// passed first.
    fn wait_turn(&self, seen: u64, deadline: Option<Instant>) -> bool {
        let mut turn = self.turn.lock();
        turn.1 += 1;
        let moved = loop {
            if turn.0 != seen {
                break true;
            }
            match deadline {
                None => self.turned.wait(&mut turn),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if self.turned.wait_for(&mut turn, left).timed_out() {
                        break turn.0 != seen;
                    }
                }
            }
        };
        turn.1 -= 1;
        moved
    }
}

/// The pipeline's I/O state and the turn-taking around it.
struct Conn {
    io: Mutex<IoState>,
    shared: Arc<Shared>,
}

impl Conn {
    /// Let go of the state: send what the window has room for first, then
    /// wake every caller waiting for a turn.
    fn release(&self, mut io: MutexGuard<'_, IoState>) {
        io.admit_queued();
        drop(io);
        self.shared.pass();
    }

    /// Land what has already arrived and send what fits, if nobody holds
    /// the state (a holder is doing it already). True if calls are still
    /// in flight afterwards.
    fn poll(&self) -> bool {
        let Some(mut io) = self.io.try_lock() else { return false };
        io.poll();
        let busy = !io.in_flight.is_empty();
        self.release(io);
        busy
    }

    /// Take a turn at the state: run `f` once this thread holds it, unless
    /// `done` has the answer first. Between tries the caller sleeps until
    /// a reply is delivered or the state is let go; `TimedOut` once
    /// `deadline` passes.
    fn take_turn<R>(
        &self,
        deadline: Option<Instant>,
        done: impl Fn() -> Option<io::Result<R>>,
        f: impl FnOnce(&mut IoState) -> io::Result<R>,
    ) -> io::Result<R> {
        loop {
            let seen = self.shared.turn();
            if let Some(out) = done() {
                return out;
            }
            if let Some(mut io) = self.io.try_lock() {
                let out = f(&mut io);
                self.release(io);
                return out;
            }
            if !self.shared.wait_turn(seen, deadline) {
                return Err(timed_out());
            }
        }
    }
}

/// A cloneable handle to the pipelined upstream channel.
///
/// Dropping the last handle drains the channel on the dropping thread:
/// replies that already arrived are delivered, the remainder fails, the
/// stats are flushed and the transport is closed before the drop returns.
#[derive(Clone)]
pub struct Pipeline {
    inner: Arc<PipelineInner>,
}

struct PipelineInner {
    conn: Arc<Conn>,
}

impl Drop for PipelineInner {
    fn drop(&mut self) {
        let mut io = self.conn.io.lock();
        io.finish();
        self.conn.release(io);
    }
}

/// A submitted call whose reply has not been collected yet.
pub struct PendingReply {
    rx: mpsc::Receiver<io::Result<Vec<u8>>>,
    conn: Arc<Conn>,
}

impl PendingReply {
    /// The reply if it has already arrived (or the channel has died),
    /// without blocking; `None` while it is still on the wire. A free
    /// pipeline is pumped on the way, without sleeping, so a poller lands
    /// what has arrived and tops up the window.
    pub fn try_wait(&self) -> Option<io::Result<Vec<u8>>> {
        self.landed().or_else(|| {
            self.conn.poll();
            self.landed()
        })
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
    /// Whoever waits, pumps: the waiter drives the pipeline's state until
    /// the reply lands, unless another caller holds it — then it waits
    /// for that caller to deliver the reply or let go.
    pub fn wait(self) -> io::Result<Vec<u8>> {
        self.wait_beside(&[])
    }

    /// [`wait`](Self::wait), also keeping `siblings` moving: after each
    /// reply it reads here, and whenever this pipeline has nothing to do,
    /// the waiter lands what has arrived on them and sends what their
    /// windows have room for. With no other
    /// driver, a member of a striped fan-out waited on after this one
    /// would otherwise send nothing beyond its first window until its
    /// own turn came.
    pub fn wait_beside(self, siblings: &[Pipeline]) -> io::Result<Vec<u8>> {
        let deadline = self.conn.shared.deadline.map(|d| Instant::now() + d);
        self.conn.take_turn(
            deadline,
            || self.landed(),
            |io| io.pump_until(&self.rx, deadline, siblings),
        )
    }
}

impl Pipeline {
    /// Take ownership of `upstream`, with no fault recovery: any transport
    /// error is terminal for the channel.
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
    /// on the fresh channel. `watch` must observe the raw transport under
    /// `upstream` (for a GTLS channel, the pipe beneath the secure
    /// stream).
    pub fn with_recovery(
        upstream: Upstream,
        watch: PipeWatch,
        window: u32,
        rekey_every: Option<u64>,
        stats: Emitter,
        reconnector: Option<Box<dyn Reconnector>>,
        retry: RetryPolicy,
    ) -> Self {
        let (is_tls, handshakes) = match &upstream {
            Upstream::Tls(t) => (true, t.handshake_count()),
            Upstream::Plain(_) => (false, 0),
        };
        let shared = Arc::new(Shared {
            handshakes: AtomicU64::new(handshakes),
            is_tls,
            deadline: retry.call_deadline,
            queue: Mutex::new(VecDeque::new()),
            asleep: Mutex::new(None),
            turn: Mutex::new((0, 0)),
            turned: Condvar::new(),
        });
        let state = IoState {
            upstream,
            watch,
            retired: false,
            window: window.max(1),
            rekey_every,
            stats,
            shared: shared.clone(),
            reconnector,
            retry,
            reconnects_used: 0,
            in_flight: HashMap::new(),
            rekey_due: false,
            wire_xid: 0x9000_0000,
            calls_since_rekey: 0,
            reply_buf: Vec::new(),
            reply_high_water: 0,
        };
        let conn = Arc::new(Conn { io: Mutex::new(state), shared });
        Self { inner: Arc::new(PipelineInner { conn }) }
    }

    /// Queue `calls` and send what fits now if the state is free; a
    /// holder asleep on the wire is nudged to send them itself, so a
    /// concurrent caller does not wait a round trip behind it.
    fn enqueue(&self, calls: impl IntoIterator<Item = Call>) {
        let conn = &self.inner.conn;
        conn.shared.queue.lock().extend(calls);
        match conn.io.try_lock() {
            Some(io) => conn.release(io),
            None => {
                if let Some(wire) = &*conn.shared.asleep.lock() {
                    wire.nudge();
                }
            }
        }
    }

    fn pending(&self, rx: mpsc::Receiver<io::Result<Vec<u8>>>) -> PendingReply {
        PendingReply { rx, conn: self.inner.conn.clone() }
    }

    /// Land what has arrived and top up the window, without sleeping;
    /// whether calls are still out with nobody else driving.
    fn poll(&self) -> bool {
        self.inner.conn.poll()
    }

    /// Submit a raw call record without waiting for its reply — the
    /// split-phase half of pipelined write-back. The pipeline copies the
    /// record once, behind room for its record mark, and sends that copy
    /// as it is: on this thread when the state is free and the window has
    /// room, otherwise from the queue, by whoever pumps next.
    pub fn submit(&self, record: impl AsRef<[u8]>) -> PendingReply {
        let (reply_tx, rx) = mpsc::channel();
        self.enqueue([(framed(record.as_ref()), reply_tx)]);
        self.pending(rx)
    }

    /// Submit a group of call records atomically. Up to a window of them
    /// is sent before the pump collects any reply, so a split-phase flush
    /// overlaps its round trips deterministically; the rest wait in the
    /// queue and go out as replies free the window.
    pub fn submit_batch<R: AsRef<[u8]>>(
        &self,
        records: impl IntoIterator<Item = R>,
    ) -> Vec<PendingReply> {
        let (calls, waiters): (Vec<Call>, Vec<PendingReply>) = records
            .into_iter()
            .map(|record| {
                let (reply_tx, rx) = mpsc::channel();
                ((framed(record.as_ref()), reply_tx), self.pending(rx))
            })
            .unzip();
        self.enqueue(calls);
        waiters
    }

    /// Forward one call record and block for its reply.
    pub fn call(&self, record: impl AsRef<[u8]>) -> io::Result<Vec<u8>> {
        self.submit(record).wait()
    }

    /// Quiesce the window and renegotiate the session keys on this
    /// thread, blocking until the new keys are in effect. Bounded by the
    /// per-call deadline: a reply that never comes yields `TimedOut` and
    /// withdraws the request. No-op on a plaintext upstream.
    pub fn rekey(&self) -> io::Result<()> {
        let conn = &self.inner.conn;
        let deadline = conn.shared.deadline.map(|d| Instant::now() + d);
        conn.take_turn(deadline, || None, |io| io.rekey(deadline))
    }

    /// Completed handshakes on the secure channel (`None` when plain),
    /// cumulative across reconnections.
    pub fn handshake_count(&self) -> Option<u64> {
        let shared = &self.inner.conn.shared;
        shared.is_tls.then(|| shared.handshakes.load(Ordering::Acquire))
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
    /// Sent a call, renegotiated or recovered.
    Progress,
    /// Read one reply and completed its waiter.
    Landed,
    /// Nothing actionable until more input arrives.
    Idle,
    /// The channel died and every waiter was failed, or the pipeline was
    /// dropped.
    Retire,
}

/// The pipeline's entire I/O state, driven by whichever caller holds it;
/// the recovery path re-enters the same machinery on a fresh upstream.
struct IoState {
    upstream: Upstream,
    /// Readiness watch on the raw transport under `upstream`.
    watch: PipeWatch,
    /// Retired: waiters completed, queue failed, upstream released.
    retired: bool,
    window: u32,
    rekey_every: Option<u64>,
    stats: Emitter,
    shared: Arc<Shared>,
    reconnector: Option<Box<dyn Reconnector>>,
    retry: RetryPolicy,
    /// Reconnections performed so far (lifetime budget).
    reconnects_used: u32,
    in_flight: HashMap<u32, InFlight>,
    /// A renegotiation is due: admission stops until the window drains.
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
    /// Whether a queued call may go out: alive, the window has room and
    /// no rekey is quiescing it.
    fn admitting(&self) -> bool {
        !self.retired && !self.rekey_due && (self.in_flight.len() as u32) < self.window
    }

    /// Send queued calls while the window has room — what a holder does
    /// before it lets go.
    fn admit_queued(&mut self) {
        if self.retired {
            // Submitted after retirement: the dropped senders tell their
            // waiters the pipeline is gone.
            self.shared.queue.lock().clear();
        }
        while self.admitting() {
            let Some((record, reply_tx)) = self.shared.queue.lock().pop_front() else { return };
            if let Err(e) = self.send_call(record, reply_tx) {
                self.recover_or_retire(e);
            }
        }
    }

    /// Land what has already arrived and send what fits, without sleeping:
    /// at most one reply per call in flight when the pass began. A pass
    /// never runs on into the replies to calls it sent itself — on a
    /// client host shared with sibling pipelines, reading those first
    /// would move the host's clock past replies the siblings have waiting.
    fn poll(&mut self) {
        let mut replies = self.in_flight.len();
        while replies > 0 {
            match self.advance() {
                Step::Landed => replies -= 1,
                Step::Progress => {}
                Step::Idle | Step::Retire => return,
            }
        }
    }

    /// The waiter's drive: pump until `rx` holds this caller's reply,
    /// completing every other reply read on the way, polling `siblings`
    /// after each, and sleeping on the wire while nothing is actionable.
    fn pump_until(
        &mut self,
        rx: &mpsc::Receiver<io::Result<Vec<u8>>>,
        deadline: Option<Instant>,
        siblings: &[Pipeline],
    ) -> io::Result<Vec<u8>> {
        loop {
            match rx.try_recv() {
                Ok(reply) => return reply,
                Err(mpsc::TryRecvError::Disconnected) => return Err(terminated()),
                Err(mpsc::TryRecvError::Empty) => {}
            }
            // Turn about with the siblings, one reply of this pipeline at a
            // time: on a shared client clock, reading a run of this one's
            // replies first would stamp their next calls late.
            let poll_siblings = || siblings.iter().filter(|s| s.poll()).count() > 0;
            match self.advance() {
                Step::Progress => {}
                Step::Landed => {
                    poll_siblings();
                }
                // Retirement completed every waiter, or dropped its call.
                Step::Retire => return rx.try_recv().unwrap_or_else(|_| Err(terminated())),
                // Nothing queued, nothing in flight: no reply is coming.
                Step::Idle if self.in_flight.is_empty() => return Err(terminated()),
                Step::Idle => {
                    // A sibling's arrivals do not wake this wire: while
                    // one has calls out, come back for it within a slice.
                    let slice = poll_siblings().then(|| Instant::now() + SIBLING_SLICE);
                    let until = deadline.into_iter().chain(slice).min();
                    if !self.sleep(until) && deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(timed_out());
                    }
                    poll_siblings();
                }
            }
        }
    }

    /// A waiter's sleep on the wire: until input or EOF, until `deadline`
    /// (false), or — while the window has room — until another thread
    /// queues a call, which the next pass sends, so a call submitted
    /// meanwhile goes out now rather than a round trip later. The wire is
    /// published in `Shared::asleep` before the queue is looked at: a
    /// submission the look misses nudges the wire.
    fn sleep(&mut self, deadline: Option<Instant>) -> bool {
        if !self.admitting() {
            return self.watch.wait_input(deadline);
        }
        *self.shared.asleep.lock() = Some(self.watch.clone());
        let woke = !self.shared.queue.lock().is_empty() || self.watch.wait_input(deadline);
        self.shared.asleep.lock().take();
        woke
    }

    /// Renegotiate on the caller's thread: stop admitting, collect what is
    /// in flight, renegotiate. A reply that never comes ends the wait at
    /// `deadline`, and the request is withdrawn so the window opens again
    /// — unless the periodic threshold is itself due.
    fn rekey(&mut self, deadline: Option<Instant>) -> io::Result<()> {
        self.rekey_due = true;
        loop {
            match self.advance() {
                Step::Retire => return Err(terminated()),
                // Renegotiated, or a reconnect's fresh handshake did it.
                _ if !self.rekey_due => return Ok(()),
                Step::Progress | Step::Landed => {}
                Step::Idle => {
                    if !self.watch.wait_input(deadline) {
                        self.rekey_due =
                            self.rekey_every.is_some_and(|n| self.calls_since_rekey >= n);
                        return Err(timed_out());
                    }
                }
            }
        }
    }

    /// One unit of work with recovery applied to a transport error.
    fn advance(&mut self) -> Step {
        self.pump_once().unwrap_or_else(|e| self.recover_or_retire(e))
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

    /// Later submissions fail fast instead of queueing for nobody (the
    /// holder's release drops them), and the transport closes now rather
    /// than when the last handle drops.
    fn retire(&mut self) {
        self.retired = true;
        self.upstream = Upstream::Plain(Box::new(io::empty()));
    }

    /// Perform at most one unit of work. Priority: admission (fills the
    /// window), rekey at quiesce, reply collection.
    fn pump_once(&mut self) -> io::Result<Step> {
        if self.retired {
            return Ok(Step::Retire);
        }

        if self.admitting() {
            let next = self.shared.queue.lock().pop_front();
            if let Some((record, reply_tx)) = next {
                self.send_call(record, reply_tx)?;
                return Ok(Step::Progress);
            }
        }

        if self.rekey_due && self.in_flight.is_empty() {
            // Quiesced: safe to renegotiate over the shared channel. On
            // failure the recovery path's fresh handshake stands in.
            self.rekey_due = false;
            self.calls_since_rekey = 0;
            renegotiate(&mut self.upstream, &self.shared)?;
            return Ok(Step::Progress);
        }

        if !self.in_flight.is_empty() {
            if self.watch.has_input() {
                self.read_one_reply()?;
                return Ok(Step::Landed);
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

    /// The last handle is gone: deliver replies that have already arrived,
    /// fail everything else — dropping the last handle abandons calls
    /// whose replies are still in the air — and retire. Leaves the depth
    /// gauge at zero.
    fn finish(&mut self) {
        while !self.in_flight.is_empty() && self.watch.has_input() {
            if self.read_one_reply().is_err() {
                break;
            }
        }
        for (_, call) in self.in_flight.drain() {
            let _ = call.reply_tx.send(Err(broken("pipeline dropped with calls in flight")));
        }
        self.stats.set(Gauge::PipelineDepth, 0);
        self.retire();
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
        // The caller may have given up on the reply (a late reply after
        // `TimedOut`): it is dropped here.
        let _ = call.reply_tx.send(Ok(call.record));
        self.shared.pass();
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
        // Their callers need not sit out the backoff below.
        self.shared.pass();
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
    /// (and crypto-time accounting) over to the replacement channel.
    fn install(&mut self, mut up: Upstream, watch: PipeWatch) {
        if let Upstream::Tls(t) = &mut up {
            t.obs = Some(self.stats.clone());
            let total = self.shared.handshakes.load(Ordering::Acquire) + t.handshake_count();
            t.set_handshake_count(total);
            self.shared.handshakes.store(total, Ordering::Release);
        }
        self.upstream = up;
        self.watch = watch;
    }

    /// Retransmit every surviving call on the (fresh) upstream. Nothing
    /// is back in flight until all writes land: a mid-resend failure kills
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
        for (_, reply_tx) in self.shared.queue.lock().drain(..) {
            let _ = reply_tx.send(Err(broken(&msg)));
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

    /// A plaintext pipeline of window 4 under `retry`.
    fn retrying_pipeline(
        end: sgfs_net::PipeEnd,
        stats: Emitter,
        reconnector: Option<Box<dyn Reconnector>>,
        retry: RetryPolicy,
    ) -> Pipeline {
        let (up, watch) = plain_upstream(end);
        Pipeline::with_recovery(up, watch, 4, None, stats, reconnector, retry)
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
            assert_eq!(&reply[4..], b"echo:x");
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

    /// Read-ahead's landing path: nobody ever waits, the submitting
    /// thread only polls, and no other client thread exists to land the
    /// replies. The server answers nothing until it holds all four, so
    /// the batch also went out on the submitting thread.
    #[test]
    fn a_batch_lands_through_try_wait_polling_alone() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 4);
        let p = plain_pipeline(client_end, 4, Emitter::detached("client"));
        let records: Vec<_> = (0..4u32).map(|i| call_record(0x30 + i, b"polled")).collect();
        let pending = p.submit_batch(records);
        let mut landed: Vec<Option<Vec<u8>>> = vec![None; pending.len()];
        let give_up = Instant::now() + Duration::from_secs(5);
        while landed.iter().any(Option::is_none) {
            assert!(Instant::now() < give_up, "polling alone never landed {landed:?}");
            for (slot, reply) in landed.iter_mut().zip(&pending) {
                if slot.is_none() {
                    *slot = reply.try_wait().map(|r| r.unwrap());
                }
            }
            std::thread::yield_now();
        }
        for (i, reply) in landed.into_iter().enumerate() {
            let reply = reply.unwrap();
            assert_eq!(&reply[0..4], &(0x30 + i as u32).to_be_bytes());
            assert_eq!(&reply[4..], b"echo:polled");
        }
    }

    /// A striped fan-out waits on its members one at a time. Member `b`'s
    /// batch is twice its window, and member `a`'s server answers only
    /// once `b`'s has seen all four calls: with no other driver, only the
    /// waiter on `a` can send `b`'s second window.
    #[test]
    fn a_waiter_keeps_its_siblings_queues_moving() {
        let (a_end, mut a_server) = pipe_pair();
        let (b_end, b_server) = pipe_pair();
        let (all_four, heard) = mpsc::channel();
        let b_thread = std::thread::spawn(move || {
            let mut end = b_server;
            for _ in 0..4 {
                let call = read_record(&mut end).unwrap().unwrap();
                write_record(&mut end, &call).unwrap();
            }
            all_four.send(()).unwrap();
            end
        });
        let a_thread = std::thread::spawn(move || {
            let call = read_record(&mut a_server).unwrap().unwrap();
            heard.recv().unwrap();
            write_record(&mut a_server, &call).unwrap();
            a_server
        });
        let deadline = RetryPolicy { call_deadline: Some(Duration::from_secs(10)), ..quick_retry() };
        let a = retrying_pipeline(a_end, Emitter::detached("client"), None, deadline);
        let (up, watch) = plain_upstream(b_end);
        let b = Pipeline::with_recovery(up, watch, 2, None, Emitter::detached("client"), None, deadline);
        let first = a.submit(call_record(0xa0, b"a"));
        let second: Vec<_> = b.submit_batch((0..4u32).map(|i| call_record(0xb0 + i, b"b")));
        let reply = first.wait_beside(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(&reply[..], &call_record(0xa0, b"a")[..]);
        for (i, reply) in second.into_iter().enumerate() {
            assert_eq!(&reply.wait().unwrap()[0..4], &(0xb0 + i as u32).to_be_bytes());
        }
        drop(b_thread.join().unwrap());
        drop(a_thread.join().unwrap());
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

    /// A rekey quiesces the window first, and a call that timed out stays
    /// in it: one reply lost on a silent but connected server must not
    /// wedge `rekey()` — nor, through a request left set, every later
    /// admission.
    #[test]
    fn rekey_gives_up_at_the_call_deadline_and_the_window_opens_again() {
        let (client_end, mut server_end) = pipe_pair();
        let deadline = Duration::from_millis(50);
        let p = retrying_pipeline(
            client_end,
            Emitter::detached("client"),
            None,
            RetryPolicy { call_deadline: Some(deadline), ..RetryPolicy::default() },
        );
        let lost = p.submit(call_record(0x71, b"lost"));
        let _ = read_record(&mut server_end).unwrap().unwrap();
        assert_eq!(lost.wait().unwrap_err().kind(), io::ErrorKind::TimedOut);

        let (done_tx, done) = mpsc::channel();
        let rekeyer = {
            let p = p.clone();
            std::thread::spawn(move || done_tx.send(p.rekey()).unwrap())
        };
        let rekeyed = done.recv_timeout(Duration::from_secs(2)).expect("rekey() returned");
        assert_eq!(rekeyed.unwrap_err().kind(), io::ErrorKind::TimedOut);
        rekeyer.join().unwrap();

        let _server = echo_server(server_end, 1);
        let next = p.call(call_record(0x72, b"next")).unwrap();
        assert_eq!(&next[..], b"\0\0\0\x72echo:next");
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

    /// Reads one call, then hangs up without answering it.
    fn hang_up_after_one(mut end: sgfs_net::PipeEnd) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let _ = read_record(&mut end);
        })
    }

    #[test]
    fn reconnect_replays_idempotent_calls() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let p = retrying_pipeline(client_end, stats.clone(), Some(echo_reconnector(0)), quick_retry());
        // The first connection dies after reading the GETATTR, before any
        // reply: the waiter replays it on the fresh channel and it still
        // completes correctly.
        hang_up_after_one(server_end);
        let reply = p.call(nfs_record(0x77, procnum::GETATTR)).unwrap();
        assert_eq!(&reply[0..4], &0x77u32.to_be_bytes(), "caller xid restored");
        assert_eq!(stats.reconnects(), 1);
        assert_eq!(stats.replays(), 1);
        assert!(p.call(nfs_record(0x78, procnum::ACCESS)).is_ok(), "fresh channel serves");
    }

    #[test]
    fn connect_refusals_are_retried_with_backoff() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let p = retrying_pipeline(client_end, stats.clone(), Some(echo_reconnector(2)), quick_retry());
        hang_up_after_one(server_end);
        assert!(p.call(nfs_record(1, procnum::LOOKUP)).is_ok());
        assert_eq!(stats.reconnects(), 1);
        assert!(stats.sum(Hop::Backoff) > 0, "refused dials must back off");
    }

    #[test]
    fn non_idempotent_calls_fail_cleanly_on_reconnect() {
        let (client_end, server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let p = retrying_pipeline(client_end, stats.clone(), Some(echo_reconnector(0)), quick_retry());
        // Batch admission puts both calls in flight atomically before
        // the pump collects any reply.
        let mut pending =
            p.submit_batch(vec![nfs_record(2, procnum::RENAME), nfs_record(3, procnum::GETATTR)]);
        let getattr = pending.pop().unwrap();
        let rename = pending.pop().unwrap();
        drop(server_end);
        let err = rename.wait().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{err}");
        assert!(getattr.wait().is_ok(), "idempotent neighbor must survive");
        assert_eq!(stats.replays(), 1, "only the GETATTR is replayed");
        assert_eq!(stats.reconnects(), 1);
        assert!(p.call(nfs_record(4, procnum::GETATTR)).is_ok(), "fresh channel serves");
    }

    #[test]
    fn reconnect_budget_exhaustion_is_terminal() {
        let (client_end, server_end) = pipe_pair();
        let p = retrying_pipeline(
            client_end,
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
        hang_up_after_one(server_end);
        assert!(p.call(nfs_record(4, procnum::GETATTR)).is_err());
        assert!(p.call(nfs_record(5, procnum::GETATTR)).is_err(), "channel is dead");
    }

    #[test]
    fn trace_events_cover_send_reply_and_recovery() {
        let (client_end, server_end) = pipe_pair();
        let obs = sgfs_obs::Obs::new();
        let stats = Emitter::new(&obs, "client");
        let p = retrying_pipeline(client_end, stats.clone(), Some(echo_reconnector(1)), quick_retry());
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
    fn silent_server_trips_call_deadline_and_the_next_call_drops_the_late_reply() {
        let (client_end, mut server_end) = pipe_pair();
        let stats = Emitter::detached("client");
        let deadline = Duration::from_millis(50);
        let p = retrying_pipeline(
            client_end,
            stats.clone(),
            None,
            RetryPolicy { call_deadline: Some(deadline), ..RetryPolicy::default() },
        );
        // The connection is open but never answers: only the caller's own
        // timed wait on the wire ends the call.
        let start = Instant::now();
        let err = p.call(nfs_record(0x61, procnum::GETATTR)).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(waited >= deadline, "timed out early: {waited:?}");
        assert!(waited < deadline + Duration::from_secs(2), "deadline overrun: {waited:?}");

        // The reply turns up late, ahead of the next call's: that call's
        // pump collects and drops it, and gets its own.
        let late = read_record(&mut server_end).unwrap().unwrap();
        let mut reply = late[0..4].to_vec();
        reply.extend_from_slice(b"late");
        write_record(&mut server_end, &reply).unwrap();
        let _server = echo_server(server_end, 1);
        let next = p.call(nfs_record(0x62, procnum::GETATTR)).unwrap();
        assert_eq!(&next[0..4], &0x62u32.to_be_bytes(), "the next call gets its own reply");
        assert!(!next.ends_with(b"late"));
        assert_eq!(stats.gauge(Gauge::PipelineDepth), 0, "the late reply was collected");
    }

    // --- concurrent callers ---------------------------------------------

    #[test]
    fn concurrent_callers_beside_batches_each_get_their_own_reply() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        // No per-call deadline: a lost wake-up hangs, and the deadline on
        // `done` below names it.
        let p = retrying_pipeline(
            client_end,
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
        // Batches wider than the window queue behind it meanwhile.
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
    /// submission and sends it: the server here answers nothing until it
    /// holds both calls, and only the sleeping caller can send the second.
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
        let p = retrying_pipeline(
            client_end,
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
        drop(server.join().unwrap());
    }

    // --- teardown -------------------------------------------------------

    #[test]
    fn drop_flushes_stats_before_returning() {
        let (client_end, server_end) = pipe_pair();
        let _server = echo_server(server_end, 1);
        let stats = Emitter::detached("client");
        let p = plain_pipeline(client_end, 4, stats.clone());
        for i in 0..8u32 {
            p.call(call_record(i, b"x")).unwrap();
        }
        assert_eq!(stats.pipeline_peak(), 1);
        drop(p);
        assert_eq!(stats.gauge(Gauge::PipelineDepth), 0, "depth gauge flushed before drop returned");
    }

    #[test]
    fn drop_with_calls_in_flight_fails_them_and_retires() {
        let (client_end, server_end) = pipe_pair();
        // Silent server: the reply never comes.
        let p = plain_pipeline(client_end, 4, Emitter::detached("client"));
        let pending = p.submit(call_record(1, b"abandoned"));
        let start = Instant::now();
        drop(p);
        assert!(start.elapsed() < Duration::from_secs(1), "teardown waits for nothing");
        // The abandoned call fails instead of hanging.
        assert!(pending.wait().is_err());
        drop(server_end);
    }
}
