//! The worker loop both planes run.
//!
//! Thread-per-connection dies at scale: ten thousand sessions is ten
//! thousand parked stacks. An [`IoPool`] is a fixed set of named worker
//! threads instead, each sleeping in one [`sgfs_net::Poller`] and serving
//! every connection pinned to it. [`crate::ShardServer`] (server sessions)
//! and [`crate::ClientIoPool`] (client pipelines) are thin owners of one
//! pool each; what differs between the planes is the [`PoolConn`] they pin
//! and the worker-local state `W` the loop lends it.
//!
//! * **Accept → pin.** The accept side boxes a connection and pushes it
//!   onto the chosen worker's inbox, a [`sgfs_net::submit_ring`]: the push
//!   wakes the worker, blocks the pinner while the inbox is full, and
//!   fails — value handed back — once the worker is gone, whether by
//!   [`IoPool::shutdown`] or by a panic unwinding out of a `pump`. The
//!   worker gives the connection a token, lets it
//!   [`attach`](PoolConn::attach) its event sources to that token's
//!   [`Readiness`], and never hands it to another worker, so a worker's
//!   connections share nothing with its neighbors'.
//! * **Readiness, not threads.** Every arrival (or close) on an attached
//!   source marks the token ready; the worker calls
//!   [`pump`](PoolConn::pump) on each ready token in FIFO order and goes
//!   back to sleep when none is left.
//! * **Fairness.** A connection that spends its budget with work left
//!   returns [`ConnPump::Rearm`]: the worker re-marks its token, which
//!   queues it *behind* every neighbor that became ready meanwhile. The
//!   poller's deduplicated ready queue is the round-robin run queue.
//! * **Shutdown** closes the inboxes; each worker exits once its inbox is
//!   drained, dropping the connections still pinned (their peers and
//!   owners observe closed channels).
//!
//! # Why a blocking read inside the loop is sound
//!
//! The record writer emits header + payload in ONE write call per
//! fragment ([`crate::record::write_record_with`]), and the in-memory
//! pipe turns each write call into one message, so a message never spans
//! two records. GTLS likewise seals each write call into its own frames.
//! Consequently, once readiness reports the first bytes of a record, the
//! rest of that record is already queued or actively being written by a
//! peer that cannot block (the pipes are unbounded). A `pump` may
//! therefore perform a bounded *blocking* `read_record_into` after its
//! watch reports input — no restartable partial-record state machine, and
//! GTLS renegotiation (a blocking ping-pong driven by the client) works
//! unchanged. An abandoned partial record always ends in channel close →
//! EOF error → teardown, never an indefinite stall.
//!
//! The same argument covers the one reader that is not a worker: a client
//! caller blocked on an upstream reply drives its own pipeline with the
//! very same pump steps (the connection's state is then simply not the
//! worker's to take; see `sgfs::proxy::pipeline`). It reads a record only
//! once its watch reports input, exactly as a pump does, and is the only
//! party that ever sleeps waiting for *new* input — on the wire itself,
//! bounded by its call deadline, with the wire's readiness withheld from
//! the worker meanwhile.

use parking_lot::Mutex;
use sgfs_net::{submit_ring, Poller, Popped, Readiness, SubmitReceiver, SubmitSender, Token};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// What one pump pass decided about a pinned connection.
pub enum ConnPump {
    /// Nothing actionable until the next readiness notification.
    Idle,
    /// Fairness budget spent with work left: revisit after the neighbors.
    Rearm,
    /// The connection is done (EOF, error, or retired): unpin and drop it.
    Gone,
}

/// One event-driven connection a pool worker owns; `W` is the state the
/// worker lends to every connection it serves.
pub trait PoolConn<W = ()>: Send {
    /// Called once when the connection is pinned to its worker. The
    /// connection must register every event source it owns against
    /// `readiness` and keep a clone if replacement sources (e.g. a
    /// re-dialed upstream after reconnect) have to be registered later.
    fn attach(&mut self, readiness: Readiness, worker: &mut W);
    /// Drain actionable work. Must not block waiting for new input;
    /// bounded blocking reads after `has_input()` are fine.
    fn pump(&mut self, worker: &mut W) -> ConnPump;
}

/// Token 0 is every worker's pin inbox; connections start at 1.
const INBOX: Token = 0;

/// Capacity of each worker's pin inbox; pinners block while it is full.
const INBOX_CAPACITY: usize = 256;

struct Worker<W> {
    /// Producer side of the pin inbox; `None` once shut down.
    inbox: Mutex<Option<SubmitSender<Box<dyn PoolConn<W>>>>>,
    active: Arc<AtomicUsize>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// A fixed pool of worker loops over connections of one plane.
pub struct IoPool<W: Send + 'static> {
    workers: Vec<Worker<W>>,
    /// Connections ever handed a [`ticket`](Self::ticket).
    tickets: AtomicU64,
}

impl<W: Send + 'static> IoPool<W> {
    /// Start one worker thread, named `{name}-{index}`, per state.
    pub fn new(name: &str, states: impl IntoIterator<Item = W>) -> Self {
        let workers = states
            .into_iter()
            .enumerate()
            .map(|(index, state)| {
                let (tx, rx) = submit_ring(INBOX_CAPACITY);
                let active = Arc::new(AtomicUsize::new(0));
                let loop_active = active.clone();
                let join = std::thread::Builder::new()
                    .name(format!("{name}-{index}"))
                    .spawn(move || worker_loop(rx, loop_active, state))
                    .expect("spawn pool worker");
                Worker { inbox: Mutex::new(Some(tx)), active, join: Some(join) }
            })
            .collect();
        Self { workers, tickets: AtomicU64::new(0) }
    }

    /// The next connection's placement ticket: 0, 1, 2, … Owners place
    /// round-robin by it (and the server plane numbers its sessions from
    /// it).
    pub fn ticket(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Connections currently pinned across all workers.
    pub fn active(&self) -> usize {
        self.workers.iter().map(|w| w.active.load(Ordering::Relaxed)).sum()
    }

    /// Hand `conn` to worker `worker`, blocking while its inbox is full.
    /// Fails once the pool is shut down or that worker's thread has died.
    pub fn pin(&self, worker: usize, conn: Box<dyn PoolConn<W>>) -> io::Result<()> {
        // Push through a clone: a pinner blocked on a full inbox must not
        // hold the lock `shutdown` takes.
        let inbox = self.workers[worker].inbox.lock().clone();
        match inbox.map(|tx| tx.push(conn)) {
            Some(Ok(())) => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "pool worker shut down or exited; connection not pinned",
            )),
        }
    }

    /// Stop pinning and ask every worker to exit. Idempotent.
    pub fn shutdown(&self) {
        for worker in &self.workers {
            worker.inbox.lock().take();
        }
    }

    /// Join the worker threads after [`shutdown`](Self::shutdown).
    pub fn join(&mut self) {
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl<W: Send + 'static> Drop for IoPool<W> {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn worker_loop<W>(
    inbox: SubmitReceiver<Box<dyn PoolConn<W>>>,
    active: Arc<AtomicUsize>,
    mut state: W,
) {
    let poller = Poller::new();
    inbox.register(poller.readiness(INBOX));
    let mut conns: HashMap<Token, Box<dyn PoolConn<W>>> = HashMap::new();
    let mut next_token: Token = INBOX + 1;
    let mut ready: Vec<Token> = Vec::new();

    loop {
        poller.wait(None, &mut ready);
        for &token in &ready {
            if token == INBOX {
                loop {
                    match inbox.pop() {
                        Popped::Value(mut conn) => {
                            conn.attach(poller.readiness(next_token), &mut state);
                            active.fetch_add(1, Ordering::Relaxed);
                            conns.insert(next_token, conn);
                            next_token += 1;
                        }
                        Popped::Empty => break,
                        // Pinned connections drop here.
                        Popped::Closed => return,
                    }
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&token) else {
                continue; // stale readiness for an unpinned connection
            };
            match conn.pump(&mut state) {
                ConnPump::Idle => {}
                ConnPump::Rearm => poller.wake(token),
                ConnPump::Gone => {
                    conns.remove(&token);
                    active.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::shard::process_thread_count;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Every test of this crate that starts threads holds this lock, so the
    /// ones asserting on the *process-wide* thread count see only their own.
    pub(crate) fn serial() -> parking_lot::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock()
    }

    /// The process-wide thread count once it has stopped moving: the test
    /// harness starts and retires threads of its own beside the running test,
    /// and an exited thread trails its join in `/proc` by a moment.
    pub(crate) fn settled_thread_count() -> Option<usize> {
        let mut last = process_thread_count()?;
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let now = process_thread_count()?;
            if now == last {
                return Some(now);
            }
            last = now;
        }
    }

    /// Logs each visit into the worker state; on its first visit it first
    /// makes `neighbor` ready, then asks to be revisited.
    struct Visitor {
        name: &'static str,
        neighbor: Option<SubmitSender<()>>,
        rx: SubmitReceiver<()>,
        done: mpsc::Sender<Vec<&'static str>>,
    }

    impl PoolConn<Vec<&'static str>> for Visitor {
        fn attach(&mut self, readiness: Readiness, _: &mut Vec<&'static str>) {
            self.rx.register(readiness);
        }
        fn pump(&mut self, log: &mut Vec<&'static str>) -> ConnPump {
            while let Popped::Value(()) = self.rx.pop() {}
            log.push(self.name);
            match self.neighbor.take() {
                Some(neighbor) => {
                    neighbor.push(()).unwrap();
                    ConnPump::Rearm
                }
                None => {
                    let _ = self.done.send(log.clone());
                    ConnPump::Idle
                }
            }
        }
    }

    #[test]
    fn rearm_is_revisited_after_a_neighbor_that_became_ready_meanwhile() {
        let _serial = serial();
        let pool = IoPool::<Vec<&'static str>>::new("test-pool", [Vec::new()]);
        let (done, visits) = mpsc::channel();
        let (a_tx, a_rx) = submit_ring(4);
        let (b_tx, b_rx) = submit_ring(4);
        let b = Visitor { name: "b", neighbor: None, rx: b_rx, done: done.clone() };
        let a = Visitor { name: "a", neighbor: Some(b_tx), rx: a_rx, done };
        pool.pin(0, Box::new(b)).unwrap();
        pool.pin(0, Box::new(a)).unwrap();
        a_tx.push(()).unwrap();
        let deadline = Duration::from_secs(5);
        // `a` wakes `b` and re-arms: `b` runs before `a`'s second visit.
        assert_eq!(visits.recv_timeout(deadline).unwrap(), ["a", "b"]);
        assert_eq!(visits.recv_timeout(deadline).unwrap(), ["a", "b", "a"]);
    }

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
            self.entered.send(()).unwrap();
            let _ = self.release.recv();
            ConnPump::Gone
        }
    }

    /// Has no event source: pinned, never pumped.
    struct Inert;

    impl PoolConn for Inert {
        fn attach(&mut self, _: Readiness, _: &mut ()) {}
        fn pump(&mut self, _: &mut ()) -> ConnPump {
            ConnPump::Idle
        }
    }

    #[test]
    fn full_inbox_blocks_the_pinner_until_the_worker_drains() {
        let _serial = serial();
        let pool = Arc::new(IoPool::new("test-pool", [()]));
        let (wake, rx) = submit_ring(1);
        let (entered, entered_rx) = mpsc::channel();
        let (release_tx, release) = mpsc::channel::<()>();
        pool.pin(0, Box::new(Parked { rx, entered, release })).unwrap();
        wake.push(()).unwrap();
        entered_rx.recv().unwrap(); // the worker drains nothing from here on
        for _ in 0..INBOX_CAPACITY {
            pool.pin(0, Box::new(Inert)).unwrap();
        }
        let (pinned, pinned_rx) = mpsc::channel();
        let pinner = {
            let pool = pool.clone();
            std::thread::spawn(move || pinned.send(pool.pin(0, Box::new(Inert))).unwrap())
        };
        assert!(
            pinned_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "pin returned although the inbox was full and the worker parked"
        );
        drop(release_tx);
        pinned_rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
        pinner.join().unwrap();
    }
}
