//! Readiness notification for the in-memory transports.
//!
//! The sharded server replaces thread-per-connection blocking reads with
//! one event loop per shard: every session's receive channel registers a
//! [`Readiness`] handle, the channel marks its token ready whenever a
//! message (or EOF) arrives, and the shard thread sleeps in
//! [`Poller::wait`] until any of its sessions has input.
//!
//! The design is deliberately edge-on-arrival / level-on-registration:
//!
//! * every `push`/`close` on a watched channel enqueues the token (deduped
//!   while still pending), so no arrival is ever missed, and tokens are
//!   delivered in the order they became ready — a token woken again goes
//!   behind every token already waiting, which is the round-robin
//!   fairness the worker loops rely on;
//! * registering against a channel that already holds data (or is already
//!   closed) fires immediately, so there is no registration race;
//! * consumers drain everything available per wakeup, so a token's single
//!   pending slot cannot lose information.
//!
//! This models epoll over our condvar pipes without changing any blocking
//! caller: the same [`crate::pipe::PipeEnd`] serves both worlds.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Identifies one registered event source within its poller.
pub type Token = usize;

struct PollState {
    /// FIFO of tokens with undelivered readiness.
    ready: VecDeque<Token>,
    /// `pending[token]` = token is already queued in `ready`.
    pending: Vec<bool>,
}

struct PollShared {
    state: Mutex<PollState>,
    cond: Condvar,
}

impl PollShared {
    fn mark_ready(&self, token: Token) {
        let mut st = self.state.lock();
        if st.pending.len() <= token {
            st.pending.resize(token + 1, false);
        }
        if !st.pending[token] {
            st.pending[token] = true;
            st.ready.push_back(token);
            // Wake the waiter once the lock is free for it to take.
            drop(st);
            self.cond.notify_one();
        }
    }
}

/// One shard's readiness multiplexer.
pub struct Poller {
    shared: Arc<PollShared>,
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller {
    /// A poller with no registered sources.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(PollShared {
                state: Mutex::new(PollState { ready: VecDeque::new(), pending: Vec::new() }),
                cond: Condvar::new(),
            }),
        }
    }

    /// A handle that marks `token` ready when notified; install it into
    /// an event source (e.g. [`crate::pipe::PipeWatch::register`]).
    pub fn readiness(&self, token: Token) -> Readiness {
        Readiness { shared: self.shared.clone(), token }
    }

    /// Mark `token` ready directly (cross-thread wakeup, e.g. "your inbox
    /// has a new session").
    pub fn wake(&self, token: Token) {
        self.shared.mark_ready(token);
    }

    /// Drain every ready token into `out` (cleared first), blocking up to
    /// `timeout` (forever when `None`) for the first one. Returns the
    /// number of tokens delivered; 0 means the wait timed out.
    pub fn wait(&self, timeout: Option<Duration>, out: &mut Vec<Token>) -> usize {
        out.clear();
        let mut st = self.shared.state.lock();
        while st.ready.is_empty() {
            match timeout {
                Some(t) => {
                    if self.shared.cond.wait_for(&mut st, t).timed_out() && st.ready.is_empty() {
                        return 0;
                    }
                }
                None => self.shared.cond.wait(&mut st),
            }
        }
        while let Some(token) = st.ready.pop_front() {
            st.pending[token] = false;
            out.push(token);
        }
        out.len()
    }
}

/// The notification side of one (poller, token) registration.
///
/// Cloned freely; every clone wakes the same token.
#[derive(Clone)]
pub struct Readiness {
    shared: Arc<PollShared>,
    token: Token,
}

impl Readiness {
    /// Mark the token ready (idempotent while undelivered).
    pub fn notify(&self) {
        self.shared.mark_ready(self.token);
    }

    /// The token this handle wakes.
    pub fn token(&self) -> Token {
        self.token
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_delivers_token_once() {
        let p = Poller::new();
        p.wake(3);
        p.wake(3); // deduped while pending
        p.wake(5);
        let mut out = Vec::new();
        assert_eq!(p.wait(Some(Duration::from_millis(10)), &mut out), 2);
        assert_eq!(out, [3, 5]);
        assert_eq!(p.wait(Some(Duration::from_millis(5)), &mut out), 0);
    }

    #[test]
    fn rearm_after_delivery() {
        let p = Poller::new();
        let r = p.readiness(1);
        r.notify();
        let mut out = Vec::new();
        p.wait(None, &mut out);
        assert_eq!(out, [1]);
        r.notify();
        p.wait(None, &mut out);
        assert_eq!(out, [1], "token re-arms after being drained");
    }

    #[test]
    fn cross_thread_wakeup() {
        let p = Poller::new();
        let r = p.readiness(9);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            r.notify();
        });
        let mut out = Vec::new();
        assert_eq!(p.wait(None, &mut out), 1);
        assert_eq!(out, [9]);
        t.join().unwrap();
    }

    #[test]
    fn timeout_expires_empty() {
        let p = Poller::new();
        let mut out = Vec::new();
        let start = std::time::Instant::now();
        assert_eq!(p.wait(Some(Duration::from_millis(15)), &mut out), 0);
        assert!(start.elapsed() >= Duration::from_millis(10));
    }
}
