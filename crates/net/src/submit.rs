//! The wake-aware submission ring the worker loop drains.
//!
//! A bounded multi-producer/single-consumer queue with the same
//! readiness contract as [`crate::pipe::PipeWatch`]: the consumer
//! registers a [`Readiness`] handle and every push (and the final close)
//! notifies it, so a queue and a socket can wake the same event-loop
//! poller. It carries the connections the accept side pins onto a pool
//! worker.
//!
//! Unlike an mpsc channel, the ring's storage is a fixed-capacity
//! `VecDeque` allocated once at construction: steady-state submission
//! pushes and pops never allocate. Producers block while the ring is
//! full (callers are application threads with nothing better to do than
//! exert backpressure); the consumer never blocks — `pop` returns
//! [`Popped::Empty`] and the event loop goes back to sleep until the
//! watcher fires.
//!
//! Close semantics mirror the pipe: dropping the last sender closes the
//! ring (consumer sees [`Popped::Closed`] once drained, watcher fires);
//! dropping the receiver fails all further pushes with the value handed
//! back, so producers can tell that the consumer is gone.

use crate::poll::Readiness;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

struct RingState<T> {
    queue: VecDeque<T>,
    cap: usize,
    senders: usize,
    rx_alive: bool,
}

struct RingShared<T> {
    state: Mutex<RingState<T>>,
    /// Producers blocked on a full ring wait here.
    space: Condvar,
    /// Notified (outside the state lock) on every push and on close.
    watcher: Mutex<Option<Readiness>>,
}

impl<T> RingShared<T> {
    fn notify_watcher(&self) {
        if let Some(r) = self.watcher.lock().as_ref() {
            r.notify();
        }
    }
}

/// What a pop observed.
pub enum Popped<T> {
    /// The oldest queued value.
    Value(T),
    /// Nothing queued right now; a producer is still live.
    Empty,
    /// Nothing queued and every sender is gone: no value will ever arrive.
    Closed,
}

/// Create a submission ring holding at most `capacity` queued items.
pub fn submit_ring<T>(capacity: usize) -> (SubmitSender<T>, SubmitReceiver<T>) {
    assert!(capacity > 0, "submission ring needs capacity >= 1");
    let shared = Arc::new(RingShared {
        state: Mutex::new(RingState {
            queue: VecDeque::with_capacity(capacity),
            cap: capacity,
            senders: 1,
            rx_alive: true,
        }),
        space: Condvar::new(),
        watcher: Mutex::new(None),
    });
    (SubmitSender { shared: shared.clone() }, SubmitReceiver { shared })
}

/// The producer half; clone freely — the ring closes when the last
/// clone drops.
pub struct SubmitSender<T> {
    shared: Arc<RingShared<T>>,
}

impl<T> SubmitSender<T> {
    /// Enqueue `value`, blocking while the ring is full. Returns the
    /// value back if the receiver is gone.
    pub fn push(&self, value: T) -> Result<(), T> {
        {
            let mut st = self.shared.state.lock();
            loop {
                if !st.rx_alive {
                    return Err(value);
                }
                if st.queue.len() < st.cap {
                    break;
                }
                self.shared.space.wait(&mut st);
            }
            st.queue.push_back(value);
        }
        self.shared.notify_watcher();
        Ok(())
    }
}

impl<T> Clone for SubmitSender<T> {
    fn clone(&self) -> Self {
        self.shared.state.lock().senders += 1;
        Self { shared: self.shared.clone() }
    }
}

impl<T> Drop for SubmitSender<T> {
    fn drop(&mut self) {
        let last = {
            let mut st = self.shared.state.lock();
            st.senders -= 1;
            st.senders == 0
        };
        if last {
            self.shared.notify_watcher();
        }
    }
}

/// The consumer half (the event loop). Never blocks.
pub struct SubmitReceiver<T> {
    shared: Arc<RingShared<T>>,
}

impl<T> SubmitReceiver<T> {
    /// Dequeue the next submission without blocking. `Closed` is
    /// returned only once the ring is both empty and sender-less, so no
    /// submission is ever lost to a racing close.
    pub fn pop(&self) -> Popped<T> {
        let popped = {
            let mut st = self.shared.state.lock();
            match st.queue.pop_front() {
                Some(v) => Popped::Value(v),
                None if st.senders == 0 => return Popped::Closed,
                None => return Popped::Empty,
            }
        };
        // A producer may be blocked on the slot we just freed.
        self.shared.space.notify_one();
        popped
    }

    /// Install `readiness` as the ring's watcher (replacing any prior
    /// one). Fires immediately if submissions are already queued or the
    /// ring is already closed, so registration cannot race a push.
    pub fn register(&self, readiness: Readiness) {
        let fire = {
            let st = self.shared.state.lock();
            !st.queue.is_empty() || st.senders == 0
        };
        *self.shared.watcher.lock() = Some(readiness);
        if fire {
            self.shared.notify_watcher();
        }
    }
}

impl<T> Drop for SubmitReceiver<T> {
    /// Refuse every further push and drop what is queued.
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.rx_alive = false;
        st.queue.clear();
        self.shared.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::Poller;
    use std::time::Duration;

    #[test]
    fn push_pop_fifo() {
        let (tx, rx) = submit_ring(4);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert!(matches!(rx.pop(), Popped::Value(1)));
        assert!(matches!(rx.pop(), Popped::Value(2)));
        assert!(matches!(rx.pop(), Popped::Empty));
    }

    #[test]
    fn full_ring_blocks_until_pop() {
        let (tx, rx) = submit_ring(2);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        let t = std::thread::spawn(move || {
            tx.push(3).unwrap(); // blocks until the main thread pops
            tx
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(rx.pop(), Popped::Value(1)));
        let tx = t.join().unwrap();
        assert!(matches!(rx.pop(), Popped::Value(2)));
        assert!(matches!(rx.pop(), Popped::Value(3)));
        drop(tx);
        assert!(matches!(rx.pop(), Popped::Closed));
    }

    #[test]
    fn close_drains_before_reporting_closed() {
        let (tx, rx) = submit_ring(4);
        tx.push(7).unwrap();
        drop(tx);
        assert!(matches!(rx.pop(), Popped::Value(7)));
        assert!(matches!(rx.pop(), Popped::Closed));
    }

    #[test]
    fn receiver_drop_fails_push_with_value() {
        let (tx, rx) = submit_ring(4);
        drop(rx);
        assert_eq!(tx.push(42), Err(42));
    }

    #[test]
    fn receiver_drop_unblocks_full_producer() {
        let (tx, rx) = submit_ring(1);
        tx.push(1).unwrap();
        let t = std::thread::spawn(move || tx.push(2));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(t.join().unwrap(), Err(2));
    }

    #[test]
    fn watcher_fires_on_push_and_close() {
        let (tx, rx) = submit_ring(4);
        let p = Poller::new();
        rx.register(p.readiness(5));
        let mut out = Vec::new();
        assert_eq!(p.wait(Some(Duration::from_millis(5)), &mut out), 0, "idle ring is quiet");
        tx.push(1).unwrap();
        assert_eq!(p.wait(Some(Duration::from_millis(100)), &mut out), 1);
        assert_eq!(out, [5]);
        drop(tx);
        assert_eq!(p.wait(Some(Duration::from_millis(100)), &mut out), 1, "close wakes watcher");
    }

    #[test]
    fn register_fires_immediately_when_data_pending() {
        let (tx, rx) = submit_ring(4);
        tx.push(1).unwrap();
        let p = Poller::new();
        rx.register(p.readiness(3));
        let mut out = Vec::new();
        assert_eq!(p.wait(Some(Duration::from_millis(100)), &mut out), 1);
        assert_eq!(out, [3]);
    }

    #[test]
    fn register_fires_immediately_when_already_closed() {
        let (tx, rx) = submit_ring::<u32>(4);
        drop(tx);
        let p = Poller::new();
        rx.register(p.readiness(8));
        let mut out = Vec::new();
        assert_eq!(p.wait(Some(Duration::from_millis(100)), &mut out), 1);
    }

    #[test]
    fn steady_state_capacity_is_stable() {
        let (tx, rx) = submit_ring(8);
        for round in 0..1000 {
            for i in 0..8 {
                tx.push(round * 8 + i).unwrap();
            }
            for i in 0..8 {
                match rx.pop() {
                    Popped::Value(v) => assert_eq!(v, round * 8 + i),
                    _ => panic!("ring should hold the full batch"),
                }
            }
        }
    }
}
