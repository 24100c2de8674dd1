//! Fixed client-side I/O pool: the client plane's owner of the shared
//! worker loop ([`crate::pool`]).
//!
//! Client [`Pipeline`](../../sgfs/src/proxy/pipeline.rs)s are pinned
//! round-robin onto a small fixed set of `sgfs-client-io-N` workers, so N
//! sessions cost no threads of their own. The pool knows nothing about
//! pipelines or GTLS: a [`PoolConn`] routes its own event sources
//! (upstream socket watch, command submission ring) into the readiness
//! token it is handed at attach time, and [`pump`](PoolConn::pump) drains
//! whatever is actionable without blocking on absent input. The workers
//! lend their connections no state (`W = ()`). A pipeline's synchronous
//! calls do not come here at all while it is idle — the waiting caller
//! drives them — so the pool carries what nobody waits on and whatever
//! meets a pipeline busy.

use crate::pool::{IoPool, PoolConn};
use std::io;
use std::sync::Arc;

/// A fixed pool of client I/O event loops.
pub struct ClientIoPool {
    pool: IoPool<()>,
}

impl ClientIoPool {
    /// Start `threads` event-loop workers (at least one).
    pub fn new(threads: usize) -> Arc<Self> {
        let pool = IoPool::new("sgfs-client-io", (0..threads.max(1)).map(|_| ()));
        Arc::new(Self { pool })
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.workers()
    }

    /// Connections currently pinned across all workers.
    pub fn active_conns(&self) -> usize {
        self.pool.active()
    }

    /// Pin a connection onto the next worker (round-robin). Fails once the
    /// pool is shut down or the chosen worker has died.
    pub fn add_conn(&self, conn: Box<dyn PoolConn>) -> io::Result<()> {
        let worker = self.pool.ticket() as usize % self.pool.workers();
        self.pool.pin(worker, conn)
    }

    /// Stop pinning and ask every worker to exit; still-pinned
    /// connections are dropped (their owners observe closed channels).
    /// Idempotent.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// Join worker threads after [`shutdown`](Self::shutdown).
    pub fn join(&mut self) {
        self.pool.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::tests::{serial, settled_thread_count};
    use crate::pool::ConnPump;
    use parking_lot::Mutex;
    use sgfs_net::{submit_ring, Popped, Readiness, SubmitReceiver, SubmitSender};
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A conn that doubles every submitted value into a shared log.
    struct Doubler {
        rx: SubmitReceiver<u64>,
        out: Arc<Mutex<Vec<u64>>>,
        retired: Arc<AtomicBool>,
    }

    impl PoolConn for Doubler {
        fn attach(&mut self, readiness: Readiness, _: &mut ()) {
            self.rx.register(readiness);
        }
        fn pump(&mut self, _: &mut ()) -> ConnPump {
            loop {
                match self.rx.pop() {
                    Popped::Value(v) => self.out.lock().push(v * 2),
                    Popped::Empty => return ConnPump::Idle,
                    Popped::Closed => return ConnPump::Gone,
                }
            }
        }
    }

    impl Drop for Doubler {
        fn drop(&mut self) {
            self.retired.store(true, Ordering::Release);
        }
    }

    fn pinned_doubler(
        pool: &ClientIoPool,
    ) -> (SubmitSender<u64>, Arc<Mutex<Vec<u64>>>, Arc<AtomicBool>) {
        let (tx, rx) = submit_ring(16);
        let out = Arc::new(Mutex::new(Vec::new()));
        let retired = Arc::new(AtomicBool::new(false));
        pool.add_conn(Box::new(Doubler { rx, out: out.clone(), retired: retired.clone() }))
            .unwrap();
        (tx, out, retired)
    }

    fn wait_for<F: Fn() -> bool>(what: &str, f: F) {
        for _ in 0..500 {
            if f() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn many_conns_fixed_threads() {
        let _serial = serial();
        let before = settled_thread_count();
        let pool = ClientIoPool::new(2);
        let conns: Vec<_> = (0..64).map(|_| pinned_doubler(&pool)).collect();
        for (i, (tx, _, _)) in conns.iter().enumerate() {
            tx.push(i as u64).unwrap();
        }
        for (i, (_, out, _)) in conns.iter().enumerate() {
            wait_for("doubled value", || out.lock().first() == Some(&(i as u64 * 2)));
        }
        if let (Some(b), Some(a)) = (before, settled_thread_count()) {
            assert!(a <= b + 2, "64 conns must cost 2 pool threads (before={b}, after={a})");
        }
        assert_eq!(pool.active_conns(), 64);
    }

    #[test]
    fn sender_drop_retires_conn() {
        let _serial = serial();
        let pool = ClientIoPool::new(1);
        let (tx, out, retired) = pinned_doubler(&pool);
        tx.push(5).unwrap();
        wait_for("value", || !out.lock().is_empty());
        drop(tx);
        wait_for("retire", || retired.load(Ordering::Acquire));
        wait_for("unpin", || pool.active_conns() == 0);
    }

    /// A conn whose pump panics on first wakeup, killing its worker.
    struct PanicOnPump {
        rx: SubmitReceiver<u64>,
    }

    impl PoolConn for PanicOnPump {
        fn attach(&mut self, readiness: Readiness, _: &mut ()) {
            self.rx.register(readiness);
        }
        fn pump(&mut self, _: &mut ()) -> ConnPump {
            panic!("poisoned pump");
        }
    }

    #[test]
    fn add_conn_fails_fast_after_worker_death() {
        let _serial = serial();
        let pool = ClientIoPool::new(1);
        let (tx, rx) = submit_ring(4);
        pool.add_conn(Box::new(PanicOnPump { rx })).unwrap();
        tx.push(1).unwrap(); // wake the worker; its pump panics; it dies
        // The unwinding worker drops its inbox receiver, which fails every
        // later push instead of leaving the pinner to wait on a dead loop.
        let mut failed = false;
        for _ in 0..2000 {
            let (tx2, rx2) = submit_ring(4);
            let pinned = pool.add_conn(Box::new(Doubler {
                rx: rx2,
                out: Arc::new(Mutex::new(Vec::new())),
                retired: Arc::new(AtomicBool::new(false)),
            }));
            drop(tx2);
            if pinned.is_err() {
                failed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(failed, "add_conn kept claiming success against a dead worker");
    }

    #[test]
    fn shutdown_drops_pinned_conns_and_joins() {
        let _serial = serial();
        let before = settled_thread_count();
        let pool = ClientIoPool::new(2);
        let (tx, _out, retired) = pinned_doubler(&pool);
        pool.shutdown();
        wait_for("retire on shutdown", || retired.load(Ordering::Acquire));
        assert!(tx.push(1).is_err(), "ring closed once the conn dropped");
        let (tx2, rx2) = submit_ring(4);
        let err = pool.add_conn(Box::new(Doubler {
            rx: rx2,
            out: Arc::new(Mutex::new(Vec::new())),
            retired: Arc::new(AtomicBool::new(false)),
        }));
        assert!(err.is_err());
        drop(tx2);
        drop(pool);
        if let (Some(b), Some(a)) = (before, settled_thread_count()) {
            assert!(a <= b, "pool threads joined (before={b}, after={a})");
        }
    }
}
