//! The hybrid real+virtual clock used to time all experiments.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing clock shared by every component of one
/// emulated testbed (client host, server host, and the WAN link).
///
/// `now()` is real elapsed time since construction *plus* all virtual time
/// added by the link emulation, so a benchmark's `clock.now()` difference
/// is exactly what a wall clock would have read on the paper's physical
/// testbed (CPU costs real, network latency emulated).
pub struct SimClock {
    origin: Instant,
    virtual_ns: AtomicU64,
}

impl SimClock {
    /// New clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(Self { origin: Instant::now(), virtual_ns: AtomicU64::new(0) })
    }

    /// Current simulated time since construction.
    pub fn now(&self) -> Duration {
        self.origin.elapsed() + Duration::from_nanos(self.virtual_ns.load(Ordering::Acquire))
    }

    /// Total virtual (network-emulated) time accumulated so far.
    pub fn virtual_time(&self) -> Duration {
        Duration::from_nanos(self.virtual_ns.load(Ordering::Acquire))
    }

    /// Advance the clock by `d` — the link emulation calls this for pure
    /// delays that cannot overlap with anything (e.g. sender-side charging
    /// over real TCP where no arrival stamp can ride the socket).
    pub fn advance(&self, d: Duration) {
        self.virtual_ns.fetch_add(d.as_nanos() as u64, Ordering::AcqRel);
    }

    /// Block (or fast-forward) until `now() >= t`.
    ///
    /// This is the receiver-side arrival gate: messages are stamped with an
    /// arrival time at send; the receiver calls this before consuming them.
    /// Stamping-then-gating (rather than charging the sender) means
    /// back-to-back messages overlap their latencies exactly as they would
    /// on a real pipelined link.
    pub fn wait_until(&self, t: Duration) {
        loop {
            let now = self.now();
            if now >= t {
                return;
            }
            let need = (t - now).as_nanos() as u64;
            // Racing threads may each add; use CAS so total never
            // overshoots beyond what the latest observation required.
            let cur = self.virtual_ns.load(Ordering::Acquire);
            if self
                .virtual_ns
                .compare_exchange(cur, cur + need, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return;
            }
        }
    }
}

/// A deterministic logical clock: a strictly monotonic event counter
/// shared by every component that stamps trace events.
///
/// Unlike [`SimClock`], whose readings depend on real CPU speed, logical
/// ticks are handed out by one atomic increment and therefore totally
/// ordered across threads in a way that is reproducible for any workload
/// whose cross-thread communication is itself deterministic (the golden
/// trace tests rely on this: two runs of the same scripted workload
/// produce the same *relative* event order even if wall-clock timings
/// differ).
#[derive(Debug, Default)]
pub struct LogicalClock {
    next: AtomicU64,
}

impl LogicalClock {
    /// A fresh clock starting at tick 0.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Claim the next tick. Each call returns a unique, monotonically
    /// increasing value; the atomic read-modify-write gives all callers a
    /// single total order.
    pub fn tick(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Ticks handed out so far (the value the next `tick()` would return).
    pub fn current(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SimClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimClock")
            .field("now", &self.now())
            .field("virtual", &self.virtual_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_advance_is_instant() {
        let clock = SimClock::new();
        let wall = Instant::now();
        clock.advance(Duration::from_secs(100));
        assert!(wall.elapsed() < Duration::from_secs(1));
        assert!(clock.now() >= Duration::from_secs(100));
        assert_eq!(clock.virtual_time(), Duration::from_secs(100));
    }

    #[test]
    fn wait_until_fast_forwards() {
        let clock = SimClock::new();
        clock.wait_until(Duration::from_millis(500));
        assert!(clock.now() >= Duration::from_millis(500));
        // Waiting for a past time is a no-op.
        let v = clock.virtual_time();
        clock.wait_until(Duration::from_millis(1));
        assert_eq!(clock.virtual_time(), v);
    }

    #[test]
    fn logical_clock_ticks_are_unique_and_monotonic() {
        let clock = LogicalClock::new();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = clock.clone();
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = Vec::new();
        for h in handles {
            let ticks = h.join().unwrap();
            // Per-thread ticks are strictly increasing.
            assert!(ticks.windows(2).all(|w| w[0] < w[1]));
            all.extend(ticks);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "ticks must be globally unique");
        assert_eq!(clock.current(), 4000);
    }

    #[test]
    fn concurrent_wait_until_converges() {
        let clock = SimClock::new();
        let c2 = clock.clone();
        let t = std::thread::spawn(move || {
            for i in 1..=100 {
                c2.wait_until(Duration::from_millis(i * 10));
            }
        });
        for i in 1..=100 {
            clock.wait_until(Duration::from_millis(i * 10));
        }
        t.join().unwrap();
        // Both threads waited for the same targets; virtual time should be
        // close to the max target (1s), not the sum (2s+).
        assert!(clock.virtual_time() <= Duration::from_millis(1100));
        assert!(clock.now() >= Duration::from_secs(1));
    }
}
