//! The NIST Net analog: a WAN link model with latency and bandwidth.

use crate::clock::SimClock;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Static parameters of an emulated link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay (RTT / 2).
    pub latency: Duration,
    /// Serialization bandwidth in bytes/second; `None` = infinite
    /// (the paper's Gigabit LAN is effectively infinite next to its RTTs).
    pub bandwidth: Option<u64>,
}

impl LinkSpec {
    /// A WAN link with the given round-trip time.
    pub fn wan_rtt(rtt: Duration) -> Self {
        Self { latency: rtt / 2, bandwidth: None }
    }
}

/// A bidirectional emulated link between the client and server hosts.
///
/// Each direction serializes messages (bandwidth) and delays them
/// (latency); the arrival stamp is computed at send time and enforced by
/// the receiver against the shared [`SimClock`]. Byte counters feed the
/// evaluation harness.
pub struct Link {
    spec: LinkSpec,
    clock: Arc<SimClock>,
    /// Per-direction time at which the last queued byte clears the NIC,
    /// for bandwidth serialization. Index 0: a→b, 1: b→a.
    next_free: [Mutex<Duration>; 2],
    bytes: [AtomicU64; 2],
    messages: [AtomicU64; 2],
}

impl Link {
    /// Create a link over `clock` with the given spec.
    pub fn new(spec: LinkSpec, clock: Arc<SimClock>) -> Arc<Self> {
        Arc::new(Self {
            spec,
            clock,
            next_free: [Mutex::new(Duration::ZERO), Mutex::new(Duration::ZERO)],
            bytes: [AtomicU64::new(0), AtomicU64::new(0)],
            messages: [AtomicU64::new(0), AtomicU64::new(0)],
        })
    }

    /// The clock this link charges time to.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The link's parameters.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Compute the arrival time of a `len`-byte message sent now in
    /// direction `dir` (0 or 1), updating counters and the serialization
    /// horizon. The receiver gates on the returned deadline.
    pub fn stamp_send(&self, dir: usize, len: usize) -> Duration {
        self.bytes[dir].fetch_add(len as u64, Ordering::Relaxed);
        self.messages[dir].fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        let serialization = match self.spec.bandwidth {
            Some(bw) if bw > 0 => Duration::from_nanos((len as u64).saturating_mul(1_000_000_000) / bw),
            _ => Duration::ZERO,
        };
        let mut horizon = self.next_free[dir].lock();
        let start = (*horizon).max(now);
        let done_sending = start + serialization;
        *horizon = done_sending;
        done_sending + self.spec.latency
    }

    /// Total bytes sent in direction `dir` so far.
    pub fn bytes_sent(&self, dir: usize) -> u64 {
        self.bytes[dir].load(Ordering::Relaxed)
    }

    /// Total messages sent in direction `dir` so far.
    pub fn messages_sent(&self, dir: usize) -> u64 {
        self.messages[dir].load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link")
            .field("spec", &self.spec)
            .field("bytes_a_to_b", &self.bytes_sent(0))
            .field("bytes_b_to_a", &self.bytes_sent(1))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_only_stamp() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(40)), clock.clone());
        let arrive = link.stamp_send(0, 100);
        // One-way = 20ms from "now" (which is ~0).
        assert!(arrive >= Duration::from_millis(20));
        assert!(arrive < Duration::from_millis(25));
        assert_eq!(link.bytes_sent(0), 100);
        assert_eq!(link.messages_sent(0), 1);
        assert_eq!(link.bytes_sent(1), 0);
    }

    #[test]
    fn bandwidth_serializes_back_to_back_messages() {
        let clock = SimClock::new();
        // 1 MB/s, zero latency: each 100 KB message takes 100 ms to serialize.
        let link = Link::new(
            LinkSpec { latency: Duration::ZERO, bandwidth: Some(1_000_000) },
            clock.clone(),
        );
        let a1 = link.stamp_send(0, 100_000);
        let a2 = link.stamp_send(0, 100_000);
        assert!(a2 >= a1 + Duration::from_millis(99), "second message queues behind first");
    }

    #[test]
    fn directions_are_independent() {
        let clock = SimClock::new();
        let link = Link::new(
            LinkSpec { latency: Duration::ZERO, bandwidth: Some(1_000) },
            clock.clone(),
        );
        let a = link.stamp_send(0, 1_000); // 1s serialization in dir 0
        let b = link.stamp_send(1, 0); // dir 1 unaffected
        assert!(a >= Duration::from_millis(990));
        assert!(b < Duration::from_millis(100));
    }

    #[test]
    fn pipelined_sends_overlap_latency() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(80)), clock.clone());
        // Ten messages sent back-to-back share the 40ms one-way latency.
        let last = (0..10).fold(Duration::ZERO, |_, _| link.stamp_send(0, 32 * 1024));
        clock.wait_until(last);
        assert!(clock.now() < Duration::from_millis(80), "not 10 x 40ms");
    }
}
