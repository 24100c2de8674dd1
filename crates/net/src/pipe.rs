//! In-memory duplex byte streams, optionally routed over an emulated link.

use crate::clock::SimClock;
use crate::link::Link;
use crate::poll::Readiness;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A chunk in flight, stamped with its emulated arrival time.
struct Msg {
    arrive_at: Duration,
    data: Vec<u8>,
}

/// One direction of the pipe: a bounded-by-courtesy queue plus EOF flag.
struct Channel {
    state: Mutex<ChannelState>,
    cond: Condvar,
    /// Readiness handle of a registered poller, notified on every push
    /// and close (the shard event loops watch receive channels this way).
    watcher: Mutex<Option<Readiness>>,
}

#[derive(Default)]
struct ChannelState {
    queue: VecDeque<Msg>,
    /// Payload bytes currently queued (maintained on push/pop so the
    /// admission layer can sample a session's wire backlog in O(1)).
    queued_bytes: usize,
    closed: bool,
    /// A [`PipeWatch::nudge`] no `wait_input` has consumed yet.
    nudged: bool,
}

impl Channel {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(ChannelState::default()),
            cond: Condvar::new(),
            watcher: Mutex::new(None),
        })
    }

    fn push(&self, msg: Msg) -> io::Result<()> {
        {
            let mut st = self.state.lock();
            if st.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
            }
            st.queued_bytes += msg.data.len();
            st.queue.push_back(msg);
        }
        // After the unlock: a reader woken under the lock would wake only
        // to block on it again — a second context switch per message.
        self.cond.notify_one();
        self.notify_watcher();
        Ok(())
    }

    /// Blocking pop; `None` at EOF.
    fn pop(&self) -> Option<Msg> {
        let mut st = self.state.lock();
        loop {
            if let Some(m) = st.queue.pop_front() {
                st.queued_bytes -= m.data.len();
                return Some(m);
            }
            if st.closed {
                return None;
            }
            self.cond.wait(&mut st);
        }
    }

    fn close(&self) {
        {
            let mut st = self.state.lock();
            st.closed = true;
            self.cond.notify_all();
        }
        self.notify_watcher();
    }

    /// Wake a registered poller, outside the state lock (the poller has
    /// its own lock; never hold both).
    fn notify_watcher(&self) {
        if let Some(w) = self.watcher.lock().as_ref() {
            w.notify();
        }
    }
}

/// A poll-side view of one pipe endpoint's *receive* channel.
///
/// Taken from the raw [`PipeEnd`] **before** the endpoint is wrapped in
/// higher layers (fault injectors, GTLS), so readiness always reflects
/// the wire itself: arrivals and EOF fire regardless of what the wrapping
/// stack does with the bytes. Writers always emit whole records in single
/// pipe messages, so "the wire has input" is exactly "a record (or EOF)
/// is ready to pump".
#[derive(Clone)]
pub struct PipeWatch {
    channel: Arc<Channel>,
}

impl PipeWatch {
    /// Install `readiness` as this channel's watcher. If the channel
    /// already holds data or is already closed, the token fires
    /// immediately — registration cannot race an earlier arrival.
    pub fn register(&self, readiness: Readiness) {
        *self.channel.watcher.lock() = Some(readiness.clone());
        let fire = {
            let st = self.channel.state.lock();
            !st.queue.is_empty() || st.closed
        };
        if fire {
            readiness.notify();
        }
    }

    /// Withdraw the registered watcher: arrivals and EOF notify nobody
    /// until the next [`register`](Self::register), which fires at once
    /// for anything that arrived meanwhile. A thread that reads the
    /// channel itself for a while keeps the poller asleep this way.
    pub fn deregister(&self) {
        self.channel.watcher.lock().take();
    }

    /// Block until a message is queued, the sending side has closed or
    /// the channel is [nudged](Self::nudge), or until `deadline` passes
    /// (never, when `None`). Returns false only when the deadline ended
    /// the wait. Each nudge ends one wait, the next if none is under way.
    pub fn wait_input(&self, deadline: Option<Instant>) -> bool {
        let mut st = self.channel.state.lock();
        while st.queue.is_empty() && !st.closed && !st.nudged {
            match deadline {
                None => self.channel.cond.wait(&mut st),
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if self.channel.cond.wait_for(&mut st, left).timed_out() {
                        break;
                    }
                }
            }
        }
        let woke = !st.queue.is_empty() || st.closed || st.nudged;
        st.nudged = false;
        woke
    }

    /// End a [`wait_input`](Self::wait_input) without input: for a thread
    /// that sleeps on the wire but has other work another thread can hand
    /// it.
    pub fn nudge(&self) {
        self.channel.state.lock().nudged = true;
        self.channel.cond.notify_all();
    }

    /// Is at least one unconsumed message queued?
    pub fn has_input(&self) -> bool {
        !self.channel.state.lock().queue.is_empty()
    }

    /// Has the sending side closed (EOF pending once drained)?
    pub fn is_closed(&self) -> bool {
        self.channel.state.lock().closed
    }

    /// Payload bytes currently queued and unconsumed on this channel.
    ///
    /// This is the receiver-side backlog the admission layer samples: a
    /// session that keeps submitting while its records sit unread shows
    /// up here, byte-accurate, without walking the queue.
    pub fn queued_bytes(&self) -> usize {
        self.channel.state.lock().queued_bytes
    }
}

/// One endpoint of an in-memory duplex pipe: a [`PipeReader`] and a
/// [`PipeWriter`].
///
/// Implements `Read`/`Write`; reads block until data or EOF. When built
/// over a [`Link`], the endpoint is one of the link's hosts: each written
/// chunk is stamped with its arrival time from this host's clock, and the
/// reader fast-forwards this host's clock to a chunk's stamp before
/// consuming it. Dropping the endpoint closes both directions.
pub struct PipeEnd {
    // Dropped in this order: the peer sees our EOF before we stop
    // listening to it.
    writer: PipeWriter,
    reader: PipeReader,
}

/// Create a connected pair of pipe endpoints with no link emulation
/// (an ideal local transport, e.g. proxy ↔ kernel server on one host).
pub fn pipe_pair() -> (PipeEnd, PipeEnd) {
    build_pair(None)
}

/// Create a connected pair routed across an emulated WAN link.
///
/// The first endpoint is the client host (link host 0, transmitting in
/// direction 0), the second the server host (host 1, direction 1).
pub fn pipe_pair_over_link(link: Arc<Link>) -> (PipeEnd, PipeEnd) {
    build_pair(Some(link))
}

fn build_pair(link: Option<Arc<Link>>) -> (PipeEnd, PipeEnd) {
    let a_to_b = Channel::new();
    let b_to_a = Channel::new();
    let end = |side: usize, incoming: Arc<Channel>, outgoing: Arc<Channel>| PipeEnd {
        reader: PipeReader {
            incoming,
            clock: link.as_ref().map(|l| l.host(side).clone()),
            readbuf: Vec::new(),
            readpos: 0,
        },
        writer: PipeWriter { outgoing, link: link.as_ref().map(|l| (l.clone(), side)) },
    };
    (end(0, b_to_a.clone(), a_to_b.clone()), end(1, a_to_b, b_to_a))
}

/// The read half of a [`PipeEnd`]; dropping it closes the receive side.
pub struct PipeReader {
    incoming: Arc<Channel>,
    /// This host's clock, gated on each arrival stamp.
    clock: Option<Arc<SimClock>>,
    /// Partially consumed incoming message.
    readbuf: Vec<u8>,
    readpos: usize,
}

/// The write half of a [`PipeEnd`]; dropping it closes the send side.
pub struct PipeWriter {
    outgoing: Arc<Channel>,
    /// Link this half transmits over, with its direction index.
    link: Option<(Arc<Link>, usize)>,
}

impl PipeEnd {
    /// A poll-side watch on this endpoint's receive channel. Take it
    /// before boxing/wrapping the endpoint; it stays valid (and keeps
    /// firing) through any wrapping stack.
    pub fn watch(&self) -> PipeWatch {
        self.reader.watch()
    }

    /// Split into independently owned read and write halves, so one
    /// thread can block reading while another writes (the tunnel
    /// forwarders need this).
    pub fn split(self) -> (PipeReader, PipeWriter) {
        (self.reader, self.writer)
    }
}

impl Read for PipeEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for PipeEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

impl PipeReader {
    /// A poll-side watch on this half's receive channel.
    pub fn watch(&self) -> PipeWatch {
        PipeWatch { channel: self.incoming.clone() }
    }
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        while self.readpos == self.readbuf.len() {
            match self.incoming.pop() {
                Some(msg) => {
                    if let Some(clock) = &self.clock {
                        clock.wait_until(msg.arrive_at);
                    }
                    self.readbuf = msg.data;
                    self.readpos = 0;
                }
                None => return Ok(0),
            }
        }
        let n = buf.len().min(self.readbuf.len() - self.readpos);
        buf[..n].copy_from_slice(&self.readbuf[self.readpos..self.readpos + n]);
        self.readpos += n;
        Ok(n)
    }
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let arrive_at = match &self.link {
            Some((link, dir)) => link.stamp_send(*dir, buf.len()),
            None => Duration::ZERO,
        };
        self.outgoing.push(Msg { arrive_at, data: buf.to_vec() })?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.incoming.close();
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.outgoing.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use std::io::{Read, Write};

    #[test]
    fn write_then_read_roundtrip() {
        let (mut a, mut b) = pipe_pair();
        a.write_all(b"hello world").unwrap();
        let mut buf = [0u8; 11];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn reads_can_split_messages() {
        let (mut a, mut b) = pipe_pair();
        a.write_all(&[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        let mut buf2 = [0u8; 2];
        b.read_exact(&mut buf2).unwrap();
        assert_eq!(buf2, [5, 6]);
    }

    #[test]
    fn reads_can_join_messages() {
        let (mut a, mut b) = pipe_pair();
        a.write_all(&[1, 2]).unwrap();
        a.write_all(&[3, 4]).unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn eof_on_peer_drop() {
        let (a, mut b) = pipe_pair();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn write_to_closed_pipe_fails() {
        let (mut a, b) = pipe_pair();
        drop(b);
        assert!(a.write_all(b"x").is_err());
    }

    #[test]
    fn blocking_read_across_threads() {
        let (mut a, mut b) = pipe_pair();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(Duration::from_millis(20));
        a.write_all(b"async").unwrap();
        assert_eq!(&t.join().unwrap(), b"async");
    }

    #[test]
    fn watch_fires_on_push_and_close() {
        use crate::poll::Poller;
        let (mut a, b) = pipe_pair();
        let watch = b.watch();
        let poller = Poller::new();
        watch.register(poller.readiness(4));
        let mut out = Vec::new();
        assert_eq!(poller.wait(Some(Duration::from_millis(5)), &mut out), 0, "idle pipe");
        a.write_all(b"ping").unwrap();
        assert_eq!(poller.wait(None, &mut out), 1);
        assert_eq!(out, [4]);
        assert!(watch.has_input());
        drop(a);
        assert_eq!(poller.wait(None, &mut out), 1, "close wakes the watcher");
        assert!(watch.is_closed());
    }

    #[test]
    fn watch_registered_after_data_fires_immediately() {
        use crate::poll::Poller;
        let (mut a, b) = pipe_pair();
        a.write_all(b"early").unwrap();
        let poller = Poller::new();
        b.watch().register(poller.readiness(0));
        let mut out = Vec::new();
        assert_eq!(poller.wait(Some(Duration::from_millis(50)), &mut out), 1);
    }

    #[test]
    fn deregistered_watch_stays_quiet_and_reregistering_fires_for_what_arrived() {
        use crate::poll::Poller;
        let (mut a, b) = pipe_pair();
        let watch = b.watch();
        let poller = Poller::new();
        watch.register(poller.readiness(2));
        watch.deregister();
        a.write_all(b"withheld").unwrap();
        let mut out = Vec::new();
        assert_eq!(poller.wait(Some(Duration::from_millis(5)), &mut out), 0, "withheld");
        watch.register(poller.readiness(2));
        assert_eq!(poller.wait(Some(Duration::from_millis(50)), &mut out), 1);
        assert_eq!(out, [2]);
    }

    #[test]
    fn wait_input_returns_on_arrival_close_nudge_or_deadline() {
        let (mut a, b) = pipe_pair();
        let watch = b.watch();
        let start = Instant::now();
        assert!(!watch.wait_input(Some(start + Duration::from_millis(15))), "deadline");
        assert!(start.elapsed() >= Duration::from_millis(15));

        let nudger = {
            let watch = watch.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                watch.nudge();
            })
        };
        assert!(watch.wait_input(None), "nudge");
        nudger.join().unwrap();
        assert!(!watch.has_input());
        watch.nudge();
        assert!(watch.wait_input(None), "a nudge with no waiter ends the next wait");
        let at = Instant::now() + Duration::from_millis(5);
        assert!(!watch.wait_input(Some(at)), "and only that one");

        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            a.write_all(b"late").unwrap();
            a
        });
        assert!(watch.wait_input(None), "arrival");
        assert!(watch.has_input());
        let a = writer.join().unwrap();
        let mut b = b;
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        drop(a);
        assert!(watch.wait_input(Some(Instant::now() + Duration::from_secs(5))), "close");
        assert!(watch.is_closed());
    }

    #[test]
    fn link_charges_virtual_latency() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(40)), clock.clone());
        let server = link.host(1).clone();
        let (mut a, mut b) = pipe_pair_over_link(link);
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        // One-way latency charged to the receiver's clock only.
        assert!(server.now() >= Duration::from_millis(20));
        assert_eq!(clock.virtual_time(), Duration::ZERO, "the sender's clock is untouched");
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert!(clock.now() >= Duration::from_millis(40), "full RTT after reply");
    }

    /// The worst interleaving for a shared clock: eight requests leave back
    /// to back, and the client consumes reply k before the server sends
    /// reply k + 1. Each consumption advances only the client, so every
    /// reply is stamped from the server's own reading and the window
    /// costs one round trip (a shared clock charged ≈ 4.5).
    #[test]
    fn a_window_answered_one_by_one_costs_one_round_trip() {
        let rtt = Duration::from_millis(200);
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(rtt), clock.clone());
        let (mut client, mut server) = pipe_pair_over_link(link);
        for k in 0..8u8 {
            client.write_all(&[k]).unwrap();
        }
        let mut buf = [0u8; 1];
        for k in 0..8u8 {
            server.read_exact(&mut buf).unwrap();
            server.write_all(&[k]).unwrap();
            client.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], k);
        }
        assert!(clock.now() >= rtt);
        assert!(clock.now() <= rtt + rtt / 10, "{:?} on the client clock", clock.now());
    }

    #[test]
    fn round_trips_accumulate_rtt() {
        let clock = SimClock::new();
        let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(10)), clock.clone());
        let (mut a, mut b) = pipe_pair_over_link(link);
        let server = std::thread::spawn(move || {
            let mut buf = [0u8; 1];
            for _ in 0..50 {
                b.read_exact(&mut buf).unwrap();
                b.write_all(&buf).unwrap();
            }
        });
        let mut buf = [0u8; 1];
        for i in 0..50u8 {
            a.write_all(&[i]).unwrap();
            a.read_exact(&mut buf).unwrap();
            assert_eq!(buf[0], i);
        }
        server.join().unwrap();
        // 50 sequential round trips at 10ms RTT = 500ms of simulated time
        // (real CPU time substitutes for part of the virtual offset).
        assert!(clock.now() >= Duration::from_millis(500));
        assert!(clock.now() < Duration::from_millis(600));
    }
}
