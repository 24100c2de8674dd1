//! Transports and network emulation for the SGFS stack.
//!
//! The paper's testbed is two VMware hosts joined by a NIST Net router that
//! injects wide-area latencies. This crate reproduces that setup in-process:
//!
//! * [`SimClock`] — a hybrid clock: real elapsed time plus a virtual offset.
//!   CPU work (crypto, XDR, caching) runs and is measured for real; the
//!   emulated WAN link adds its latency to the virtual offset instead of
//!   sleeping, so an 80 ms-RTT PostMark run completes in seconds while
//!   reporting faithful wide-area timings. A real-sleep mode exists for
//!   integration tests that want actual delays.
//! * [`pipe::pipe_pair`] — an in-memory duplex byte stream standing in for
//!   a TCP connection between the client and server hosts.
//! * [`link::Link`] — the NIST Net analog: per-direction latency and
//!   bandwidth, applied by stamping each message with its arrival time and
//!   gating the receiver on the shared clock.
//! * [`Stream`] — the object-safe byte-stream trait every layer above
//!   (record marking, GTLS, tunnels) is written against, so real
//!   `TcpStream`s can be substituted for the in-memory pipes.
//! * [`poll::Poller`] — readiness notification over the pipe transports:
//!   the worker loops of both planes sleep here instead of in one
//!   blocking read per connection.
//! * [`submit::submit_ring`] — the bounded, wake-aware queue that feeds
//!   those loops: pipeline commands, and the accept → pin handoff.

pub mod clock;
pub mod crash;
pub mod fault;
pub mod link;
pub mod pipe;
pub mod poll;
pub mod submit;

pub use clock::{LogicalClock, SimClock};
pub use crash::{CrashInjector, CrashPoint, ALL_CRASH_POINTS};
pub use fault::{FaultInjector, FaultPlan, FaultStream};
pub use link::{Link, LinkSpec};
pub use pipe::{pipe_pair, pipe_pair_over_link, PipeEnd, PipeReader, PipeWatch, PipeWriter};
pub use poll::{Poller, Readiness, Token};
pub use submit::{submit_ring, Popped, SubmitReceiver, SubmitSender};

use std::io::{Read, Write};

/// A blocking, bidirectional byte stream.
///
/// Implemented by [`PipeEnd`] and by `std::net::TcpStream`; all protocol
/// layers are generic over this, mirroring how the paper's TI-RPC library
/// is transport independent.
pub trait Stream: Read + Write + Send {}

impl<T: Read + Write + Send + ?Sized> Stream for T {}

/// A boxed stream, used where layers are stacked dynamically
/// (plain pipe vs GTLS vs SSH-tunnel analog).
pub type BoxStream = Box<dyn Stream>;
