//! ONC RPC v2 (RFC 5531) — the remote procedure call layer under NFS.
//!
//! This is the Rust equivalent of the paper's TI-RPC: transport-independent
//! call/reply messaging with pluggable authentication flavors, written
//! against the [`sgfs_net::Stream`] abstraction so the same client and
//! server code runs over in-memory pipes, emulated WAN links, GTLS secure
//! channels, or real TCP sockets.
//!
//! Layout:
//! * [`msg`] — call/reply message headers, `AUTH_NONE` / `AUTH_SYS`
//!   credentials, accept/reject status codes.
//! * [`record`] — RFC 5531 §11 record marking for stream transports.
//! * [`client`] — a blocking RPC client (`call` = one round trip).
//! * [`server`] — dispatch of one call record into an [`RpcService`].
//! * [`pool`] — the server plane's worker loop: a fixed set of threads,
//!   each serving every connection pinned to it from one poller.
//! * [`shard`] — its owner: thousands of pinned sessions served under
//!   deficit round robin and admission control.
//! * [`loopback`] — synchronous in-process dispatch, so a proxy can call
//!   a same-process backend without a thread or a pipe.
//!
//! The client plane has no worker: a pipelined upstream channel is driven
//! by the threads that wait on it (`sgfs::proxy::pipeline`).
//!
//! The SGFS proxies additionally use the header types directly to inspect
//! and rewrite credentials in-flight, which is the core of the paper's
//! user-level virtualization technique.

pub mod client;
pub mod error;
pub mod loopback;
pub mod msg;
pub mod pool;
pub mod record;
pub mod server;
pub mod shard;

pub use client::RpcClient;
pub use error::RpcError;
pub use loopback::LoopbackStream;
pub use msg::{AcceptStat, AuthFlavor, AuthSysParams, CallHeader, OpaqueAuth, ReplyHeader};
pub use server::RpcService;
pub use shard::{
    process_thread_count, AdmissionPolicy, RecordService, RpcRecordService, ShardServer,
    ShardStats,
};

/// The fixed RPC protocol version this crate speaks.
pub const RPC_VERSION: u32 = 2;

/// Starts no thread and holds nothing: client pipelines are driven by the
/// threads that wait on them. The type stays only because the benchmark
/// harness under `benchmark/`, which this tree does not change, still
/// constructs one.
pub struct ClientIoPool;

impl ClientIoPool {
    /// A handle to nothing; `_threads` is ignored.
    pub fn new(_threads: usize) -> std::sync::Arc<Self> {
        std::sync::Arc::new(Self)
    }
}
