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
//! * [`server`] — a per-connection dispatch loop over an [`RpcService`].
//! * [`pool`] — the worker loop both planes run: a fixed set of threads,
//!   each serving every connection pinned to it from one poller.
//! * [`shard`] — the server plane's owner of that loop: thousands of
//!   pinned sessions served under deficit round robin and admission
//!   control.
//! * [`client_pool`] — the client plane's owner: many pipelined upstream
//!   connections on a fixed set of workers.
//! * [`loopback`] — synchronous in-process dispatch, so a proxy can call
//!   a same-process backend without a thread or a pipe.
//!
//! The SGFS proxies additionally use the header types directly to inspect
//! and rewrite credentials in-flight, which is the core of the paper's
//! user-level virtualization technique.

pub mod client;
pub mod client_pool;
pub mod error;
pub mod loopback;
pub mod msg;
pub mod pool;
pub mod record;
pub mod server;
pub mod shard;

pub use client::RpcClient;
pub use client_pool::ClientIoPool;
pub use error::RpcError;
pub use loopback::LoopbackStream;
pub use msg::{AcceptStat, AuthFlavor, AuthSysParams, CallHeader, OpaqueAuth, ReplyHeader};
pub use pool::{ConnPump, PoolConn};
pub use server::{serve_connection, RpcService};
pub use shard::{
    process_thread_count, AdmissionPolicy, RecordService, RpcRecordService, ShardServer,
    ShardStats,
};

/// The fixed RPC protocol version this crate speaks.
pub const RPC_VERSION: u32 = 2;
