//! SGFS — the user-level Secure Grid File System (the paper's contribution).
//!
//! SGFS virtualizes NFS with a pair of user-level proxies:
//!
//! ```text
//!  compute host                              file-server host
//!  ┌────────────┐   plain RPC   ┌──────────┐  GTLS-protected RPC  ┌──────────┐  plain RPC  ┌────────┐
//!  │ kernel NFS ├──────────────►│ client   ├─────────────────────►│ server   ├────────────►│ kernel │
//!  │ client     │   (loopback)  │ proxy    │   (LAN/WAN link)     │ proxy    │ (loopback)  │ nfsd   │
//!  └────────────┘               │ + disk $ │                      │ + authz  │             └────────┘
//!                               └──────────┘                      └──────────┘
//! ```
//!
//! * [`proxy::ServerProxy`] authenticates the peer with GSI certificates,
//!   authorizes the grid identity against a per-session **gridmap**, maps
//!   UNIX credentials on every RPC, intercepts **ACCESS** to enforce
//!   per-file grid ACLs (`.name.acl` files with inheritance and an
//!   in-memory cache), shields the ACL files themselves from remote
//!   access, and forwards everything else to the kernel NFS server.
//! * [`proxy::ClientProxy`] exposes plain NFS to the local kernel client
//!   and adds per-session **disk caching** of attributes, access rights
//!   and 32 KB data blocks, with **write-back** (dirty blocks flushed on
//!   COMMIT or session close; blocks of deleted files are never flushed —
//!   the behaviour that makes Seismic fast in the paper). A read-ahead
//!   pipeline models SFS's asynchronous-RPC advantage when enabled.
//! * [`session`] assembles the pieces per configuration — `nfs-v3`, `gfs`,
//!   `sgfs-sha/rc/aes`, `gfs-ssh`, `sfs` — exactly the setups §6 measures.
//! * [`tunnel`] is the `gfs-ssh` baseline's SSH-like encrypted tunnel with
//!   session-key inter-proxy authentication: a stream under the proxies'
//!   RPC stream, each end charging the double user-level forwarding hop.
//! * [`acl`] implements the grid ACL model. The CPU-utilization
//!   instrumentation behind the paper's Figures 5 and 6 — and every other
//!   count the proxies keep — is the [`obs::Emitter`] each proxy holds.

pub mod acl;
pub mod config;
pub mod proxy;
pub mod session;
pub mod tunnel;

pub use config::{CacheMode, SecurityLevel, SessionConfig};
pub use proxy::{ClientProxy, ServerProxy};
pub use session::{GridWorld, Session, SessionError, SessionMaterial, SessionParams, SetupKind};
pub use sgfs_obs as obs;
