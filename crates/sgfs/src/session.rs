//! Session assembly: stand up a complete testbed for one configuration.
//!
//! A [`Session`] is one mounted grid filesystem: the emulated WAN link,
//! the kernel NFS server with its exported `/GFS`, the proxy stack for
//! the chosen [`SetupKind`], and the kernel-client stand-in the workloads
//! drive. This mirrors §6.1's experimental setups exactly:
//!
//! | kind      | stack |
//! |-----------|-------|
//! | `NfsV3`   | kernel client → WAN → kernel server |
//! | `NfsV4`   | same wiring (the paper saw no v4 advantage; see EXPERIMENTS.md) |
//! | `Gfs`     | + client/server proxies, no security |
//! | `Sgfs(_)` | proxies over GTLS at the chosen strength |
//! | `GfsSsh`  | plain proxies through the session-key SSH tunnel |
//! | `Sfs`     | RC4 proxies, aggressive memory metadata cache + read-ahead |

use crate::config::{
    CacheMode, DurabilityPolicy, HopCost, RetryPolicy, SecurityLevel, SessionConfig, StripePolicy,
};
use crate::proxy::client::{ClientProxy, ClientProxyController, SharedClientProxy, Upstream};
use crate::proxy::server::ServerProxy;
use crate::proxy::stripe::StripeMap;
use crate::proxy::ProxyError;
use crate::tunnel::tunnel_start;
use sgfs_crypto::rsa::RsaKeyPair;
use sgfs_gtls::{handshake_pair, GtlsConfig, GtlsError, GtlsHandshake};
use sgfs_net::{pipe_pair_over_link, Link, LinkSpec, SimClock};
use sgfs_nfs3::{Fh3, Nfs3Client};
use sgfs_nfsclient::{MountOptions, NfsMount};
use sgfs_nfsd::{ExportEntry, Exports, NfsServer};
use sgfs_obs::Gauge;
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::{LoopbackStream, OpaqueAuth, RpcRecordService, ShardServer};
use sgfs_pki::{
    CertificateAuthority, Credential, DistinguishedName, TrustStore, ValidatedPeer,
};
use sgfs_vfs::{UserContext, Vfs};
use std::sync::Arc;
use std::time::Duration;

/// uid/gid of the job account on the compute host.
pub const JOB_UID: u32 = 1001;
/// uid/gid of the file account on the server host (what the proxy maps to).
pub const FILE_UID: u32 = 2001;

/// Which experimental stack to assemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetupKind {
    /// Native NFSv3 baseline.
    NfsV3,
    /// NFSv4 baseline (same wiring; the paper found it performance-
    /// equivalent to v3 in its testbed and reports only v3 numbers).
    NfsV4,
    /// User-level proxies, no security.
    Gfs,
    /// The paper's system at a given security strength.
    Sgfs(SecurityLevel),
    /// Proxies + session-key authenticated SSH-like tunnel.
    GfsSsh,
    /// The SFS-analog: RC4+SHA1, aggressive metadata caching, read-ahead.
    Sfs,
}

impl SetupKind {
    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SetupKind::NfsV3 => "nfs-v3",
            SetupKind::NfsV4 => "nfs-v4",
            SetupKind::Gfs => "gfs",
            SetupKind::Sgfs(SecurityLevel::None) => "sgfs-none",
            SetupKind::Sgfs(SecurityLevel::IntegrityOnly) => "sgfs-sha",
            SetupKind::Sgfs(SecurityLevel::MediumCipher) => "sgfs-rc",
            SetupKind::Sgfs(SecurityLevel::StrongCipher) => "sgfs-aes",
            SetupKind::Sgfs(SecurityLevel::AeadCipher) => "sgfs-gcm",
            SetupKind::GfsSsh => "gfs-ssh",
            SetupKind::Sfs => "sfs",
        }
    }
}

/// Session construction failures.
#[derive(Debug)]
pub enum SessionError {
    /// Secure-channel establishment failed.
    Gtls(GtlsError),
    /// Proxy setup failed (authorization, tunnel, cache spool, ...).
    Proxy(ProxyError),
    /// I/O failure.
    Io(std::io::Error),
    /// The export was not mountable.
    Mount(String),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Gtls(e) => write!(f, "session security setup failed: {e}"),
            SessionError::Proxy(e) => write!(f, "session proxy setup failed: {e}"),
            SessionError::Io(e) => write!(f, "session I/O failure: {e}"),
            SessionError::Mount(s) => write!(f, "mount failed: {s}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<GtlsError> for SessionError {
    fn from(e: GtlsError) -> Self {
        SessionError::Gtls(e)
    }
}

impl From<ProxyError> for SessionError {
    fn from(e: ProxyError) -> Self {
        SessionError::Proxy(e)
    }
}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::Io(e)
    }
}

/// The PKI world a grid deployment needs: a CA, a user, a file server.
pub struct GridWorld {
    /// The certificate authority.
    pub ca: CertificateAuthority,
    /// The grid user's credential.
    pub user: Credential,
    /// The file server host's credential.
    pub server: Credential,
    /// Trust store holding the CA root.
    pub trust: TrustStore,
    /// The DN the deployment's gridmap authorizes (alice). Swapping
    /// `user` for another credential does *not* authorize that identity.
    pub authorized_dn: DistinguishedName,
}

impl GridWorld {
    /// Create a CA and issue user + server certificates.
    ///
    /// 512-bit keys keep setup fast; the code paths are size-independent.
    pub fn new() -> Self {
        let mut rng = rand::thread_rng();
        let dn = |s: &str| DistinguishedName::parse(s).expect("static DN");
        let ca = CertificateAuthority::new(&dn("/O=Grid/OU=ACIS/CN=CA"), 512, &mut rng);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let ukey = RsaKeyPair::generate(512, &mut rng);
        let ucert = ca.issue(&dn("/O=Grid/OU=ACIS/CN=alice"), &ukey.public);
        let skey = RsaKeyPair::generate(512, &mut rng);
        let scert = ca.issue(&dn("/O=Grid/OU=ACIS/CN=fileserver"), &skey.public);
        Self {
            ca,
            user: Credential::new(ucert, ukey),
            server: Credential::new(scert, skey),
            trust,
            authorized_dn: dn("/O=Grid/OU=ACIS/CN=alice"),
        }
    }

    /// The user's DN.
    pub fn user_dn(&self) -> DistinguishedName {
        self.user.effective_dn().clone()
    }

    /// The server's DN.
    pub fn server_dn(&self) -> DistinguishedName {
        self.server.effective_dn().clone()
    }
}

impl Default for GridWorld {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a File System Service needs to establish one session:
/// credentials, trust anchors, and the session's access-control setup.
/// [`GridWorld::material`] produces the single-user default; the DSS
/// generates richer gridmaps from its per-filesystem ACL database.
#[derive(Clone)]
pub struct SessionMaterial {
    /// The grid user's (possibly delegated) credential.
    pub user: Credential,
    /// The file-server host credential.
    pub server: Credential,
    /// Trusted CA roots.
    pub trust: TrustStore,
    /// The session gridmap (DN → local account name).
    pub gridmap: sgfs_pki::GridMap,
    /// Local account name → (uid, gid).
    pub accounts: std::collections::HashMap<String, (u32, u32)>,
}

impl GridWorld {
    /// The default single-user session material: the world's authorized
    /// DN mapped to the `griduser` file account.
    pub fn material(&self) -> SessionMaterial {
        let mut gridmap = sgfs_pki::GridMap::new();
        gridmap.insert(self.authorized_dn.clone(), "griduser");
        let mut accounts = std::collections::HashMap::new();
        accounts.insert("griduser".to_string(), (FILE_UID, FILE_UID));
        SessionMaterial {
            user: self.user.clone(),
            server: self.server.clone(),
            trust: self.trust.clone(),
            gridmap,
            accounts,
        }
    }
}

/// Parameters of one session build.
pub struct SessionParams {
    /// Which stack.
    pub kind: SetupKind,
    /// WAN round-trip time (the paper's LAN measures ~0.3 ms).
    pub rtt: Duration,
    /// Link bandwidth (None = the paper's Gigabit LAN, effectively ∞).
    pub bandwidth: Option<u64>,
    /// Kernel client memory cache bytes.
    pub mem_cache_bytes: usize,
    /// Client proxy disk cache spool (None = no proxy data caching —
    /// the paper's LAN configurations).
    pub disk_cache_dir: Option<std::path::PathBuf>,
    /// Fine-grained per-file ACL enforcement at the server proxy.
    pub fine_grained_acl: bool,
    /// Automatic session rekey after this many records.
    pub rekey_every: Option<u64>,
    /// Use a delegated proxy certificate instead of the user certificate.
    pub delegate: bool,
    /// Virtual cost of each user-level forwarding hop (see [`HopCost`]).
    pub hop_cost: HopCost,
    /// Ceiling of the client proxy's sequential read-ahead horizon, in
    /// blocks (`Some(0)` = off). None = a pipeline window's worth
    /// whenever the proxy caches data — the WAN configuration — 4 for
    /// the SFS stack, and 0 without a proxy cache.
    pub readahead: Option<u32>,
    /// Server-side filesystem to export. `None` creates a fresh one;
    /// passing the same `Arc<Vfs>` to several sessions makes them share
    /// data (how the FSS realizes multiple sessions to one filesystem).
    pub vfs: Option<std::sync::Arc<Vfs>>,
    /// Upstream fault-recovery policy for the client proxy's pipeline
    /// (reconnect budget, dial backoff, per-call reply deadline).
    pub retry: RetryPolicy,
    /// Crash-consistency policy for the disk cache. The benchmark
    /// defaults disable the journal (the paper's methodology starts each
    /// session with a cold, ephemeral cache); a production session sets a
    /// journaling policy and its spool + journal survive restarts —
    /// session assembly replays the journal before serving the first
    /// call.
    pub durability: DurabilityPolicy,
    /// Observability domain for the session's data plane (counters,
    /// trace events, latency histograms). `None` = the session makes an
    /// untraced one of its own, which still counts; share one domain
    /// across sessions to interleave their events on one logical clock.
    pub obs: Option<Arc<sgfs_obs::Obs>>,
    /// The sharded server core this session's server-side connections pin
    /// to. `None` = the session starts a private [`ShardServer`] with
    /// [`DEFAULT_SHARDS`] event loops; pass a shared one to multiplex many
    /// sessions over the same fixed thread pool (the 10k-session path).
    pub shard_server: Option<Arc<ShardServer>>,
    /// Never read: a session's client side owns no thread, and its
    /// upstream pipelines are driven by the threads that call them. The
    /// field stays only because the benchmark harness under `benchmark/`,
    /// which this tree does not change, still sets it.
    pub client_pool: Option<Arc<sgfs_oncrpc::ClientIoPool>>,
    /// Placement: stripe the session's file blocks across `width` FSS
    /// upstreams and replicate each block to `replicas` of them. `None`
    /// = the width-1 placement (one upstream holding every block), which
    /// runs the same data path as any other width. More than one member
    /// requires a proxied stack (gfs / sgfs / sfs / gfs-ssh): the kernel
    /// baselines have a single wire by construction.
    pub stripe: Option<crate::config::StripePolicy>,
}

/// Shard count of a session's private server core. Two loops exercise the
/// cross-shard paths even in single-session tests while costing only two
/// threads.
pub const DEFAULT_SHARDS: usize = 2;

impl SessionParams {
    /// LAN defaults for the given kind.
    pub fn lan(kind: SetupKind) -> Self {
        Self {
            kind,
            rtt: Duration::from_micros(300),
            bandwidth: None,
            mem_cache_bytes: 256 * 1024 * 1024,
            disk_cache_dir: None,
            fine_grained_acl: false,
            rekey_every: None,
            delegate: false,
            hop_cost: HopCost::default(),
            readahead: None,
            vfs: None,
            retry: RetryPolicy::default(),
            durability: DurabilityPolicy::none(),
            obs: None,
            shard_server: None,
            client_pool: None,
            stripe: None,
        }
    }

    /// WAN defaults: the given RTT plus proxy disk caching (for SGFS).
    pub fn wan(kind: SetupKind, rtt: Duration) -> Self {
        let mut p = Self::lan(kind);
        p.rtt = rtt;
        if matches!(kind, SetupKind::Sgfs(_)) {
            p.disk_cache_dir = Some(std::env::temp_dir().join(format!(
                "sgfs-cache-{}-{}",
                std::process::id(),
                rand::random::<u64>()
            )));
        }
        p
    }
}

/// End-of-session accounting.
#[derive(Debug)]
pub struct SessionReport {
    /// Bytes written back from the proxy cache at teardown.
    pub writeback_bytes: u64,
    /// Simulated time the final write-back took.
    pub writeback_time: Duration,
    /// Client proxy metadata cache (hits, misses), when a proxy ran.
    pub proxy_cache: Option<(u64, u64)>,
}

/// One live session: the mounted filesystem plus everything beneath it.
pub struct Session {
    /// The mounted filesystem the workload drives.
    pub mount: NfsMount,
    clock: Arc<SimClock>,
    link: Arc<Link>,
    server: Arc<NfsServer>,
    replica_servers: Vec<Arc<NfsServer>>,
    /// The client proxy the mount's loopback drives; teardown takes it
    /// to write the cache back.
    client_proxy: Option<Arc<SharedClientProxy>>,
    client_stats: Option<sgfs_obs::Emitter>,
    server_proxy: Option<Arc<ServerProxy>>,
    controller: Option<ClientProxyController>,
    obs: Arc<sgfs_obs::Obs>,
    shards: Arc<ShardServer>,
}

impl Session {
    /// Assemble the full stack for `params` in `world`.
    pub fn build(world: &GridWorld, params: &SessionParams) -> Result<Session, SessionError> {
        Self::build_from(&world.material(), params, SimClock::new())
    }

    /// Assemble with `clock` as the client host's clock (benchmarks share
    /// one); the file host joins its testbed.
    pub fn build_on(
        world: &GridWorld,
        params: &SessionParams,
        clock: Arc<SimClock>,
    ) -> Result<Session, SessionError> {
        Self::build_from(&world.material(), params, clock)
    }

    /// Assemble from explicit session material (the FSS entry point).
    pub fn build_from(
        world: &SessionMaterial,
        params: &SessionParams,
        clock: Arc<SimClock>,
    ) -> Result<Session, SessionError> {
        // --- the file server host ---
        let (server, root_fh) =
            file_host(params.vfs.clone().unwrap_or_else(|| Arc::new(Vfs::new())))?;

        // --- the WAN link between the hosts ---
        let link = Link::new(
            LinkSpec { latency: params.rtt / 2, bandwidth: params.bandwidth },
            clock.clone(),
        );

        // --- the sharded server core: every server-side connection in
        // this session (kernel baseline or proxy downstream) pins to one
        // of its event loops instead of getting its own thread ---
        let shards = params
            .shard_server
            .clone()
            .unwrap_or_else(|| ShardServer::new(DEFAULT_SHARDS));

        let obs = params.obs.clone().unwrap_or_else(sgfs_obs::Obs::disabled);

        let mount_opts =
            MountOptions::new(clock.clone()).with_mem_cache(params.mem_cache_bytes);
        let job_cred = OpaqueAuth::sys(&AuthSysParams::new("compute-host", JOB_UID, JOB_UID));

        if matches!(params.kind, SetupKind::NfsV3 | SetupKind::NfsV4) {
            // Direct: kernel client over the link to the kernel server.
            // (Real deployments would not export across hosts like
            // this; it is the paper's baseline.)
            let mut exports = Exports::new();
            exports.add(ExportEntry {
                path: "/GFS".into(),
                hosts: vec!["*".into()],
                root_squash: false,
                read_only: false,
            });
            let server = NfsServer::new_no_squash(server.vfs().clone(), exports);
            let root_fh = server.mount("/GFS", "compute-host").expect("wildcard export");
            let (client_end, server_end) = pipe_pair_over_link(link.clone());
            let watch = server_end.watch();
            shards.add_session(
                Box::new(server_end),
                watch,
                Arc::new(RpcRecordService(server.clone())),
            )?;
            let mut nfs = Nfs3Client::new(Box::new(client_end));
            // The kernel client presents the *file* account directly:
            // the baseline has no identity mapping.
            nfs.set_cred(OpaqueAuth::sys(&AuthSysParams::new(
                "compute-host",
                FILE_UID,
                FILE_UID,
            )));
            return Ok(Session {
                mount: NfsMount::new(nfs, root_fh, mount_opts),
                clock,
                link,
                server,
                replica_servers: Vec::new(),
                client_proxy: None,
                client_stats: None,
                server_proxy: None,
                controller: None,
                obs,
                shards,
            });
        }

        // --- proxied stacks ---
        let mut server_cfg = SessionConfig::new(match params.kind {
            SetupKind::Sgfs(level) => level,
            SetupKind::Sfs => SecurityLevel::MediumCipher,
            _ => SecurityLevel::None,
        });
        server_cfg.credential = Some(world.server.clone());
        server_cfg.trust = world.trust.clone();
        server_cfg.gridmap = world.gridmap.clone();
        server_cfg.accounts = world.accounts.clone();
        server_cfg.fine_grained_acl = params.fine_grained_acl;

        let mut client_cfg = server_cfg.clone();
        client_cfg.credential = Some(if params.delegate {
            world.user.issue_proxy(3600, 1, &mut rand::thread_rng())
        } else {
            world.user.clone()
        });
        client_cfg.expected_peer = Some(world.server.effective_dn().clone());
        client_cfg.rekey_every_records = params.rekey_every;
        // The placement: a single upstream is the width-1 stripe.
        let policy = params.stripe.unwrap_or(StripePolicy::striped(1));
        let map = StripeMap::new(policy);
        client_cfg.stripe = Some(policy);
        client_cfg.cache = match (&params.kind, &params.disk_cache_dir) {
            (SetupKind::Sfs, _) => CacheMode::MemoryMeta,
            (_, Some(dir)) => CacheMode::Disk { dir: dir.clone() },
            // A partial member holds only its mapped blocks, so no single
            // upstream can answer a whole-file GETATTR: the session-local
            // write-back cache is the size authority under partial
            // placement.
            (_, None) if map.is_partial() => CacheMode::MemoryMeta,
            (_, None) => CacheMode::None,
        };
        // Read-ahead lands in the proxy's block store; without one READs
        // are forwarded untouched and there is nothing to run ahead into.
        client_cfg.readahead = params.readahead.unwrap_or(match (&params.kind, &client_cfg.cache) {
            (_, CacheMode::None) => 0,
            (SetupKind::Sfs, _) => 4,
            _ => crate::proxy::pipeline::DEFAULT_WINDOW,
        });
        client_cfg.retry = params.retry;
        client_cfg.durability = params.durability;
        client_cfg.obs = Some(obs.clone());

        let protection = match (params.kind, client_cfg.gtls(), server_cfg.gtls()) {
            // One middleware-distributed key per session: every member's
            // tunnel, and every re-dial of it, authenticates with it.
            (SetupKind::GfsSsh, _, _) => Protection::Tunnel(rand::random(), params.hop_cost),
            (_, Some(client), Some(server)) => Protection::Gtls(Box::new((client, server))),
            _ => Protection::Plain,
        };

        // --- one full server stack per member, one client proxy across
        // all of them. Each member is its own file host: member 0 is the
        // host assembled above, the others get a fresh backing store that
        // receives the identical mirrored metadata op sequence, so handles
        // and directory structure stay byte-identical across the set and
        // any member can serve any metadata call.
        let mut upstreams: Vec<crate::proxy::client::StripeUpstream> = Vec::new();
        let mut replica_servers = Vec::new();
        let mut server_proxy = None;
        for m in 0..map.width() {
            let (m_server, m_root) = if m == 0 {
                (server.clone(), root_fh.clone())
            } else if params.vfs.is_some() {
                // A caller-provided (already populated) vfs would make
                // member 0 structurally different from the fresh members.
                return Err(SessionError::Proxy(ProxyError::Protocol(
                    "a multi-member session cannot share a caller-provided vfs".into(),
                )));
            } else {
                file_host(Arc::new(Vfs::new()))?
            };
            if m_root != root_fh {
                return Err(SessionError::Mount(
                    "replica export handles diverge across the stripe set".into(),
                ));
            }
            // Server-proxy-side plumbing: two in-process loopbacks to
            // nfsd. Synchronous dispatch (no pipe, no thread) keeps the
            // proxy free to run on a shard — it can never block on
            // another thread's progress to reach its own backend.
            let forward = Box::new(LoopbackStream::new(m_server.clone())) as sgfs_net::BoxStream;
            let mut acl = Nfs3Client::new(Box::new(LoopbackStream::new(m_server.clone())));
            // The proxy's own service identity ("user gfs" in §5).
            acl.set_cred(OpaqueAuth::sys(&AuthSysParams::new("file-host", 0, 0)));
            // The member's server proxy authorizes whoever the channel
            // authenticated — or, on the stacks where the session key
            // stands in for authentication, the asserted user DN.
            let accept = |peer: Option<&ValidatedPeer>| -> Result<_, SessionError> {
                let proxy = ServerProxy::new(
                    server_cfg.clone(),
                    peer.unwrap_or(&synthetic_peer(world)),
                    forward,
                    acl,
                    m_root,
                )?;
                // The server proxy's hops are the file host's to pay.
                proxy.set_hop_cost(link.host(1).clone(), params.hop_cost);
                Ok(proxy)
            };
            let (upstream, watch, m_proxy) = dial(&link, &shards, &protection, accept)?;
            // Per-member fault recovery: when the member's channel dies
            // with a transient fault, its pipeline re-dials the same host
            // through this closure — the same `dial`, with the established
            // server proxy as the service.
            let redial = {
                let (link, shards, sp) = (link.clone(), shards.clone(), m_proxy.clone());
                let protection = protection.clone();
                move |_attempt: u32| -> std::io::Result<_> {
                    let service = |_: Option<&ValidatedPeer>| Ok::<_, std::io::Error>(sp.clone());
                    dial(&link, &shards, &protection, service)
                        .map(|(upstream, watch, _)| (upstream, watch))
                }
            };
            if m == 0 {
                server_proxy = Some(m_proxy);
            }
            replica_servers.push(m_server);
            upstreams.push((upstream, watch, Some(Box::new(redial))));
        }

        // Client proxy. Its upstreams are pipelined (xid-demultiplexed),
        // so read-ahead rides the same channels — no second connection,
        // no second handshake.
        let mut client_proxy = ClientProxy::with_stripe(upstreams, &client_cfg)?;
        client_proxy.set_hop_cost(clock.clone(), params.hop_cost);
        let controller = client_proxy.controller();
        let client_stats = client_proxy.stats().clone();

        // Downstream: the kernel client's synchronous loop-back RPC runs
        // the proxy on the calling thread — no pipe, no proxy thread.
        let client_proxy = client_proxy.shared();
        let mut nfs = Nfs3Client::new(Box::new(LoopbackStream::over(client_proxy.clone())));
        nfs.set_cred(job_cred);
        Ok(Session {
            mount: NfsMount::new(nfs, root_fh, mount_opts),
            clock,
            link,
            server,
            replica_servers,
            client_proxy: Some(client_proxy),
            client_stats: Some(client_stats),
            server_proxy,
            controller: Some(controller),
            obs,
            shards,
        })
    }

    /// The client host's clock: what the mount's calls and the final
    /// write-back are timed on. The file host's is `link().host(1)`.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The emulated WAN link.
    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }

    /// The kernel NFS server (e.g. to inspect server-side state in tests).
    pub fn server(&self) -> &Arc<NfsServer> {
        &self.server
    }

    /// The server-side proxy (member 0's), when this configuration has
    /// one.
    pub fn server_proxy(&self) -> Option<&Arc<ServerProxy>> {
        self.server_proxy.as_ref()
    }

    /// The per-member kernel servers of a proxied session, in member
    /// order (`[server()]` for a single upstream; empty on the kernel
    /// baselines).
    pub fn replica_servers(&self) -> &[Arc<NfsServer>] {
        &self.replica_servers
    }

    /// The sharded server core this session's server-side connections run
    /// on (private to the session unless one was passed in via
    /// [`SessionParams::shard_server`]).
    pub fn shard_server(&self) -> &Arc<ShardServer> {
        &self.shards
    }

    /// The client proxy's emitter (its counters outlive the session),
    /// when a proxy is running.
    pub fn client_proxy_stats(&self) -> Option<&sgfs_obs::Emitter> {
        self.client_stats.as_ref()
    }

    /// The session's observability domain: the one passed in, or the
    /// untraced one the session made for itself.
    pub fn obs(&self) -> &Arc<sgfs_obs::Obs> {
        &self.obs
    }

    /// Dynamic-reconfiguration controller for the client proxy.
    pub fn controller(&self) -> Option<&ClientProxyController> {
        self.controller.as_ref()
    }

    /// Tear the session down: unmount the kernel client and write back
    /// everything still dirty in the client proxy's cache
    /// (timed — the paper reports this separately).
    pub fn finish(self) -> Result<SessionReport, SessionError> {
        self.finish_with(|_| ()).map(|(report, _)| report)
    }

    /// Like [`finish`](Self::finish), but lets the caller `inspect` the
    /// client proxy after the final write-back and before it is
    /// dropped — forwarded-procedure counters, per-member channels,
    /// cache state. The inspection result is `None` on the proxy-less
    /// kernel baselines.
    pub fn finish_with<R>(
        mut self,
        inspect: impl FnOnce(&ClientProxy) -> R,
    ) -> Result<(SessionReport, Option<R>), SessionError> {
        self.mount
            .unmount()
            .map_err(|e| SessionError::Io(std::io::Error::other(e.to_string())))?;
        let mut report = SessionReport {
            writeback_bytes: 0,
            writeback_time: Duration::ZERO,
            proxy_cache: None,
        };
        let Some(proxy) = self.client_proxy.take() else { return Ok((report, None)) };
        let mut proxy = proxy.lock();
        let t0 = self.clock.now();
        let flushed = proxy.flush_all();
        // Gauge what (if anything) the flush left behind before
        // propagating its error: non-zero means the journal (when
        // enabled) is now the only copy of those bytes.
        proxy.stats().set(Gauge::DirtyAtShutdown, proxy.dirty_bytes());
        report.writeback_bytes = flushed?;
        report.writeback_time = self.clock.now() - t0;
        report.proxy_cache = Some(proxy.cache_stats());
        Ok((report, Some(inspect(&proxy))))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // `finish_with` takes the proxy; reaching here with it still in
        // place means the session was dropped without orderly teardown.
        // Write its dirty blocks back rather than silently discarding
        // them.
        let Some(proxy) = self.client_proxy.take() else { return };
        let mut proxy = proxy.lock();
        let _ = proxy.flush_all();
        proxy.stats().set(Gauge::DirtyAtShutdown, proxy.dirty_bytes());
    }
}

/// The identity a non-authenticating (gfs / gfs-ssh) session runs as: the
/// session key stands in for authentication, so the middleware simply
/// asserts the user's DN.
fn synthetic_peer(world: &SessionMaterial) -> ValidatedPeer {
    ValidatedPeer {
        leaf_dn: world.user.effective_dn().clone(),
        effective_dn: world.user.effective_dn().clone(),
        via_proxy: false,
    }
}

/// Stand up one file server host: export `/GFS` of `vfs` (owned by the
/// file account so mapped users can work in it) through a kernel NFS
/// server, and mount it for the local proxy.
fn file_host(vfs: Arc<Vfs>) -> Result<(Arc<NfsServer>, Fh3), SessionError> {
    let root_ctx = UserContext::root();
    vfs.mkdir_p("/GFS", 0o755, &root_ctx).expect("export tree");
    let gfs_attr = vfs.resolve("/GFS", &root_ctx).expect("just created");
    vfs.setattr(
        gfs_attr.ino,
        &sgfs_vfs::SetAttrs { uid: Some(FILE_UID), gid: Some(FILE_UID), ..Default::default() },
        &root_ctx,
    )
    .expect("chown export");
    let mut exports = Exports::new();
    exports.add(ExportEntry::localhost("/GFS"));
    // The trusted proxy presents mapped credentials; no squashing.
    let server = NfsServer::new_no_squash(vfs, exports);
    let root_fh = server
        .mount("/GFS", "localhost")
        .ok_or_else(|| SessionError::Mount("/GFS not exported to localhost".into()))?;
    Ok((server, root_fh))
}

/// How a member's inter-proxy channel is protected.
#[derive(Clone)]
enum Protection {
    /// The raw wire (`gfs`).
    Plain,
    /// GTLS mutual authentication: the client's and the server's config.
    Gtls(Box<(GtlsConfig, GtlsConfig)>),
    /// The `gfs-ssh` tunnel under the session key; each end charges the
    /// hop cost to its own host.
    Tunnel([u8; 32], HopCost),
}

/// Dial one inter-proxy channel: lay a fresh pipe over the emulated link,
/// establish its protection — the two resumable GTLS handshake machines,
/// or the two tunnel hellos, alternate inline on the calling thread (no
/// handshake thread, no persistent acceptor) — and pin the server end
/// onto the shard core behind the proxy `service` yields for the
/// authenticated peer (`None` on a channel the session key or nothing
/// protects). Both the first connection of a member and every
/// reconnection go through here; a failed establishment kills this dial
/// only.
fn dial<E: From<GtlsError> + From<std::io::Error>>(
    link: &Arc<Link>,
    shards: &ShardServer,
    protection: &Protection,
    service: impl FnOnce(Option<&ValidatedPeer>) -> Result<Arc<ServerProxy>, E>,
) -> Result<(Upstream, sgfs_net::PipeWatch, Arc<ServerProxy>), E> {
    let (wire_client, wire_server) = pipe_pair_over_link(link.clone());
    // Readiness must observe the raw wire, before GTLS or the tunnel wraps
    // the stream: arrivals are arrivals regardless of what decrypts them.
    // Both directions get a watch — the server side feeds a shard loop,
    // the client side the pipeline's waiting callers.
    let client_watch = wire_client.watch();
    let server_watch = wire_server.watch();
    let (upstream, server_end, proxy): (_, sgfs_net::BoxStream, _) = match protection {
        Protection::Gtls(configs) => {
            let (ccfg, scfg) = configs.as_ref();
            let (cw, sw) = (Some(client_watch.clone()), Some(server_watch.clone()));
            let (client_tls, mut server_tls) = handshake_pair(
                GtlsHandshake::client(Box::new(wire_client), cw, ccfg.clone()),
                GtlsHandshake::server(Box::new(wire_server), sw, scfg.clone()),
            )?;
            let proxy = service(Some(server_tls.peer()))?;
            // Attribute record crypto to the server proxy's CPU account.
            server_tls.obs = Some(proxy.stats().clone());
            (Upstream::Tls(Box::new(client_tls)), Box::new(server_tls), proxy)
        }
        Protection::Tunnel(key, hop) => {
            let at = |side: usize| Some((link.host(side).clone(), *hop));
            // Both hellos are written before either side reads.
            let client = tunnel_start(Box::new(wire_client), key, true, at(0))?;
            let server = tunnel_start(Box::new(wire_server), key, false, at(1))?;
            let (client, server) = (client.finish()?, server.finish()?);
            (Upstream::Plain(Box::new(client)), Box::new(server), service(None)?)
        }
        Protection::Plain => {
            (Upstream::Plain(Box::new(wire_client)), Box::new(wire_server), service(None)?)
        }
    };
    shards.add_session(server_end, server_watch, proxy.clone())?;
    Ok((upstream, client_watch, proxy))
}
