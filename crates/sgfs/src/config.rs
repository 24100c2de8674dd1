//! Per-session configuration — the proxy configuration file of §4.2.
//!
//! A SGFS session is created per user/application and customized through
//! this structure: the security mechanisms and policies, the disk-caching
//! parameters, and the access-control setup. Reloading a changed
//! configuration into a live proxy (and renegotiating) is the paper's
//! dynamic-reconfiguration feature.

use sgfs_gtls::{CipherSuite, GtlsConfig};
use sgfs_pki::{Credential, DistinguishedName, GridMap, TrustStore};

/// The three security strengths the paper benchmarks, plus none (gfs)
/// and the post-paper AEAD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecurityLevel {
    /// No protection at all — the `gfs` baseline.
    None,
    /// SHA1-HMAC integrity only — `sgfs-sha`.
    IntegrityOnly,
    /// RC4-128 + SHA1-HMAC — `sgfs-rc`.
    MediumCipher,
    /// AES-256-CBC + SHA1-HMAC — `sgfs-aes`.
    StrongCipher,
    /// AES-256-GCM single-pass AEAD — `sgfs-gcm`.
    AeadCipher,
}

impl SecurityLevel {
    /// The GTLS suite realizing this level (None ⇒ no GTLS at all).
    pub fn suite(self) -> Option<CipherSuite> {
        match self {
            SecurityLevel::None => None,
            SecurityLevel::IntegrityOnly => Some(CipherSuite::NullSha1),
            SecurityLevel::MediumCipher => Some(CipherSuite::Rc4_128Sha1),
            SecurityLevel::StrongCipher => Some(CipherSuite::Aes256CbcSha1),
            SecurityLevel::AeadCipher => Some(CipherSuite::Aes256Gcm),
        }
    }
}

/// Client-proxy caching configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// No proxy caching (the paper's LAN runs).
    None,
    /// Aggressive in-memory caching of attributes, access rights and
    /// lookups — the SFS-style daemon behaviour — over a 64 MiB
    /// in-memory write-back block store that holds read-ahead blocks
    /// and absorbs WRITEs. Sessions under partial placement without a
    /// disk cache run it for that store: it is their size authority.
    MemoryMeta,
    /// Full disk caching of attributes, access rights and data blocks
    /// with write-back — the paper's WAN configuration. The path is the
    /// cache spool directory on the client host's local disk.
    Disk {
        /// Spool directory for cached blocks.
        dir: std::path::PathBuf,
    },
}

/// The calibrated cost of one user-level forwarding hop.
///
/// The paper's proxies pay two extra network-stack traversals and
/// kernel↔user switches per message; in-process pipes pay neither, so
/// each proxy (and each SSH-tunnel endpoint in `gfs-ssh`) charges this
/// virtual cost per message it forwards, in each direction. The defaults
/// are calibrated so that the `gfs`/`nfs-v3` IOzone ratio lands in the
/// paper's >2× band (see DESIGN.md §3/§4 and EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopCost {
    /// Fixed cost per forwarded message (syscalls + context switch).
    pub per_msg: std::time::Duration,
    /// Per-byte cost in nanoseconds (stack traversal + extra copies).
    pub per_byte_ns: u64,
}

impl Default for HopCost {
    fn default() -> Self {
        Self { per_msg: std::time::Duration::from_micros(15), per_byte_ns: 12 }
    }
}

impl HopCost {
    /// No charging (pure in-process measurement).
    pub fn free() -> Self {
        Self { per_msg: std::time::Duration::ZERO, per_byte_ns: 0 }
    }

    /// The virtual time one `len`-byte message costs at this hop.
    pub fn of(&self, len: usize) -> std::time::Duration {
        self.per_msg + std::time::Duration::from_nanos(self.per_byte_ns * len as u64)
    }
}

/// Crash-consistency policy for the client proxy's write-back disk cache.
///
/// With the journal enabled, every dirty-block state change (`put(dirty)`,
/// `set_clean`, `set_dirty`, `drop_file`, commit) appends a checksummed,
/// length-prefixed record to a write-ahead journal in the spool directory,
/// and the spool persists across restarts: recovery replays the journal,
/// stops at the first torn/corrupt record, and re-marks every surviving
/// block dirty so the next flush re-sends it under the write-verifier
/// contract. See DESIGN.md §12.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// Journal dirty-block state to disk (off = the pre-journal behavior:
    /// a crash discards every dirty block silently).
    pub journal: bool,
    /// fsync the journal every N appends (0 = rely on the OS to flush;
    /// in-process crash recovery still works, host power loss does not).
    pub fsync_every: u32,
    /// Compact once the journal holds at least this many records *and*
    /// dead records (clean transitions, dropped files) outnumber live
    /// dirty-block entries.
    pub compact_min_records: u64,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        Self { journal: true, fsync_every: 64, compact_min_records: 1024 }
    }
}

impl DurabilityPolicy {
    /// The pre-journal behavior: nothing survives a restart.
    pub fn none() -> Self {
        Self { journal: false, fsync_every: 0, compact_min_records: 0 }
    }
}

/// Multi-server placement of one session's data plane.
///
/// The DSS hands the client a placement across `width` FSS upstreams:
/// file blocks (of `block_size` bytes) are striped across the members by
/// block index, and each block is written to `replicas` distinct members
/// before it may be marked clean. `width == 1` is the single-server
/// session — the degenerate stripe, not a separate code path. See DESIGN.md §16 for the stripe map and the
/// replica write/failover protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePolicy {
    /// Number of upstream members the session spans.
    pub width: u32,
    /// Distinct members each block is replicated to (clamped to `width`;
    /// 1 = striping without redundancy).
    pub replicas: u32,
    /// Stripe unit: the file-block size the map distributes.
    pub block_size: u32,
}

impl StripePolicy {
    /// Striping across `width` members without redundancy.
    pub fn striped(width: u32) -> Self {
        Self { width, replicas: 1, block_size: 32 * 1024 }
    }

    /// Striping with `replicas`-way block replication.
    pub fn replicated(width: u32, replicas: u32) -> Self {
        Self { width, replicas, block_size: 32 * 1024 }
    }
}

/// Upstream fault-recovery policy for the client proxy's pipeline.
///
/// When the secure channel to the server proxy fails with a transient
/// transport error, the pipeline re-dials through its `Reconnector`,
/// backing off exponentially between attempts, and replays the idempotent
/// calls that were in flight. These knobs bound that behaviour; see
/// DESIGN.md §"Fault model and upstream recovery".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total reconnections allowed over the session's lifetime before the
    /// pipeline gives up and fails outstanding calls.
    pub max_reconnects: u32,
    /// Dial attempts per reconnection (covers connect-refusal streaks).
    pub dial_attempts: u32,
    /// Backoff before the second dial attempt; doubles per attempt.
    pub backoff_base: std::time::Duration,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap: std::time::Duration,
    /// Per-call reply deadline: `PendingReply::wait` fails with `TimedOut`
    /// rather than blocking forever on a silent server. `None` = wait
    /// indefinitely.
    pub call_deadline: Option<std::time::Duration>,
    /// JUKEBOX retries allowed per call before the reply is passed
    /// through to the caller as-is. A JUKEBOX reply means the server did
    /// *not* execute the call, so the retry re-sends the identical
    /// record — safe even for non-idempotent procedures. Backoff between
    /// attempts is `backoff_base` doubled per attempt, capped at
    /// `backoff_cap`.
    pub jukebox_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_reconnects: 8,
            dial_attempts: 6,
            backoff_base: std::time::Duration::from_millis(10),
            backoff_cap: std::time::Duration::from_millis(640),
            call_deadline: Some(std::time::Duration::from_secs(30)),
            jukebox_retries: 32,
        }
    }
}

/// Everything needed to set up one side of a session.
#[derive(Clone)]
pub struct SessionConfig {
    /// Security level for the inter-proxy channel.
    pub security: SecurityLevel,
    /// This endpoint's credential (user cert for the client proxy, host
    /// cert for the server proxy). Unused when `security` is `None`.
    pub credential: Option<Credential>,
    /// Trusted CA roots.
    pub trust: TrustStore,
    /// Client side: the expected file-server identity (mutual auth).
    pub expected_peer: Option<DistinguishedName>,
    /// Server side: the session gridmap (DN → local account).
    pub gridmap: GridMap,
    /// Server side: account name → (uid, gid) for identity mapping.
    pub accounts: std::collections::HashMap<String, (u32, u32)>,
    /// Server side: enforce per-file `.name.acl` files on ACCESS.
    pub fine_grained_acl: bool,
    /// Client side: caching mode.
    pub cache: CacheMode,
    /// Client side: ceiling of the sequential read-ahead horizon, in
    /// blocks. A detected sequential reader's horizon ramps up to it; 0
    /// disables read-ahead, and so does `CacheMode::None`.
    pub readahead: u32,
    /// Renegotiate session keys after this many records (None = never) —
    /// the automatic periodic rekey of §4.2.
    pub rekey_every_records: Option<u64>,
    /// Client side: upstream RPC pipelining window — how many calls may
    /// be in flight before a reply is required. 1 degenerates to the
    /// serial protocol.
    pub window: u32,
    /// Client side: upstream fault-recovery policy (reconnect, backoff,
    /// replay, per-call deadline).
    pub retry: RetryPolicy,
    /// Client side: crash-consistency policy for the disk cache (journal,
    /// fsync cadence, compaction threshold).
    pub durability: DurabilityPolicy,
    /// Kill-point injector for the crash harness (`None` in production:
    /// every durability hook is a no-op).
    pub crash: Option<std::sync::Arc<sgfs_net::CrashInjector>>,
    /// The observability domain the client proxy's emitter attaches to
    /// (`None` = an untraced domain of the proxy's own: it still counts).
    pub obs: Option<std::sync::Arc<sgfs_obs::Obs>>,
    /// Client side: placement (stripe width, replica count, stripe
    /// unit). `None` = the width-1 placement: one upstream holding every
    /// block, on the same data path as any other width.
    pub stripe: Option<StripePolicy>,
}

impl SessionConfig {
    /// A minimal configuration at the given security level.
    pub fn new(security: SecurityLevel) -> Self {
        Self {
            security,
            credential: None,
            trust: TrustStore::new(),
            expected_peer: None,
            gridmap: GridMap::new(),
            accounts: std::collections::HashMap::new(),
            fine_grained_acl: false,
            cache: CacheMode::None,
            readahead: 0,
            rekey_every_records: None,
            window: crate::proxy::pipeline::DEFAULT_WINDOW,
            retry: RetryPolicy::default(),
            durability: DurabilityPolicy::default(),
            crash: None,
            obs: None,
            stripe: None,
        }
    }

    /// The GTLS config for this endpoint, if security is enabled.
    pub fn gtls(&self) -> Option<GtlsConfig> {
        let suite = self.security.suite()?;
        let cred = self.credential.clone().expect("secure session requires a credential");
        let mut cfg = GtlsConfig::new(cred, self.trust.clone()).with_suite(suite);
        if let Some(peer) = &self.expected_peer {
            cfg = cfg.clone().with_expected_peer(peer.clone());
        }
        Some(cfg)
    }

    /// Resolve a gridmap account name to its uid/gid.
    pub fn account_ids(&self, account: &str) -> Option<(u32, u32)> {
        self.accounts.get(account).copied()
    }
}

impl std::fmt::Debug for SessionConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionConfig")
            .field("security", &self.security)
            .field("cache", &self.cache)
            .field("readahead", &self.readahead)
            .field("fine_grained_acl", &self.fine_grained_acl)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_match_paper_configurations() {
        assert_eq!(SecurityLevel::None.suite(), None);
        assert_eq!(SecurityLevel::IntegrityOnly.suite(), Some(CipherSuite::NullSha1));
        assert_eq!(SecurityLevel::MediumCipher.suite(), Some(CipherSuite::Rc4_128Sha1));
        assert_eq!(SecurityLevel::StrongCipher.suite(), Some(CipherSuite::Aes256CbcSha1));
        assert_eq!(SecurityLevel::AeadCipher.suite(), Some(CipherSuite::Aes256Gcm));
    }

    #[test]
    fn gtls_absent_without_security() {
        let cfg = SessionConfig::new(SecurityLevel::None);
        assert!(cfg.gtls().is_none());
    }

    #[test]
    fn account_lookup() {
        let mut cfg = SessionConfig::new(SecurityLevel::None);
        cfg.accounts.insert("alice".into(), (1000, 1000));
        assert_eq!(cfg.account_ids("alice"), Some((1000, 1000)));
        assert_eq!(cfg.account_ids("bob"), None);
    }
}
