//! The File System Service (FSS): the per-host proxy controller.
//!
//! One FSS runs on every client and server host; it receives *signed*
//! instructions (only the DSS's identity is accepted) and controls the
//! local proxies: establish a session, destroy it, force a rekey, or
//! install per-file ACLs through the server-side proxy (§4.4).
//!
//! In this in-process reproduction one FSS object assembles the whole
//! session stack (both hosts live in one address space); the trust and
//! message flow — DSS signs, FSS verifies and acts — is the real one.

use crate::envelope::{Envelope, EnvelopeError, Verifier};
use sgfs::acl::Acl;
use sgfs::config::SecurityLevel;
use sgfs::session::{Session, SessionMaterial, SessionParams, SetupKind};
use sgfs_net::SimClock;
use sgfs_pki::{Credential, DistinguishedName, GridMap, TrustStore};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;


/// Instructions the DSS sends to an FSS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FssRequest {
    /// Stand up a session.
    Establish {
        /// Filesystem name — sessions naming the same filesystem share
        /// the same exported data.
        filesystem: String,
        /// Security label.
        security: crate::messages::SecurityChoice,
        /// Enable the client proxy disk cache.
        disk_cache: bool,
        /// Fine-grained per-file ACLs.
        fine_grained_acl: bool,
        /// Emulated RTT in microseconds.
        rtt_micros: u64,
        /// The user's delegated credential (hex of `Credential::to_bytes`).
        user_credential: String,
        /// Session gridmap (text format).
        gridmap_text: String,
        /// account → (uid, gid).
        accounts: Vec<(String, u32, u32)>,
        /// Place the session across this many upstream file hosts.
        /// `None` — omitted by older DSS builds — or `Some(1)` is the
        /// classic single-server session.
        stripe_width: Option<u32>,
        /// Replicas per block, clamped to the width. `None` = 1.
        replicas: Option<u32>,
    },
    /// Tear a session down (flushes write-back).
    Destroy {
        /// FSS-local session id.
        id: u64,
    },
    /// Request an immediate key renegotiation.
    Rekey {
        /// FSS-local session id.
        id: u64,
    },
    /// Install a per-file ACL through the server-side proxy.
    SetAcl {
        /// FSS-local session id.
        id: u64,
        /// Object name at the export root; None = root ACL.
        name: Option<String>,
        /// ACL text.
        acl_text: String,
    },
    /// Query a session's observability snapshot: per-proc/per-hop latency
    /// summaries plus the most recent trace events (the monitoring half
    /// of the FSS's manage-and-monitor role).
    Query {
        /// FSS-local session id.
        id: u64,
        /// Cap on trace events included in the snapshot.
        max_events: u64,
    },
}

/// FSS replies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FssResponse {
    /// Session is up.
    Established {
        /// FSS-local session id.
        id: u64,
    },
    /// Session gone.
    Destroyed {
        /// Bytes written back during teardown.
        writeback_bytes: u64,
    },
    /// Generic success.
    Ok,
    /// Observability snapshot (the `sgfs_obs::Snapshot` as JSON, so the
    /// envelope layer stays schema-agnostic).
    Stats {
        /// Pretty-printed snapshot JSON.
        json: String,
    },
    /// Failure.
    Error(String),
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// The File System Service.
pub struct Fss {
    cred: Credential,
    verifier: Verifier,
    /// Only this identity may instruct us.
    dss_dn: DistinguishedName,
    /// Material constants of this deployment.
    server_cred: Credential,
    trust: TrustStore,
    sessions: HashMap<u64, Session>,
    /// Exported filesystems, shared across sessions by name.
    filesystems: HashMap<String, std::sync::Arc<sgfs_vfs::Vfs>>,
    next_id: u64,
}

impl Fss {
    /// An FSS with its own service credential, accepting instructions
    /// only from `dss_dn`.
    pub fn new(
        cred: Credential,
        trust: TrustStore,
        dss_dn: DistinguishedName,
        server_cred: Credential,
    ) -> Self {
        Self {
            cred,
            verifier: Verifier::new(trust.clone()),
            dss_dn,
            server_cred,
            trust,
            sessions: HashMap::new(),
            filesystems: HashMap::new(),
            next_id: 1,
        }
    }

    /// Handle one signed instruction, returning a signed reply.
    pub fn handle_wire(&mut self, envelope_bytes: &[u8]) -> Vec<u8> {
        let response = match Envelope::from_wire(envelope_bytes)
            .and_then(|env| self.dispatch(&env))
        {
            Ok(r) => r,
            Err(e) => FssResponse::Error(e.to_string()),
        };
        Envelope::sign(&self.cred, &response)
            .expect("FSS response is serializable")
            .to_wire()
    }

    fn dispatch(&mut self, env: &Envelope) -> Result<FssResponse, EnvelopeError> {
        let (peer, req): (_, FssRequest) = self.verifier.verify(env)?;
        if peer.effective_dn != self.dss_dn {
            return Err(EnvelopeError::Untrusted(format!(
                "{} is not the DSS",
                peer.effective_dn
            )));
        }
        Ok(self.execute(req))
    }

    fn execute(&mut self, req: FssRequest) -> FssResponse {
        match req {
            FssRequest::Establish {
                filesystem,
                security,
                disk_cache,
                fine_grained_acl,
                rtt_micros,
                user_credential,
                gridmap_text,
                accounts,
                stripe_width,
                replicas,
            } => {
                let Some(cred_bytes) = unhex(&user_credential) else {
                    return FssResponse::Error("bad credential hex".into());
                };
                let Some(user) = Credential::from_bytes(&cred_bytes) else {
                    return FssResponse::Error("bad credential encoding".into());
                };
                let gridmap = match GridMap::parse(&gridmap_text) {
                    Ok(g) => g,
                    Err(e) => return FssResponse::Error(format!("bad gridmap: {e}")),
                };
                let material = SessionMaterial {
                    user,
                    server: self.server_cred.clone(),
                    trust: self.trust.clone(),
                    gridmap,
                    accounts: accounts
                        .into_iter()
                        .map(|(name, uid, gid)| (name, (uid, gid)))
                        .collect(),
                };
                let level = match security {
                    crate::messages::SecurityChoice::IntegrityOnly => {
                        SecurityLevel::IntegrityOnly
                    }
                    crate::messages::SecurityChoice::Medium => SecurityLevel::MediumCipher,
                    crate::messages::SecurityChoice::Strong => SecurityLevel::StrongCipher,
                };
                let mut params = SessionParams::lan(SetupKind::Sgfs(level));
                params.rtt = std::time::Duration::from_micros(rtt_micros);
                params.fine_grained_acl = fine_grained_acl;
                if disk_cache {
                    params.disk_cache_dir = Some(std::env::temp_dir().join(format!(
                        "sgfs-fss-cache-{}-{}",
                        std::process::id(),
                        rand::random::<u64>()
                    )));
                }
                let stripe_width = stripe_width.unwrap_or(1);
                if stripe_width > 1 {
                    // A striped session owns its replica set: each member
                    // is a fresh, structurally identical file host, so it
                    // cannot attach to a shared by-name filesystem.
                    params.stripe = Some(sgfs::config::StripePolicy::replicated(
                        stripe_width,
                        replicas.unwrap_or(1).max(1),
                    ));
                } else {
                    params.vfs = Some(
                        self.filesystems
                            .entry(filesystem)
                            .or_insert_with(|| std::sync::Arc::new(sgfs_vfs::Vfs::new()))
                            .clone(),
                    );
                }
                // Every FSS-managed session gets its own observability
                // domain, so `Query` can monitor it over the wire.
                let obs = sgfs_obs::Obs::new();
                params.obs = Some(obs.clone());
                match Session::build_from(&material, &params, SimClock::new()) {
                    Ok(session) => {
                        let id = self.next_id;
                        self.next_id += 1;
                        obs.set_session(id);
                        self.sessions.insert(id, session);
                        FssResponse::Established { id }
                    }
                    Err(e) => FssResponse::Error(e.to_string()),
                }
            }
            FssRequest::Destroy { id } => match self.sessions.remove(&id) {
                Some(session) => match session.finish() {
                    Ok(report) => {
                        FssResponse::Destroyed { writeback_bytes: report.writeback_bytes }
                    }
                    Err(e) => FssResponse::Error(e.to_string()),
                },
                None => FssResponse::Error(format!("no session {id}")),
            },
            FssRequest::Rekey { id } => match self.sessions.get(&id) {
                Some(session) => match session.controller() {
                    Some(ctl) => {
                        ctl.request_rekey();
                        FssResponse::Ok
                    }
                    None => FssResponse::Error("session has no secure channel".into()),
                },
                None => FssResponse::Error(format!("no session {id}")),
            },
            FssRequest::SetAcl { id, name, acl_text } => {
                let acl = match Acl::parse(&acl_text) {
                    Ok(a) => a,
                    Err(e) => return FssResponse::Error(format!("bad ACL: {e}")),
                };
                match self.sessions.get(&id) {
                    Some(session) => {
                        let Some(proxy) = session.server_proxy() else {
                            return FssResponse::Error("session has no server proxy".into());
                        };
                        let root = session.mount.root().clone();
                        match proxy.set_acl(&root, name.as_deref(), &acl) {
                            Ok(()) => FssResponse::Ok,
                            Err(e) => FssResponse::Error(e.to_string()),
                        }
                    }
                    None => FssResponse::Error(format!("no session {id}")),
                }
            }
            FssRequest::Query { id, max_events } => match self.sessions.get(&id) {
                Some(session) => {
                    FssResponse::Stats { json: session.obs().json(max_events as usize) }
                }
                None => FssResponse::Error(format!("no session {id}")),
            },
        }
    }

    /// Local attachment point: the mounted filesystem of a session this
    /// FSS manages (where the job's I/O happens on the compute host).
    pub fn session_mount(&mut self, id: u64) -> Option<&mut sgfs_nfsclient::NfsMount> {
        self.sessions.get_mut(&id).map(|s| &mut s.mount)
    }

    /// A session this FSS manages, for in-process inspection (what
    /// `Query` exports can be checked against it).
    pub fn session(&self, id: u64) -> Option<&Session> {
        self.sessions.get(&id)
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// This FSS's service identity.
    pub fn dn(&self) -> &DistinguishedName {
        self.cred.effective_dn()
    }
}
