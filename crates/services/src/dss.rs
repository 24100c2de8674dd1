//! The Data Scheduler Service (DSS): session scheduling and access control.
//!
//! The DSS is the front door of the management plane: grid users (or
//! services acting for them via delegated proxy credentials) send signed
//! requests; the DSS authenticates the envelope, authorizes the effective
//! DN against its per-filesystem ACL database, generates the session
//! gridmap from that database, and instructs the FSSs — again with signed
//! messages — to configure the proxies (§3.2, §4.4).

use crate::envelope::{Envelope, EnvelopeError, Verifier};
use crate::fss::{Fss, FssRequest, FssResponse};
use crate::messages::{DssRequest, DssResponse, SecurityChoice, SessionInfo};
use sgfs_pki::{Credential, DistinguishedName, TrustStore};
use std::collections::HashMap;

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

/// One entry in the per-filesystem ACL database.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FsGrant {
    dn: DistinguishedName,
    account: String,
    uid: u32,
    gid: u32,
}

struct SessionRecord {
    owner: DistinguishedName,
    filesystem: String,
    security: &'static str,
    fss_id: u64,
}

/// The Data Scheduler Service.
pub struct Dss {
    cred: Credential,
    verifier: Verifier,
    /// filesystem name → grants (the "DSS database" of §4.4).
    fs_acl: HashMap<String, Vec<FsGrant>>,
    sessions: HashMap<u64, SessionRecord>,
    next_id: u64,
    /// The FSS this DSS instructs (one per host pair in this testbed).
    fss: Fss,
    fss_verifier: Verifier,
}

impl Dss {
    /// A DSS with its own service credential, controlling `fss`.
    pub fn new(cred: Credential, trust: TrustStore, fss: Fss) -> Self {
        Self {
            cred,
            verifier: Verifier::new(trust.clone()),
            fs_acl: HashMap::new(),
            sessions: HashMap::new(),
            next_id: 1,
            fss,
            fss_verifier: Verifier::new(trust),
        }
    }

    /// Administrative grant (deployment bootstrap): allow `dn` to use
    /// `filesystem` as local account `account` (uid/gid).
    pub fn grant(&mut self, filesystem: &str, dn: DistinguishedName, account: &str, uid: u32, gid: u32) {
        let grants = self.fs_acl.entry(filesystem.to_string()).or_default();
        grants.retain(|g| g.dn != dn);
        grants.push(FsGrant { dn, account: account.to_string(), uid, gid });
    }

    /// Handle one signed request from the wire; returns a signed response.
    pub fn handle_wire(&mut self, envelope_bytes: &[u8]) -> Vec<u8> {
        let response = match Envelope::from_wire(envelope_bytes)
            .and_then(|env| self.dispatch(&env))
        {
            Ok(r) => r,
            Err(e) => DssResponse::Error(e.to_string()),
        };
        Envelope::sign(&self.cred, &response)
            .expect("DSS response is serializable")
            .to_wire()
    }

    fn dispatch(&mut self, env: &Envelope) -> Result<DssResponse, EnvelopeError> {
        let (peer, req): (_, DssRequest) = self.verifier.verify(env)?;
        Ok(self.execute(&peer.effective_dn, req))
    }

    fn grant_for(&self, filesystem: &str, dn: &DistinguishedName) -> Option<&FsGrant> {
        self.fs_acl.get(filesystem)?.iter().find(|g| &g.dn == dn)
    }

    /// Build the gridmap text + accounts for a session on `filesystem`
    /// from the ACL database ("used to automatically create gridmap files").
    fn generate_gridmap(&self, filesystem: &str) -> (String, Vec<(String, u32, u32)>) {
        let mut gridmap = sgfs_pki::GridMap::new();
        let mut accounts = Vec::new();
        if let Some(grants) = self.fs_acl.get(filesystem) {
            for g in grants {
                gridmap.insert(g.dn.clone(), &g.account);
                if !accounts.iter().any(|(a, _, _): &(String, u32, u32)| a == &g.account) {
                    accounts.push((g.account.clone(), g.uid, g.gid));
                }
            }
        }
        (gridmap.to_text(), accounts)
    }

    fn instruct_fss(&mut self, req: &FssRequest) -> Result<FssResponse, String> {
        let env = Envelope::sign(&self.cred, req).map_err(|e| e.to_string())?;
        let reply_bytes = self.fss.handle_wire(&env.to_wire());
        let reply = Envelope::from_wire(&reply_bytes).map_err(|e| e.to_string())?;
        let (peer, response): (_, FssResponse) =
            self.fss_verifier.verify(&reply).map_err(|e| e.to_string())?;
        if &peer.effective_dn != self.fss.dn() {
            return Err(format!("FSS reply signed by {}", peer.effective_dn));
        }
        Ok(response)
    }

    fn execute(&mut self, caller: &DistinguishedName, req: DssRequest) -> DssResponse {
        match req {
            DssRequest::CreateSession {
                filesystem,
                security,
                disk_cache,
                fine_grained_acl,
                rtt_micros,
                delegated_credential,
                stripe_width,
                replicas,
            } => {
                // Authorization: the caller must hold a grant.
                if self.grant_for(&filesystem, caller).is_none() {
                    return DssResponse::Error(format!(
                        "{caller} is not authorized for filesystem {filesystem}"
                    ));
                }
                let (gridmap_text, accounts) = self.generate_gridmap(&filesystem);
                let establish = FssRequest::Establish {
                    filesystem: filesystem.clone(),
                    security,
                    disk_cache,
                    fine_grained_acl,
                    rtt_micros,
                    user_credential: delegated_credential,
                    gridmap_text,
                    accounts,
                    stripe_width,
                    replicas,
                };
                match self.instruct_fss(&establish) {
                    Ok(FssResponse::Established { id: fss_id }) => {
                        let session_id = self.next_id;
                        self.next_id += 1;
                        self.sessions.insert(
                            session_id,
                            SessionRecord {
                                owner: caller.clone(),
                                filesystem,
                                security: match security {
                                    SecurityChoice::IntegrityOnly => "sgfs-sha",
                                    SecurityChoice::Medium => "sgfs-rc",
                                    SecurityChoice::Strong => "sgfs-aes",
                                },
                                fss_id,
                            },
                        );
                        DssResponse::SessionCreated { session_id }
                    }
                    Ok(FssResponse::Error(e)) => DssResponse::Error(e),
                    Ok(_) => DssResponse::Error("unexpected FSS response".into()),
                    Err(e) => DssResponse::Error(e),
                }
            }
            DssRequest::DestroySession { session_id } => {
                let Some(rec) = self.sessions.get(&session_id) else {
                    return DssResponse::Error(format!("no session {session_id}"));
                };
                if &rec.owner != caller {
                    return DssResponse::Error("only the owner may destroy a session".into());
                }
                let fss_id = rec.fss_id;
                match self.instruct_fss(&FssRequest::Destroy { id: fss_id }) {
                    Ok(FssResponse::Destroyed { writeback_bytes }) => {
                        self.sessions.remove(&session_id);
                        DssResponse::SessionDestroyed { writeback_bytes }
                    }
                    Ok(FssResponse::Error(e)) => DssResponse::Error(e),
                    Ok(_) => DssResponse::Error("unexpected FSS response".into()),
                    Err(e) => DssResponse::Error(e),
                }
            }
            DssRequest::RekeySession { session_id } => {
                let Some(rec) = self.sessions.get(&session_id) else {
                    return DssResponse::Error(format!("no session {session_id}"));
                };
                if &rec.owner != caller {
                    return DssResponse::Error("only the owner may rekey a session".into());
                }
                let fss_id = rec.fss_id;
                match self.instruct_fss(&FssRequest::Rekey { id: fss_id }) {
                    Ok(FssResponse::Ok) => DssResponse::Ok,
                    Ok(FssResponse::Error(e)) => DssResponse::Error(e),
                    Ok(_) => DssResponse::Error("unexpected FSS response".into()),
                    Err(e) => DssResponse::Error(e),
                }
            }
            DssRequest::QuerySession { session_id, max_events } => {
                let Some(rec) = self.sessions.get(&session_id) else {
                    return DssResponse::Error(format!("no session {session_id}"));
                };
                if &rec.owner != caller {
                    return DssResponse::Error("only the owner may query a session".into());
                }
                let fss_id = rec.fss_id;
                match self.instruct_fss(&FssRequest::Query { id: fss_id, max_events }) {
                    Ok(FssResponse::Stats { json }) => DssResponse::SessionStats { json },
                    Ok(FssResponse::Error(e)) => DssResponse::Error(e),
                    Ok(_) => DssResponse::Error("unexpected FSS response".into()),
                    Err(e) => DssResponse::Error(e),
                }
            }
            DssRequest::GrantAccess { filesystem, grantee_dn, account } => {
                // Only users already granted on the filesystem may share it
                // (the paper's "she only needs to add the mapping").
                let Some(own) = self.grant_for(&filesystem, caller).cloned() else {
                    return DssResponse::Error(format!(
                        "{caller} has no access to {filesystem} to share"
                    ));
                };
                let Some(dn) = DistinguishedName::parse(&grantee_dn) else {
                    return DssResponse::Error(format!("invalid DN {grantee_dn:?}"));
                };
                // The grantee maps to the *granter's* account identity
                // (sharing her files), unless an account is named that the
                // granter also owns.
                let account = if account.is_empty() { own.account.clone() } else { account };
                self.grant(&filesystem, dn, &account, own.uid, own.gid);
                DssResponse::Ok
            }
            DssRequest::RevokeAccess { filesystem, grantee_dn } => {
                let Some(own) = self.grant_for(&filesystem, caller) else {
                    return DssResponse::Error(format!("{caller} has no access to {filesystem}"));
                };
                let _ = own;
                let Some(dn) = DistinguishedName::parse(&grantee_dn) else {
                    return DssResponse::Error(format!("invalid DN {grantee_dn:?}"));
                };
                if &dn == caller {
                    return DssResponse::Error("cannot revoke yourself".into());
                }
                if let Some(grants) = self.fs_acl.get_mut(&filesystem) {
                    grants.retain(|g| g.dn != dn);
                }
                DssResponse::Ok
            }
            DssRequest::SetFileAcl { session_id, name, acl_text } => {
                let Some(rec) = self.sessions.get(&session_id) else {
                    return DssResponse::Error(format!("no session {session_id}"));
                };
                if &rec.owner != caller {
                    return DssResponse::Error("only the owner may set ACLs".into());
                }
                let fss_id = rec.fss_id;
                match self.instruct_fss(&FssRequest::SetAcl { id: fss_id, name, acl_text }) {
                    Ok(FssResponse::Ok) => DssResponse::Ok,
                    Ok(FssResponse::Error(e)) => DssResponse::Error(e),
                    Ok(_) => DssResponse::Error("unexpected FSS response".into()),
                    Err(e) => DssResponse::Error(e),
                }
            }
            DssRequest::ListSessions => DssResponse::Sessions(
                self.sessions
                    .iter()
                    .filter(|(_, r)| &r.owner == caller)
                    .map(|(id, r)| SessionInfo {
                        session_id: *id,
                        owner: r.owner.to_string(),
                        filesystem: r.filesystem.clone(),
                        security: r.security.to_string(),
                    })
                    .collect(),
            ),
        }
    }

    /// Local attachment point for a session's mount (via the FSS).
    pub fn session_mount(&mut self, session_id: u64) -> Option<&mut sgfs_nfsclient::NfsMount> {
        let fss_id = self.sessions.get(&session_id)?.fss_id;
        self.fss.session_mount(fss_id)
    }

    /// A session's in-process state (via the FSS).
    pub fn session(&self, session_id: u64) -> Option<&sgfs::Session> {
        self.fss.session(self.sessions.get(&session_id)?.fss_id)
    }

    /// Helper for clients: serialize a delegated credential for a
    /// CreateSession request.
    pub fn encode_credential(cred: &Credential) -> String {
        hex(&cred.to_bytes())
    }
}
