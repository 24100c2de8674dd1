//! The server-side SGFS proxy (§4.2–4.3).
//!
//! Sits between the secure channel and the kernel NFS server. After the
//! GTLS handshake authenticates the grid user, the proxy authorizes the
//! effective DN against the session gridmap, then for every forwarded RPC:
//!
//! * rewrites the `AUTH_SYS` credential to the mapped local account
//!   (identity mapping — the client-side uid/gid "do not represent the
//!   grid user's identity and cannot be used for authorization");
//! * shields ACL files (`.name.acl`) from all remote access, including
//!   filtering them out of READDIR/READDIRPLUS replies;
//! * with fine-grained ACLs enabled, terminates ACCESS calls itself,
//!   evaluating the per-file grid ACL (with parent inheritance and an
//!   in-memory cache) against the authenticated DN;
//! * forwards everything else verbatim and snoops replies to maintain the
//!   handle→(parent, name) map the ACL engine needs.

use crate::acl::{acl_file_name, is_acl_file_name, Acl};
use crate::config::{HopCost, SessionConfig};
use crate::proxy::ProxyError;
use sgfs_obs::Emitter;
use parking_lot::Mutex;
use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{Nfs3Client, NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record_at, write_marked, MARK_LEN};
use sgfs_oncrpc::{AcceptStat, CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_net::BoxStream;
use sgfs_pki::{DistinguishedName, MapTarget, ValidatedPeer};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::HashMap;
use std::sync::Arc;

/// uid/gid used for anonymous grid users.
const ANON: u32 = 65534;

/// The server-side proxy for one SGFS session.
pub struct ServerProxy {
    config: Mutex<SessionConfig>,
    peer_dn: DistinguishedName,
    mapped: (u32, u32),
    /// Connection used to forward client traffic to the kernel server.
    forward: Mutex<Forward>,
    /// The proxy's own NFS client (service credentials) for ACL files.
    acl_client: Mutex<Nfs3Client>,
    /// fh → (parent fh, name), learned from forwarded traffic.
    name_map: Mutex<HashMap<Fh3, (Fh3, String)>>,
    /// fh → effective ACL (None = no ACL anywhere up the chain).
    acl_cache: Mutex<HashMap<Fh3, Option<Arc<Acl>>>>,
    root_fh: Fh3,
    stats: Emitter,
    /// Virtual per-hop forwarding cost, charged to the file host's clock.
    hop: Mutex<Option<(Arc<sgfs_net::SimClock>, HopCost)>>,
}

/// The connection to the kernel server and the buffer forwarded calls
/// are built in.
struct Forward {
    stream: BoxStream,
    call: Vec<u8>,
}

impl ServerProxy {
    /// Authorize `peer` against the session gridmap and build the proxy.
    ///
    /// `forward` is the loopback connection to the kernel NFS server used
    /// for the session's traffic; `acl_client` is the proxy's own
    /// connection (service credentials) for reading/writing ACL files.
    pub fn new(
        config: SessionConfig,
        peer: &ValidatedPeer,
        forward: BoxStream,
        acl_client: Nfs3Client,
        root_fh: Fh3,
    ) -> Result<Arc<Self>, ProxyError> {
        let mapped = match config.gridmap.lookup(&peer.effective_dn) {
            MapTarget::Account(name) => config
                .account_ids(&name)
                .ok_or_else(|| ProxyError::Unauthorized(format!("unknown account {name}")))?,
            MapTarget::Anonymous => (ANON, ANON),
            MapTarget::Denied => {
                return Err(ProxyError::Unauthorized(peer.effective_dn.to_string()))
            }
        };
        Ok(Arc::new(Self {
            config: Mutex::new(config),
            peer_dn: peer.effective_dn.clone(),
            mapped,
            forward: Mutex::new(Forward { stream: forward, call: Vec::new() }),
            acl_client: Mutex::new(acl_client),
            name_map: Mutex::new(HashMap::new()),
            acl_cache: Mutex::new(HashMap::new()),
            root_fh,
            // Counted, never traced: the session's domain follows the
            // client side of the wire.
            stats: Emitter::detached("server"),
            hop: Mutex::new(None),
        }))
    }

    /// Enable per-hop virtual cost accounting on `clock`, the file host's.
    pub fn set_hop_cost(&self, clock: Arc<sgfs_net::SimClock>, hop: HopCost) {
        *self.hop.lock() = Some((clock, hop));
    }

    /// The local identity this session's requests run as.
    pub fn mapped_identity(&self) -> (u32, u32) {
        self.mapped
    }

    /// The authenticated grid identity.
    pub fn peer_dn(&self) -> &DistinguishedName {
        &self.peer_dn
    }

    /// The emitter everything in this proxy counts through.
    pub fn stats(&self) -> &Emitter {
        &self.stats
    }

    /// Replace the session configuration (dynamic reconfiguration — e.g.
    /// an updated gridmap or ACL policy pushed by the FSS). The identity
    /// mapping of the established session is unchanged; authorization of
    /// *new* sessions uses the new gridmap.
    pub fn reload_config(&self, config: SessionConfig) {
        *self.config.lock() = config;
        self.acl_cache.lock().clear();
    }

    /// Process one call record into its reply record with full session
    /// accounting — [`RecordService::process_record_into`] into a buffer
    /// of its own. The probes and tests call this; the sharded core
    /// writes replies straight into its send buffer instead.
    ///
    /// [`RecordService::process_record_into`]: sgfs_oncrpc::RecordService::process_record_into
    pub fn process_one(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut out = vec![0; MARK_LEN];
        sgfs_oncrpc::RecordService::process_record_into(self, record, &mut out)?;
        out.drain(..MARK_LEN);
        Ok(out)
    }

    /// Process one call record into `out[MARK_LEN..]`. Forwarded calls'
    /// replies are read from the kernel server straight into `out`; the
    /// replies the proxy makes itself are copied in.
    fn process(&self, record: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
        let made = |out: &mut Vec<u8>, reply: Vec<u8>| {
            out.truncate(MARK_LEN);
            out.extend_from_slice(&reply);
            Ok(())
        };
        let mut dec = XdrDecoder::new(record);
        let header = match CallHeader::decode(&mut dec) {
            Ok(h) => h,
            Err(_) => return made(out, accept_error(0, AcceptStat::GarbageArgs)),
        };
        if header.prog != NFS_PROGRAM || header.vers != NFS_VERSION {
            return made(out, accept_error(header.xid, AcceptStat::ProgUnavail));
        }
        let args = &record[dec.position()..];

        // Shield ACL files from every name-bearing operation.
        if let Some(name_hit) = touches_acl_file(header.proc, args) {
            if name_hit {
                return made(out, deny_nfs(header.xid, header.proc));
            }
        }

        // Fine-grained access control: terminate ACCESS locally.
        let fine = self.config.lock().fine_grained_acl;
        if fine && header.proc == procnum::ACCESS {
            if let Ok(a) = AccessArgs::from_xdr_bytes(args) {
                let acl = self.effective_acl(&a.object);
                let granted = acl.map(|acl| acl.mask_for(&self.peer_dn)).unwrap_or(0);
                let res = AccessRes {
                    status: NfsStat3::Ok,
                    obj_attr: None,
                    access: granted & a.access,
                };
                return made(out, encode_reply(header.xid, &res));
            }
            return made(out, accept_error(header.xid, AcceptStat::GarbageArgs));
        }

        // Identity mapping: swap in the mapped local account's credential.
        let (uid, gid) = self.mapped;
        let mut fwd_header = header.clone();
        fwd_header.cred = OpaqueAuth::sys(&AuthSysParams {
            stamp: 0,
            machine_name: "sgfs-server-proxy".into(),
            uid,
            gid,
            gids: vec![gid],
        });
        {
            // Waiting on the kernel server is not proxy CPU time.
            let t_io = std::time::Instant::now();
            let forward = &mut *self.forward.lock();
            // The forwarded call is built once, behind its mark, in the
            // connection's reused buffer, and sent from there.
            let mut call = std::mem::take(&mut forward.call);
            call.clear();
            call.extend_from_slice(&[0; MARK_LEN]);
            let mut enc = XdrEncoder::from_vec(call);
            fwd_header.encode(&mut enc);
            forward.call = enc.into_bytes();
            forward.call.extend_from_slice(args);
            write_marked(&mut forward.stream, &mut forward.call)?;
            if !read_record_at(&mut forward.stream, out, MARK_LEN)? {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "kernel server closed",
                ));
            }
            self.stats.exclude(t_io.elapsed());
        }

        let reply = &out[MARK_LEN..];
        self.snoop(header.proc, args, reply);

        // Filter ACL files out of directory listings.
        if header.proc == procnum::READDIR || header.proc == procnum::READDIRPLUS {
            if let Some(filtered) = filter_listing(header.proc, header.xid, reply) {
                return made(out, filtered);
            }
        }
        Ok(())
    }

    /// Learn fh→(parent, name) mappings from successful replies.
    fn snoop(&self, proc: u32, args: &[u8], reply: &[u8]) {
        let Some(result) = success_body(reply) else { return };
        match proc {
            procnum::LOOKUP => {
                if let (Ok(a), Ok(r)) =
                    (DirOpArgs3::from_xdr_bytes(args), LookupRes::from_xdr_bytes(result))
                {
                    if let Some(fh) = r.object {
                        self.name_map.lock().insert(fh, (a.dir, a.name));
                    }
                }
            }
            procnum::CREATE => {
                if let (Ok(a), Ok(r)) =
                    (CreateArgs::from_xdr_bytes(args), CreateRes::from_xdr_bytes(result))
                {
                    if let Some(fh) = r.obj {
                        self.name_map.lock().insert(fh, (a.where_.dir, a.where_.name));
                    }
                }
            }
            procnum::MKDIR => {
                if let (Ok(a), Ok(r)) =
                    (MkdirArgs::from_xdr_bytes(args), CreateRes::from_xdr_bytes(result))
                {
                    if let Some(fh) = r.obj {
                        self.name_map.lock().insert(fh, (a.where_.dir, a.where_.name));
                    }
                }
            }
            procnum::READDIRPLUS => {
                if let (Ok(a), Ok(r)) = (
                    ReaddirPlusArgs::from_xdr_bytes(args),
                    ReaddirPlusRes::from_xdr_bytes(result),
                ) {
                    let mut map = self.name_map.lock();
                    for e in r.entries {
                        if let Some(fh) = e.handle {
                            if e.name != "." && e.name != ".." {
                                map.insert(fh, (a.dir.clone(), e.name));
                            }
                        }
                    }
                }
            }
            procnum::RENAME => {
                if let Ok(a) = RenameArgs::from_xdr_bytes(args) {
                    let mut map = self.name_map.lock();
                    let moved: Option<Fh3> = map
                        .iter()
                        .find(|(_, (d, n))| *d == a.from.dir && *n == a.from.name)
                        .map(|(fh, _)| fh.clone());
                    if let Some(fh) = moved {
                        map.insert(fh.clone(), (a.to.dir, a.to.name));
                        self.acl_cache.lock().remove(&fh);
                    }
                }
            }
            procnum::REMOVE | procnum::RMDIR => {
                if let Ok(a) = DirOpArgs3::from_xdr_bytes(args) {
                    let mut map = self.name_map.lock();
                    let gone: Option<Fh3> = map
                        .iter()
                        .find(|(_, (d, n))| *d == a.dir && *n == a.name)
                        .map(|(fh, _)| fh.clone());
                    if let Some(fh) = gone {
                        map.remove(&fh);
                        self.acl_cache.lock().remove(&fh);
                    }
                }
            }
            _ => {}
        }
    }

    // ---- the grid ACL engine ---------------------------------------------

    /// The effective ACL for `fh`: its own `.name.acl` if present, else
    /// the nearest ancestor's, cached in memory.
    pub fn effective_acl(&self, fh: &Fh3) -> Option<Arc<Acl>> {
        if let Some(hit) = self.acl_cache.lock().get(fh) {
            return hit.clone();
        }
        let resolved = self.resolve_acl(fh, 0);
        self.acl_cache.lock().insert(fh.clone(), resolved.clone());
        resolved
    }

    fn resolve_acl(&self, fh: &Fh3, depth: usize) -> Option<Arc<Acl>> {
        if depth > 64 {
            return None; // cycle guard
        }
        let lookup = if fh == &self.root_fh {
            // The export root's own ACL lives inside it as ".acl".
            Some((self.root_fh.clone(), None))
        } else {
            self.name_map
                .lock()
                .get(fh)
                .cloned()
                .map(|(parent, name)| (parent, Some(name)))
        };
        let (parent, name) = lookup?;
        let acl_name = match &name {
            Some(n) => acl_file_name(n),
            None => ".acl".to_string(),
        };
        if let Some(text) = self.read_file_in(&parent, &acl_name) {
            if let Ok(acl) = Acl::parse(&text) {
                return Some(Arc::new(acl));
            }
        }
        name.as_ref()?; // root without a root ACL
        self.resolve_acl(&parent, depth + 1)
    }

    fn read_file_in(&self, dir: &Fh3, name: &str) -> Option<String> {
        let mut client = self.acl_client.lock();
        let (fh, _) = client.lookup(dir, name).ok()?;
        let mut data = Vec::new();
        let mut offset = 0;
        loop {
            let res = client.read(&fh, offset, 32 * 1024).ok()?;
            offset += res.count as u64;
            data.extend_from_slice(&res.data);
            if res.eof {
                break;
            }
        }
        String::from_utf8(data).ok()
    }

    /// Install/replace the ACL for the object called `name` under `dir` —
    /// the management-service path for fine-grained ACL administration.
    pub fn set_acl(&self, dir: &Fh3, name: Option<&str>, acl: &Acl) -> Result<(), ProxyError> {
        let acl_name = match name {
            Some(n) => acl_file_name(n),
            None => ".acl".to_string(),
        };
        let text = acl.to_text();
        let mut client = self.acl_client.lock();
        let fh = match client.lookup(dir, &acl_name) {
            Ok((fh, _)) => fh,
            Err(_) => {
                let (fh, _) = client
                    .create(dir, &acl_name, Sattr3 { mode: Some(0o600), ..Default::default() })
                    .map_err(|e| ProxyError::Protocol(format!("ACL create failed: {e}")))?;
                fh
            }
        };
        client
            .setattr(&fh, &Sattr3 { size: Some(0), ..Default::default() })
            .map_err(|e| ProxyError::Protocol(format!("ACL truncate failed: {e}")))?;
        client
            .write(&fh, 0, text.into_bytes(), StableHow::FileSync)
            .map_err(|e| ProxyError::Protocol(format!("ACL write failed: {e}")))?;
        drop(client);
        self.acl_cache.lock().clear();
        Ok(())
    }

    /// Read the ACL stored for `name` under `dir`, if any.
    pub fn get_acl(&self, dir: &Fh3, name: Option<&str>) -> Option<Acl> {
        let acl_name = match name {
            Some(n) => acl_file_name(n),
            None => ".acl".to_string(),
        };
        let text = self.read_file_in(dir, &acl_name)?;
        Acl::parse(&text).ok()
    }

    /// Drop all cached ACL resolutions (after out-of-band ACL edits).
    pub fn invalidate_acl_cache(&self) {
        self.acl_cache.lock().clear();
    }
}

/// The sharded server core drives the proxy one record at a time.
impl sgfs_oncrpc::shard::RecordService for ServerProxy {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        self.process_one(record)
    }

    /// One record with full session accounting: busy time, and the
    /// virtual proxy ↔ kernel-server loopback hop (request + reply),
    /// charged to the file host.
    fn process_record_into(&self, record: &[u8], out: &mut Vec<u8>) -> std::io::Result<()> {
        let t0 = std::time::Instant::now();
        let done = self.process(record, out);
        self.stats.message(sgfs_obs::NO_PROC, t0.elapsed());
        done?;
        if let Some((clock, hop)) = self.hop.lock().as_ref() {
            clock.advance(hop.of(record.len()) + hop.of(out.len() - MARK_LEN));
        }
        Ok(())
    }

    /// Admission-control shed: answer `NFS3ERR_JUKEBOX` *without*
    /// executing the call. The kernel-server never sees the request, no
    /// state changes, and the status contract tells the client its
    /// verbatim retry is safe — even for CREATE/RENAME-class procedures.
    /// Records we cannot shape a JUKEBOX reply for (NULL, non-NFS
    /// programs, garbage) return `None` and are processed normally.
    fn shed_record(&self, record: &[u8]) -> Option<Vec<u8>> {
        let mut dec = XdrDecoder::new(record);
        let header = CallHeader::decode(&mut dec).ok()?;
        if header.prog != NFS_PROGRAM || header.vers != NFS_VERSION {
            return None;
        }
        jukebox_nfs(header.xid, header.proc)
    }
}

/// An NFS-level JUKEBOX ("try again later") reply shaped correctly for
/// each procedure, or `None` for procedures without a status field
/// (NULL, the FS-info probes, and anything unknown — those are never
/// shed, the shard executes them instead). Public so alternative
/// [`RecordService`](sgfs_oncrpc::RecordService) implementations (test
/// backends included) can answer admission pushback with the same wire
/// bytes the production proxy produces.
pub fn jukebox_nfs(xid: u32, proc: u32) -> Option<Vec<u8>> {
    let status = NfsStat3::Jukebox;
    Some(match proc {
        procnum::GETATTR => encode_reply(xid, &GetAttrRes { status, attr: None }),
        procnum::SETATTR | procnum::WRITE | procnum::REMOVE | procnum::RMDIR => {
            // WRITE's OK-only fields (count/committed/verf) are absent on
            // an error arm, so WccRes is the wire shape for all four.
            encode_reply(xid, &WccRes { status, wcc: WccData::default() })
        }
        procnum::LOOKUP => encode_reply(
            xid,
            &LookupRes { status, object: None, obj_attr: None, dir_attr: None },
        ),
        procnum::ACCESS => encode_reply(xid, &AccessRes { status, obj_attr: None, access: 0 }),
        procnum::READLINK => {
            encode_reply(xid, &ReadlinkRes { status, attr: None, path: String::new() })
        }
        procnum::READ => encode_reply(
            xid,
            &ReadRes { status, attr: None, count: 0, eof: false, data: Vec::new() },
        ),
        procnum::CREATE | procnum::MKDIR | procnum::SYMLINK => encode_reply(
            xid,
            &CreateRes { status, obj: None, obj_attr: None, dir_wcc: WccData::default() },
        ),
        procnum::RENAME => encode_reply(
            xid,
            &RenameRes { status, from_wcc: WccData::default(), to_wcc: WccData::default() },
        ),
        procnum::LINK => {
            encode_reply(xid, &LinkRes { status, attr: None, dir_wcc: WccData::default() })
        }
        procnum::READDIR => encode_reply(
            xid,
            &ReaddirRes {
                status,
                dir_attr: None,
                cookieverf: 0,
                entries: Vec::new(),
                eof: false,
            },
        ),
        procnum::READDIRPLUS => encode_reply(
            xid,
            &ReaddirPlusRes {
                status,
                dir_attr: None,
                cookieverf: 0,
                entries: Vec::new(),
                eof: false,
            },
        ),
        procnum::COMMIT => {
            encode_reply(xid, &CommitRes { status, wcc: WccData::default(), verf: 0 })
        }
        _ => return None,
    })
}

/// Does this call name an ACL file? `Some(true)` = yes (deny),
/// `Some(false)` = carries names but none are ACLs, `None` = nameless proc.
fn touches_acl_file(proc: u32, args: &[u8]) -> Option<bool> {
    let check = |name: &str| is_acl_file_name(name);
    match proc {
        procnum::LOOKUP | procnum::REMOVE | procnum::RMDIR => {
            DirOpArgs3::from_xdr_bytes(args).ok().map(|a| check(&a.name))
        }
        procnum::CREATE => CreateArgs::from_xdr_bytes(args).ok().map(|a| check(&a.where_.name)),
        procnum::MKDIR => MkdirArgs::from_xdr_bytes(args).ok().map(|a| check(&a.where_.name)),
        procnum::SYMLINK => SymlinkArgs::from_xdr_bytes(args).ok().map(|a| check(&a.where_.name)),
        procnum::RENAME => RenameArgs::from_xdr_bytes(args)
            .ok()
            .map(|a| check(&a.from.name) || check(&a.to.name)),
        procnum::LINK => LinkArgs::from_xdr_bytes(args).ok().map(|a| check(&a.link.name)),
        _ => None,
    }
}

/// Encode a successful reply: header + result body.
fn encode_reply<T: XdrEncode>(xid: u32, result: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(64);
    ReplyHeader::success(xid).encode(&mut enc);
    result.encode(&mut enc);
    enc.into_bytes()
}

/// Encode an RPC-level accepted-error reply.
fn accept_error(xid: u32, stat: AcceptStat) -> Vec<u8> {
    ReplyHeader::Accepted { xid, verf: OpaqueAuth::none(), stat }.to_xdr_bytes()
}

/// An NFS-level ACCES denial shaped correctly for each procedure.
fn deny_nfs(xid: u32, proc: u32) -> Vec<u8> {
    let status = NfsStat3::Acces;
    match proc {
        procnum::LOOKUP => encode_reply(
            xid,
            &LookupRes { status, object: None, obj_attr: None, dir_attr: None },
        ),
        procnum::CREATE | procnum::MKDIR | procnum::SYMLINK => encode_reply(
            xid,
            &CreateRes { status, obj: None, obj_attr: None, dir_wcc: WccData::default() },
        ),
        procnum::REMOVE | procnum::RMDIR => {
            encode_reply(xid, &WccRes { status, wcc: WccData::default() })
        }
        procnum::RENAME => encode_reply(
            xid,
            &RenameRes { status, from_wcc: WccData::default(), to_wcc: WccData::default() },
        ),
        procnum::LINK => {
            encode_reply(xid, &LinkRes { status, attr: None, dir_wcc: WccData::default() })
        }
        _ => accept_error(xid, AcceptStat::SystemErr),
    }
}

/// The result bytes of an accepted-success reply, if that is what it is.
fn success_body(reply: &[u8]) -> Option<&[u8]> {
    let mut dec = XdrDecoder::new(reply);
    match ReplyHeader::decode(&mut dec) {
        Ok(ReplyHeader::Accepted { stat: AcceptStat::Success, .. }) => {
            Some(&reply[dec.position()..])
        }
        _ => None,
    }
}

/// Rewrite a READDIR/READDIRPLUS success reply without ACL-file entries.
fn filter_listing(proc: u32, xid: u32, reply: &[u8]) -> Option<Vec<u8>> {
    let body = success_body(reply)?;
    if proc == procnum::READDIR {
        let mut res = ReaddirRes::from_xdr_bytes(body).ok()?;
        let before = res.entries.len();
        res.entries.retain(|e| !is_acl_file_name(&e.name));
        if res.entries.len() == before {
            return None; // nothing filtered; relay the original bytes
        }
        Some(encode_reply(xid, &res))
    } else {
        let mut res = ReaddirPlusRes::from_xdr_bytes(body).ok()?;
        let before = res.entries.len();
        res.entries.retain(|e| !is_acl_file_name(&e.name));
        if res.entries.len() == before {
            return None;
        }
        Some(encode_reply(xid, &res))
    }
}

