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
use crate::proxy::wire::{accept_error, encode_reply, failure, nfs_call, success_body, Call};
use crate::proxy::ProxyError;
use sgfs_obs::Emitter;
use parking_lot::Mutex;
use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_nfs3::Nfs3Client;
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record_at, write_marked, MARK_LEN};
use sgfs_oncrpc::{AcceptStat, OpaqueAuth};
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
        let (header, args) = match nfs_call(record) {
            Ok(call) => call,
            Err(reply) => return made(out, reply),
        };
        let call = Call::decode(header.proc, args, &header.cred);

        // Shield ACL files from every name-bearing operation.
        if call.names().any(is_acl_file_name) {
            return made(out, failure(header.xid, header.proc, NfsStat3::Acces));
        }

        // Fine-grained access control: terminate ACCESS locally.
        let fine = self.config.lock().fine_grained_acl;
        if fine && header.proc == procnum::ACCESS {
            if let Call::Access(a, _) = &call {
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
        self.snoop(&call, reply);

        // Filter ACL files out of directory listings.
        if header.proc == procnum::READDIR || header.proc == procnum::READDIRPLUS {
            if let Some(filtered) = filter_listing(header.proc, header.xid, reply) {
                return made(out, filtered);
            }
        }
        Ok(())
    }

    /// Learn fh→(parent, name) mappings from successful replies: of a
    /// LOOKUP, CREATE, MKDIR or READDIRPLUS, and what a RENAME, REMOVE or
    /// RMDIR moved or unlinked. A call the server refused changed no
    /// name: a RENAME or RMDIR that failed (NOTEMPTY, say) leaves the map
    /// as it was.
    fn snoop(&self, call: &Call, reply: &[u8]) {
        let Some(result) = success_body(reply) else { return };
        // Every NFS result opens with its status.
        if NfsStat3::decode(&mut XdrDecoder::new(result)).ok() != Some(NfsStat3::Ok) {
            return;
        }
        let learn = |w: &DirOpArgs3, fh: Option<Fh3>| {
            if let Some(fh) = fh {
                self.name_map.lock().insert(fh, (w.dir.clone(), w.name.clone()));
            }
        };
        match call {
            Call::Lookup(w) => {
                learn(w, LookupRes::from_xdr_bytes(result).ok().and_then(|r| r.object))
            }
            // A CREATE's, not a SYMLINK's or a MKNOD's.
            Call::Create(w, Some(_)) | Call::Mkdir(w, _) => {
                learn(w, CreateRes::from_xdr_bytes(result).ok().and_then(|r| r.obj))
            }
            Call::Readdir(dir, _, true) => {
                if let Ok(r) = ReaddirPlusRes::from_xdr_bytes(result) {
                    let mut map = self.name_map.lock();
                    for e in r.entries {
                        if let Some(fh) = e.handle {
                            if e.name != "." && e.name != ".." {
                                map.insert(fh, (dir.clone(), e.name));
                            }
                        }
                    }
                }
            }
            // Everything below a moved directory inherits anew, and the
            // map cannot list a directory's descendants: the whole cache
            // goes, as a `set_acl` clears it.
            Call::Rename(a) => {
                let mut map = self.name_map.lock();
                let moved = map.iter().find(|(_, (d, n))| *d == a.from.dir && *n == a.from.name);
                if let Some(fh) = moved.map(|(fh, _)| fh.clone()) {
                    map.insert(fh, (a.to.dir.clone(), a.to.name.clone()));
                }
                self.acl_cache.lock().clear();
            }
            Call::Remove(w, _) => {
                let mut map = self.name_map.lock();
                let gone = map.iter().find(|(_, (d, n))| *d == w.dir && *n == w.name);
                if let Some(fh) = gone.map(|(fh, _)| fh.clone()) {
                    map.remove(&fh);
                    self.acl_cache.lock().remove(&fh);
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
    /// The calls [`jukebox_nfs`] never sheds, other programs' and
    /// garbage return `None` and are processed normally.
    fn shed_record(&self, record: &[u8]) -> Option<Vec<u8>> {
        let (header, _) = nfs_call(record).ok()?;
        jukebox_nfs(header.xid, header.proc)
    }
}

/// An NFS-level JUKEBOX ("try again later") reply from the failure
/// table, or `None` for the calls that are never shed: NULL, which has no
/// status; MKNOD and the FS-info probes (FSSTAT, FSINFO, PATHCONF), which
/// the shard executes instead; and any unknown number. Public so
/// alternative [`RecordService`](sgfs_oncrpc::RecordService)
/// implementations (test backends included) can answer admission
/// pushback with the same wire bytes the production proxy produces.
pub fn jukebox_nfs(xid: u32, proc: u32) -> Option<Vec<u8>> {
    let kept = [procnum::NULL, procnum::MKNOD, procnum::FSSTAT, procnum::FSINFO, procnum::PATHCONF];
    let shed = proc <= procnum::COMMIT && !kept.contains(&proc);
    shed.then(|| failure(xid, proc, NfsStat3::Jukebox))
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

#[cfg(test)]
mod tests {
    use super::*;
    use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
    use sgfs_oncrpc::server::{Dispatch, RpcService};
    use sgfs_oncrpc::CallHeader;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// `sgfs-nfsd`, counting the calls that reach it.
    struct Counted(Arc<sgfs_nfsd::NfsServer>, AtomicU32);

    impl RpcService for Counted {
        fn program(&self) -> u32 {
            NFS_PROGRAM
        }

        fn version(&self) -> u32 {
            NFS_VERSION
        }

        fn handle(&self, proc: u32, cred: &OpaqueAuth, args: &mut XdrDecoder<'_>) -> Dispatch {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.handle(proc, cred, args)
        }
    }

    /// A server proxy for alice over `sgfs-nfsd`, the backend that counts
    /// the calls reaching it, and the export root.
    fn proxy_for_alice(
        fine_grained_acl: bool,
    ) -> (Arc<ServerProxy>, Arc<Counted>, Fh3, DistinguishedName) {
        let vfs = Arc::new(sgfs_vfs::Vfs::new());
        vfs.mkdir_p("/GFS", 0o755, &sgfs_vfs::UserContext::root()).unwrap();
        let mut exports = sgfs_nfsd::Exports::new();
        exports.add(sgfs_nfsd::ExportEntry::localhost("/GFS"));
        let nfsd = sgfs_nfsd::NfsServer::new_no_squash(vfs, exports);
        let root = nfsd.mount("/GFS", "localhost").unwrap();
        let backend = Arc::new(Counted(nfsd, AtomicU32::new(0)));
        let dn = DistinguishedName::parse("/O=Grid/CN=alice").unwrap();
        let mut config = SessionConfig::new(crate::config::SecurityLevel::None);
        config.gridmap.insert(dn.clone(), "alice");
        config.accounts.insert("alice".into(), (0, 0));
        config.fine_grained_acl = fine_grained_acl;
        let peer =
            ValidatedPeer { leaf_dn: dn.clone(), effective_dn: dn.clone(), via_proxy: false };
        let forward = Box::new(sgfs_oncrpc::LoopbackStream::new(backend.clone()));
        let acl_stream = sgfs_oncrpc::LoopbackStream::new(backend.clone());
        let mut acl = Nfs3Client::new(Box::new(acl_stream));
        acl.set_cred(OpaqueAuth::sys(&AuthSysParams::new("file-host", 0, 0)));
        let proxy = ServerProxy::new(config, &peer, forward, acl, root.clone()).unwrap();
        (proxy, backend, root, dn)
    }

    /// Send call `proc` with `args` (already in XDR) through `proxy`;
    /// the reply's result body.
    fn call(proxy: &ServerProxy, xid: u32, proc: u32, args: &[u8]) -> Vec<u8> {
        let header = CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc,
            cred: OpaqueAuth::sys(&AuthSysParams::new("compute-host", 0, 0)),
            verf: OpaqueAuth::none(),
        };
        let mut record = header.to_xdr_bytes();
        record.extend_from_slice(args);
        let reply = proxy.process_one(&record).unwrap();
        assert_eq!(sgfs_obs::peek_xid(&reply), xid);
        success_body(&reply).expect("accepted").to_vec()
    }

    #[test]
    fn the_shield_refuses_a_mknod_of_an_acl_file_before_the_backend() {
        let (proxy, backend, root, _) = proxy_for_alice(false);
        // MKNOD's `where`, then a FIFO's type (NF3FIFO = 7) and attributes.
        let mut args = DirOpArgs3 { dir: root, name: ".f.acl".into() }.to_xdr_bytes();
        args.extend_from_slice(&7u32.to_xdr_bytes());
        args.extend_from_slice(&Sattr3::default().to_xdr_bytes());
        let res = CreateRes::from_xdr_bytes(&call(&proxy, 41, procnum::MKNOD, &args)).unwrap();
        assert_eq!(res.status, NfsStat3::Acces);
        assert_eq!(backend.1.load(Ordering::Relaxed), 0, "the MKNOD reached the backend");
    }

    #[test]
    fn a_refused_rmdir_leaves_the_directorys_name_and_its_acl_in_force() {
        let (proxy, _, root, dn) = proxy_for_alice(true);
        let at = |dir: &Fh3, name: &str| DirOpArgs3 { dir: dir.clone(), name: name.into() };
        let made = |xid, proc, args: Vec<u8>| {
            let res = CreateRes::from_xdr_bytes(&call(&proxy, xid, proc, &args)).unwrap();
            res.obj.expect("made")
        };
        let mkdir = MkdirArgs { where_: at(&root, "d"), attributes: Sattr3::default() };
        let d = made(1, procnum::MKDIR, mkdir.to_xdr_bytes());
        let create = |name: &str| {
            let how = CreateMode::Unchecked(Sattr3::default());
            CreateArgs { where_: at(&d, name), how }.to_xdr_bytes()
        };
        made(2, procnum::CREATE, create("f"));
        let mut acl = Acl::new();
        acl.grant(dn, 0x1);
        proxy.set_acl(&root, Some("d"), &acl).unwrap();

        let refused = call(&proxy, 3, procnum::RMDIR, &at(&root, "d").to_xdr_bytes());
        assert_eq!(WccRes::from_xdr_bytes(&refused).unwrap().status, NfsStat3::NotEmpty);

        let g = made(4, procnum::CREATE, create("g"));
        let access = AccessArgs { object: g, access: 0x3f }.to_xdr_bytes();
        let res = AccessRes::from_xdr_bytes(&call(&proxy, 5, procnum::ACCESS, &access)).unwrap();
        assert_eq!(res.access, 0x1, "d/g inherits d's ACL");
    }

    #[test]
    fn a_moved_directorys_descendants_inherit_from_their_new_parent() {
        let (proxy, _, root, dn) = proxy_for_alice(true);
        let at = |dir: &Fh3, name: &str| DirOpArgs3 { dir: dir.clone(), name: name.into() };
        let made = |xid, proc, args: Vec<u8>| {
            let res = CreateRes::from_xdr_bytes(&call(&proxy, xid, proc, &args)).unwrap();
            res.obj.expect("made")
        };
        let mkdir = |dir: &Fh3, name: &str| {
            MkdirArgs { where_: at(dir, name), attributes: Sattr3::default() }.to_xdr_bytes()
        };
        let p = made(1, procnum::MKDIR, mkdir(&root, "p"));
        let q = made(2, procnum::MKDIR, mkdir(&root, "q"));
        let d = made(3, procnum::MKDIR, mkdir(&p, "d"));
        let how = CreateMode::Unchecked(Sattr3::default());
        let create = CreateArgs { where_: at(&d, "e"), how };
        let e = made(4, procnum::CREATE, create.to_xdr_bytes());
        let mut grant = Acl::new();
        grant.grant(dn, 0x3f);
        proxy.set_acl(&root, Some("p"), &grant).unwrap();
        proxy.set_acl(&root, Some("q"), &Acl::new()).unwrap();
        let access = |xid, fh: &Fh3| {
            let args = AccessArgs { object: fh.clone(), access: 0x3f }.to_xdr_bytes();
            AccessRes::from_xdr_bytes(&call(&proxy, xid, procnum::ACCESS, &args)).unwrap().access
        };
        assert_eq!((access(5, &d), access(6, &e)), (0x3f, 0x3f), "p's grant, inherited");

        let moved = RenameArgs { from: at(&p, "d"), to: at(&q, "d") };
        let res = call(&proxy, 7, procnum::RENAME, &moved.to_xdr_bytes());
        assert_eq!(RenameRes::from_xdr_bytes(&res).unwrap().status, NfsStat3::Ok);
        assert_eq!(access(8, &d), 0, "d inherits q's empty ACL");
        assert_eq!(access(9, &e), 0, "so does everything below d");
    }

    #[test]
    fn jukebox_sheds_every_procedure_but_null_mknod_and_the_fs_info_probes() {
        let kept =
            [procnum::NULL, procnum::MKNOD, procnum::FSSTAT, procnum::FSINFO, procnum::PATHCONF];
        for proc in 0..=procnum::COMMIT + 3 {
            let shed = jukebox_nfs(3, proc);
            let expect = proc <= procnum::COMMIT && !kept.contains(&proc);
            assert_eq!(shed.is_some(), expect, "procedure {proc}");
            if let Some(reply) = shed {
                assert_eq!(reply, failure(3, proc, NfsStat3::Jukebox));
            }
        }
        assert!(jukebox_nfs(3, u32::MAX).is_none());
    }
}
