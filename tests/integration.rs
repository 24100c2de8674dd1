//! Workspace-level integration tests spanning all crates: adversarial
//! wire conditions, library generality, stack equivalence, and the
//! management plane driving real wide-area sessions.

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_vfs::{FileKind, UserContext, Vfs};
use std::io::{Read, Write};
use std::time::Duration;

/// Same seeded PostMark workload on nfs-v3 and on sgfs-aes must leave the
/// exported filesystem in the same logical state — the proxies are
/// *transparent* (semantics preserved), which is the core claim behind
/// "supports unmodified applications".
#[test]
fn sgfs_is_semantically_transparent() {
    use sgfs_workloads::postmark::{self, PostmarkConfig};
    let cfg = PostmarkConfig { dirs: 4, files: 25, transactions: 50, ..Default::default() };

    let snapshot = |kind: SetupKind| -> Vec<(String, String, u64)> {
        let world = GridWorld::new();
        let mut session = Session::build(&world, &SessionParams::lan(kind)).expect("setup");
        let clock = session.clock().clone();
        // Leave a recognizable tree behind (PostMark cleans up after
        // itself, so add explicit survivors too).
        postmark::run(&mut session.mount, &clock, &cfg).expect("postmark");
        session.mount.mkdir("/survivors", 0o755).expect("mkdir");
        for i in 0..10 {
            session
                .mount
                .write_file(&format!("/survivors/f{i}"), format!("data {i}").repeat(i + 1).as_bytes())
                .expect("write");
        }
        let server = session.server().clone();
        session.finish().expect("teardown");
        dump_tree(server.vfs())
    };

    let a = snapshot(SetupKind::NfsV3);
    let b = snapshot(SetupKind::Sgfs(SecurityLevel::StrongCipher));
    assert_eq!(a, b, "server state must be identical across stacks");
    assert!(a.iter().any(|(p, _, _)| p == "/GFS/survivors/f9"));
}

/// Recursively dump (path, kind, size) sorted — a logical tree snapshot.
fn dump_tree(vfs: &Vfs) -> Vec<(String, String, u64)> {
    let root = UserContext::root();
    let mut out = Vec::new();
    let mut stack = vec!["/GFS".to_string()];
    while let Some(dir) = stack.pop() {
        let dattr = vfs.resolve(&dir, &root).expect("dir exists");
        for e in vfs.readdir(dattr.ino, &root).expect("readdir") {
            if e.name == "." || e.name == ".." {
                continue;
            }
            let path = format!("{dir}/{}", e.name);
            let attr = vfs.getattr(e.ino).expect("getattr");
            out.push((path.clone(), format!("{:?}", attr.kind), attr.size));
            if attr.kind == FileKind::Directory {
                stack.push(path);
            }
        }
    }
    out.sort();
    out
}

/// An active attacker flipping bits on the WAN wire must not be able to
/// corrupt data: the GTLS record MAC fails closed and the session dies
/// rather than returning wrong bytes.
#[test]
fn wire_tampering_fails_closed() {
    use sgfs_crypto::rsa::RsaKeyPair;
    use sgfs_gtls::{GtlsConfig, GtlsStream};
    use sgfs_pki::{CertificateAuthority, Credential, DistinguishedName, TrustStore};

    let mut rng = rand::thread_rng();
    let dn = |s: &str| DistinguishedName::parse(s).unwrap();
    let ca = CertificateAuthority::new(&dn("/O=G/CN=CA"), 512, &mut rng);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let k1 = RsaKeyPair::generate(512, &mut rng);
    let c1 = ca.issue(&dn("/O=G/CN=u"), &k1.public);
    let k2 = RsaKeyPair::generate(512, &mut rng);
    let c2 = ca.issue(&dn("/O=G/CN=s"), &k2.public);

    // Wire with a man-in-the-middle relay that corrupts the 20th data
    // frame onward.
    let (client_wire, mitm_a) = sgfs_net::pipe_pair();
    let (mitm_b, server_wire) = sgfs_net::pipe_pair();
    let (mut ra, mut wa) = mitm_a.split();
    let (rb, wb) = mitm_b.split();
    // client → server direction: tamper.
    std::thread::spawn(move || {
        let mut wb = wb;
        let mut buf = [0u8; 8192];
        let mut frames = 0u32;
        loop {
            let n = match ra.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            frames += 1;
            if frames > 20 {
                buf[n / 2] ^= 0x40; // flip one bit mid-frame
            }
            if wb.write_all(&buf[..n]).is_err() {
                break;
            }
        }
    });
    // server → client direction: faithful relay.
    std::thread::spawn(move || {
        let mut rb = rb;
        let mut buf = [0u8; 8192];
        loop {
            let n = match rb.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            if wa.write_all(&buf[..n]).is_err() {
                break;
            }
        }
    });

    let scfg = GtlsConfig::new(Credential::new(c2, k2), trust.clone());
    let server = std::thread::spawn(move || {
        let mut s = GtlsStream::server(Box::new(server_wire), scfg)?;
        // Echo until the MAC failure surfaces.
        let mut buf = [0u8; 1024];
        loop {
            match s.read(&mut buf) {
                Ok(0) => return Ok(()),
                Ok(n) => {
                    if s.write_all(&buf[..n]).is_err() {
                        return Ok(());
                    }
                }
                Err(e) => return Err(sgfs_gtls::GtlsError::Io(e)),
            }
        }
    });
    let ccfg = GtlsConfig::new(Credential::new(c1, k1), trust);
    let mut client = GtlsStream::client(Box::new(client_wire), ccfg).expect("handshake");

    let msg = vec![0x42u8; 600];
    let mut corrupted_delivery = false;
    let mut failed = false;
    for _ in 0..100 {
        if client.write_all(&msg).is_err() {
            failed = true;
            break;
        }
        let mut echo = vec![0u8; msg.len()];
        match client.read_exact(&mut echo) {
            Ok(()) => {
                if echo != msg {
                    corrupted_delivery = true;
                    break;
                }
            }
            Err(_) => {
                failed = true;
                break;
            }
        }
    }
    assert!(failed, "the tampered session must die");
    assert!(!corrupted_delivery, "corrupted data must never be delivered");
    let _ = server.join();
}

/// The secure RPC library is generic: any RPC program (not just NFS) gets
/// authentication + protection by swapping its transport — the paper's
/// "generic to support all RPC-based applications" claim.
#[test]
fn secure_rpc_library_is_generic() {
    use sgfs_crypto::rsa::RsaKeyPair;
    use sgfs_gtls::GtlsConfig;
    use sgfs_oncrpc::server::Dispatch;
    use sgfs_oncrpc::{OpaqueAuth, RpcService};
    use sgfs_pki::{CertificateAuthority, Credential, DistinguishedName, TrustStore};
    use sgfs_secrpc::{clnt_ssl_create, svc_ssl_create};
    use std::sync::Arc;

    /// A toy "grid job queue" RPC program.
    struct JobQueue {
        jobs: std::sync::Mutex<Vec<String>>,
    }

    impl RpcService for JobQueue {
        fn program(&self) -> u32 {
            0x4000_0099
        }
        fn version(&self) -> u32 {
            1
        }
        fn handle(
            &self,
            proc: u32,
            _cred: &OpaqueAuth,
            args: &mut sgfs_xdr::XdrDecoder<'_>,
        ) -> Dispatch {
            match proc {
                0 => Dispatch::reply(&sgfs_oncrpc::client::NoArgs),
                1 => match args.get_string() {
                    Ok(job) => {
                        let mut jobs = self.jobs.lock().expect("lock");
                        jobs.push(job);
                        Dispatch::reply(&(jobs.len() as u32))
                    }
                    Err(_) => Dispatch::Error(sgfs_oncrpc::AcceptStat::GarbageArgs),
                },
                2 => {
                    let jobs = self.jobs.lock().expect("lock");
                    Dispatch::reply(&jobs.join(","))
                }
                _ => Dispatch::Error(sgfs_oncrpc::AcceptStat::ProcUnavail),
            }
        }
    }

    let mut rng = rand::thread_rng();
    let dn = |s: &str| DistinguishedName::parse(s).unwrap();
    let ca = CertificateAuthority::new(&dn("/O=G/CN=CA"), 512, &mut rng);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let uk = RsaKeyPair::generate(512, &mut rng);
    let uc = ca.issue(&dn("/O=G/CN=submitter"), &uk.public);
    let hk = RsaKeyPair::generate(512, &mut rng);
    let hc = ca.issue(&dn("/O=G/CN=queue-host"), &hk.public);

    let shards = sgfs_oncrpc::ShardServer::new(1);
    let (a, b) = sgfs_net::pipe_pair();
    let watch = b.watch();
    let scfg = GtlsConfig::new(Credential::new(hc, hk), trust.clone());
    let service = Arc::new(JobQueue { jobs: Default::default() });
    let pinned = shards.clone();
    let server =
        std::thread::spawn(move || svc_ssl_create(Box::new(b), watch, scfg, service, &pinned));
    let ccfg = GtlsConfig::new(Credential::new(uc, uk), trust);
    let mut client = clnt_ssl_create(Box::new(a), ccfg, 0x4000_0099, 1).expect("connect");
    server.join().expect("server thread").expect("server handshake");
    assert_eq!(client.peer.effective_dn.to_string(), "/O=G/CN=queue-host");

    let n: u32 = client.client.call(1, &"seismic-run-1".to_string()).expect("submit");
    assert_eq!(n, 1);
    let n: u32 = client.client.call(1, &"seismic-run-2".to_string()).expect("submit");
    assert_eq!(n, 2);
    let listing: String = client.client.call(2, &0u32).expect("list");
    assert_eq!(listing, "seismic-run-1,seismic-run-2");
}

/// WAN session through the management plane: the DSS builds a disk-cached
/// session and the data path shows the wide-area behaviour (write-back
/// absorbs writes; teardown reports the flush).
#[test]
fn services_build_wan_sessions_with_disk_cache() {
    use sgfs_pki::Credential;
    use sgfs_services::envelope::{Envelope, Verifier};
    use sgfs_services::messages::{DssRequest, DssResponse, SecurityChoice};
    use sgfs_services::{Dss, Fss};

    let mut rng = rand::thread_rng();
    let world = GridWorld::new();
    let dn = |s: &str| sgfs_pki::DistinguishedName::parse(s).unwrap();
    let issue = |name: &str, rng: &mut rand::rngs::ThreadRng| {
        let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, rng);
        let cert = world.ca.issue(&dn(&format!("/O=Grid/CN={name}")), &key.public);
        Credential::new(cert, key)
    };
    let dss_cred = issue("dss", &mut rng);
    let fss = Fss::new(
        issue("fss", &mut rng),
        world.trust.clone(),
        dss_cred.effective_dn().clone(),
        world.server.clone(),
    );
    let mut dss = Dss::new(dss_cred, world.trust.clone(), fss);
    dss.grant("GFS", world.user_dn(), "griduser", sgfs::session::FILE_UID, sgfs::session::FILE_UID);

    let delegated = world.user.issue_proxy(3600, 1, &mut rng);
    let req = DssRequest::CreateSession {
        filesystem: "GFS".into(),
        security: SecurityChoice::Strong,
        disk_cache: true,
        fine_grained_acl: false,
        rtt_micros: 40_000,
        stripe_width: None,
        replicas: None,
        delegated_credential: Dss::encode_credential(&delegated),
    };
    let env = Envelope::sign(&world.user, &req).unwrap();
    let reply = dss.handle_wire(&env.to_wire());
    let reply = Envelope::from_wire(&reply).unwrap();
    let mut verifier = Verifier::new(world.trust.clone());
    let (_, resp): (_, DssResponse) = verifier.verify(&reply).unwrap();
    let DssResponse::SessionCreated { session_id } = resp else {
        panic!("{resp:?}");
    };

    // Write 1 MB: absorbed by the disk cache (write-back).
    let payload = vec![7u8; 1024 * 1024];
    dss.session_mount(session_id).unwrap().write_file("/wan.bin", &payload).unwrap();
    assert_eq!(dss.session_mount(session_id).unwrap().read_file("/wan.bin").unwrap(), payload);

    // Destroy through the service: the response carries the write-back.
    let env = Envelope::sign(&world.user, &DssRequest::DestroySession { session_id }).unwrap();
    let reply = dss.handle_wire(&env.to_wire());
    let reply = Envelope::from_wire(&reply).unwrap();
    let (_, resp): (_, DssResponse) = verifier.verify(&reply).unwrap();
    match resp {
        DssResponse::SessionDestroyed { writeback_bytes } => {
            assert!(
                writeback_bytes >= payload.len() as u64,
                "teardown must flush the dirty megabyte, flushed {writeback_bytes}"
            );
        }
        other => panic!("{other:?}"),
    }
}

/// The virtual clock makes an 80 ms-RTT run report wide-area timings
/// while completing in real seconds — sanity-check the accounting.
#[test]
fn virtual_time_scales_with_rtt() {
    let world = GridWorld::new();
    let mut totals = Vec::new();
    for rtt_ms in [10u64, 40] {
        let mut params = SessionParams::lan(SetupKind::NfsV3);
        params.rtt = Duration::from_millis(rtt_ms);
        let mut session = Session::build(&world, &params).unwrap();
        let clock = session.clock().clone();
        let t0 = clock.now();
        for i in 0..20 {
            session.mount.write_file(&format!("/f{i}"), b"x").unwrap();
        }
        totals.push((clock.now() - t0).as_secs_f64());
        session.finish().unwrap();
    }
    // 4x the RTT should show roughly 4x the runtime (same op mix).
    let ratio = totals[1] / totals[0];
    assert!(
        (2.5..6.0).contains(&ratio),
        "runtime must scale with RTT: {totals:?} ratio {ratio:.2}"
    );
}
