//! End-to-end management-plane tests: a grid user drives the DSS with
//! signed messages; the DSS authorizes, generates gridmaps, and instructs
//! the FSS to run real sessions.

use sgfs::session::GridWorld;
use sgfs_obs::Hop;
use sgfs_pki::DistinguishedName;
use sgfs_services::envelope::{Envelope, Verifier};
use sgfs_services::messages::{DssRequest, DssResponse, SecurityChoice};
use sgfs_services::{Dss, Fss};

struct Plane {
    world: GridWorld,
    dss: Dss,
    user_verifier: Verifier,
}

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

/// Build a full management plane: CA, DSS + FSS service credentials, and
/// an initial grant for alice on filesystem "GFS".
fn plane() -> Plane {
    let mut rng = rand::thread_rng();
    let world = GridWorld::new();
    let issue = |name: &str, rng: &mut rand::rngs::ThreadRng| {
        let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, rng);
        let cert = world.ca.issue(&dn(&format!("/O=Grid/OU=Services/CN={name}")), &key.public);
        sgfs_pki::Credential::new(cert, key)
    };
    let dss_cred = issue("dss", &mut rng);
    let fss_cred = issue("fss", &mut rng);
    let fss = Fss::new(
        fss_cred,
        world.trust.clone(),
        dss_cred.effective_dn().clone(),
        world.server.clone(),
    );
    let mut dss = Dss::new(dss_cred, world.trust.clone(), fss);
    dss.grant("GFS", world.user_dn(), "griduser", sgfs::session::FILE_UID, sgfs::session::FILE_UID);
    let user_verifier = Verifier::new(world.trust.clone());
    Plane { world, dss, user_verifier }
}

fn call(plane: &mut Plane, cred: &sgfs_pki::Credential, req: &DssRequest) -> DssResponse {
    let env = Envelope::sign(cred, req).unwrap();
    let reply_bytes = plane.dss.handle_wire(&env.to_wire());
    let reply = Envelope::from_wire(&reply_bytes).unwrap();
    let (peer, resp): (_, DssResponse) = plane.user_verifier.verify(&reply).unwrap();
    assert_eq!(peer.effective_dn.to_string(), "/O=Grid/OU=Services/CN=dss");
    resp
}

fn create_session_request(plane: &Plane) -> DssRequest {
    // GSI delegation: the user issues a short-lived proxy credential the
    // services act with.
    let delegated = plane.world.user.issue_proxy(3600, 1, &mut rand::thread_rng());
    DssRequest::CreateSession {
        filesystem: "GFS".into(),
        security: SecurityChoice::Strong,
        disk_cache: false,
        fine_grained_acl: false,
        rtt_micros: 300,
        delegated_credential: Dss::encode_credential(&delegated),
        stripe_width: None,
        replicas: None,
    }
}

#[test]
fn full_session_lifecycle_through_services() {
    let mut p = plane();
    let user_cred = p.world.user.clone();

    // Create.
    let req = create_session_request(&p);
    let resp = call(&mut p, &user_cred, &req);
    let DssResponse::SessionCreated { session_id } = resp else {
        panic!("create failed: {resp:?}");
    };

    // The session works: do I/O through the FSS's mount.
    {
        let mount = p.dss.session_mount(session_id).unwrap();
        mount.write_file("/svc.txt", b"created via WSRF analog").unwrap();
        assert_eq!(mount.read_file("/svc.txt").unwrap(), b"created via WSRF analog");
    }

    // List shows it.
    match call(&mut p, &user_cred, &DssRequest::ListSessions) {
        DssResponse::Sessions(list) => {
            assert_eq!(list.len(), 1);
            assert_eq!(list[0].session_id, session_id);
            assert_eq!(list[0].security, "sgfs-aes");
        }
        other => panic!("{other:?}"),
    }

    // Rekey is accepted.
    match call(&mut p, &user_cred, &DssRequest::RekeySession { session_id }) {
        DssResponse::Ok => {}
        other => panic!("{other:?}"),
    }
    // Drive an op so the rekey actually executes.
    p.dss.session_mount(session_id).unwrap().stat("/svc.txt").unwrap();

    // Destroy.
    match call(&mut p, &user_cred, &DssRequest::DestroySession { session_id }) {
        DssResponse::SessionDestroyed { .. } => {}
        other => panic!("{other:?}"),
    }
    match call(&mut p, &user_cred, &DssRequest::ListSessions) {
        DssResponse::Sessions(list) => assert!(list.is_empty()),
        other => panic!("{other:?}"),
    }
}

#[test]
fn striped_session_through_services() {
    let mut p = plane();
    let user_cred = p.world.user.clone();
    let delegated = p.world.user.issue_proxy(3600, 1, &mut rand::thread_rng());
    let req = DssRequest::CreateSession {
        filesystem: "GFS".into(),
        security: SecurityChoice::Medium,
        disk_cache: false,
        fine_grained_acl: false,
        rtt_micros: 300,
        delegated_credential: Dss::encode_credential(&delegated),
        stripe_width: Some(2),
        replicas: Some(2),
    };
    let DssResponse::SessionCreated { session_id } = call(&mut p, &user_cred, &req) else {
        panic!("striped create failed");
    };
    // I/O works across the stripe set like any session.
    {
        let mount = p.dss.session_mount(session_id).unwrap();
        mount.write_file("/striped.txt", b"placed across two upstreams").unwrap();
        assert_eq!(mount.read_file("/striped.txt").unwrap(), b"placed across two upstreams");
    }
    match call(&mut p, &user_cred, &DssRequest::DestroySession { session_id }) {
        DssResponse::SessionDestroyed { .. } => {}
        other => panic!("{other:?}"),
    }
}

#[test]
fn query_session_returns_observability_snapshot() {
    let mut p = plane();
    let user_cred = p.world.user.clone();

    // A caching session, so the proxy has hits and misses to count.
    let mut req = create_session_request(&p);
    if let DssRequest::CreateSession { disk_cache, .. } = &mut req {
        *disk_cache = true;
    }
    let DssResponse::SessionCreated { session_id } = call(&mut p, &user_cred, &req) else {
        panic!("create failed");
    };

    // Generate traffic so the snapshot has something to show.
    {
        let mount = p.dss.session_mount(session_id).unwrap();
        mount.write_file("/traced.txt", b"observability plane").unwrap();
        assert_eq!(mount.read_file("/traced.txt").unwrap(), b"observability plane");
        mount.stat("/traced.txt").unwrap();
        mount.stat("/traced.txt").unwrap();
    }

    let resp = call(
        &mut p,
        &user_cred,
        &DssRequest::QuerySession { session_id, max_events: 64 },
    );
    let DssResponse::SessionStats { json } = resp else {
        panic!("query failed: {resp:?}");
    };
    let snap: sgfs_obs::Snapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap.session, session_id, "snapshot tagged with the FSS session id");
    assert!(snap.enabled);
    assert!(snap.events_captured > 0, "I/O should have produced trace events");
    assert!(!snap.procs.is_empty(), "per-proc summaries populated");
    assert!(!snap.hops.is_empty(), "per-hop summaries populated");
    assert!(snap.events.len() <= 64);
    // The traffic above includes a write (the read is absorbed by the
    // client cache) and the stat forces a getattr, so those procedures
    // must appear in the per-proc table.
    let proc_names: Vec<&str> = snap.procs.iter().map(|s| s.name.as_str()).collect();
    assert!(proc_names.contains(&"write"), "procs: {proc_names:?}");
    assert!(proc_names.contains(&"getattr"), "procs: {proc_names:?}");

    // The counters ride the same payload: everything asserted below is
    // read from the JSON the owner received over the signed-envelope
    // wire, and checked against the session's own view of its cache.
    let (name, client) = snap.counters.iter().next().expect("one emitter: the client proxy");
    assert!(name.starts_with("client#"), "emitter {name}");
    assert!(client["messages"] > 0, "the proxy processed the traffic above");
    let stats = p.dss.session(session_id).unwrap().client_proxy_stats().unwrap();
    let proxy_cache = (stats.count(Hop::CacheHit), stats.count(Hop::CacheMiss));
    assert!(proxy_cache.0 > 0 && proxy_cache.1 > 0, "cache exercised: {proxy_cache:?}");
    assert_eq!((client["cache_hit"], client["cache_miss"]), proxy_cache);
    // The health rows an operator looks for are exported by name even
    // (especially) when they read zero.
    for row in ["reconnect", "degraded", "dirty_at_shutdown", "cache_io_errors"] {
        assert_eq!(client.get(row), Some(&0), "{row}");
    }

    // Only the owner may monitor a session.
    let mut rng = rand::thread_rng();
    let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
    let cert = p.world.ca.issue(&dn("/O=Grid/OU=ACIS/CN=eve"), &key.public);
    let eve = sgfs_pki::Credential::new(cert, key);
    match call(&mut p, &eve, &DssRequest::QuerySession { session_id, max_events: 8 }) {
        DssResponse::Error(e) => assert!(e.contains("owner"), "{e}"),
        other => panic!("expected owner check, got {other:?}"),
    }
}

#[test]
fn unauthorized_dn_cannot_create_sessions() {
    let mut p = plane();
    // Mallory has a valid certificate from the CA but no grant.
    let mut rng = rand::thread_rng();
    let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
    let cert = p.world.ca.issue(&dn("/O=Grid/OU=ACIS/CN=mallory"), &key.public);
    let mallory = sgfs_pki::Credential::new(cert, key);

    let delegated = mallory.issue_proxy(3600, 1, &mut rng);
    let req = DssRequest::CreateSession {
        filesystem: "GFS".into(),
        security: SecurityChoice::Medium,
        disk_cache: false,
        fine_grained_acl: false,
        rtt_micros: 300,
        delegated_credential: Dss::encode_credential(&delegated),
        stripe_width: None,
        replicas: None,
    };
    match call(&mut p, &mallory, &req) {
        DssResponse::Error(e) => assert!(e.contains("not authorized"), "{e}"),
        other => panic!("mallory created a session: {other:?}"),
    }
}

#[test]
fn sharing_via_grant_updates_generated_gridmap() {
    let mut p = plane();
    let user_cred = p.world.user.clone();

    // Alice shares GFS with bob.
    match call(
        &mut p,
        &user_cred,
        &DssRequest::GrantAccess {
            filesystem: "GFS".into(),
            grantee_dn: "/O=Grid/OU=ACIS/CN=bob".into(),
            account: String::new(),
        },
    ) {
        DssResponse::Ok => {}
        other => panic!("{other:?}"),
    }

    // Bob (valid cert) can now create a session.
    let mut rng = rand::thread_rng();
    let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
    let cert = p.world.ca.issue(&dn("/O=Grid/OU=ACIS/CN=bob"), &key.public);
    let bob = sgfs_pki::Credential::new(cert, key);
    let delegated = bob.issue_proxy(3600, 1, &mut rng);
    let req = DssRequest::CreateSession {
        filesystem: "GFS".into(),
        security: SecurityChoice::IntegrityOnly,
        disk_cache: false,
        fine_grained_acl: false,
        rtt_micros: 300,
        delegated_credential: Dss::encode_credential(&delegated),
        stripe_width: None,
        replicas: None,
    };
    let DssResponse::SessionCreated { session_id } = call(&mut p, &bob, &req) else {
        panic!("bob should have access after the grant");
    };
    p.dss.session_mount(session_id).unwrap().write_file("/bob.txt", b"hi").unwrap();

    // Revoke bob; new sessions fail.
    match call(
        &mut p,
        &user_cred,
        &DssRequest::RevokeAccess {
            filesystem: "GFS".into(),
            grantee_dn: "/O=Grid/OU=ACIS/CN=bob".into(),
        },
    ) {
        DssResponse::Ok => {}
        other => panic!("{other:?}"),
    }
    let delegated = bob.issue_proxy(3600, 1, &mut rng);
    let req = DssRequest::CreateSession {
        filesystem: "GFS".into(),
        security: SecurityChoice::IntegrityOnly,
        disk_cache: false,
        fine_grained_acl: false,
        rtt_micros: 300,
        delegated_credential: Dss::encode_credential(&delegated),
        stripe_width: None,
        replicas: None,
    };
    match call(&mut p, &bob, &req) {
        DssResponse::Error(_) => {}
        other => panic!("revoked bob created a session: {other:?}"),
    }
}

#[test]
fn only_owner_controls_a_session() {
    let mut p = plane();
    let user_cred = p.world.user.clone();
    let req = create_session_request(&p);
    let DssResponse::SessionCreated { session_id } = call(&mut p, &user_cred, &req) else {
        panic!("create failed");
    };

    // Eve (valid cert, even granted on the fs) cannot destroy alice's session.
    let mut rng = rand::thread_rng();
    let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
    let cert = p.world.ca.issue(&dn("/O=Grid/OU=ACIS/CN=eve"), &key.public);
    let eve = sgfs_pki::Credential::new(cert, key);
    p.dss.grant("GFS", dn("/O=Grid/OU=ACIS/CN=eve"), "griduser", 2001, 2001);
    match call(&mut p, &eve, &DssRequest::DestroySession { session_id }) {
        DssResponse::Error(e) => assert!(e.contains("owner"), "{e}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn acl_management_through_services() {
    let mut p = plane();
    let user_cred = p.world.user.clone();
    let delegated = p.world.user.issue_proxy(3600, 1, &mut rand::thread_rng());
    let req = DssRequest::CreateSession {
        filesystem: "GFS".into(),
        security: SecurityChoice::Medium,
        disk_cache: false,
        fine_grained_acl: true,
        rtt_micros: 300,
        delegated_credential: Dss::encode_credential(&delegated),
        stripe_width: None,
        replicas: None,
    };
    let DssResponse::SessionCreated { session_id } = call(&mut p, &user_cred, &req) else {
        panic!("create failed");
    };
    p.dss.session_mount(session_id).unwrap().write_file("/guarded.dat", b"x").unwrap();

    // Install a read-only ACL via the service path.
    let acl_text = format!("\"{}\" 0x01\n", p.world.user_dn());
    match call(
        &mut p,
        &user_cred,
        &DssRequest::SetFileAcl {
            session_id,
            name: Some("guarded.dat".into()),
            acl_text,
        },
    ) {
        DssResponse::Ok => {}
        other => panic!("{other:?}"),
    }
    let granted = p.dss.session_mount(session_id).unwrap().access("/guarded.dat", 0x3f).unwrap();
    assert_eq!(granted, 0x01);
}

#[test]
fn forged_request_rejected() {
    let mut p = plane();
    let user_cred = p.world.user.clone();
    let req = create_session_request(&p);
    let mut env = Envelope::sign(&user_cred, &req).unwrap();
    // Tamper with the body after signing.
    env.body = env.body.replace("GFS", "ETC");
    let reply_bytes = p.dss.handle_wire(&env.to_wire());
    let reply = Envelope::from_wire(&reply_bytes).unwrap();
    let (_, resp): (_, DssResponse) = p.user_verifier.verify(&reply).unwrap();
    match resp {
        DssResponse::Error(e) => assert!(e.contains("signature"), "{e}"),
        other => panic!("forged request succeeded: {other:?}"),
    }
}

#[test]
fn fss_only_obeys_the_dss() {
    use sgfs_services::fss::{FssRequest, FssResponse};
    let mut p = plane();
    // Alice signs an FSS instruction directly, bypassing the DSS.
    let forged = FssRequest::Destroy { id: 1 };
    let env = Envelope::sign(&p.world.user, &forged).unwrap();
    // Reach the FSS through the DSS's back door is impossible; construct
    // a standalone FSS to show it refuses non-DSS signers.
    let mut rng = rand::thread_rng();
    let fss_cred = {
        let key = sgfs_crypto::rsa::RsaKeyPair::generate(512, &mut rng);
        let cert = p.world.ca.issue(&dn("/O=Grid/OU=Services/CN=fss2"), &key.public);
        sgfs_pki::Credential::new(cert, key)
    };
    let mut fss = sgfs_services::Fss::new(
        fss_cred,
        p.world.trust.clone(),
        dn("/O=Grid/OU=Services/CN=dss"),
        p.world.server.clone(),
    );
    let reply = fss.handle_wire(&env.to_wire());
    let reply = Envelope::from_wire(&reply).unwrap();
    let (_, resp): (_, FssResponse) = p.user_verifier.verify(&reply).unwrap();
    match resp {
        FssResponse::Error(e) => assert!(e.contains("not the DSS"), "{e}"),
        other => panic!("FSS obeyed a non-DSS signer: {other:?}"),
    }
}

#[test]
fn two_sessions_share_one_filesystem() {
    let mut p = plane();
    let user_cred = p.world.user.clone();
    let req1 = create_session_request(&p);
    let DssResponse::SessionCreated { session_id: s1 } = call(&mut p, &user_cred, &req1)
    else {
        panic!("first session failed");
    };
    let req2 = create_session_request(&p);
    let DssResponse::SessionCreated { session_id: s2 } = call(&mut p, &user_cred, &req2)
    else {
        panic!("second session failed");
    };
    p.dss.session_mount(s1).unwrap().write_file("/common.txt", b"visible to both").unwrap();
    assert_eq!(
        p.dss.session_mount(s2).unwrap().read_file("/common.txt").unwrap(),
        b"visible to both",
        "sessions to the same filesystem share data"
    );
}
