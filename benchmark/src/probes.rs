//! Single-layer probes: each layer's public entry points timed alone, on
//! one thread, with fixed seeded inputs — 128 B for "small", 32 KiB for
//! "bulk" (one NFS transfer). A probe repeats its operation for a slice
//! of the time budget in five batches and reports the median batch; the
//! two ping-pong probes report the median round trip.
//!
//! Probes see only `pub` items. They tell which layer a change moved;
//! they carry no regression bound of their own.

use crate::bench::Metric;
use crate::gen::Prng;
use crate::manifest::unit_of;
use crate::measure::{median, percentile};
use rand::rngs::SmallRng;
use sgfs::config::{DurabilityPolicy, SecurityLevel, SessionConfig};
use sgfs::proxy::blockstore::{BlockStore, DiskStore, MemStore};
use sgfs::proxy::journal::Journal;
use sgfs::proxy::ServerProxy;
use sgfs::session::{GridWorld, FILE_UID};
use sgfs_crypto::{cbc, Aes, AesGcm, ChaCha20Poly1305, HmacSha1Key};
use sgfs_gtls::record::{HalfConn, CT_DATA};
use sgfs_gtls::{handshake_pair, CipherSuite, GtlsConfig, GtlsHandshake};
use sgfs_net::{pipe_pair, submit_ring, Popped, SimClock};
use sgfs_nfs3::proc::{procnum, AccessArgs, GetAttrRes, ReadArgs, ReadRes, WriteArgs, WriteRes};
use sgfs_nfs3::{Fattr3, Fh3, Nfs3Client, Sattr3, StableHow, NFS_PROGRAM, NFS_VERSION};
use sgfs_nfsclient::{MountOptions, NfsMount, OpenFlags};
use sgfs_nfsd::{ExportEntry, Exports, NfsServer};
use sgfs_obs::{Hop, Obs};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_oncrpc::record::{read_record_into, write_record};
use sgfs_oncrpc::{CallHeader, LoopbackStream, OpaqueAuth, RecordService, RpcClient, ShardServer};
use sgfs_vfs::{UserContext, Vfs};
use sgfs_xdr::{XdrDecode, XdrEncode, XdrEncoder};
use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SMALL: usize = 128;
const BULK: usize = 32 * 1024;
const BATCHES: usize = 5;
const MIB: f64 = 1024.0 * 1024.0;

/// Runs probes against a shared time budget and collects their metrics.
struct Probes {
    /// Time each probe may spend measuring.
    slice: Duration,
    out: Vec<Metric>,
}

impl Probes {
    /// Median over [`BATCHES`] batches of the mean nanoseconds one `op`
    /// takes. The batch length is counted in operations, fixed by a short
    /// calibration, so the clock is read twice per batch only.
    fn ns_per_op(&self, mut op: impl FnMut()) -> (f64, u64) {
        op();
        let calibrate = Instant::now();
        let mut n = 0u64;
        while calibrate.elapsed() < self.slice / (4 * BATCHES as u32) || n < 2 {
            op();
            n += 1;
        }
        let per_op = calibrate.elapsed().as_secs_f64() / n as f64;
        let per_batch = ((self.slice.as_secs_f64() / BATCHES as f64 / per_op) as u64).max(2);
        let batches: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..per_batch {
                    op();
                }
                t.elapsed().as_nanos() as f64 / per_batch as f64
            })
            .collect();
        (median(&batches), per_batch * BATCHES as u64)
    }

    /// Time `op` and report it under `name` in the unit the manifest
    /// declares: a duration per call, or MiB/s given that one call moves
    /// `bytes` payload bytes.
    fn time(&mut self, name: &str, bytes: usize, op: impl FnMut()) {
        let (ns, n) = self.ns_per_op(op);
        self.report(name, ns, bytes, n);
    }

    fn report(&mut self, name: &str, ns_per_op: f64, bytes: usize, samples: u64) {
        let value = match unit_of(name) {
            "ns" => ns_per_op,
            "us" => ns_per_op / 1e3,
            "ms" => ns_per_op / 1e6,
            "MiB/s" => bytes as f64 / MIB / (ns_per_op / 1e9),
            unit => panic!("probe {name} has no rule for unit {unit}"),
        };
        self.out.push(Metric::single(name, value, samples));
    }

    /// Median of individually timed round trips.
    fn p50_us(&mut self, name: &str, mut op: impl FnMut()) {
        op();
        let started = Instant::now();
        let mut trips = Vec::new();
        while started.elapsed() < self.slice || trips.len() < 20 {
            let t = Instant::now();
            op();
            trips.push(t.elapsed().as_nanos() as u64);
        }
        trips.sort_unstable();
        self.report(name, percentile(&trips, 50.0) as f64, 0, trips.len() as u64);
    }
}

fn seeded(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    Prng::new(seed).fill(&mut buf);
    buf
}

/// An exported in-memory file system holding `/GFS/dir/f000..f099` and a
/// 1 MiB `/GFS/big`, owned by the file account.
struct Host {
    vfs: Arc<Vfs>,
    server: Arc<NfsServer>,
    root: Fh3,
    dir: Fh3,
    big: Fh3,
    dir_ino: u64,
    big_ino: u64,
}

fn host(seed: u64) -> Host {
    let ctx = UserContext::root();
    let vfs = Arc::new(Vfs::new());
    let export = vfs.mkdir_p("/GFS", 0o777, &ctx).expect("export");
    let dir = vfs.mkdir(export.ino, "dir", 0o777, &ctx).expect("dir");
    for i in 0..100 {
        vfs.create(dir.ino, &format!("f{i:03}"), 0o666, false, &ctx)
            .expect("pool file");
    }
    let big = vfs
        .create(export.ino, "big", 0o666, false, &ctx)
        .expect("big file");
    vfs.write(big.ino, 0, &seeded(seed, 1 << 20), &ctx)
        .expect("big content");
    let own = sgfs_vfs::SetAttrs {
        uid: Some(FILE_UID),
        gid: Some(FILE_UID),
        ..Default::default()
    };
    for ino in [export.ino, dir.ino, big.ino] {
        vfs.setattr(ino, &own, &ctx).expect("chown");
    }
    let mut exports = Exports::new();
    exports.add(ExportEntry::localhost("/GFS"));
    let server = NfsServer::new_no_squash(vfs.clone(), exports);
    let root = server.mount("/GFS", "localhost").expect("mountable export");
    let fsid = root.to_ino().expect("inode handle").0;
    Host {
        vfs,
        server,
        dir: Fh3::from_ino(fsid, dir.ino),
        big: Fh3::from_ino(fsid, big.ino),
        root,
        dir_ino: dir.ino,
        big_ino: big.ino,
    }
}

fn file_cred() -> OpaqueAuth {
    OpaqueAuth::sys(&AuthSysParams::new("probe", FILE_UID, FILE_UID))
}

fn loopback_client(server: &Arc<NfsServer>) -> Nfs3Client {
    let mut c = Nfs3Client::new(Box::new(LoopbackStream::new(server.clone())));
    c.set_cred(file_cred());
    c
}

/// One encoded NFS call record, as the client proxy would forward it.
fn call_record(xid: u32, proc_no: u32, args: &dyn XdrEncode) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc: proc_no,
        cred: OpaqueAuth::sys(&AuthSysParams::new("compute-host", 1001, 1001)),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(256);
    header.encode(&mut enc);
    args.encode(&mut enc);
    enc.into_bytes()
}

struct Echo;

impl RecordService for Echo {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        Ok(record.to_vec())
    }
}

fn codec_probes(p: &mut Probes, h: &Host, bulk: &[u8]) {
    let attr = Fattr3::from_vfs(&h.vfs.getattr(h.big_ino).expect("big attr"), 1);
    let getattr_res = GetAttrRes {
        status: sgfs_nfs3::NfsStat3::Ok,
        attr: Some(attr.clone()),
    };
    p.time("nfs3.getattr_codec_ns", 0, || {
        let args = h.big.to_xdr_bytes();
        black_box(Fh3::from_xdr_bytes(&args).expect("fh"));
        let res = getattr_res.to_xdr_bytes();
        black_box(GetAttrRes::from_xdr_bytes(&res).expect("getattr res"));
    });
    let read_args = ReadArgs {
        file: h.big.clone(),
        offset: 0,
        count: BULK as u32,
    };
    let read_res = ReadRes {
        status: sgfs_nfs3::NfsStat3::Ok,
        attr: Some(attr.clone()),
        count: BULK as u32,
        eof: false,
        data: bulk.to_vec(),
    };
    p.time("nfs3.read_codec_32k_ns", 0, || {
        black_box(ReadArgs::from_xdr_bytes(&read_args.to_xdr_bytes()).expect("read args"));
        black_box(ReadRes::from_xdr_bytes(&read_res.to_xdr_bytes()).expect("read res"));
    });
    let write_args = WriteArgs {
        file: h.big.clone(),
        offset: 0,
        stable: StableHow::Unstable,
        data: bulk.to_vec(),
    };
    let write_res = WriteRes {
        status: sgfs_nfs3::NfsStat3::Ok,
        wcc: Default::default(),
        count: BULK as u32,
        committed: StableHow::Unstable,
        verf: 7,
    };
    p.time("nfs3.write_codec_32k_ns", 0, || {
        black_box(WriteArgs::from_xdr_bytes(&write_args.to_xdr_bytes()).expect("write args"));
        black_box(WriteRes::from_xdr_bytes(&write_res.to_xdr_bytes()).expect("write res"));
    });
}

fn rpc_probes(p: &mut Probes, h: &Host, small: &[u8], bulk: &[u8]) {
    for (name, payload) in [
        ("oncrpc.record_small_ns", small),
        ("oncrpc.record_32k_ns", bulk),
    ] {
        let mut wire = Vec::with_capacity(payload.len() + 8);
        let mut back = Vec::with_capacity(payload.len());
        p.time(name, 0, || {
            wire.clear();
            write_record(&mut wire, payload).expect("write record");
            assert!(read_record_into(&mut wire.as_slice(), &mut back).expect("read record"));
            black_box(&back);
        });
    }
    let mut rpc = RpcClient::new(
        Box::new(LoopbackStream::new(h.server.clone())),
        NFS_PROGRAM,
        NFS_VERSION,
    );
    p.time("oncrpc.loopback_null_ns", 0, || rpc.null().expect("NULL"));

    let shards = ShardServer::new(1);
    let (mut client, server_end) = pipe_pair();
    let watch = server_end.watch();
    shards
        .add_session(Box::new(server_end), watch, Arc::new(Echo))
        .expect("pin echo session");
    let mut back = Vec::new();
    p.p50_us("oncrpc.shard_echo_us", || {
        write_record(&mut client, small).expect("ping");
        assert!(read_record_into(&mut client, &mut back).expect("pong"));
    });
    drop(client);
    shards.shutdown();
}

fn net_probes(p: &mut Probes, small: &[u8], bulk: &[u8]) {
    let (mut near, mut far) = pipe_pair();
    let len = small.len();
    let echo = std::thread::spawn(move || {
        let mut buf = vec![0u8; len];
        while far.read_exact(&mut buf).is_ok() {
            if far.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut buf = vec![0u8; len];
    p.p50_us("net.pipe_pingpong_us", || {
        near.write_all(small).expect("ping");
        near.read_exact(&mut buf).expect("pong");
    });
    drop(near);
    echo.join().expect("echo thread");

    // One thread on both ends: the copy into the pipe and out of it,
    // without a wake-up in between.
    let (mut a, mut b) = pipe_pair();
    let mut sink = vec![0u8; bulk.len()];
    p.time("net.pipe_stream_mb_s", bulk.len(), || {
        a.write_all(bulk).expect("pipe write");
        b.read_exact(&mut sink).expect("pipe read");
    });

    let (tx, rx) = submit_ring::<u64>(1024);
    p.time("net.submit_ring_ns", 0, || {
        assert!(tx.push(7).is_ok());
        assert!(matches!(rx.pop(), Popped::Value(7)));
    });
}

fn crypto_probes(p: &mut Probes, world: &GridWorld, bulk: &[u8]) {
    let key = seeded(11, 32);
    let nonce = [5u8; 12];
    let aad = [9u8; 13];
    let mut buf: Vec<u8> = Vec::with_capacity(BULK + 64);
    let gcm = AesGcm::new(&key);
    p.time("crypto.aes256gcm_mb_s", BULK, || {
        buf.clear();
        buf.extend_from_slice(bulk);
        gcm.seal_in_place(&nonce, &aad, &mut buf, 0);
        black_box(&buf);
    });
    let chacha = ChaCha20Poly1305::new(key.as_slice().try_into().expect("32-byte key"));
    p.time("crypto.chacha20poly1305_mb_s", BULK, || {
        buf.clear();
        buf.extend_from_slice(bulk);
        chacha.seal_in_place(&nonce, &aad, &mut buf, 0);
        black_box(&buf);
    });
    let aes = Aes::new(&key);
    p.time("crypto.aes256cbc_mb_s", BULK, || {
        buf.clear();
        buf.extend_from_slice(bulk);
        cbc::cbc_encrypt_in_place(&aes, &[3u8; 16], &mut buf);
        black_box(&buf);
    });
    let mac = HmacSha1Key::new(&key[..20]);
    p.time("crypto.hmac_sha1_mb_s", BULK, || {
        let mut h = mac.begin();
        h.update(bulk);
        black_box(h.finalize_fixed());
    });
    p.time("crypto.rsa_sign_ms", 0, || {
        black_box(world.user.sign(&bulk[..SMALL]));
    });
}

fn half_conns(suite: CipherSuite) -> (HalfConn, HalfConn) {
    let key = seeded(21, suite.key_len());
    let mac = seeded(22, suite.mac_key_len());
    let iv = seeded(23, suite.iv_len());
    (
        HalfConn::new(suite, &key, &mac, &iv),
        HalfConn::new(suite, &key, &mac, &iv),
    )
}

fn gtls_probes(p: &mut Probes, world: &GridWorld, small: &[u8], bulk: &[u8]) {
    let mut rng = SmallRng::seed_from_u64(31);
    // Each suite with the suffix its metrics carry.
    let suites = [
        (CipherSuite::Aes256Gcm, "aes256gcm"),
        (CipherSuite::ChaCha20Poly1305, "chacha20poly1305"),
        (CipherSuite::Aes256CbcSha1, "aes256cbc-sha1"),
        (CipherSuite::Rc4_128Sha1, "rc4-sha1"),
    ];
    for (suite, label) in suites {
        let (mut tx, _) = half_conns(suite);
        let mut wire = Vec::with_capacity(BULK + 128);
        p.time(&format!("gtls.seal_mb_s.{label}"), BULK, || {
            wire.clear();
            tx.seal_into(CT_DATA, bulk, &mut rng, &mut wire);
            black_box(&wire);
        });
    }
    for (suite, label) in suites {
        // The receiving half must see every record the sending half
        // numbered, so each batch is sealed off the clock, then opened on it.
        let (mut tx, mut rx) = half_conns(suite);
        let per_batch = 32;
        let mut wires: Vec<Vec<u8>> = vec![Vec::new(); per_batch];
        let mut batches = Vec::new();
        let started = Instant::now();
        while started.elapsed() < p.slice || batches.len() < BATCHES {
            for w in wires.iter_mut() {
                w.clear();
                tx.seal_into(CT_DATA, bulk, &mut rng, w);
            }
            let t = Instant::now();
            for w in wires.iter_mut() {
                let (_, len) = rx.open_in_place(CT_DATA, w).expect("record opens");
                assert_eq!(len, BULK);
            }
            batches.push(t.elapsed().as_nanos() as f64 / per_batch as f64);
        }
        let name = format!("gtls.open_mb_s.{label}");
        p.report(
            &name,
            median(&batches),
            BULK,
            (batches.len() * per_batch) as u64,
        );
    }
    let (mut tx, mut rx) = half_conns(CipherSuite::Aes256Gcm);
    let mut wire = Vec::with_capacity(SMALL + 64);
    p.time("gtls.seal_open_small_ns.aes256gcm", 0, || {
        wire.clear();
        tx.seal_into(CT_DATA, small, &mut rng, &mut wire);
        black_box(rx.open_in_place(CT_DATA, &mut wire).expect("record opens"));
    });

    let client_cfg = GtlsConfig::new(world.user.clone(), world.trust.clone())
        .with_suite(CipherSuite::Aes256Gcm)
        .with_expected_peer(world.server_dn());
    let server_cfg = GtlsConfig::new(world.server.clone(), world.trust.clone())
        .with_suite(CipherSuite::Aes256Gcm);
    p.time("gtls.handshake_ms", 0, || {
        let (c, s) = pipe_pair();
        let (cw, sw) = (c.watch(), s.watch());
        let pair = handshake_pair(
            GtlsHandshake::client(Box::new(c), Some(cw), client_cfg.clone()),
            GtlsHandshake::server(Box::new(s), Some(sw), server_cfg.clone()),
        );
        black_box(pair.expect("handshake completes"));
    });
    let now = sgfs_pki::now();
    p.time("pki.validate_chain_us", 0, || {
        black_box(
            world
                .trust
                .validate_chain(&world.user.chain, now)
                .expect("valid chain"),
        );
    });
}

fn vfs_probes(p: &mut Probes, h: &Host, bulk: &[u8]) {
    let ctx = UserContext::new(FILE_UID, FILE_UID);
    let vfs = &h.vfs;
    p.time("vfs.getattr_ns", 0, || {
        black_box(vfs.getattr(h.big_ino).expect("getattr"));
    });
    p.time("vfs.lookup_ns", 0, || {
        black_box(vfs.lookup(h.dir_ino, "f050", &ctx).expect("lookup"));
    });
    let mut at = 0u64;
    let mut next = move || {
        at = (at + BULK as u64) % (1 << 20);
        at
    };
    p.time("vfs.read_32k_ns", 0, || {
        black_box(
            vfs.read(h.big_ino, next(), BULK as u32, &ctx)
                .expect("read"),
        );
    });
    p.time("vfs.write_32k_ns", 0, || {
        black_box(vfs.write(h.big_ino, next(), bulk, &ctx).expect("write"));
    });
    p.time("vfs.create_unlink_ns", 0, || {
        vfs.create(h.dir_ino, "probe.tmp", 0o644, false, &ctx)
            .expect("create");
        vfs.remove(h.dir_ino, "probe.tmp", &ctx).expect("remove");
    });
}

fn nfsd_probes(p: &mut Probes, h: &Host, bulk: &[u8]) {
    let mut nfs = loopback_client(&h.server);
    p.time("nfsd.getattr_ns", 0, || {
        black_box(nfs.getattr(&h.big).expect("GETATTR"));
    });
    p.time("nfsd.lookup_ns", 0, || {
        black_box(nfs.lookup(&h.dir, "f050").expect("LOOKUP"));
    });
    p.time("nfsd.read_32k_ns", 0, || {
        black_box(nfs.read(&h.big, 0, BULK as u32).expect("READ"));
    });
    p.time("nfsd.write_32k_ns", 0, || {
        black_box(
            nfs.write(&h.big, 0, bulk.to_vec(), StableHow::Unstable)
                .expect("WRITE"),
        );
    });
    p.time("nfsd.create_remove_ns", 0, || {
        nfs.create(&h.dir, "probe.tmp", Sattr3::default())
            .expect("CREATE");
        nfs.remove(&h.dir, "probe.tmp").expect("REMOVE");
    });
}

fn server_proxy(world: &GridWorld, h: &Host, fine_grained_acl: bool) -> Arc<ServerProxy> {
    let material = world.material();
    let mut cfg = SessionConfig::new(SecurityLevel::AeadCipher);
    cfg.credential = Some(material.server.clone());
    cfg.trust = material.trust.clone();
    cfg.gridmap = material.gridmap.clone();
    cfg.accounts = material.accounts.clone();
    cfg.fine_grained_acl = fine_grained_acl;
    let peer = material
        .trust
        .validate_chain(&material.user.chain, sgfs_pki::now())
        .expect("the world's user validates");
    let mut acl_client = Nfs3Client::new(Box::new(LoopbackStream::new(h.server.clone())));
    acl_client.set_cred(OpaqueAuth::sys(&AuthSysParams::new("file-host", 0, 0)));
    ServerProxy::new(
        cfg,
        &peer,
        Box::new(LoopbackStream::new(h.server.clone())),
        acl_client,
        h.root.clone(),
    )
    .expect("authorized session")
}

fn proxy_probes(p: &mut Probes, world: &GridWorld, h: &Host) {
    let proxy = server_proxy(world, h, false);
    let getattr = call_record(1, procnum::GETATTR, &h.big);
    p.time("proxy.server.getattr_ns", 0, || {
        black_box(proxy.process_one(&getattr).expect("GETATTR via proxy"));
    });
    let read = call_record(
        2,
        procnum::READ,
        &ReadArgs {
            file: h.big.clone(),
            offset: 0,
            count: BULK as u32,
        },
    );
    p.time("proxy.server.read_32k_ns", 0, || {
        black_box(proxy.process_one(&read).expect("READ via proxy"));
    });
    // ACCESS under fine-grained ACLs: the directory carries an ACL that
    // grants the user, so the proxy resolves and evaluates it.
    let proxy = server_proxy(world, h, true);
    let mut acl = sgfs::acl::Acl::new();
    acl.grant(world.user_dn(), 0x3f);
    proxy
        .set_acl(&h.root, Some("big"), &acl)
        .expect("ACL installed");
    let access = call_record(
        3,
        procnum::ACCESS,
        &AccessArgs {
            object: h.big.clone(),
            access: 0x3f,
        },
    );
    p.time("proxy.server.access_acl_ns", 0, || {
        black_box(proxy.process_one(&access).expect("ACCESS via proxy"));
    });
}

fn cache_probes(p: &mut Probes, h: &Host, bulk: &[u8], scratch: &std::path::Path) {
    let key = |i: u64| (h.big.clone(), (i % 32) * BULK as u64);
    let mut i = 0u64;
    let mut mem = MemStore::new(64 << 20);
    p.time("proxy.blockstore.mem_put_32k_ns", 0, || {
        i += 1;
        mem.put(key(i), bulk, false).expect("mem put");
    });
    // A short put probe may not have reached every key the get probe asks for.
    for k in 0..32 {
        mem.put(key(k), bulk, false).expect("mem put");
    }
    p.time("proxy.blockstore.mem_get_32k_ns", 0, || {
        i += 1;
        black_box(mem.get(&key(i)).expect("resident block"));
    });
    let mut disk = DiskStore::new(scratch.join("probe-spool")).expect("spool directory");
    p.time("proxy.blockstore.disk_put_32k_ns", 0, || {
        i += 1;
        disk.put(key(i), bulk, true).expect("disk put");
    });
    for k in 0..32 {
        disk.put(key(k), bulk, true).expect("disk put");
    }
    p.time("proxy.blockstore.disk_get_32k_ns", 0, || {
        i += 1;
        black_box(disk.get(&key(i)).expect("spooled block"));
    });
    drop(disk);
    let dir = scratch.join("probe-journal");
    std::fs::create_dir_all(&dir).expect("journal directory");
    let mut journal =
        Journal::open(&dir, DurabilityPolicy::default(), &[], 0).expect("journal opens");
    p.time("proxy.journal.append_ns", 0, || {
        i += 1;
        journal
            .record_put(&key(i), BULK as u32, true)
            .expect("journal append");
    });
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
}

fn client_probes(p: &mut Probes, h: &Host) {
    let clock = SimClock::new();
    let mut mount = NfsMount::new(
        loopback_client(&h.server),
        h.root.clone(),
        MountOptions::new(clock),
    );
    let fd = mount.open("/big", OpenFlags::rdonly(), 0).expect("open");
    while !mount
        .read(fd, 256 * 1024)
        .expect("fill the page cache")
        .is_empty()
    {}
    let mut at = 0u64;
    p.time("nfsclient.cached_read_32k_ns", 0, || {
        at = (at + BULK as u64) % (1 << 20);
        black_box(mount.pread(fd, at, BULK).expect("cached read"));
    });
    p.time("nfsclient.cached_stat_ns", 0, || {
        black_box(mount.stat("/big").expect("cached stat"));
    });
    let obs = Obs::new();
    p.time("obs.emit_ns", 0, || {
        obs.emit(Hop::Seal, 1, procnum::READ, 0)
    });
}

/// Number of probes; the budget is split evenly between them.
pub const COUNT: usize = 47;

/// Run every probe, spending about `budget` in total. `scratch` is a
/// directory the block-store probes may spool into.
pub fn run_all(budget: Duration, seed: u64, scratch: &std::path::Path) -> Vec<Metric> {
    let mut p = Probes {
        slice: budget / COUNT as u32,
        out: Vec::with_capacity(COUNT),
    };
    let world = GridWorld::new();
    let h = host(seed);
    let (small, bulk) = (seeded(seed ^ 1, SMALL), seeded(seed ^ 2, BULK));
    codec_probes(&mut p, &h, &bulk);
    rpc_probes(&mut p, &h, &small, &bulk);
    net_probes(&mut p, &small, &bulk);
    crypto_probes(&mut p, &world, &bulk);
    gtls_probes(&mut p, &world, &small, &bulk);
    vfs_probes(&mut p, &h, &bulk);
    nfsd_probes(&mut p, &h, &bulk);
    proxy_probes(&mut p, &world, &h);
    cache_probes(&mut p, &h, &bulk, scratch);
    client_probes(&mut p, &h);
    debug_assert_eq!(p.out.len(), COUNT);
    p.out
}
