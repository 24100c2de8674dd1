//! Properties of the pipelined upstream channel.
//!
//! 1. Reply *order* is irrelevant: whatever permutation the wire delivers,
//!    the xid demultiplexer hands every caller a reply byte-identical to
//!    what the serial (window = 1, FIFO) protocol produces.
//! 2. Write-back ordering: a flush submits its WRITEs split-phase, waits
//!    for every reply, and only then sends COMMIT — so the server always
//!    observes all of a file's data before the commit point, no matter
//!    how deep the window.

use proptest::prelude::*;
use sgfs::config::{CacheMode, SecurityLevel, SessionConfig};
use sgfs::proxy::client::{ClientProxy, Upstream};
use sgfs::proxy::pipeline::Pipeline;
use sgfs_net::pipe_pair;
use sgfs_nfs3::proc::{procnum, CommitRes, GetAttrRes, WriteArgs, WriteRes};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_obs::Emitter;
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, ReplyHeader};
use sgfs_oncrpc::msg::AuthSysParams;
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::sync::{Arc, Mutex};

/// Deterministic Fisher–Yates from a SplitMix64 stream.
fn permute<T>(items: &mut [T], seed: u64) {
    let mut s = seed;
    for i in (1..items.len()).rev() {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// The mock server's deterministic request → reply transformation:
/// same xid, then `ok:` and the payload reversed.
fn transform(request: &[u8]) -> Vec<u8> {
    let mut reply = request[0..4].to_vec();
    reply.extend_from_slice(b"ok:");
    reply.extend(request[4..].iter().rev());
    reply
}

/// Serve `total` records in batches of `batch`, replying to each batch in
/// an order drawn from `seed` (batch = 1 ⇒ FIFO, i.e. the serial server).
fn permuting_server(mut end: sgfs_net::PipeEnd, total: usize, batch: usize, seed: u64) {
    std::thread::spawn(move || {
        let mut served = 0;
        while served < total {
            let take = batch.min(total - served);
            let mut held = Vec::with_capacity(take);
            for _ in 0..take {
                match read_record(&mut end) {
                    Ok(Some(r)) => held.push(r),
                    _ => return,
                }
            }
            permute(&mut held, seed.wrapping_add(served as u64));
            for r in &held {
                if write_record(&mut end, &transform(r)).is_err() {
                    return;
                }
            }
            served += take;
        }
    });
}

fn run_calls(p: &Pipeline, payloads: &[Vec<u8>]) -> Vec<std::io::Result<Vec<u8>>> {
    let records: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| {
            let mut record = (0x4000_0000u32 + i as u32).to_be_bytes().to_vec();
            record.extend_from_slice(payload);
            record
        })
        .collect();
    // Atomic batch: all admitted before any reply is awaited, so the
    // batching permuting server can hold a whole window's replies back.
    p.submit_batch(records).into_iter().map(|r| r.wait()).collect()
}

proptest! {
    #[test]
    fn permuted_replies_are_byte_identical_to_serial(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256),
            1..10,
        ),
        seed: u64,
    ) {
        let n = payloads.len();

        // Serial reference: window 1 against a FIFO server.
        let (c1, s1) = pipe_pair();
        permuting_server(s1, n, 1, 0);
        let w1 = c1.watch();
        let serial =
            Pipeline::new(Upstream::Plain(Box::new(c1)), w1, 1, None, Emitter::detached("client"));
        let serial_replies = run_calls(&serial, &payloads);

        // Pipelined: the whole batch in flight, replies permuted by seed.
        let (c2, s2) = pipe_pair();
        permuting_server(s2, n, n, seed);
        let w2 = c2.watch();
        let piped = Pipeline::new(
            Upstream::Plain(Box::new(c2)),
            w2,
            n as u32,
            None,
            Emitter::detached("client"),
        );
        let piped_replies = run_calls(&piped, &payloads);

        for (i, (a, b)) in serial_replies.iter().zip(&piped_replies).enumerate() {
            let a = a.as_ref().expect("serial reply");
            let b = b.as_ref().expect("pipelined reply");
            prop_assert_eq!(a, b, "call {} diverged from the serial protocol", i);
        }
    }
}

// ---------------------------------------------------------------------
// COMMIT ordering under split-phase write-back.
// ---------------------------------------------------------------------

fn base_attr(size: u64) -> Fattr3 {
    Fattr3 {
        ftype: FType3::Reg,
        mode: 0o644,
        nlink: 1,
        uid: 1001,
        gid: 1001,
        size,
        used: size,
        fsid: 1,
        fileid: 42,
        atime: NfsTime3 { seconds: 1, nseconds: 0 },
        mtime: NfsTime3 { seconds: 1, nseconds: 0 },
        ctime: NfsTime3 { seconds: 1, nseconds: 0 },
    }
}

fn reply_bytes<T: XdrEncode>(xid: u32, res: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(256);
    ReplyHeader::success(xid).encode(&mut enc);
    res.encode(&mut enc);
    enc.into_bytes()
}

/// A mock NFS server that logs arriving procedure numbers. During the
/// flush phase it *holds* up to `hold` WRITE replies back, so the test
/// deadlocks unless the proxy really submits its WRITEs split-phase
/// (all in flight before the first reply is consumed).
fn ordering_server(
    mut end: sgfs_net::PipeEnd,
    hold: usize,
    log: Arc<Mutex<Vec<u32>>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut held: Vec<(u32, Vec<u8>)> = Vec::new();
        loop {
            let record = match read_record(&mut end) {
                Ok(Some(r)) => r,
                _ => return,
            };
            let mut dec = XdrDecoder::new(&record);
            let header = CallHeader::decode(&mut dec).expect("mock server: call header");
            log.lock().unwrap().push(header.proc);
            let reply = match header.proc {
                procnum::GETATTR => reply_bytes(
                    header.xid,
                    &GetAttrRes { status: NfsStat3::Ok, attr: Some(base_attr(0)) },
                ),
                procnum::WRITE => {
                    let args =
                        WriteArgs::from_xdr_bytes(&record[dec.position()..]).expect("write args");
                    let res = WriteRes {
                        status: NfsStat3::Ok,
                        wcc: WccData { before: None, after: Some(base_attr(args.offset)) },
                        count: args.data.len() as u32,
                        committed: StableHow::FileSync,
                        verf: 7,
                    };
                    held.push((header.xid, res.to_xdr_bytes()));
                    // Release the held batch only once `hold` WRITEs are
                    // all in flight: a serial flusher would deadlock here.
                    if held.len() >= hold {
                        for (xid, body) in held.drain(..) {
                            let mut enc = XdrEncoder::with_capacity(body.len() + 32);
                            ReplyHeader::success(xid).encode(&mut enc);
                            let mut out = enc.into_bytes();
                            out.extend_from_slice(&body);
                            if write_record(&mut end, &out).is_err() {
                                return;
                            }
                        }
                    }
                    continue;
                }
                procnum::COMMIT => {
                    assert!(
                        held.is_empty(),
                        "COMMIT arrived while WRITE replies were still outstanding"
                    );
                    reply_bytes(
                        header.xid,
                        &CommitRes {
                            status: NfsStat3::Ok,
                            wcc: WccData { before: None, after: Some(base_attr(0)) },
                            verf: 7,
                        },
                    )
                }
                other => panic!("mock server: unexpected proc {other}"),
            };
            if write_record(&mut end, &reply).is_err() {
                return;
            }
        }
    })
}

fn commit_ordering_case(blocks: usize, block_len: usize) {
    let (upstream_end, server_end) = pipe_pair();
    let log = Arc::new(Mutex::new(Vec::new()));
    let _server = ordering_server(server_end, blocks, log.clone());

    let mut config = SessionConfig::new(SecurityLevel::None);
    config.cache = CacheMode::MemoryMeta;
    config.window = 8;
    let watch = upstream_end.watch();
    let mut proxy = ClientProxy::new(Upstream::Plain(Box::new(upstream_end)), watch, &config)
        .expect("proxy");
    let stats = proxy.stats().clone();

    // Drive WRITEs through the downstream interface (absorbed into the
    // write-back cache, acknowledged locally).
    let fh = Fh3::from_ino(1, 42);
    let cred = OpaqueAuth::sys(&AuthSysParams::new("test-host", 1001, 1001));
    for i in 0..blocks {
        let args = WriteArgs {
            file: fh.clone(),
            offset: (i * block_len) as u64,
            stable: StableHow::Unstable,
            data: vec![i as u8; block_len],
        };
        let header = CallHeader {
            xid: 0x100 + i as u32,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc: procnum::WRITE,
            cred: cred.clone(),
            verf: OpaqueAuth::none(),
        };
        let mut enc = XdrEncoder::with_capacity(block_len + 128);
        header.encode(&mut enc);
        args.encode(&mut enc);
        let reply = proxy.process_one(enc.as_bytes()).expect("local WRITE ack");
        let mut dec = XdrDecoder::new(&reply);
        let _ = ReplyHeader::decode(&mut dec).expect("reply header");
        let res = WriteRes::from_xdr_bytes(&reply[dec.position()..]).expect("write res");
        assert_eq!(res.status, NfsStat3::Ok, "block {i} not absorbed");
    }

    // The flush: WRITE × blocks split-phase, then COMMIT.
    proxy.flush_all().expect("flush");

    let log = log.lock().unwrap().clone();
    let writes: Vec<usize> =
        (0..log.len()).filter(|&i| log[i] == procnum::WRITE).collect();
    let commits: Vec<usize> =
        (0..log.len()).filter(|&i| log[i] == procnum::COMMIT).collect();
    assert_eq!(writes.len(), blocks, "every dirty block written back: {log:?}");
    assert_eq!(commits.len(), 1, "exactly one COMMIT: {log:?}");
    assert!(
        writes.iter().all(|&w| w < commits[0]),
        "COMMIT must come after every WRITE: {log:?}"
    );
    if blocks > 1 {
        assert!(
            stats.pipeline_peak() >= blocks as u64,
            "all {} WRITEs should have been in flight together, peak {}",
            blocks,
            stats.pipeline_peak()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn commit_waits_for_all_inflight_writes(
        blocks in 1usize..=8,
        block_len in prop_oneof![Just(512usize), Just(1024), Just(4096)],
    ) {
        commit_ordering_case(blocks, block_len);
    }
}
