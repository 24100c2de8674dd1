//! One metrics plane: every event of a session's data plane is emitted
//! once, through its layer's `Emitter`, and that one emission is what the
//! counter table, the trace ring and the typed accessors all show. So the
//! views cannot disagree, and turning tracing off cannot change a count.
//!
//! One fixed script (create, write, stat twice, a cold sequential read of
//! a preloaded file, `finish()`) runs over a 40 ms sgfs-gcm disk-cache
//! session twice: in a tracing domain and with `params.obs = None`.

use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind};
use sgfs_nfsclient::OpenFlags;
use sgfs_obs::{proc_name, Obs, TraceEvent, ALL_HOPS};
use sgfs_oncrpc::ShardServer;
use sgfs_vfs::UserContext;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const BLOCK: usize = 32 * 1024;
const BLOCKS: usize = 8;

type Rows = BTreeMap<String, u64>;

/// What one run of the script left behind.
struct Run {
    /// The exported counters, per emitter.
    counters: BTreeMap<String, Rows>,
    events: Vec<TraceEvent>,
    /// What the typed accessors said, row name → value.
    accessors: Rows,
    shard_served: u64,
}

impl Run {
    fn client(&self) -> &Rows {
        let mut clients = self.counters.iter().filter(|(name, _)| name.starts_with("client#"));
        let (_, rows) = clients.next().expect("the session's client proxy");
        assert!(clients.next().is_none(), "one client proxy per session");
        rows
    }
}

fn run_script(obs: Option<Arc<Obs>>) -> Run {
    let world = GridWorld::new();
    let kind = SetupKind::Sgfs(SecurityLevel::AeadCipher);
    let mut params = SessionParams::wan(kind, Duration::from_millis(40));
    // The traced run puts the shard core in the same domain, so its
    // accepts and handoffs are cross-checked too.
    let shards = match &obs {
        Some(obs) => ShardServer::with_obs(2, obs.clone()),
        None => ShardServer::new(2),
    };
    params.shard_server = Some(shards.clone());
    params.obs = obs;
    let mut session = Session::build(&world, &params).expect("WAN session");
    let domain = session.obs().clone();
    let stats = session.client_proxy_stats().expect("proxied stack").clone();

    let vfs = session.server().vfs().clone();
    let root = UserContext::root();
    let dir = vfs.mkdir_p("/GFS", 0o755, &root).expect("export root");
    let scan = vfs.create(dir.ino, "scan.bin", 0o644, false, &root).expect("create");
    let data: Vec<u8> = (0..BLOCKS * BLOCK).map(|i| (i / BLOCK) as u8 ^ (i % 251) as u8).collect();
    vfs.write(scan.ino, 0, &data, &root).expect("preload");

    let mount = &mut session.mount;
    mount.write_file("/new.txt", b"counted once").expect("create + write");
    mount.stat("/new.txt").expect("stat");
    mount.stat("/new.txt").expect("stat again");
    let fd = mount.open("/scan.bin", OpenFlags::rdonly(), 0).expect("open");
    for want in data.chunks(BLOCK) {
        assert_eq!(mount.read(fd, BLOCK).expect("read"), want);
    }
    mount.close(fd).expect("close");

    let (report, inspected) = session
        .finish_with(|proxy| (proxy.cache_stats(), proxy.forwarded_by_proc()))
        .expect("teardown");
    let (cache, forwarded) = inspected.expect("proxied stack");
    assert_eq!(report.proxy_cache, Some(cache));

    let mut accessors = Rows::from([
        ("cache_hit".to_string(), cache.0),
        ("cache_miss".to_string(), cache.1),
        ("prefetch_hits".to_string(), stats.prefetch_hits()),
        ("messages".to_string(), stats.messages()),
        ("journal_append".to_string(), stats.journal_appends()),
        ("reconnect".to_string(), stats.reconnects()),
        ("pipeline_peak".to_string(), stats.pipeline_peak()),
    ]);
    for (p, n) in forwarded.into_iter().enumerate().filter(|(_, n)| *n > 0) {
        accessors.insert(format!("forwarded_{}", proc_name(p as u32)), n);
    }
    // Quiesced: the mount is gone, the proxy flushed and dropped.
    let (events, dropped) = domain.events();
    assert_eq!(dropped, 0);
    Run {
        counters: domain.snapshot(0).counters,
        events,
        accessors,
        shard_served: shards.stats().served,
    }
}

#[test]
fn one_emission_feeds_the_counter_the_trace_and_the_accessors() {
    let traced = run_script(Some(Obs::new()));
    let untraced = run_script(None);

    // (a) Counted == traced, hop by hop, summed over every emitter of the
    // domain (the client proxy and both shards).
    assert!(traced.counters.len() >= 3, "emitters: {:?}", traced.counters.keys());
    for hop in ALL_HOPS {
        let counted: u64 = traced.counters.values().map(|rows| rows[hop.as_str()]).sum();
        let in_ring = traced.events.iter().filter(|e| e.hop == hop).count() as u64;
        assert_eq!(counted, in_ring, "{}: counted != traced", hop.as_str());
    }
    // The script exercised the plane it checks.
    let client = traced.client();
    for row in ["cache_hit", "cache_miss", "upstream_send", "record_seal", "block_write"] {
        assert!(client[row] > 0, "{row} never fired");
    }
    assert!(client["prefetch_hits"] > 0, "the cold scan was read ahead");
    assert!(untraced.events.is_empty(), "a session without a domain traces nothing");

    // (b) Tracing off changes no count: the client tables agree row for
    // row. Not counts, and so left out: the wall-clock nanosecond sums,
    // and the window's high-water mark — how many of a batch's calls are
    // admitted before its first reply lands is a race between two
    // threads, not a property of the script.
    let counts = |rows: &Rows| -> Rows {
        let timing = |name: &str| name.ends_with("_ns") || name == "pipeline_peak";
        rows.iter().filter(|(name, _)| !timing(name)).map(|(k, v)| (k.clone(), *v)).collect()
    };
    assert_eq!(counts(traced.client()), counts(untraced.client()));

    // (c) The typed accessors are reads of the same table.
    for run in [&traced, &untraced] {
        let client = run.client();
        for (row, value) in &run.accessors {
            assert_eq!(client.get(row), Some(value), "accessor vs table row {row}");
        }
        let forwarded_rows = client.keys().filter(|k| k.starts_with("forwarded_")).count();
        let forwarded_seen = run.accessors.keys().filter(|k| k.starts_with("forwarded_")).count();
        assert_eq!(forwarded_rows, forwarded_seen, "a forwarded procedure the accessor missed");
    }
    let served: u64 = traced
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("shard#"))
        .map(|(_, rows)| rows["served"])
        .sum();
    assert_eq!(served, traced.shard_served);
    assert_eq!(traced.shard_served, untraced.shard_served, "same script, same upstream calls");
}
