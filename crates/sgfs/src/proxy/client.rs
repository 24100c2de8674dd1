//! The client-side SGFS proxy.
//!
//! Exposes plain NFS RPC to the local kernel client and forwards it over
//! the session's (optionally GTLS-protected) channel. Its distinguishing
//! feature is the per-session cache (§6.1 "aggressive disk caching of
//! attributes, access permissions and data"):
//!
//! * **attributes / access / lookup / readdir** results are cached in
//!   memory for the session (the session is single-user, so no
//!   cross-client coherence is needed — the paper defers shared-session
//!   consistency to application-tailored protocols);
//! * **data blocks** are cached in a [`BlockStore`] (on local disk for the
//!   WAN configuration, in memory for the SFS-style daemon);
//! * **writes are write-back**: WRITE is absorbed into the dirty cache
//!   and acknowledged immediately; dirty blocks flush on COMMIT and at
//!   session teardown, and blocks of files removed before flushing are
//!   simply dropped — which is exactly how the paper's Seismic run avoids
//!   shipping temporary files across the WAN;
//! * the upstream channel is **pipelined**: a [`Pipeline`] owns the
//!   connection and keeps up to a window of calls in flight, demultiplexing
//!   replies by xid — the write-back flush submits every dirty block
//!   before waiting, and **read-ahead** READs are submitted split-phase
//!   into the same channel from the demand path instead of a second
//!   connection (and second handshake), reproducing SFS's
//!   asynchronous-RPC advantage;
//! * the upstreams are a [`StripeSet`]: one member for the paper's
//!   single-server session, several when the DSS places the session
//!   across file servers. There is one data path — routing, flush round,
//!   read-ahead — for every width; what a placement where *some
//!   member lacks some block* additionally needs hangs off
//!   [`StripeMap::is_partial`] alone (DESIGN.md §16);
//! * the proxy has **no thread of its own**: [`ClientProxy::process_one`]
//!   turns one request record into one reply record on the caller's
//!   thread — the kernel client's synchronous loop-back RPC — and
//!   [`SharedClientProxy`] exposes it as a [`RecordService`] so a
//!   [`LoopbackStream`](sgfs_oncrpc::LoopbackStream) (or a shard) can
//!   drive it (DESIGN.md §15).

use crate::config::{CacheMode, HopCost, RetryPolicy, SessionConfig, StripePolicy};
use crate::proxy::blockstore::{BlockStore, DiskStore, MemStore};
use crate::proxy::pipeline::{PendingReply, Pipeline};
use crate::proxy::stripe::{StripeMap, StripeSet};
use parking_lot::Mutex;
use sgfs_gtls::GtlsStream;
use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::{AcceptStat, CallHeader, OpaqueAuth, RecordService, ReplyHeader};
use sgfs_net::{BoxStream, CrashInjector, CrashPoint};
use sgfs_obs::{Counter, Emitter, Gauge, Hop, NO_PROC};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// The channel to the server-side proxy.
pub enum Upstream {
    /// Unprotected (the `gfs` baseline and the tunneled `gfs-ssh` path,
    /// where protection lives in the tunnel).
    Plain(BoxStream),
    /// GTLS-protected (all `sgfs-*` configurations and the SFS analog).
    Tls(Box<GtlsStream>),
}

impl Upstream {
    pub(crate) fn stream(&mut self) -> &mut dyn sgfs_net::Stream {
        match self {
            Upstream::Plain(s) => s,
            Upstream::Tls(t) => t.as_mut(),
        }
    }
}

/// One read-ahead block of the landing zone.
enum Prefetch {
    /// READ submitted to this member; the reply has not been collected.
    Pending(usize, PendingReply),
    /// Confirmed data, waiting for its demand READ.
    Landed(Vec<u8>),
}

/// One stripe-set member as handed to [`ClientProxy::with_stripe`]: the
/// established upstream channel, the watch over its raw transport, and an
/// optional reconnector for per-member failover.
pub type StripeUpstream =
    (Upstream, sgfs_net::PipeWatch, Option<Box<dyn crate::proxy::retry::Reconnector>>);

struct MetaCache {
    attrs: HashMap<Fh3, Fattr3>,
    /// Per (file, uid): (mask of bits ever checked upstream, granted
    /// bits within that mask). A request is only served from cache when
    /// every bit it asks about has actually been checked — granted bits
    /// say nothing about bits the server was never asked to evaluate.
    access: HashMap<(Fh3, u32), (u32, u32)>,
    lookups: HashMap<(Fh3, String), (Fh3, Option<Fattr3>)>,
    /// Raw READDIR/READDIRPLUS result bodies keyed (dir, cookie, plus?).
    readdirs: HashMap<(Fh3, u64, bool), Vec<u8>>,
}

impl MetaCache {
    fn new() -> Self {
        Self {
            attrs: HashMap::new(),
            access: HashMap::new(),
            lookups: HashMap::new(),
            readdirs: HashMap::new(),
        }
    }

    fn invalidate_dir(&mut self, dir: &Fh3) {
        self.readdirs.retain(|(d, _, _), _| d != dir);
        self.attrs.remove(dir);
    }

    fn invalidate_fh(&mut self, fh: &Fh3) {
        self.attrs.remove(fh);
        self.access.retain(|(f, _), _| f != fh);
        self.lookups.retain(|_, (f, _)| f != fh);
    }
}

/// The client-side proxy for one SGFS session.
pub struct ClientProxy {
    /// The session's upstreams: the placement map plus one pipelined
    /// channel per member. A single-upstream session is the stripe set
    /// of one.
    stripe: StripeSet,
    store: Option<Box<dyn BlockStore>>,
    meta_enabled: bool,
    meta: MetaCache,
    stats: Emitter,
    next_xid: u32,
    client_cred: OpaqueAuth,
    /// Monotonic synthesized mtime for locally acknowledged writes.
    synth_mtime: u64,
    write_verf: u64,
    /// The sequential readers being run ahead of, each with its horizon
    /// and its landing zone. A WRITE, a resize or a REMOVE forgets its
    /// file's reader (what was read ahead predates the change).
    prefetch_gov: PrefetchGovernor,
    /// Set by a controller to request key renegotiation between requests.
    rekey_requested: Arc<std::sync::atomic::AtomicBool>,
    /// Virtual per-hop forwarding cost, charged to the testbed clock.
    clock: Option<Arc<sgfs_net::SimClock>>,
    hop: HopCost,
    /// Kill-point injector for the crash harness (None in production).
    crash: Option<Arc<CrashInjector>>,
    /// Per-member blocks a down member missed while out of the write
    /// set; [`resync_member`](Self::resync_member) replays them from the
    /// store before the member rejoins.
    missed: Vec<HashSet<(Fh3, u64)>>,
    /// Per-member reconnectors, shared with the member pipelines, so a
    /// re-sync can dial a rejoined host afresh after the old pipeline
    /// exhausted its reconnect budget and went terminal.
    redial: Vec<Option<SharedReconnector>>,
    /// What a member channel is built from — at assembly, and again when
    /// a re-sync re-dials a rejoined host.
    channels: ChannelParams,
}

/// A reconnector both a member pipeline and the proxy's re-sync path can
/// dial through.
type SharedReconnector = Arc<Mutex<Box<dyn crate::proxy::retry::Reconnector>>>;

/// The pipeline parameters every member channel shares.
struct ChannelParams {
    stats: Emitter,
    window: u32,
    rekey_every: Option<u64>,
    retry: RetryPolicy,
}

impl ChannelParams {
    /// Pipeline one established member channel. The pipeline dials
    /// through `redial` for transient blips.
    fn open(
        &self,
        mut upstream: Upstream,
        watch: sgfs_net::PipeWatch,
        redial: Option<&SharedReconnector>,
    ) -> Pipeline {
        if let Upstream::Tls(t) = &mut upstream {
            // Attribute record crypto to this proxy's CPU account. The
            // stream's own auto-rekey stays off: a transparent mid-window
            // renegotiation would interleave handshake records with
            // in-flight DATA replies, so the pipeline tracks the
            // rekey-every threshold itself and rekeys at quiesce points.
            t.obs = Some(self.stats.clone());
        }
        let reconnector = redial.map(|shared| {
            let shared = shared.clone();
            Box::new(move |attempt: u32| shared.lock().reconnect(attempt))
                as Box<dyn crate::proxy::retry::Reconnector>
        });
        Pipeline::with_recovery(
            upstream,
            watch,
            self.window,
            self.rekey_every,
            self.stats.clone(),
            reconnector,
            self.retry,
        )
    }
}

/// Sequential readers tracked at once; one more forgets the least
/// recently seen, landing zone included.
const STREAMS: usize = 4;

/// One sequential reader and the read-ahead running in front of it.
struct Stream {
    file: Fh3,
    /// The previous READ's end: a READ landing here continues the stream.
    next: u64,
    /// First offset nothing has asked upstream for yet.
    frontier: u64,
    /// The reader reaching this offset issues the next batch: the middle
    /// of the previous one, so the wire refills before the landing zone
    /// runs dry.
    trigger: u64,
    /// Blocks the last batch asked for, which the next one doubles (0 =
    /// none since the reader was first seen or last sought).
    horizon: u32,
    /// The landing zone: this reader's blocks on the wire and landed but
    /// not yet demanded — at most a batch and the unread half of the one
    /// before it.
    zone: Vec<(u64, Prefetch)>,
}

/// The one owner of read-ahead policy: which READs belong to a sequential
/// stream, how far ahead of each the proxy may ask, and what has been
/// asked for. A stream's horizon ramps 1 → 2 → 4 → … up to the ceiling,
/// one doubling per batch; a seek collapses it to 0 and drops the zone; a
/// JUKEBOX'd prefetch halves it — speculative traffic is the first load
/// an overloaded server wants gone — and the ramp grows it back once the
/// server stops shedding.
struct PrefetchGovernor {
    /// Ceiling of every horizon, in blocks (0 = read-ahead off).
    cap: u32,
    /// Least recently seen first.
    streams: VecDeque<Stream>,
}

impl PrefetchGovernor {
    fn new(cap: u32) -> Self {
        Self { cap, streams: VecDeque::new() }
    }

    fn stream(&mut self, file: &Fh3) -> Option<&mut Stream> {
        self.streams.iter_mut().find(|s| s.file == *file)
    }

    /// Account the READ of `count` bytes at `offset` of `file` (`size`
    /// bytes long) and return the byte range, in `count` steps, of the
    /// batch it triggers. A READ continues a stream at the previous
    /// READ's end and starts one at offset 0 of a file longer than one
    /// block; anything else is a seek. No batch reaches `size`.
    fn on_read(&mut self, file: &Fh3, offset: u64, count: u32, size: u64) -> Range<u64> {
        let end = offset.saturating_add(count as u64);
        if self.cap == 0 || count == 0 {
            return 0..0;
        }
        let mut stream = match self.streams.iter().position(|s| s.file == *file) {
            Some(at) => self.streams.remove(at).expect("position is in range"),
            // Nothing behind this READ to run ahead to: not worth a slot.
            None if end >= size => return 0..0,
            None => {
                if self.streams.len() == STREAMS {
                    self.streams.pop_front();
                }
                // No READ ends at `u64::MAX`: a new reader arrives by seek.
                Stream {
                    file: file.clone(),
                    next: u64::MAX,
                    frontier: 0,
                    trigger: 0,
                    horizon: 0,
                    zone: Vec::new(),
                }
            }
        };
        let continues = stream.next == offset;
        if !continues {
            stream.zone.clear();
            stream.horizon = 0;
            stream.frontier = end;
            stream.trigger = end;
        }
        stream.next = end;
        let mut batch = 0..0;
        let start = stream.frontier.max(end);
        if (continues || offset == 0) && end >= stream.trigger && start < size {
            stream.horizon = (stream.horizon * 2).clamp(1, self.cap);
            let stop = size.min(start.saturating_add(stream.horizon as u64 * count as u64));
            let blocks = (stop - start).div_ceil(count as u64);
            stream.frontier = start + blocks * count as u64;
            stream.trigger = start + blocks / 2 * count as u64;
            batch = start..stop;
        }
        self.streams.push_back(stream);
        batch
    }

    /// Take `key`'s slot out of its file's landing zone.
    fn take(&mut self, key: &(Fh3, u64)) -> Option<Prefetch> {
        let zone = &mut self.stream(&key.0)?.zone;
        let at = zone.iter().position(|(offset, _)| *offset == key.1)?;
        Some(zone.swap_remove(at).1)
    }

    /// Multiplicative decrease: the server shed a prefetch READ of `file`.
    /// Halving rounds up, so pushback alone never turns read-ahead off.
    fn on_jukebox(&mut self, file: &Fh3) {
        if let Some(stream) = self.stream(file) {
            stream.horizon -= stream.horizon / 2;
        }
    }

    /// Forget `file`'s reader and everything read ahead for it.
    fn forget(&mut self, file: &Fh3) {
        self.streams.retain(|s| s.file != *file);
    }
}

/// External handle for dynamic reconfiguration of a live proxy.
#[derive(Clone)]
pub struct ClientProxyController {
    rekey_requested: Arc<std::sync::atomic::AtomicBool>,
}

impl ClientProxyController {
    /// Request an SSL renegotiation before the next forwarded request —
    /// the paper's "force a SSL-renegotiation and refresh the session key".
    pub fn request_rekey(&self) {
        self.rekey_requested.store(true, std::sync::atomic::Ordering::Release);
    }
}

/// A [`ClientProxy`] as a [`RecordService`]. The lock is uncontended in
/// a session — one mount drives the proxy, and teardown comes after the
/// last call — it only turns the service's `&self` into the proxy's
/// `&mut self`.
pub struct SharedClientProxy(Mutex<ClientProxy>);

impl SharedClientProxy {
    /// Exclusive access to the proxy between requests.
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, ClientProxy> {
        self.0.lock()
    }
}

impl RecordService for SharedClientProxy {
    fn process_record(&self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        self.lock().process_one(record)
    }
}

impl ClientProxy {
    /// Build a proxy over an established upstream channel, configured per
    /// the session's [`CacheMode`] and read-ahead depth. `watch` must
    /// observe the raw transport under `upstream`. Without a
    /// reconnector, any upstream transport error remains terminal.
    pub fn new(
        upstream: Upstream,
        watch: sgfs_net::PipeWatch,
        config: &SessionConfig,
    ) -> std::io::Result<Self> {
        Self::with_reconnector(upstream, watch, config, None)
    }

    /// Like [`new`](Self::new), but able to survive transient upstream
    /// failures: the pipeline re-dials through `reconnector` under
    /// `config.retry` and replays idempotent in-flight calls.
    pub fn with_reconnector(
        upstream: Upstream,
        watch: sgfs_net::PipeWatch,
        config: &SessionConfig,
        reconnector: Option<Box<dyn crate::proxy::retry::Reconnector>>,
    ) -> std::io::Result<Self> {
        Self::with_stripe(vec![(upstream, watch, reconnector)], config)
    }

    /// Build a proxy placed across its upstream members per
    /// `config.stripe` (`None` = the width-1 placement): file blocks
    /// stripe across the members by block index, dirty blocks replicate
    /// to every mapped member, and each member fails over independently
    /// through its own reconnector. One upstream is simply the stripe set
    /// of one — every width runs the same data path.
    pub fn with_stripe(
        upstreams: Vec<StripeUpstream>,
        config: &SessionConfig,
    ) -> std::io::Result<Self> {
        let map = StripeMap::new(config.stripe.unwrap_or(StripePolicy::striped(1)));
        if map.width() as usize != upstreams.len() {
            return Err(std::io::Error::other(format!(
                "stripe width {} != upstream count {}",
                map.width(),
                upstreams.len()
            )));
        }
        let obs = config.obs.clone().unwrap_or_else(sgfs_obs::Obs::disabled);
        let stats = Emitter::new(&obs, "client");
        let (store, meta_enabled): (Option<Box<dyn BlockStore>>, bool) = match &config.cache {
            CacheMode::None => (None, false),
            CacheMode::MemoryMeta => {
                // SFS-style: metadata aggressively cached; data blocks only
                // via read-ahead, held in a bounded memory store.
                (Some(Box::new(MemStore::new(64 * 1024 * 1024))), true)
            }
            CacheMode::Disk { dir } => {
                // Crash-consistent disk cache: recover the previous
                // incarnation's journal (re-marking survivors dirty)
                // before serving the first call, then journal new state.
                let (store, _report) = DiskStore::with_durability(
                    dir.clone(),
                    config.durability,
                    stats.clone(),
                    config.crash.clone(),
                )?;
                (Some(Box::new(store)), true)
            }
        };
        let channels = ChannelParams {
            stats: stats.clone(),
            window: config.window,
            rekey_every: config.rekey_every_records,
            retry: config.retry,
        };
        let mut pipelines = Vec::with_capacity(upstreams.len());
        let mut redial = Vec::with_capacity(upstreams.len());
        for (upstream, watch, reconnector) in upstreams {
            // Keep a handle on the reconnector: the pipeline dials
            // through it for transient blips, and `resync_member` dials
            // through it again when a rejoined host needs a fresh
            // channel after the pipeline's budget ran out.
            let shared = reconnector.map(|r| Arc::new(Mutex::new(r)) as SharedReconnector);
            pipelines.push(channels.open(upstream, watch, shared.as_ref()));
            redial.push(shared);
        }
        Ok(Self {
            stripe: StripeSet::new(map, pipelines),
            store,
            meta_enabled,
            meta: MetaCache::new(),
            stats,
            next_xid: 0x7000_0000,
            client_cred: OpaqueAuth::none(),
            synth_mtime: 1,
            write_verf: rand::random(),
            prefetch_gov: PrefetchGovernor::new(config.readahead),
            rekey_requested: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            clock: None,
            hop: HopCost::free(),
            crash: config.crash.clone(),
            missed: vec![HashSet::new(); redial.len()],
            redial,
            channels,
        })
    }

    /// The session's upstream set (one member for a single-upstream
    /// session).
    pub fn stripe(&self) -> &StripeSet {
        &self.stripe
    }

    /// Blocks member `m` missed while out of the write set (pending
    /// re-sync).
    pub fn missed_blocks(&self, m: usize) -> usize {
        self.missed.get(m).map(|s| s.len()).unwrap_or(0)
    }

    /// Upstream-forwarded call counts, indexed by NFS procedure number.
    pub fn forwarded_by_proc(&self) -> [u64; sgfs_obs::NUM_PROCS] {
        self.stats.forwarded_by_proc()
    }

    /// Enable per-hop virtual cost accounting on `clock`.
    pub fn set_hop_cost(&mut self, clock: Arc<sgfs_net::SimClock>, hop: HopCost) {
        self.clock = Some(clock);
        self.hop = hop;
    }

    /// The emitter everything in this proxy counts through.
    pub fn stats(&self) -> &Emitter {
        &self.stats
    }

    /// Cache (hits, misses): calls answered locally vs sent upstream.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.stats.count(Hop::CacheHit), self.stats.count(Hop::CacheMiss))
    }

    /// The widest read-ahead horizon among the tracked sequential
    /// readers, in blocks (≤ the configured ceiling; 0 when nothing is
    /// streaming; halved by server JUKEBOX pushback).
    pub fn prefetch_horizon(&self) -> u32 {
        self.prefetch_gov.streams.iter().map(|s| s.horizon).max().unwrap_or(0)
    }

    /// A controller for dynamic reconfiguration of the running proxy.
    pub fn controller(&self) -> ClientProxyController {
        ClientProxyController { rekey_requested: self.rekey_requested.clone() }
    }

    /// Completed handshakes on the secure channels (1 + rekeys): the
    /// minimum over live members, so a forced renegotiation only counts
    /// once every member has fresh keys. `None` on plaintext upstreams.
    pub fn handshake_count(&self) -> Option<u64> {
        (0..self.stripe.width())
            .filter(|&m| self.stripe.is_up(m))
            .filter_map(|m| self.stripe.member(m).handshake_count())
            .min()
    }

    /// Renegotiate the session keys of every live member at this quiesce
    /// point (between two downstream requests). A member whose rekey
    /// fails is failed over like any other dead channel; the error only
    /// surfaces when it is the last member's.
    fn rekey_members(&mut self) -> std::io::Result<()> {
        for m in 0..self.stripe.width() {
            if self.stripe.is_up(m) {
                if let Err(e) = self.stripe.member(m).rekey() {
                    if !self.fail_member(m) {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Serve one downstream request record: the whole loop-back hop of
    /// the kernel client's synchronous RPC, on the caller's thread — the
    /// client-side mirror of `ServerProxy::process_one`. An `Err` means
    /// this proxy is dead (an upstream nothing could recover, or an
    /// injected crash): whoever drives it closes the connection.
    pub fn process_one(&mut self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        if self.rekey_requested.swap(false, std::sync::atomic::Ordering::AcqRel) {
            self.rekey_members()?;
        }
        // Timed end to end (cache work, upstream round trips, flushes —
        // everything): the procedure's latency sample; the waits are
        // excluded from the busy time where they happen.
        let t0 = std::time::Instant::now();
        let reply = self.process(record);
        self.stats.message(sgfs_obs::peek_proc(record), t0.elapsed());
        let reply = reply?;
        // The kernel-client ↔ proxy loopback hop (request + reply).
        if let Some(clock) = &self.clock {
            clock.advance(self.hop.of(record.len()) + self.hop.of(reply.len()));
        }
        Ok(reply)
    }

    /// Share the proxy between whatever drives it record by record (the
    /// mount's loopback, a shard) and the session that tears it down.
    pub fn shared(self) -> Arc<SharedClientProxy> {
        Arc::new(SharedClientProxy(Mutex::new(self)))
    }

    fn process(&mut self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut dec = XdrDecoder::new(record);
        let header = match CallHeader::decode(&mut dec) {
            Ok(h) => h,
            Err(_) => return Ok(accept_error(0, AcceptStat::GarbageArgs)),
        };
        if header.prog != NFS_PROGRAM || header.vers != NFS_VERSION {
            return Ok(accept_error(header.xid, AcceptStat::ProgUnavail));
        }
        self.client_cred = header.cred.clone();
        let args = &record[dec.position()..];

        if !self.meta_enabled {
            return self.forward(record, header.proc, args);
        }

        match header.proc {
            procnum::GETATTR => {
                if let Ok(fh) = Fh3::from_xdr_bytes(args) {
                    if let Some(a) = self.meta.attrs.get(&fh) {
                        self.stats.emit(Hop::CacheHit, header.xid, header.proc, 0);
                        let res = GetAttrRes { status: NfsStat3::Ok, attr: Some(a.clone()) };
                        return Ok(encode_reply(header.xid, &res));
                    }
                    self.stats.emit(Hop::CacheMiss, header.xid, header.proc, 0);
                }
                self.forward(record, header.proc, args)
            }
            procnum::ACCESS => {
                if let Ok(a) = AccessArgs::from_xdr_bytes(args) {
                    let uid = header.cred.as_sys().map(|s| s.uid).unwrap_or(u32::MAX);
                    match self.meta.access.get(&(a.object.clone(), uid)) {
                        // Cache hit only when every requested bit has been
                        // checked upstream; unchecked bits fall through to
                        // the server instead of reading as denied.
                        Some(&(checked, granted)) if a.access & !checked == 0 => {
                            self.stats.emit(Hop::CacheHit, header.xid, header.proc, 0);
                            let res = AccessRes {
                                status: NfsStat3::Ok,
                                obj_attr: self.meta.attrs.get(&a.object).cloned(),
                                access: granted & a.access,
                            };
                            return Ok(encode_reply(header.xid, &res));
                        }
                        _ => {
                            self.stats.emit(Hop::CacheMiss, header.xid, header.proc, 0);
                        }
                    }
                }
                self.forward(record, header.proc, args)
            }
            procnum::LOOKUP => {
                if let Ok(a) = DirOpArgs3::from_xdr_bytes(args) {
                    let key = (a.dir.clone(), a.name.clone());
                    if let Some((fh, attr)) = self.meta.lookups.get(&key) {
                        self.stats.emit(Hop::CacheHit, header.xid, header.proc, 0);
                        // The tuple's attr is a snapshot from lookup time;
                        // the live attr entry tracks absorbed writes (size,
                        // mtime) and must win when present.
                        let live = self.meta.attrs.get(fh).cloned();
                        let res = LookupRes {
                            status: NfsStat3::Ok,
                            object: Some(fh.clone()),
                            obj_attr: live.or_else(|| attr.clone()),
                            dir_attr: None,
                        };
                        return Ok(encode_reply(header.xid, &res));
                    }
                    self.stats.emit(Hop::CacheMiss, header.xid, header.proc, 0);
                }
                let reply = self.forward(record, header.proc, args)?;
                // A file with unflushed write-back data: the server's
                // attributes are stale (it has not seen the data yet) —
                // substitute the proxy's authoritative attributes.
                if let Some(body) = success_body(&reply) {
                    if let Ok(res) = LookupRes::from_xdr_bytes(body) {
                        let fh = res.object.clone();
                        if let Some(fh) = fh {
                            let dirty = self
                                .store
                                .as_ref()
                                .map(|s| !s.dirty_blocks_of(&fh).is_empty())
                                .unwrap_or(false);
                            if dirty {
                                if let Some(ours) = self.meta.attrs.get(&fh).cloned() {
                                    let patched =
                                        LookupRes { obj_attr: Some(ours.clone()), ..res };
                                    if let Ok(da) = DirOpArgs3::from_xdr_bytes(args) {
                                        self.meta.lookups.insert(
                                            (da.dir, da.name),
                                            (fh.clone(), Some(ours)),
                                        );
                                    }
                                    return Ok(encode_reply(header.xid, &patched));
                                }
                            }
                        }
                    }
                }
                Ok(reply)
            }
            procnum::READ => self.handle_read(header.xid, record, args),
            procnum::WRITE => self.handle_write(header.xid, record, args),
            procnum::COMMIT => {
                // Write-back: the disk cache *is* the commit target; dirty
                // blocks stay local until session teardown (or memory
                // pressure), which is where the paper's end-of-run
                // write-back time comes from. Only files we know nothing
                // about fall through to the server.
                if self.store.is_some() {
                    if let Ok(a) = CommitArgs::from_xdr_bytes(args) {
                        if let Some(attr) = self.meta.attrs.get(&a.file) {
                            let res = CommitRes {
                                status: NfsStat3::Ok,
                                wcc: WccData { before: None, after: Some(attr.clone()) },
                                verf: self.write_verf,
                            };
                            return Ok(encode_reply(header.xid, &res));
                        }
                    }
                }
                self.forward(record, header.proc, args)
            }
            procnum::SETATTR => {
                if let Ok(a) = SetAttrArgs::from_xdr_bytes(args) {
                    // Truncation invalidates cached blocks; flush dirty
                    // data first so nothing is lost.
                    if a.new_attributes.size.is_some() {
                        self.flush_file(&a.object)?;
                        if let Some(store) = &mut self.store {
                            store.drop_file(&a.object);
                        }
                        self.prefetch_gov.forget(&a.object);
                    }
                    self.meta.invalidate_fh(&a.object);
                }
                self.forward(record, header.proc, args)
            }
            procnum::CREATE | procnum::MKDIR | procnum::SYMLINK => {
                let dir = dir_of_create(header.proc, args);
                let reply = self.forward(record, header.proc, args)?;
                if let Some(dir) = dir {
                    self.meta.invalidate_dir(&dir);
                    // The reply's wcc data carries the directory's fresh
                    // attributes — keep them cached so the kernel client's
                    // next revalidation is served locally.
                    if let Some(body) = success_body(&reply) {
                        if let Ok(res) = CreateRes::from_xdr_bytes(body) {
                            if let Some(a) = res.dir_wcc.after {
                                self.meta.attrs.insert(dir, a);
                            }
                        }
                    }
                }
                self.snoop_create(header.proc, args, &reply);
                Ok(reply)
            }
            procnum::REMOVE | procnum::RMDIR => {
                if let Ok(a) = DirOpArgs3::from_xdr_bytes(args) {
                    let target = self.meta.lookups.remove(&(a.dir.clone(), a.name.clone()));
                    self.meta.invalidate_dir(&a.dir);
                    let reply = self.forward(record, header.proc, args)?;
                    if let Some(body) = success_body(&reply) {
                        if let Ok(res) = WccRes::from_xdr_bytes(body) {
                            // Only what the server agreed to remove is
                            // forgotten: a refused REMOVE leaves a file
                            // whose write-back data is still owed to it.
                            if let (NfsStat3::Ok, Some((fh, _))) = (res.status, target) {
                                self.unlinked(&fh);
                            }
                            if let Some(attr) = res.wcc.after {
                                self.meta.attrs.insert(a.dir, attr);
                            }
                        }
                    }
                    return Ok(reply);
                }
                self.forward(record, header.proc, args)
            }
            procnum::RENAME => {
                if let Ok(a) = RenameArgs::from_xdr_bytes(args) {
                    let moved = self.meta.lookups.remove(&(a.from.dir.clone(), a.from.name.clone()));
                    let replaced = self.meta.lookups.remove(&(a.to.dir.clone(), a.to.name.clone()));
                    self.meta.invalidate_dir(&a.from.dir);
                    self.meta.invalidate_dir(&a.to.dir);
                    let reply = self.forward(record, header.proc, args)?;
                    if let Some(body) = success_body(&reply) {
                        if let Ok(res) = RenameRes::from_xdr_bytes(body) {
                            // The file the destination name used to reach
                            // was unlinked by the server (two names of one
                            // file: RENAME does nothing).
                            if let (NfsStat3::Ok, Some((fh, _))) = (res.status, replaced) {
                                if moved.is_none_or(|(m, _)| m != fh) {
                                    self.unlinked(&fh);
                                }
                            }
                            if let Some(attr) = res.from_wcc.after {
                                self.meta.attrs.insert(a.from.dir, attr);
                            }
                            if let Some(attr) = res.to_wcc.after {
                                self.meta.attrs.insert(a.to.dir, attr);
                            }
                        }
                    }
                    return Ok(reply);
                }
                self.forward(record, header.proc, args)
            }
            procnum::LINK => {
                let reply = self.forward(record, header.proc, args)?;
                if let (Ok(a), Some(body)) = (LinkArgs::from_xdr_bytes(args), success_body(&reply)) {
                    if let Ok(res) = LinkRes::from_xdr_bytes(body) {
                        self.meta.invalidate_dir(&a.link.dir);
                        if let Some(attr) = res.dir_wcc.after {
                            self.meta.attrs.insert(a.link.dir, attr);
                        }
                        // The link count is what `unlinked` decides by; size
                        // and times stay ours while write-back data is held.
                        if let Some(theirs) = res.attr {
                            if let Some(ours) = self.meta.attrs.get_mut(&a.file) {
                                ours.nlink = theirs.nlink;
                            } else if !self.is_dirty(&a.file) {
                                self.note_attr(&a.file, theirs);
                            }
                        }
                    }
                }
                Ok(reply)
            }
            procnum::READDIR | procnum::READDIRPLUS => {
                let plus = header.proc == procnum::READDIRPLUS;
                let key = match readdir_key(header.proc, args) {
                    Some((dir, cookie)) => (dir, cookie, plus),
                    None => return self.forward(record, header.proc, args),
                };
                if let Some(body) = self.meta.readdirs.get(&key) {
                    self.stats.emit(Hop::CacheHit, header.xid, header.proc, 0);
                    let mut enc = XdrEncoder::with_capacity(body.len() + 32);
                    ReplyHeader::success(header.xid).encode(&mut enc);
                    let mut out = enc.into_bytes();
                    out.extend_from_slice(body);
                    return Ok(out);
                }
                self.stats.emit(Hop::CacheMiss, header.xid, header.proc, 0);
                let reply = self.forward(record, header.proc, args)?;
                if let Some(body) = success_body(&reply) {
                    self.meta.readdirs.insert(key, body.to_vec());
                    if plus {
                        if let Ok(res) = ReaddirPlusRes::from_xdr_bytes(body) {
                            for e in res.entries {
                                if let (Some(fh), Some(attr)) = (e.handle, e.attr) {
                                    self.meta.attrs.insert(fh, attr);
                                }
                            }
                        }
                    }
                }
                Ok(reply)
            }
            _ => self.forward(record, header.proc, args),
        }
    }

    fn handle_read(&mut self, xid: u32, record: &[u8], args: &[u8]) -> std::io::Result<Vec<u8>> {
        let a = match ReadArgs::from_xdr_bytes(args) {
            Ok(a) => a,
            Err(_) => return self.forward(record, procnum::READ, args),
        };
        self.harvest_prefetches();
        let key = (a.file.clone(), a.offset);
        // A READ is answered locally only with the file's attributes in
        // hand (the reply carries them and `eof` is computed from them).
        // Read-ahead runs before the local answer — the next batch is on
        // the wire while this block is still being waited for — and once
        // per READ: told twice, the governor would take it for a seek.
        let mut ran_ahead = false;
        if let Some(attr) = self.meta.attrs.get(&a.file).cloned() {
            // 1. Block cache.
            let t_blk = std::time::Instant::now();
            if let Some(data) = self.store.as_mut().and_then(|s| s.get(&key)) {
                let nanos = t_blk.elapsed().as_nanos() as u64;
                self.stats.emit(Hop::BlockRead, xid, procnum::READ, nanos);
                self.stats.emit(Hop::CacheHit, xid, procnum::READ, data.len() as u64);
                self.read_ahead(&a, attr.size);
                return Ok(serve_read(xid, &a, attr, &data));
            }
            // 2. Read-ahead landing zone. A block still on the wire is
            // waited for — its READ is already upstream, a second one
            // would only double the traffic.
            if let Some(slot) = self.prefetch_gov.take(&key) {
                self.read_ahead(&a, attr.size);
                ran_ahead = true;
                if let Some(data) = self.wait_prefetch(&a.file, slot) {
                    self.stats.add(Counter::PrefetchHits, 1);
                    self.stats.emit(Hop::CacheHit, xid, procnum::READ, 0);
                    self.put_clean(key, &data)?;
                    return Ok(serve_read(xid, &a, attr, &data));
                }
            }
        }
        self.stats.emit(Hop::CacheMiss, xid, procnum::READ, 0);
        // 3. Upstream, after making dirty data visible. The demand READ
        // enters the window ahead of anything speculative.
        if self.is_dirty(&a.file) {
            self.flush_file(&a.file)?;
        }
        let reply = self.forward(record, procnum::READ, args)?;
        if let Some(body) = success_body(&reply) {
            if let Ok(res) = ReadRes::from_xdr_bytes(body) {
                if let Some(attr) = &res.attr {
                    self.note_attr(&a.file, attr.clone());
                }
                // An error reply (a JUKEBOX the retries could not ride
                // out, a stale handle) carries no block to cache.
                if res.status == NfsStat3::Ok {
                    self.put_clean(key, &res.data)?;
                }
            }
        }
        if !ran_ahead {
            if let Some(size) = self.meta.attrs.get(&a.file).map(|attr| attr.size) {
                self.read_ahead(&a, size);
            }
        }
        Ok(reply)
    }

    /// Cache a clean (server-sourced) block, best-effort: a genuine I/O
    /// error just leaves the block uncached (counted by the store); an
    /// injected crash propagates — a dead process serves nothing.
    fn put_clean(&mut self, key: (Fh3, u64), data: &[u8]) -> std::io::Result<()> {
        if let Some(store) = &mut self.store {
            if let Err(e) = store.put(key, data, false) {
                if sgfs_net::crash::is_crash(&e) {
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Tell the governor about READ `a` of a `size`-byte file and submit
    /// the batch it triggers, split-phase: the READs of the blocks that
    /// are not cached already go out as one `submit_batch` per member —
    /// each block to its first live member, so they share the demand
    /// traffic's windows and fan out across the servers of the set — and
    /// are collected by later READs; nothing waits for them here.
    fn read_ahead(&mut self, a: &ReadArgs, size: u64) {
        let batch = self.prefetch_gov.on_read(&a.file, a.offset, a.count, size);
        // The server has not seen unflushed writes: what it would send
        // for their blocks predates them.
        if batch.is_empty() || self.is_dirty(&a.file) {
            return;
        }
        let map = *self.stripe.map();
        let mut offsets_of: Vec<Vec<u64>> = vec![Vec::new(); self.stripe.width()];
        let mut records_of: Vec<Vec<Vec<u8>>> = vec![Vec::new(); self.stripe.width()];
        for offset in batch.step_by(a.count as usize) {
            let key = (a.file.clone(), offset);
            if self.store.as_ref().is_some_and(|s| s.meta(&key).is_some()) {
                continue;
            }
            let Some(m) = self.stripe.live_members_of_block(map.block_of(offset)).next() else {
                continue;
            };
            // Past its own block a partial member serves its holes, not
            // the file: ask only for what it holds.
            let count = map.contiguous(offset, a.count as u64) as u32;
            let args = ReadArgs { file: key.0, offset, count };
            self.next_xid = self.next_xid.wrapping_add(1);
            offsets_of[m].push(offset);
            records_of[m].push(encode_call(self.next_xid, procnum::READ, &self.client_cred, &args));
        }
        let stream =
            self.prefetch_gov.stream(&a.file).expect("on_read keeps the stream it has a batch for");
        for (m, (offsets, records)) in offsets_of.into_iter().zip(records_of).enumerate() {
            if !records.is_empty() {
                let replies = self.stripe.member(m).submit_batch(records);
                stream.zone.extend(
                    offsets.into_iter().zip(replies).map(|(o, r)| (o, Prefetch::Pending(m, r))),
                );
            }
        }
    }

    /// Land every read-ahead reply that has arrived; never blocks.
    fn harvest_prefetches(&mut self) {
        for at in 0..self.prefetch_gov.streams.len() {
            let mut slot = 0;
            while let Some((_, prefetch)) = self.prefetch_gov.streams[at].zone.get(slot) {
                let arrived = match prefetch {
                    Prefetch::Pending(m, reply) => reply.try_wait().map(|reply| (*m, reply)),
                    Prefetch::Landed(_) => None,
                };
                let Some((m, reply)) = arrived else {
                    slot += 1;
                    continue;
                };
                let file = self.prefetch_gov.streams[at].file.clone();
                let landed = self.settle_prefetch(&file, m, reply);
                let zone = &mut self.prefetch_gov.streams[at].zone;
                match landed {
                    Some(data) => {
                        zone[slot].1 = Prefetch::Landed(data);
                        slot += 1;
                    }
                    None => {
                        zone.swap_remove(slot);
                    }
                }
            }
        }
    }

    /// The block of a slot taken out of `file`'s landing zone, waiting
    /// for its reply if the READ is still on the wire.
    fn wait_prefetch(&mut self, file: &Fh3, slot: Prefetch) -> Option<Vec<u8>> {
        match slot {
            Prefetch::Landed(data) => Some(data),
            Prefetch::Pending(m, reply) => {
                let t_io = std::time::Instant::now();
                let reply = self.stripe.wait(reply);
                self.stats.exclude(t_io.elapsed());
                self.settle_prefetch(file, m, reply)
            }
        }
    }

    /// The verdict on one read-ahead reply. Only confirmed data lands. A
    /// shed (JUKEBOX) prefetch is simply dropped — speculative work is
    /// never retried, it shrinks the horizon instead; the demand path
    /// re-fetches the block if it is actually needed. A dead channel
    /// fails its member over.
    fn settle_prefetch(
        &mut self,
        file: &Fh3,
        m: usize,
        reply: std::io::Result<Vec<u8>>,
    ) -> Option<Vec<u8>> {
        let Ok(reply) = reply else {
            self.fail_member(m);
            return None;
        };
        let res = decode_reply::<ReadRes>(&reply).ok()?;
        match res.status {
            NfsStat3::Ok => Some(res.data),
            NfsStat3::Jukebox => {
                self.prefetch_gov.on_jukebox(file);
                None
            }
            _ => None,
        }
    }

    fn handle_write(&mut self, xid: u32, record: &[u8], args: &[u8]) -> std::io::Result<Vec<u8>> {
        if self.store.is_none() {
            return self.forward(record, procnum::WRITE, args);
        }
        let a = match WriteArgs::from_xdr_bytes(args) {
            Ok(a) => a,
            Err(_) => return self.forward(record, procnum::WRITE, args),
        };
        self.prefetch_gov.forget(&a.file);
        // Need attributes to fabricate a coherent reply.
        if !self.meta.attrs.contains_key(&a.file) {
            match self.call_upstream::<GetAttrRes>(procnum::GETATTR, &a.file) {
                Ok(res) if res.status == NfsStat3::Ok => {
                    self.meta.attrs.insert(a.file.clone(), res.attr.expect("OK has attrs"));
                }
                _ => return self.forward(record, procnum::WRITE, args),
            }
        }
        let t_blk = std::time::Instant::now();
        // The cache key *is* the flush routing key: where members are
        // partial, one wsize-sized WRITE can span several stripe blocks,
        // each mapped to a different replica set, so it is absorbed as
        // stripe-block-bounded extents or the flush would send the whole
        // extent to the first block's members only. Under full-copy
        // placement the extent is absorbed in one piece.
        let map = *self.stripe.map();
        let store = self.store.as_mut().expect("checked");
        let (mut off, mut data) = (a.offset, &a.data[..]);
        let put = loop {
            let take = map.contiguous(off, data.len() as u64) as usize;
            let res = store.put((a.file.clone(), off), &data[..take], true);
            off += take as u64;
            data = &data[take..];
            if res.is_err() || data.is_empty() {
                break res;
            }
        };
        if let Err(e) = put {
            if sgfs_net::crash::is_crash(&e) {
                // The acknowledgement below is the durability promise the
                // journal underwrites; a dead process must not make it.
                return Err(e);
            }
            // Spool unusable (ENOSPC, I/O error — already counted by the
            // store): degrade this WRITE to write-through so the ack the
            // client sees is the server's, not a fabrication the cache
            // can no longer back.
            return self.forward(record, procnum::WRITE, args);
        }
        self.stats.emit(Hop::BlockWrite, xid, procnum::WRITE, t_blk.elapsed().as_nanos() as u64);
        self.synth_mtime += 1;
        let attr = self.meta.attrs.get_mut(&a.file).expect("ensured above");
        attr.size = attr.size.max(a.offset + a.data.len() as u64);
        attr.mtime = NfsTime3::from_nanos(attr.mtime.as_nanos() + self.synth_mtime);
        let res = WriteRes {
            status: NfsStat3::Ok,
            wcc: WccData { before: None, after: Some(attr.clone()) },
            count: a.data.len() as u32,
            committed: StableHow::FileSync,
            verf: self.write_verf,
        };
        Ok(encode_reply(xid, &res))
    }

    /// Push all dirty blocks of `fh` upstream (WRITE + COMMIT), honoring
    /// the NFSv3 crash-recovery contract: if the server's write verifier
    /// changes at any point (it rebooted and lost uncommitted data), all
    /// unstable writes of this flush are re-sent and re-committed.
    ///
    /// Split-phase: every dirty block's WRITE is submitted into the
    /// pipelined window first, then all replies are awaited, and only
    /// then does COMMIT go out — so COMMIT can never overtake data, and a
    /// WAN flush overlaps up to a window of WRITE round trips.
    pub fn flush_file(&mut self, fh: &Fh3) -> std::io::Result<()> {
        // A verifier change mid-flush means a server reboot; more than a
        // couple in one flush means the server is crash-looping and
        // retrying forever would hide that.
        const MAX_VERIFIER_RETRIES: u32 = 3;
        for _ in 0..MAX_VERIFIER_RETRIES {
            match self.flush_file_once(fh)? {
                FlushOutcome::Committed => return Ok(()),
                FlushOutcome::VerifierChanged | FlushOutcome::Retry => continue,
            }
        }
        Err(std::io::Error::other(
            "write verifier kept changing across flush attempts (server crash-looping?)",
        ))
    }

    /// One WRITE-batch + per-member COMMIT round — the flush round of
    /// every placement.
    ///
    /// Every dirty block's WRITE is encoded once per live mapped member
    /// and every member's batch enters its pipeline window before any
    /// reply is awaited, so the replicas of a flush proceed in parallel
    /// and a WAN flush overlaps up to a window of round trips per member.
    /// A WRITE, COMMIT or size mirror the server sheds at admission
    /// (JUKEBOX — never executed) is re-sent verbatim under backoff to
    /// the member that shed it; only a real failure takes a member out.
    /// A block goes clean only when at least one replica confirmed its
    /// WRITE *and* that member's COMMIT verifier matched — members that
    /// fail mid-flush are failed over, their blocks are recorded in the
    /// missed set for re-sync, and the flush completes at reduced
    /// redundancy as long as one replica per block survives. When the
    /// failing member is the last one standing there is nothing to
    /// degrade to: the round ends with that member's own error.
    ///
    /// `VerifierChanged` and `Retry` mean the blocks were re-marked dirty
    /// and the caller must flush again; on `Err` the blocks are also
    /// re-marked dirty so a later retry re-sends them — no block is left
    /// clean without a COMMIT covering it.
    fn flush_file_once(&mut self, fh: &Fh3) -> std::io::Result<FlushOutcome> {
        let dirty = match &self.store {
            Some(s) => s.dirty_blocks_of(fh),
            None => return Ok(FlushOutcome::Committed),
        };
        if dirty.is_empty() {
            return Ok(FlushOutcome::Committed);
        }
        // One split-phase round is starting: aux = dirty blocks in it.
        self.stats.emit(Hop::FlushRound, 0, procnum::COMMIT, dirty.len() as u64);
        let width = self.stripe.width();
        // Per-member WRITE batches, one pass over the dirty set. The
        // records are kept for the verbatim JUKEBOX re-send.
        let mut offsets_of: Vec<Vec<u64>> = vec![Vec::new(); width];
        let mut records_of: Vec<Vec<Vec<u8>>> = vec![Vec::new(); width];
        for &offset in &dirty {
            let data = self
                .store
                .as_mut()
                .and_then(|s| s.get(&(fh.clone(), offset)))
                .unwrap_or_default();
            let block = self.stripe.map().block_of(offset);
            if self.stripe.live_members_of_block(block).next().is_none() {
                self.redirty(fh, &dirty);
                return Err(all_down("every replica of a dirty block is down"));
            }
            let args = WriteArgs { file: fh.clone(), offset, stable: StableHow::Unstable, data };
            for m in self.stripe.map().members_of_block(block) {
                if self.stripe.is_up(m) {
                    self.next_xid = self.next_xid.wrapping_add(1);
                    offsets_of[m].push(offset);
                    records_of[m].push(encode_call(
                        self.next_xid,
                        procnum::WRITE,
                        &self.client_cred,
                        &args,
                    ));
                } else {
                    self.missed[m].insert((fh.clone(), offset));
                }
            }
        }
        // Fan out: every member's batch is submitted (atomically, so up
        // to a window of it is on the wire) before any reply is awaited.
        let mut pending = Vec::new();
        for (m, records) in records_of.iter().enumerate() {
            if !records.is_empty() {
                let member = self.stripe.member(m);
                let replies = member.submit_batch(records);
                pending.push((m, member, replies));
            }
        }
        let mut confirmed: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut member_verf: Vec<Option<u64>> = vec![None; width];
        let mut verifier_changed = false;
        for (m, member, replies) in pending {
            for ((offset, record), reply) in offsets_of[m].iter().zip(&records_of[m]).zip(replies)
            {
                let reply = self.stripe.wait(reply);
                match settle_write(&member, &self.stats, &self.channels.retry, record, reply) {
                    Ok(verf) => {
                        if *member_verf[m].get_or_insert(verf) != verf {
                            verifier_changed = true;
                        }
                        confirmed.entry(*offset).or_default().push(m);
                    }
                    Err(e) => {
                        // Failed mid-batch: no verifier to commit under.
                        member_verf[m] = None;
                        let offsets = &offsets_of[m];
                        if let Err(e) = self.drop_from_round(m, fh, offsets, &mut confirmed, e) {
                            self.redirty(fh, &dirty);
                            return Err(e);
                        }
                        break;
                    }
                }
            }
        }
        // Blocks confirmed by at least one replica go clean; the rest
        // stay dirty for the next round.
        for offset in dirty.iter().filter(|o| confirmed.contains_key(o)) {
            let cleaned = match &mut self.store {
                Some(store) => store.set_clean(&(fh.clone(), *offset)),
                None => Ok(()),
            };
            if let Err(e) = cleaned {
                // The journal could not record the transition; the block
                // stays dirty (the store updates its index only after the
                // append succeeds) and a later flush re-sends it.
                self.redirty(fh, &dirty);
                return Err(e);
            }
        }
        // Kill point: blocks are clean locally, COMMIT never goes out.
        // Recovery must re-dirty them (clean-before-COMMIT is not stable).
        if let Err(e) = self.hit_crash(CrashPoint::FlushBeforeCommit) {
            self.redirty(fh, &dirty);
            return Err(e);
        }
        // One COMMIT per member that confirmed writes; each replica's
        // verifier contract is enforced independently: every WRITE and
        // the COMMIT must carry one verifier, any change means that
        // server lost its uncommitted (unstable) data.
        let mut commit_after: Option<Fattr3> = None;
        let file_size = self.meta.attrs.get(fh).map(|a| a.size);
        for m in 0..width {
            let Some(write_verf) = member_verf[m] else { continue };
            match self.commit_member(m, fh, file_size) {
                Ok(res) => {
                    if res.verf != write_verf {
                        verifier_changed = true;
                    }
                    if commit_after.is_none() {
                        commit_after = res.wcc.after;
                    }
                    self.stats.emit(Hop::ReplicaWrite, 0, procnum::COMMIT, m as u64);
                }
                // Its WRITEs landed but its COMMIT (or the size mirror
                // behind it) did not: nothing it holds of this round is
                // stable.
                Err(e) => {
                    let offsets = &offsets_of[m];
                    if let Err(e) = self.drop_from_round(m, fh, offsets, &mut confirmed, e) {
                        self.redirty(fh, &dirty);
                        return Err(e);
                    }
                }
            }
        }
        if verifier_changed {
            self.redirty(fh, &dirty);
            return Ok(FlushOutcome::VerifierChanged);
        }
        // A block whose every confirming replica fell over must be
        // re-sent to the survivors of its stripe.
        let uncovered: Vec<u64> = dirty
            .iter()
            .copied()
            .filter(|o| confirmed.get(o).is_none_or(|v| v.is_empty()))
            .collect();
        if !uncovered.is_empty() {
            self.redirty(fh, &uncovered);
            return Ok(FlushOutcome::Retry);
        }
        // Kill point: the server has committed but the journal has not
        // heard — recovery re-sends the blocks, which is idempotent.
        self.hit_crash(CrashPoint::FlushAfterCommit)?;
        if let Some(store) = &mut self.store {
            store.commit_file(fh)?;
        }
        if let Some(a) = commit_after {
            // The wcc attr came from one member's COMMIT, which ran
            // before any size mirror: `note_attr` keeps a partial
            // replica's size from shrinking the attr the client has seen.
            self.note_attr(fh, a);
        }
        Ok(FlushOutcome::Committed)
    }

    /// Member `m` failed its part of a flush round with `e`. Degrade to
    /// the survivors: fail the member over, queue the round's blocks for
    /// its re-sync and strike it from every block it confirmed. The last
    /// member standing cannot be degraded away from — its error is handed
    /// back for the round to fail with.
    fn drop_from_round(
        &mut self,
        m: usize,
        fh: &Fh3,
        offsets: &[u64],
        confirmed: &mut HashMap<u64, Vec<usize>>,
        e: std::io::Error,
    ) -> std::io::Result<()> {
        if !self.fail_member(m) {
            return Err(e);
        }
        for offset in offsets {
            self.missed[m].insert((fh.clone(), *offset));
            if let Some(members) = confirmed.get_mut(offset) {
                members.retain(|&c| c != m);
            }
        }
        Ok(())
    }

    /// Member `m`'s COMMIT of a flush round, then its size mirror: a
    /// partial member holds only its mapped blocks, so its own file size
    /// undershoots the file whenever it lacks the final block — once its
    /// COMMIT confirms, the client-visible size is mirrored to it
    /// (SETATTR) so *any* member can serve GETATTR/LOOKUP for the file. A
    /// full-copy member already has the true size and is sent nothing.
    /// An `Err` (the member died or rejected either call) leaves the
    /// member without a stable, consistently sized copy of the round.
    fn commit_member(
        &mut self,
        m: usize,
        fh: &Fh3,
        size: Option<u64>,
    ) -> std::io::Result<CommitRes> {
        let commit = CommitArgs { file: fh.clone(), offset: 0, count: 0 };
        let res: CommitRes = self.call_on(m, procnum::COMMIT, &commit)?;
        if res.status != NfsStat3::Ok {
            return Err(std::io::Error::other(format!("commit failed: {:?}", res.status)));
        }
        if let (true, Some(size)) = (self.stripe.map().is_partial(), size) {
            let sa = SetAttrArgs {
                object: fh.clone(),
                new_attributes: Sattr3 { size: Some(size), ..Default::default() },
            };
            let mirrored: WccRes = self.call_on(m, procnum::SETATTR, &sa)?;
            if mirrored.status != NfsStat3::Ok {
                return Err(std::io::Error::other(format!(
                    "size mirror failed: {:?}",
                    mirrored.status
                )));
            }
        }
        Ok(res)
    }

    fn hit_crash(&self, point: CrashPoint) -> std::io::Result<()> {
        match &self.crash {
            Some(c) => c.hit(point),
            None => Ok(()),
        }
    }

    /// Return flushed-but-uncommitted blocks to the dirty set.
    ///
    /// Best-effort: this runs on error paths, where a tripped crash
    /// injector makes every journal append fail too — recovery re-dirties
    /// the blocks from the journal, which never recorded them as
    /// committed.
    fn redirty(&mut self, fh: &Fh3, offsets: &[u64]) {
        if let Some(store) = &mut self.store {
            for offset in offsets {
                let _ = store.set_dirty(&(fh.clone(), *offset));
            }
        }
    }

    /// Write back everything still dirty — called at session teardown;
    /// the harness times this as the paper's separate "write back at the
    /// end of execution" figure. Returns the number of bytes flushed.
    pub fn flush_all(&mut self) -> std::io::Result<u64> {
        let files = match &self.store {
            Some(s) => s.dirty_files(),
            None => return Ok(0),
        };
        let before = self.store.as_ref().map(|s| s.dirty_bytes()).unwrap_or(0);
        // Every file is attempted: one that cannot be written back (its
        // handle went stale behind the cache) must not strand the rest.
        let mut first_err = None;
        for fh in files {
            if let Err(e) = self.flush_file(&fh) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(before), Err)
    }

    /// The server unlinked a name of `fh` (REMOVE, RMDIR, or a RENAME
    /// onto it). With its last link gone nothing of it is kept — the
    /// paper's temporary-file optimization: dirty blocks of a deleted
    /// file are dropped, never flushed. A file the cached attributes show
    /// another link to lives on, and its blocks flush to that handle.
    fn unlinked(&mut self, fh: &Fh3) {
        match self.meta.attrs.get_mut(fh) {
            Some(attr) if attr.ftype != FType3::Dir && attr.nlink > 1 => attr.nlink -= 1,
            _ => {
                if let Some(store) = &mut self.store {
                    store.drop_file(fh);
                }
                self.meta.invalidate_fh(fh);
                self.prefetch_gov.forget(fh);
            }
        }
    }

    /// Bytes currently dirty in the write-back cache.
    pub fn dirty_bytes(&self) -> u64 {
        self.store.as_ref().map(|s| s.dirty_bytes()).unwrap_or(0)
    }

    fn snoop_create(&mut self, proc: u32, args: &[u8], reply: &[u8]) {
        let Some(body) = success_body(reply) else { return };
        let Ok(res) = CreateRes::from_xdr_bytes(body) else { return };
        let where_ = match proc {
            procnum::CREATE => CreateArgs::from_xdr_bytes(args).ok().map(|a| a.where_),
            procnum::MKDIR => MkdirArgs::from_xdr_bytes(args).ok().map(|a| a.where_),
            procnum::SYMLINK => SymlinkArgs::from_xdr_bytes(args).ok().map(|a| a.where_),
            _ => None,
        };
        if let (Some(w), Some(fh)) = (where_, res.obj) {
            if let Some(attr) = &res.obj_attr {
                self.meta.attrs.insert(fh.clone(), attr.clone());
            }
            self.meta.lookups.insert((w.dir, w.name), (fh, res.obj_attr));
        }
    }

    /// Forward a raw record upstream and return the raw reply, snooping
    /// cacheable results — the one routing function of every placement.
    /// READs go to a mapped member of their block (failing over past down
    /// members); a write-through WRITE reaches every member mapped to a
    /// block it covers; namespace mutations and COMMIT are mirrored to
    /// every live member so replica state stays structurally identical
    /// (file handles are derived from the op sequence, which every member
    /// sees in the same order); GETATTR asks every member when members
    /// are partial; everything else rides the first live member.
    fn forward(&mut self, record: &[u8], proc: u32, args: &[u8]) -> std::io::Result<Vec<u8>> {
        self.stats.forwarded(proc);
        let map = *self.stripe.map();
        let extent = match proc {
            procnum::READ | procnum::WRITE => io_extent(args),
            _ => None,
        };
        let reply = match (proc, extent) {
            (procnum::READ, Some((offset, count))) => self.read_block(record, offset, count)?,
            // Write-through (no store, or the spool degraded): each
            // mapped member receives the whole extent; reads still route
            // per block.
            (procnum::WRITE, Some((offset, count))) => {
                self.mirror_to(map.members_of_extent(offset, count as u64), record)?
            }
            (
                procnum::SETATTR
                | procnum::CREATE
                | procnum::MKDIR
                | procnum::SYMLINK
                | procnum::MKNOD
                | procnum::REMOVE
                | procnum::RMDIR
                | procnum::RENAME
                | procnum::LINK
                | procnum::COMMIT,
                _,
            ) => self.mirror_to(0..self.stripe.width(), record)?,
            (procnum::GETATTR, _) if map.is_partial() => self.getattr_every_member(record)?,
            _ => self.call_first_live(record)?,
        };
        if self.meta_enabled {
            self.snoop_meta(proc, args, &reply);
        }
        Ok(reply)
    }

    /// GETATTR under partial placement: any single member undershoots
    /// the file size whenever it lacks the final block, so ask every live
    /// member and serve the largest size observed.
    fn getattr_every_member(&mut self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        let mut best: Option<(u64, Vec<u8>)> = None;
        let mut last = None;
        for m in 0..self.stripe.width() {
            if !self.stripe.is_up(m) {
                continue;
            }
            let reply = match self.call_member(m, record) {
                Ok(reply) => reply,
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            };
            let size = decode_reply::<GetAttrRes>(&reply).ok().and_then(|r| r.attr).map(|a| a.size);
            match (&best, size) {
                (None, _) => best = Some((size.unwrap_or(0), reply)),
                (Some((s, _)), Some(ns)) if ns > *s => best = Some((ns, reply)),
                _ => {}
            }
        }
        best.map(|(_, reply)| reply)
            .ok_or_else(|| last.unwrap_or_else(|| all_down("every stripe-set member is down")))
    }

    /// Serve a READ from the first live member of its block's replica
    /// set, failing over past members that die on the way.
    fn read_block(&mut self, record: &[u8], offset: u64, count: u32) -> std::io::Result<Vec<u8>> {
        let mut last = None;
        for m in self.stripe.map().members_of_offset(offset) {
            if !self.stripe.is_up(m) {
                continue;
            }
            match self.call_member(m, record) {
                Ok(reply) => {
                    let xid = sgfs_obs::peek_xid(record);
                    self.stats.emit(Hop::StripeRead, xid, procnum::READ, m as u64);
                    return Ok(clamp_read(self.stripe.map(), offset, count, reply));
                }
                Err(e) => last = Some(e), // on to the block's next replica
            }
        }
        Err(last.unwrap_or_else(|| all_down("every replica of the block is down")))
    }

    /// Call the lowest-index live member, walking down the set as members
    /// fail over; the last member standing answers with its own error.
    fn call_first_live(&mut self, record: &[u8]) -> std::io::Result<Vec<u8>> {
        loop {
            let m = self.stripe.first_live();
            match self.call_member(m, record) {
                Err(_) if !self.stripe.is_up(m) => {} // failed over; next survivor
                result => return result,
            }
        }
    }

    /// Mirror one call to every live member of `members` (submitting all
    /// before waiting on any), replying from the lowest-index survivor.
    fn mirror_to(
        &mut self,
        members: impl IntoIterator<Item = usize>,
        record: &[u8],
    ) -> std::io::Result<Vec<u8>> {
        let t_io = std::time::Instant::now();
        let mut pending = Vec::new();
        for m in members {
            if self.stripe.is_up(m) {
                let member = self.stripe.member(m);
                let reply = member.submit(record);
                pending.push((m, member, reply));
            }
        }
        let mut first: Option<Vec<u8>> = None;
        let mut last = None;
        for (m, member, reply) in pending {
            // A shed call never executed on that member, so it is settled
            // (re-sent verbatim under backoff) against the same member —
            // the replicas that accepted the call are unaffected.
            let reply = reply.wait().and_then(|r| {
                settle_jukebox(&member, &self.stats, &self.channels.retry, record, r)
            });
            match reply {
                Ok(reply) => {
                    first.get_or_insert(reply);
                }
                Err(e) => {
                    self.fail_member(m);
                    last = Some(e);
                }
            }
        }
        // The round trips are mostly *waiting*; exclude their wall time
        // from the busy accounting (the GTLS layer's timed seal/open
        // events re-add the real crypto time).
        self.stats.exclude(t_io.elapsed());
        first.ok_or_else(|| {
            last.unwrap_or_else(|| all_down("every targeted stripe-set member is down"))
        })
    }

    /// One accounted call on one member, riding out JUKEBOX; an error
    /// fails the member over (when a survivor is left to fail over to).
    fn call_member(&mut self, m: usize, record: &[u8]) -> std::io::Result<Vec<u8>> {
        let t_io = std::time::Instant::now();
        let member = self.stripe.member(m);
        let reply = call_jukebox_patient(&member, &self.stats, &self.channels.retry, record);
        self.stats.exclude(t_io.elapsed());
        if reply.is_err() {
            self.fail_member(m);
        }
        reply
    }

    /// Take a member out of the set after a failed call — refresh the
    /// `degraded` gauge and emit the failover, exactly once per down
    /// transition — and report whether it is out. The last
    /// member standing stays in (see [`StripeSet::mark_down`]): the
    /// caller surfaces its error instead.
    fn fail_member(&mut self, m: usize) -> bool {
        if self.stripe.mark_down(m) {
            self.stats.set(Gauge::Degraded, self.stripe.down_count());
            self.stats.emit(Hop::ReplicaFailover, 0, NO_PROC, m as u64);
        }
        !self.stripe.is_up(m)
    }

    /// Dial a rejoined host afresh and install the new channel in the
    /// stripe set. A member usually goes down because its pipeline spent
    /// its entire reconnect budget against a dead host and turned
    /// terminal; the rejoin path therefore cannot reuse the old channel.
    /// Without a reconnector the existing channel is all there is — the
    /// replay below decides whether it still works.
    fn revive_member(&mut self, m: usize) -> std::io::Result<()> {
        let Some(redial) = self.redial[m].clone() else { return Ok(()) };
        let (upstream, watch) = redial.lock().reconnect(0)?;
        let pipeline = self.channels.open(upstream, watch, Some(&redial));
        self.stripe.replace_member(m, pipeline);
        Ok(())
    }

    /// Re-sync a rejoining member and return it to the read/write set:
    /// every block it missed while down is replayed from the local store
    /// (UNSTABLE WRITE, then one COMMIT per file under the verifier
    /// contract, JUKEBOX ridden out like any flush) before the member
    /// serves reads or counts toward replication again. On error the
    /// member stays down and the missed set is kept — re-sync is
    /// idempotent and can simply run again.
    pub fn resync_member(&mut self, m: usize) -> std::io::Result<()> {
        if !self.stripe.is_up(m) {
            self.revive_member(m)?;
        }
        let mut missed: Vec<(Fh3, u64)> = self.missed[m].iter().cloned().collect();
        missed.sort();
        let mut files: Vec<Fh3> = missed.iter().map(|(f, _)| f.clone()).collect();
        files.dedup();
        let mut records = Vec::new();
        for (fh, offset) in &missed {
            // A missing block means the file was dropped (deleted) or
            // evicted after a covering COMMIT — nothing to replay.
            let Some(data) = self.store.as_mut().and_then(|s| s.get(&(fh.clone(), *offset)))
            else {
                continue;
            };
            let args = WriteArgs {
                file: fh.clone(),
                offset: *offset,
                stable: StableHow::Unstable,
                data,
            };
            self.next_xid = self.next_xid.wrapping_add(1);
            records.push(encode_call(self.next_xid, procnum::WRITE, &self.client_cred, &args));
        }
        let member = self.stripe.member(m);
        let mut verf: Option<u64> = None;
        for (record, reply) in records.iter().zip(member.submit_batch(&records)) {
            let reply = reply.wait();
            let v = settle_write(&member, &self.stats, &self.channels.retry, record, reply)?;
            if *verf.get_or_insert(v) != v {
                return Err(std::io::Error::other(
                    "replica write verifier changed during re-sync",
                ));
            }
        }
        if files.is_empty() {
            // Nothing was replayed, so no traffic proved the revived
            // channel end-to-end. Without this probe a rejoin with an
            // empty missed set would mark the member up — and drop the
            // `degraded` gauge to zero — on pure faith in a channel that
            // may be as dead as the one it replaced. Any decodable reply
            // counts: the probe tests the transport, not the file.
            self.call_on::<GetAttrRes>(m, procnum::GETATTR, &Fh3::from_ino(0, 0))?;
        }
        for fh in files {
            let commit = CommitArgs { file: fh, offset: 0, count: 0 };
            let res: CommitRes = self.call_on(m, procnum::COMMIT, &commit)?;
            if res.status != NfsStat3::Ok {
                return Err(std::io::Error::other(format!(
                    "re-sync COMMIT failed: {:?}",
                    res.status
                )));
            }
            if verf.is_some_and(|v| v != res.verf) {
                return Err(std::io::Error::other(
                    "replica rebooted mid-re-sync (verifier changed)",
                ));
            }
        }
        self.missed[m].clear();
        self.stripe.mark_up(m);
        self.stats.set(Gauge::Degraded, self.stripe.down_count());
        self.stats.emit(Hop::ReplicaWrite, 0, NO_PROC, m as u64);
        Ok(())
    }

    /// Whether we hold unflushed data for `fh` (server attrs are stale).
    fn is_dirty(&self, fh: &Fh3) -> bool {
        self.store
            .as_ref()
            .map(|s| !s.dirty_blocks_of(fh).is_empty())
            .unwrap_or(false)
    }

    /// Record a passively-observed attr (GETATTR/LOOKUP/ACCESS/READ/COMMIT
    /// replies). A partial member's attr undershoots the file size
    /// whenever that member lacks the final block, so under partial
    /// placement passive observations may only *grow* the cached size; an
    /// explicit client SETATTR (truncation) updates the cache directly
    /// instead.
    fn note_attr(&mut self, fh: &Fh3, mut attr: Fattr3) -> Fattr3 {
        if self.stripe.map().is_partial() {
            if let Some(prev) = self.meta.attrs.get(fh) {
                attr.size = attr.size.max(prev.size);
            }
        }
        self.meta.attrs.insert(fh.clone(), attr.clone());
        attr
    }

    fn snoop_meta(&mut self, proc: u32, args: &[u8], reply: &[u8]) {
        let Some(body) = success_body(reply) else { return };
        match proc {
            procnum::GETATTR => {
                if let (Ok(fh), Ok(res)) =
                    (Fh3::from_xdr_bytes(args), GetAttrRes::from_xdr_bytes(body))
                {
                    if let Some(a) = res.attr {
                        if !self.is_dirty(&fh) {
                            self.note_attr(&fh, a);
                        }
                    }
                }
            }
            procnum::ACCESS => {
                if let (Ok(a), Ok(res)) =
                    (AccessArgs::from_xdr_bytes(args), AccessRes::from_xdr_bytes(body))
                {
                    let uid = self.client_cred.as_sys().map(|s| s.uid).unwrap_or(u32::MAX);
                    // Merge: remember which bits this check covered and
                    // refresh the granted state within that mask only.
                    let entry =
                        self.meta.access.entry((a.object.clone(), uid)).or_insert((0, 0));
                    entry.1 = (entry.1 & !a.access) | res.access;
                    entry.0 |= a.access;
                    if let Some(attr) = res.obj_attr {
                        self.note_attr(&a.object, attr);
                    }
                }
            }
            procnum::LOOKUP => {
                if let (Ok(a), Ok(res)) =
                    (DirOpArgs3::from_xdr_bytes(args), LookupRes::from_xdr_bytes(body))
                {
                    if let Some(fh) = res.object {
                        if self.is_dirty(&fh) {
                            // Keep our attrs; cache the mapping with them.
                            let ours = self.meta.attrs.get(&fh).cloned();
                            self.meta.lookups.insert((a.dir, a.name), (fh, ours));
                        } else {
                            let noted = res.obj_attr.map(|attr| self.note_attr(&fh, attr));
                            self.meta.lookups.insert((a.dir, a.name), (fh, noted));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// A proxy-initiated upstream call (attr fetches), routed to the
    /// first live member, walking down the set as members fail.
    fn call_upstream<T: XdrDecode>(
        &mut self,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> std::io::Result<T> {
        self.next_xid = self.next_xid.wrapping_add(1);
        let record = encode_call(self.next_xid, proc, &self.client_cred, args);
        decode_reply(&self.call_first_live(&record)?)
    }

    /// A proxy-initiated call on member `m` specifically (its COMMIT, its
    /// size mirror, its re-sync probe), riding out JUKEBOX against that
    /// member. What an error means for the member is the caller's call.
    fn call_on<T: XdrDecode>(
        &mut self,
        m: usize,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> std::io::Result<T> {
        self.next_xid = self.next_xid.wrapping_add(1);
        let record = encode_call(self.next_xid, proc, &self.client_cred, args);
        let member = self.stripe.member(m);
        decode_reply(&call_jukebox_patient(&member, &self.stats, &self.channels.retry, &record)?)
    }
}

/// Outcome of one WRITE-batch + COMMIT round of `flush_file_once`.
enum FlushOutcome {
    /// Data durable under a single, stable write verifier.
    Committed,
    /// The server's verifier changed (reboot): blocks re-dirtied, flush
    /// must run again.
    VerifierChanged,
    /// Replicated flush: a member fell over mid-round and some blocks
    /// lost every confirming replica — those were re-dirtied and the
    /// flush must run again against the survivors.
    Retry,
}

/// Settle one write-back WRITE reply — riding out JUKEBOX against the
/// member that shed it — and extract its write verifier.
fn settle_write(
    member: &Pipeline,
    stats: &Emitter,
    retry: &RetryPolicy,
    record: &[u8],
    reply: std::io::Result<Vec<u8>>,
) -> std::io::Result<u64> {
    let reply = settle_jukebox(member, stats, retry, record, reply?)?;
    let res: WriteRes = decode_reply(&reply)?;
    if res.status != NfsStat3::Ok {
        return Err(std::io::Error::other(format!("write-back failed: {:?}", res.status)));
    }
    Ok(res.verf)
}

/// Encode one complete call record (header + arguments).
fn encode_call(xid: u32, proc: u32, cred: &OpaqueAuth, args: &dyn XdrEncode) -> Vec<u8> {
    let header = CallHeader {
        xid,
        prog: NFS_PROGRAM,
        vers: NFS_VERSION,
        proc,
        cred: cred.clone(),
        verf: OpaqueAuth::none(),
    };
    let mut enc = XdrEncoder::with_capacity(128);
    header.encode(&mut enc);
    args.encode(&mut enc);
    enc.into_bytes()
}

/// Decode the result body of an accepted-success reply record.
fn decode_reply<T: XdrDecode>(reply: &[u8]) -> std::io::Result<T> {
    success_body(reply)
        .and_then(|body| T::from_xdr_bytes(body).ok())
        .ok_or_else(|| std::io::Error::other("upstream reply rejected or malformed"))
}

/// The `(offset, count)` of a READ or WRITE call, peeked without copying
/// any data: both argument layouts open with the file handle, a 64-bit
/// offset and a 32-bit count.
fn io_extent(args: &[u8]) -> Option<(u64, u32)> {
    let mut dec = XdrDecoder::new(args);
    dec.get_opaque_ref_max(FHSIZE).ok()?;
    Some((dec.get_u64().ok()?, dec.get_u32().ok()?))
}

/// A partial member stores only its mapped blocks: a READ crossing the
/// stripe-block boundary would be served past the member's own block from
/// its holes (zeros). Truncate the reply at the boundary — a short read
/// is legal NFS, and the client's next READ routes to the right member.
fn clamp_read(map: &StripeMap, offset: u64, count: u32, reply: Vec<u8>) -> Vec<u8> {
    let keep = map.contiguous(offset, count as u64) as usize;
    if keep == count as usize {
        return reply;
    }
    let Ok(mut res) = decode_reply::<ReadRes>(&reply) else { return reply };
    if res.data.len() <= keep {
        return reply;
    }
    res.data.truncate(keep);
    res.count = keep as u32;
    res.eof = false;
    encode_reply(sgfs_obs::peek_xid(&reply), &res)
}

fn all_down(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::NotConnected, what)
}

/// One round trip that rides out admission-control pushback: while the
/// server answers `NFS3ERR_JUKEBOX`, re-send the call verbatim under
/// capped exponential backoff. JUKEBOX means the call was *not* executed
/// (it was shed before dispatch), so the verbatim retry is safe even for
/// procedures [`replayable`](crate::proxy::retry::replayable) refuses —
/// this is a different axis from transport-loss replay, where execution
/// is unknown. Once `retry.jukebox_retries` is spent the pushback reply
/// is handed to the caller: JUKEBOX is a legal NFSv3 status the kernel
/// client also understands.
fn call_jukebox_patient(
    pipeline: &Pipeline,
    stats: &Emitter,
    retry: &crate::config::RetryPolicy,
    record: &[u8],
) -> std::io::Result<Vec<u8>> {
    let reply = pipeline.call(record)?;
    settle_jukebox(pipeline, stats, retry, record, reply)
}

/// The retry half of [`call_jukebox_patient`], for split-phase callers
/// that already hold the first reply.
fn settle_jukebox(
    pipeline: &Pipeline,
    stats: &Emitter,
    retry: &crate::config::RetryPolicy,
    record: &[u8],
    mut reply: Vec<u8>,
) -> std::io::Result<Vec<u8>> {
    let mut backoff = retry.backoff_base;
    for _ in 0..retry.jukebox_retries {
        if !crate::proxy::retry::is_jukebox_reply(&reply) {
            return Ok(reply);
        }
        stats.emit(
            Hop::JukeboxRetry,
            sgfs_obs::peek_xid(record),
            sgfs_obs::peek_proc(record),
            backoff.as_nanos() as u64,
        );
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(retry.backoff_cap);
        reply = pipeline.call(record)?;
    }
    Ok(reply)
}

/// Answer READ `a` from its locally held block.
fn serve_read(xid: u32, a: &ReadArgs, attr: Fattr3, data: &[u8]) -> Vec<u8> {
    let take = data.len().min(a.count as usize);
    let res = ReadRes {
        status: NfsStat3::Ok,
        eof: a.offset + take as u64 >= attr.size,
        attr: Some(attr),
        count: take as u32,
        data: data[..take].to_vec(),
    };
    encode_reply(xid, &res)
}

fn encode_reply<T: XdrEncode>(xid: u32, result: &T) -> Vec<u8> {
    let mut enc = XdrEncoder::with_capacity(128);
    ReplyHeader::success(xid).encode(&mut enc);
    result.encode(&mut enc);
    enc.into_bytes()
}

fn accept_error(xid: u32, stat: AcceptStat) -> Vec<u8> {
    ReplyHeader::Accepted { xid, verf: OpaqueAuth::none(), stat }.to_xdr_bytes()
}

fn success_body(reply: &[u8]) -> Option<&[u8]> {
    let mut dec = XdrDecoder::new(reply);
    match ReplyHeader::decode(&mut dec) {
        Ok(ReplyHeader::Accepted { stat: AcceptStat::Success, .. }) => {
            Some(&reply[dec.position()..])
        }
        _ => None,
    }
}

fn dir_of_create(proc: u32, args: &[u8]) -> Option<Fh3> {
    match proc {
        procnum::CREATE => CreateArgs::from_xdr_bytes(args).ok().map(|a| a.where_.dir),
        procnum::MKDIR => MkdirArgs::from_xdr_bytes(args).ok().map(|a| a.where_.dir),
        procnum::SYMLINK => SymlinkArgs::from_xdr_bytes(args).ok().map(|a| a.where_.dir),
        _ => None,
    }
}

fn readdir_key(proc: u32, args: &[u8]) -> Option<(Fh3, u64)> {
    match proc {
        procnum::READDIR => ReaddirArgs::from_xdr_bytes(args).ok().map(|a| (a.dir, a.cookie)),
        procnum::READDIRPLUS => {
            ReaddirPlusArgs::from_xdr_bytes(args).ok().map(|a| (a.dir, a.cookie))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: u32 = 512;

    /// Feed `blocks` as whole-block READs of a `size`-block file; return
    /// each READ's batch in blocks.
    fn scan(gov: &mut PrefetchGovernor, fh: &Fh3, blocks: &[u64], size: u64) -> Vec<Range<u64>> {
        let b = BLOCK as u64;
        blocks
            .iter()
            .map(|&at| {
                let batch = gov.on_read(fh, at * b, BLOCK, size * b);
                batch.start / b..batch.end.div_ceil(b)
            })
            .collect()
    }

    #[test]
    fn horizon_ramps_by_doubling_and_refills_at_mid_batch() {
        let mut gov = PrefetchGovernor::new(8);
        let fh = Fh3::from_ino(1, 7);
        let batches = scan(&mut gov, &fh, &(0..13).collect::<Vec<_>>(), 1000);
        let issued: Vec<_> = batches.iter().filter(|b| !b.is_empty()).cloned().collect();
        assert_eq!(issued, [1..2, 2..4, 4..8, 8..16, 16..24]);
        // Each batch went out as the reader crossed the middle of the one
        // before: after blocks 0, 1, 2, 5 and 11.
        let at: Vec<_> = (0..13).filter(|&i| !batches[i].is_empty()).collect();
        assert_eq!(at, [0, 1, 2, 5, 11]);
        assert_eq!(gov.stream(&fh).unwrap().horizon, 8);
    }

    #[test]
    fn nothing_is_asked_for_at_or_past_eof() {
        let mut gov = PrefetchGovernor::new(8);
        let fh = Fh3::from_ino(1, 7);
        // Ten and a half blocks: the last batch stops inside block 10.
        let size = 10 * BLOCK as u64 + BLOCK as u64 / 2;
        let mut asked = Vec::new();
        for at in 0..11u64 {
            let batch = gov.on_read(&fh, at * BLOCK as u64, BLOCK, size);
            assert!(batch.end <= size);
            asked.extend(batch.step_by(BLOCK as usize));
        }
        let expect: Vec<u64> = (1..11).map(|b| b * BLOCK as u64).collect();
        assert_eq!(asked, expect, "every block behind the first exactly once");
        // A file of at most one block never becomes a reader.
        let small = Fh3::from_ino(1, 8);
        assert!(gov.on_read(&small, 0, BLOCK, BLOCK as u64).is_empty());
        assert!(gov.stream(&small).is_none());
    }

    #[test]
    fn a_seek_collapses_the_horizon_and_a_sequential_run_regrows_it() {
        let mut gov = PrefetchGovernor::new(8);
        let fh = Fh3::from_ino(1, 7);
        scan(&mut gov, &fh, &[0, 1, 2], 1000);
        assert_eq!(gov.stream(&fh).unwrap().horizon, 4);
        // Random offsets: no batch, horizon 0.
        for batch in scan(&mut gov, &fh, &[40, 17, 93, 5], 1000) {
            assert!(batch.is_empty());
        }
        assert_eq!(gov.stream(&fh).unwrap().horizon, 0);
        // Sequential again from where the last seek landed.
        assert_eq!(scan(&mut gov, &fh, &[6, 7], 1000), [7..8, 8..10]);
    }

    #[test]
    fn pushback_halves_and_the_ramp_grows_back() {
        let mut gov = PrefetchGovernor::new(8);
        let fh = Fh3::from_ino(1, 7);
        scan(&mut gov, &fh, &(0..6).collect::<Vec<_>>(), 1000);
        assert_eq!(gov.stream(&fh).unwrap().horizon, 8);
        for expect in [4, 2, 1, 1] {
            gov.on_jukebox(&fh);
            assert_eq!(gov.stream(&fh).unwrap().horizon, expect);
        }
        // The next refill (mid-batch of 8..16) doubles from what is left.
        let batches = scan(&mut gov, &fh, &(6..12).collect::<Vec<_>>(), 1000);
        assert_eq!(batches.last().unwrap(), &(16..18));
    }

    #[test]
    fn the_reader_table_is_bounded() {
        let mut gov = PrefetchGovernor::new(8);
        for ino in 0..2 * STREAMS as u64 {
            gov.on_read(&Fh3::from_ino(1, ino), 0, BLOCK, 1 << 20);
        }
        assert_eq!(gov.streams.len(), STREAMS);
        assert!(gov.stream(&Fh3::from_ino(1, 0)).is_none(), "least recently seen went first");
        // Off is off.
        let mut off = PrefetchGovernor::new(0);
        assert!(off.on_read(&Fh3::from_ino(1, 0), 0, BLOCK, 1 << 20).is_empty());
        assert!(off.streams.is_empty());
    }
}
