//! The client-side SGFS proxy.
//!
//! Exposes plain NFS RPC to the local kernel client and forwards it over
//! the session's (optionally GTLS-protected) channel. Its distinguishing
//! feature is the per-session cache (§6.1 "aggressive disk caching of
//! attributes, access permissions and data"):
//!
//! * what the session knows about names and files — attributes, ACCESS
//!   verdicts, lookups, listings — is the [`NameCache`]'s: the proxy asks
//!   it to answer a call, and hands it every forwarded call's reply;
//! * **data blocks** are cached in a [`BlockStore`] (on local disk for the
//!   WAN configuration, in memory for the SFS-style daemon);
//! * **writes are write-back**: WRITE is absorbed into the dirty cache
//!   and acknowledged immediately; dirty blocks flush on COMMIT and at
//!   session teardown, and blocks of files removed before flushing are
//!   simply dropped — which is exactly how the paper's Seismic run avoids
//!   shipping temporary files across the WAN;
//! * the upstream channel is **pipelined**: a [`Pipeline`] owns the
//!   connection and keeps up to a window of calls in flight, demultiplexing
//!   replies by xid — the write-back flush keeps a window of dirty
//!   blocks in flight per member, and **read-ahead** READs are
//!   submitted split-phase into the same channel from the demand path
//!   instead of a second
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
use crate::proxy::blockstore::{BlockKey, BlockStore, DiskStore, MemStore};
use crate::proxy::journal::NameRecord;
use crate::proxy::namecache::{is_minted, Entry, NameCache, ADD_NAMES};
use crate::proxy::pipeline::{PendingReply, Pipeline};
use crate::proxy::stripe::{StripeMap, StripeSet};
use crate::proxy::wire::{
    decode_reply, encode_reply, failure, nfs_call, success_body, uid_of, Call,
};
use parking_lot::Mutex;
use sgfs_gtls::GtlsStream;
use sgfs_nfs3::proc::{procnum, *};
use sgfs_nfs3::types::*;
use sgfs_nfs3::{NFS_PROGRAM, NFS_VERSION};
use sgfs_oncrpc::{CallHeader, OpaqueAuth, RecordService};
use sgfs_net::{BoxStream, CrashInjector, CrashPoint};
use sgfs_obs::{Counter, Emitter, Gauge, Hop, NO_PROC};
use sgfs_xdr::{XdrDecode, XdrDecoder, XdrEncode, XdrEncoder};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// The most READDIRPLUS batches a listing of a directory takes
/// ([`ClientProxy::list`]); a directory that needs more is never listed.
const LISTING_BATCHES: usize = 4;
/// The bytes of one listing batch (`dircount` and `maxcount`): about 160
/// `sgfs-nfsd` entries.
const LISTING_BYTES: u32 = 32 * 1024;

/// The channel to the server-side proxy.
pub enum Upstream {
    /// No GTLS: the raw wire of the `gfs` baseline, or the `gfs-ssh`
    /// tunnel stream, which protects itself and is never rekeyed.
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

/// The client-side proxy for one SGFS session.
pub struct ClientProxy {
    /// The session's upstreams: the placement map plus one pipelined
    /// channel per member. A single-upstream session is the stripe set
    /// of one.
    stripe: StripeSet,
    /// The write-back block cache; `None` (the LAN runs) also leaves the
    /// namespace cache unused.
    store: Option<Box<dyn BlockStore>>,
    namecache: NameCache,
    stats: Emitter,
    next_xid: u32,
    client_cred: OpaqueAuth,
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
    missed: Vec<HashSet<BlockKey>>,
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
        let mut namecache = NameCache::new(map.is_partial(), stats.clone());
        let store: Option<Box<dyn BlockStore>> = match &config.cache {
            CacheMode::None => None,
            // SFS-style: metadata aggressively cached; read-ahead blocks
            // and absorbed WRITEs held in a bounded write-back memory
            // store (the size authority under partial placement).
            CacheMode::MemoryMeta => Some(Box::new(MemStore::new(64 * 1024 * 1024))),
            CacheMode::Disk { dir } => {
                // Crash-consistent disk cache: recover the previous
                // incarnation's journal (re-marking survivors dirty, and
                // re-logging the names it had not shipped) before serving
                // the first call, then journal new state.
                let (store, report) = DiskStore::with_durability(
                    dir.clone(),
                    config.durability,
                    stats.clone(),
                    config.crash.clone(),
                )?;
                namecache.recover(report.names);
                Some(Box::new(store))
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
            namecache,
            stripe: StripeSet::new(map, pipelines),
            store,
            stats,
            next_xid: 0x7000_0000,
            client_cred: OpaqueAuth::none(),
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
        let proc = sgfs_obs::peek_proc(record);
        // A logged name the call needed upstream was refused there: the
        // call fails with the server's status.
        let reply = self.process(record).or_else(|e| match refusal(&e) {
            Some(status) => Ok(failure(sgfs_obs::peek_xid(record), proc, status)),
            None => Err(e),
        });
        self.stats.message(proc, t0.elapsed());
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
        let (header, args) = match nfs_call(record) {
            Ok(call) => call,
            Err(reply) => return Ok(reply),
        };
        self.client_cred = header.cred.clone();

        if self.store.is_none() {
            return self.forward(record, header.proc, args);
        }
        match header.proc {
            procnum::READ => return self.handle_read(header.xid, record, args),
            procnum::WRITE => return self.handle_write(header.xid, record, args),
            procnum::COMMIT => {
                // Write-back: the disk cache *is* the commit target; dirty
                // blocks stay local until session teardown (or memory
                // pressure), which is where the paper's end-of-run
                // write-back time comes from. Only files we know nothing
                // about fall through to the server.
                let commit = CommitArgs::from_xdr_bytes(args).ok();
                if let Some(attr) = commit.and_then(|a| self.namecache.attr(&a.file)) {
                    let wcc = WccData { before: None, after: Some(attr) };
                    let res = CommitRes { status: NfsStat3::Ok, wcc, verf: self.write_verf };
                    return Ok(encode_reply(header.xid, &res));
                }
                return self.forward(record, header.proc, args);
            }
            _ => {}
        }
        let call = Call::decode(header.proc, args, &header.cred);
        let listed = self.namecache.listable(&call);
        if let Some(dir) = &listed {
            self.list(dir, &header.cred)?;
        }
        let answered = self.namecache.answer(header.xid, header.proc, &call, listed.is_some());
        if let Some(reply) = answered {
            return Ok(reply);
        }
        if let Some(reply) = self.write_behind(header.xid, &call, &header.cred)? {
            return Ok(reply);
        }
        let due = self.namecache.barrier(&call);
        if !due.is_empty() {
            self.ship(&due)?;
        }
        // Truncation invalidates cached blocks; flush dirty data first so
        // nothing is lost.
        if let Call::SetAttr(a) = &call {
            if a.new_attributes.size.is_some() {
                self.flush_file(&a.object)?;
                self.forget_data(&a.object);
            }
        }
        let reply = self.forward(record, header.proc, args)?;
        let store = &self.store;
        let (reply, unlinked) = self.namecache.apply(&call, reply, |fh| is_dirty(store, fh));
        if let Some(fh) = unlinked {
            self.forget_data(&fh);
            // A shipped name gone for good: recovery need not map it.
            if is_minted(&fh) && !self.namecache.is_mapped(&fh) {
                self.journal_name(&NameRecord::Cancelled { fh })?;
            }
        }
        // A directory the reply showed changed by another client ships
        // the names logged in it now. One the server refuses stays
        // logged, and fails the flush with its path.
        let due = self.namecache.take_expired();
        if !due.is_empty() {
            match self.ship(&due) {
                Err(e) if refusal(&e).is_none() => return Err(e),
                _ => {}
            }
        }
        Ok(reply)
    }

    /// List `dir` to EOF with READDIRPLUS, as the caller `cred`, for the
    /// namespace cache ([`NameCache::listed`]): the first batch in one
    /// split-phase round with an ACCESS of [`ADD_NAMES`] on `dir`, whose
    /// verdict says whether the caller may log names there, then a batch
    /// per round trip while the listing goes on, [`LISTING_BATCHES`] in
    /// all. A directory that does not fit stays unknown.
    fn list(&mut self, dir: &Fh3, cred: &OpaqueAuth) -> std::io::Result<()> {
        let batch = |cookie, cookieverf| ReaddirPlusArgs {
            dir: dir.clone(),
            cookie,
            cookieverf,
            dircount: LISTING_BYTES,
            maxcount: LISTING_BYTES,
        };
        let access = AccessArgs { object: dir.clone(), access: ADD_NAMES };
        let mut records = vec![
            self.own_call(Some(cred), procnum::READDIRPLUS, &batch(0, 0))?,
            self.own_call(Some(cred), procnum::ACCESS, &access)?,
        ];
        self.stats.forwarded(procnum::ACCESS);
        let (mut batches, mut verdict) = (Vec::new(), None);
        while batches.len() < LISTING_BATCHES {
            self.stats.forwarded(procnum::READDIRPLUS);
            let mut replies = self.round_first_live(&records)?.into_iter();
            let listing = replies.next().expect("a reply per call");
            let reply = self.namecache.to_mount(procnum::READDIRPLUS, listing);
            verdict = verdict.or(replies.next());
            let Ok(res) = decode_reply::<ReaddirPlusRes>(&reply) else { break };
            let next = res.entries.last().map(|e| (e.cookie, res.cookieverf));
            let more = res.status == NfsStat3::Ok && !res.eof;
            batches.push(res);
            match next.filter(|_| more) {
                Some((cookie, verf)) => {
                    let next = batch(cookie, verf);
                    records = vec![self.own_call(Some(cred), procnum::READDIRPLUS, &next)?];
                }
                None => break,
            }
        }
        let store = &self.store;
        self.namecache.listed(dir, &batches, |fh| is_dirty(store, fh));
        if let Some(reply) = verdict {
            let reply = self.namecache.to_mount(procnum::ACCESS, reply);
            let call = Call::Access(access, uid_of(cred));
            self.namecache.apply(&call, reply, |fh| is_dirty(store, fh));
        }
        Ok(())
    }

    /// One split-phase round of `records` on the lowest-index live
    /// member, walking down the set as members fail over.
    fn round_first_live(&mut self, records: &[Vec<u8>]) -> std::io::Result<Vec<Vec<u8>>> {
        loop {
            let m = self.stripe.first_live();
            match self.mirror_to([m], records) {
                Err(_) if !self.stripe.is_up(m) => {} // failed over; next survivor
                result => return result,
            }
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
        if let Some(attr) = self.namecache.attr(&a.file) {
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
        if is_dirty(&self.store, &a.file) {
            self.flush_file(&a.file)?;
        }
        let reply = self.forward(record, procnum::READ, args)?;
        if let Some(body) = success_body(&reply) {
            if let Ok(res) = ReadRes::from_xdr_bytes(body) {
                if let Some(attr) = res.attr {
                    // Clean: flushed above if it was dirty.
                    self.namecache.observe(&a.file, attr, false);
                }
                // An error reply (a JUKEBOX the retries could not ride
                // out, a stale handle) carries no block to cache.
                if res.status == NfsStat3::Ok {
                    self.put_clean(key, &res.data)?;
                }
            }
        }
        if !ran_ahead {
            if let Some(attr) = self.namecache.attr(&a.file) {
                self.read_ahead(&a, attr.size);
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
        if batch.is_empty() || is_dirty(&self.store, &a.file) {
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
            let Ok(record) = self.own_call(None, procnum::READ, &args) else { return };
            offsets_of[m].push(offset);
            records_of[m].push(record);
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
        // The data stays in the call record: the store copies it once.
        let mut dec = XdrDecoder::new(args);
        let a = match WriteArgsRef::decode(&mut dec) {
            Ok(a) if dec.remaining() == 0 => a,
            _ => return self.forward(record, procnum::WRITE, args),
        };
        self.prefetch_gov.forget(&a.file);
        // Need attributes to fabricate a coherent reply.
        if self.namecache.attr(&a.file).is_none() {
            match self.call_upstream::<GetAttrRes>(procnum::GETATTR, &a.file) {
                Ok(GetAttrRes { status: NfsStat3::Ok, attr: Some(attr) }) => {
                    let dirty = is_dirty(&self.store, &a.file);
                    self.namecache.observe(&a.file, attr, dirty);
                }
                _ => return self.write_through(xid, record, args, &a.file),
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
        let store = self.store.as_mut().expect("only a caching proxy absorbs WRITEs");
        let (mut off, mut data) = (a.offset, a.data);
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
            return self.write_through(xid, record, args, &a.file);
        }
        self.stats.emit(Hop::BlockWrite, xid, procnum::WRITE, t_blk.elapsed().as_nanos() as u64);
        let end = a.offset + a.data.len() as u64;
        let attr = self.namecache.wrote(&a.file, end).expect("ensured above");
        let res = WriteRes {
            status: NfsStat3::Ok,
            wcc: WccData { before: None, after: Some(attr) },
            count: a.data.len() as u32,
            committed: StableHow::FileSync,
            verf: self.write_verf,
        };
        Ok(encode_reply(xid, &res))
    }

    /// Send WRITE `record` on `file` to the server instead of absorbing
    /// it. Whatever the store holds of the file would be stale behind it —
    /// a READ would serve it, a flush write it over the new data — so the
    /// file is flushed and its blocks forgotten first, and the reply's
    /// attributes are taken in as clean. A file whose flush fails is
    /// answered NFS3ERR_IO and the WRITE never sent.
    fn write_through(
        &mut self,
        xid: u32,
        record: &[u8],
        args: &[u8],
        file: &Fh3,
    ) -> std::io::Result<Vec<u8>> {
        if self.store.as_ref().is_some_and(|s| !s.blocks_of(file).is_empty()) {
            if let Err(e) = self.flush_file(file) {
                if sgfs_net::crash::is_crash(&e) {
                    return Err(e);
                }
                return Ok(failure(xid, procnum::WRITE, NfsStat3::Io));
            }
            self.forget_data(file);
        }
        let reply = self.forward(record, procnum::WRITE, args)?;
        if let Ok(WriteRes { wcc: WccData { after: Some(attr), .. }, .. }) = decode_reply(&reply) {
            self.namecache.observe(file, attr, false);
        }
        Ok(reply)
    }

    /// Write every dirty block of `fh` back upstream and make it stable,
    /// under the NFSv3 write-verifier contract (RFC 1813 §3.3.7,
    /// §3.3.21): the plan sends each block to every live member mapped
    /// to it — a down member gets it in its missed set instead — and
    /// [`write_back`](Self::write_back) runs the round. A block no member
    /// committed, or one a member still in the set did not commit under a
    /// stable verifier (the server rebooted and lost its unstable data),
    /// is re-dirtied and the round runs again. When the round fails every
    /// block of the file is dirty again, so a later flush re-sends it: no
    /// block is left clean without a COMMIT covering it.
    pub fn flush_file(&mut self, fh: &Fh3) -> std::io::Result<()> {
        // A verifier change mid-flush means a server reboot; more than a
        // couple in one flush means the server is crash-looping and
        // retrying forever would hide that.
        const MAX_VERIFIER_RETRIES: u32 = 3;
        // A file's blocks follow its name.
        if self.namecache.is_logged(fh) {
            self.ship(std::slice::from_ref(fh))?;
        }
        for _ in 0..MAX_VERIFIER_RETRIES {
            let dirty = match &self.store {
                Some(s) => s.dirty_blocks_of(fh),
                None => return Ok(()),
            };
            if dirty.is_empty() {
                return Ok(());
            }
            // One split-phase round is starting: aux = dirty blocks in it.
            self.stats.emit(Hop::FlushRound, 0, procnum::COMMIT, dirty.len() as u64);
            let map = *self.stripe.map();
            let mut plan = vec![Vec::new(); self.stripe.width()];
            for &offset in &dirty {
                let block = map.block_of(offset);
                if self.stripe.live_members_of_block(block).next().is_none() {
                    self.redirty(fh, &dirty);
                    return Err(all_down("every replica of a dirty block is down"));
                }
                for m in map.members_of_block(block) {
                    let key = (fh.clone(), offset);
                    if self.stripe.is_up(m) {
                        plan[m].push(key);
                    } else {
                        self.missed[m].insert(key);
                    }
                }
            }
            let mut round = match self.write_back(&plan) {
                Ok(round) => round,
                Err(e) => {
                    self.redirty(fh, &dirty);
                    return Err(e);
                }
            };
            // Settled: some member committed the block, and no member
            // still in the set lost it.
            let unsettled: Vec<u64> = dirty
                .iter()
                .copied()
                .filter(|&offset| {
                    let key = (fh.clone(), offset);
                    let (mut held, mut lost) = (false, false);
                    for m in map.members_of_block(map.block_of(offset)) {
                        let has = round.committed[m].contains(&key);
                        held |= has;
                        lost |= !has && self.stripe.is_up(m);
                    }
                    !held || lost
                })
                .collect();
            if !unsettled.is_empty() {
                self.redirty(fh, &unsettled);
                continue;
            }
            // Kill point: the server has committed but the journal has not
            // heard — recovery re-sends the blocks, which is idempotent.
            self.hit_crash(CrashPoint::FlushAfterCommit)?;
            if let Some(store) = &mut self.store {
                store.commit_file(fh)?;
            }
            if let Some(a) = round.after.remove(fh) {
                // The wcc attr came from one member's COMMIT, which ran
                // before any size mirror: `observe` keeps a partial
                // replica's size from shrinking the attr the client has seen.
                self.namecache.observe(fh, a, false);
            }
            return Ok(());
        }
        Err(std::io::Error::other(
            "write verifier kept changing across flush attempts (server crash-looping?)",
        ))
    }

    /// One write-back round, the only code that sends a write-back WRITE
    /// or COMMIT: `plan[m]` lists the blocks member `m` is sent, grouped
    /// by file (a block the store no longer holds is skipped).
    ///
    /// Split-phase and window-bounded: every member is first handed up
    /// to a window of UNSTABLE WRITEs, before any reply is awaited, so
    /// the members of a round proceed in parallel and a WAN round
    /// overlaps a window of round trips per member. Replies are then
    /// awaited round-robin across the members, and each one that settles
    /// feeds its member the next block of its plan, encoded only then —
    /// so a round has at most a window of calls per member in flight,
    /// whatever the size of the plan, and no COMMIT can overtake data.
    /// Xids are taken at encode time, so across members they interleave;
    /// each member's calls still go out in its plan's order. A call a
    /// server sheds at admission (JUKEBOX — never executed) is re-sent
    /// verbatim under backoff to that member
    /// ([`settle_write`](Self::settle_write)). A dirty block some member
    /// confirmed goes clean before any COMMIT goes out; then each member
    /// gets one COMMIT per file and, under partial placement, the proxy's
    /// size of the file (SETATTR): a member lacking the final block would
    /// otherwise undershoot it, and any member must be able to serve
    /// GETATTR.
    ///
    /// Failures are classified here, by one rule. A reply that could not
    /// be delivered or decoded is a transport failure: its member is
    /// struck (see [`strike`](Self::strike)) and fed no more. An NFS
    /// error status is the server's answer about that file: when every
    /// member sent the file answered one, the round fails with it and no
    /// member changes state; when only some did, those have diverged from
    /// their replicas and are struck.
    fn write_back(&mut self, plan: &[Vec<BlockKey>]) -> std::io::Result<Round> {
        let width = plan.len();
        let window = self.channels.window.max(1) as usize;
        let mut feeds = Vec::with_capacity(width);
        for (m, keys) in plan.iter().enumerate() {
            let member = self.stripe.member(m);
            let mut feed = Feed { member, rest: keys.iter(), out: VecDeque::new() };
            let mut first = Vec::new();
            while first.len() < window {
                match self.next_write(&mut feed.rest)? {
                    Some(call) => first.push(call),
                    None => break,
                }
            }
            // Up to a window goes on the wire before any reply is awaited.
            let replies = feed.member.submit_batch(first.iter().map(|(_, _, record)| record));
            feed.out.extend(first.into_iter().zip(replies).map(|((k, x, _), reply)| (k, x, reply)));
            feeds.push(feed);
        }
        let mut parts: Vec<Part> = (0..width).map(|_| Part::default()).collect();
        while feeds.iter().any(|f| !f.out.is_empty()) {
            for m in 0..width {
                let Some((key, xid, reply)) = feeds[m].out.pop_front() else { continue };
                let member = feeds[m].member.clone();
                let reply = self.stripe.wait(reply);
                let reply = reply.and_then(|r| self.settle_write(&member, &key, xid, r));
                match reply.and_then(|r| decode_reply::<WriteRes>(&r)) {
                    Ok(res) if res.status == NfsStat3::Ok => {
                        parts[m].verify(res.verf);
                        parts[m].written.push(key);
                    }
                    Ok(res) => parts[m].rejected.push((key.0, res.status)),
                    Err(e) => {
                        // Failed mid-plan: the rest of its replies are moot.
                        self.strike(m, &plan[m], &mut parts[m], e)?;
                        feeds[m].out.clear();
                        feeds[m].rest = [].iter();
                        continue;
                    }
                }
                if let Some((key, xid, record)) = self.next_write(&mut feeds[m].rest)? {
                    let reply = member.submit(&record);
                    feeds[m].out.push_back((key, xid, reply));
                }
            }
        }
        // What a member confirmed of a file it did not reject goes clean
        // (journaled) before any COMMIT goes out; the caller re-dirties
        // whatever the round does not make stable.
        for part in &parts {
            for key in part.written.iter().filter(|k| part.accepts(&k.0)) {
                if let Some(store) = &mut self.store {
                    if store.meta(key).is_some_and(|b| b.dirty) {
                        store.set_clean(key)?;
                    }
                }
            }
        }
        // Kill point: blocks are clean locally, COMMIT never goes out.
        // Recovery must re-dirty them (clean-before-COMMIT is not stable).
        self.hit_crash(CrashPoint::FlushBeforeCommit)?;
        let partial = self.stripe.map().is_partial();
        let mut after = HashMap::new();
        for m in 0..width {
            let mut files: Vec<Fh3> = parts[m].written.iter().map(|k| k.0.clone()).collect();
            files.dedup();
            files.retain(|f| parts[m].accepts(f));
            for fh in files {
                let size = self.namecache.attr(&fh).map(|a| a.size).filter(|_| partial);
                let commit = CommitArgs { file: fh.clone(), offset: 0, count: 0 };
                let answer = self.call_on::<CommitRes>(m, procnum::COMMIT, &commit);
                let answer = answer.and_then(|res| {
                    let Some(size) = size.filter(|_| res.status == NfsStat3::Ok) else {
                        return Ok((res.status, res));
                    };
                    let new_attributes = Sattr3 { size: Some(size), ..Default::default() };
                    let mirror = SetAttrArgs { object: fh.clone(), new_attributes };
                    let mirrored: WccRes = self.call_on(m, procnum::SETATTR, &mirror)?;
                    Ok((mirrored.status, res))
                });
                match answer {
                    Ok((NfsStat3::Ok, res)) => {
                        parts[m].verify(res.verf);
                        if let Some(a) = res.wcc.after {
                            after.entry(fh).or_insert(a);
                        }
                        self.stats.emit(Hop::ReplicaWrite, 0, procnum::COMMIT, m as u64);
                    }
                    Ok((status, _)) => parts[m].rejected.push((fh, status)),
                    Err(e) => {
                        self.strike(m, &plan[m], &mut parts[m], e)?;
                        break;
                    }
                }
            }
        }
        // An error status is the server's answer about its file: the file
        // fails the round unless a member still in it accepted the file.
        for (fh, status) in parts.iter().filter(|p| !p.struck).flat_map(|p| &p.rejected) {
            if !parts.iter().any(|p| p.accepts(fh) && p.written.iter().any(|k| k.0 == *fh)) {
                return Err(rejected(*status));
            }
        }
        // Otherwise the members that rejected it diverged from a replica.
        for m in 0..width {
            if let Some(&(_, status)) = parts[m].rejected.first().filter(|_| !parts[m].struck) {
                self.strike(m, &plan[m], &mut parts[m], rejected(status))?;
            }
        }
        let committed = parts.into_iter().map(|p| {
            if p.struck || p.unstable {
                HashSet::new()
            } else {
                p.written.into_iter().collect()
            }
        });
        Ok(Round { committed: committed.collect(), after })
    }

    /// Member `m` failed `part` of a write-back round with `e`: fail it
    /// over and queue `keys`, its plan, for its re-sync. A member that
    /// cannot be degraded away from — the last one standing, or a
    /// re-syncing one that is not in the set — fails the round with `e`
    /// instead.
    fn strike(
        &mut self,
        m: usize,
        keys: &[BlockKey],
        part: &mut Part,
        e: std::io::Error,
    ) -> std::io::Result<()> {
        if !self.stripe.is_up(m) || !self.fail_member(m) {
            return Err(e);
        }
        self.missed[m].extend(keys.iter().cloned());
        part.struck = true;
        Ok(())
    }

    /// The write-back WRITE of the next block in `keys` the store still
    /// holds, under the next xid; `None` once `keys` is spent.
    fn next_write(
        &mut self,
        keys: &mut std::slice::Iter<'_, BlockKey>,
    ) -> std::io::Result<Option<(BlockKey, u32, Vec<u8>)>> {
        for key in keys {
            let Some(args) = self.write_args(key) else { continue };
            let record = self.own_call(None, procnum::WRITE, &args)?;
            return Ok(Some((key.clone(), self.next_xid, record)));
        }
        Ok(None)
    }

    /// An UNSTABLE WRITE of the block `key` the store holds.
    fn write_args(&mut self, key: &BlockKey) -> Option<WriteArgs> {
        let data = self.store.as_mut()?.get(key)?;
        let (file, offset) = key.clone();
        Some(WriteArgs { file, offset, stable: StableHow::Unstable, data })
    }

    /// A write-back WRITE's reply; when the server shed the call
    /// unexecuted (JUKEBOX), the reply to its verbatim re-send under
    /// backoff. The round keeps no record to re-send: the call is encoded
    /// again, under its `xid`, from the block the store still holds —
    /// nothing changes the block, the credential or the handle mapping
    /// while the round runs, so the bytes are the ones first sent.
    fn settle_write(
        &mut self,
        member: &Pipeline,
        key: &BlockKey,
        xid: u32,
        reply: Vec<u8>,
    ) -> std::io::Result<Vec<u8>> {
        if !crate::proxy::retry::is_jukebox_reply(&reply) {
            return Ok(reply);
        }
        let Some(args) = self.write_args(key) else { return Ok(reply) };
        let record = self.call_as(xid, None, procnum::WRITE, &args)?;
        settle_jukebox(member, &self.stats, &self.channels.retry, &record, reply)
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
        let Some(store) = &self.store else { return Ok(0) };
        let before = store.dirty_bytes();
        // Names first: every logged name becomes visible now, as the data
        // does, and a file's blocks follow its name.
        let logged = self.namecache.logged();
        let mut first_err = self.ship(&logged).err();
        let mut files = self.store.as_ref().map(|s| s.dirty_files()).unwrap_or_default();
        files.retain(|fh| !self.namecache.is_logged(fh));
        // Every file is attempted: one that cannot be written back (its
        // handle went stale behind the cache) must not strand the rest. A
        // file whose name was refused stays dirty; the error names it.
        for fh in files {
            if let Err(e) = self.flush_file(&fh) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(before), Err)
    }

    /// Drop every block of `fh` and its read-ahead stream: a truncation
    /// makes them stale, and a file whose last link the server removed
    /// is never flushed — the paper's temporary-file optimization.
    fn forget_data(&mut self, fh: &Fh3) {
        if let Some(store) = &mut self.store {
            store.drop_file(fh);
        }
        self.prefetch_gov.forget(fh);
    }

    /// Bytes currently dirty in the write-back cache.
    pub fn dirty_bytes(&self) -> u64 {
        self.store.as_ref().map(|s| s.dirty_bytes()).unwrap_or(0)
    }

    /// Forward a raw record upstream and return the raw reply — the one
    /// routing function of every placement.
    /// READs go to a mapped member of their block (failing over past down
    /// members); a write-through WRITE reaches every member mapped to a
    /// block it covers; namespace mutations and COMMIT are mirrored to
    /// every live member so replica state stays structurally identical
    /// (file handles are derived from the op sequence, which every member
    /// sees in the same order); GETATTR asks every member when members
    /// are partial; everything else rides the first live member. The
    /// call crosses the upstream boundary under the server's handles
    /// ([`upstream`](Self::upstream)), the reply under the mount's
    /// ([`NameCache::to_mount`]).
    fn forward(&mut self, record: &[u8], proc: u32, args: &[u8]) -> std::io::Result<Vec<u8>> {
        let record = &self.upstream(Cow::Borrowed(record))?;
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
                let members = map.members_of_extent(offset, count as u64);
                self.mirror_to(members, &[record])?.swap_remove(0)
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
            ) => self.mirror_to(0..self.stripe.width(), &[record])?.swap_remove(0),
            (procnum::GETATTR, _) if map.is_partial() => self.getattr_every_member(record)?,
            _ => self.call_first_live(record)?,
        };
        Ok(self.namecache.to_mount(proc, reply))
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

    /// Mirror calls to every live member of `members` — each member's
    /// batch submitted before any reply is awaited — and return the
    /// replies of the lowest-index member that answered them all.
    fn mirror_to<R: AsRef<[u8]>>(
        &mut self,
        members: impl IntoIterator<Item = usize>,
        records: &[R],
    ) -> std::io::Result<Vec<Vec<u8>>> {
        let t_io = std::time::Instant::now();
        let mut pending = Vec::new();
        for m in members {
            if self.stripe.is_up(m) {
                let member = self.stripe.member(m);
                let replies = member.submit_batch(records);
                pending.push((m, member, replies));
            }
        }
        let (mut first, mut last) = (None, None);
        for (m, member, replies) in pending {
            // A shed call never executed on that member, so it is settled
            // (re-sent verbatim under backoff) against the same member —
            // the replicas that accepted the call are unaffected.
            let answered: std::io::Result<Vec<Vec<u8>>> = records
                .iter()
                .zip(replies)
                .map(|(record, reply)| {
                    let retry = &self.channels.retry;
                    settle_jukebox(&member, &self.stats, retry, record.as_ref(), reply.wait()?)
                })
                .collect();
            match answered {
                Ok(replies) => {
                    first.get_or_insert(replies);
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
    /// every block it missed while down that the store still holds clean
    /// is replayed by [`write_back`](Self::write_back) — the plan is
    /// those blocks on member `m` and nothing else — before the member
    /// serves reads or counts toward replication again. A missed block
    /// that is still dirty is left to its file's next flush, which sends
    /// it to every live member, `m` included. On error the member stays
    /// down and the missed set is kept — re-sync is idempotent and can
    /// simply run again.
    pub fn resync_member(&mut self, m: usize) -> std::io::Result<()> {
        if !self.stripe.is_up(m) {
            self.revive_member(m)?;
        }
        let store = self.store.as_ref();
        let clean = |key: &&BlockKey| store.and_then(|s| s.meta(key)).is_some_and(|b| !b.dirty);
        let mut keys: Vec<BlockKey> = self.missed[m].iter().filter(clean).cloned().collect();
        keys.sort();
        let count = keys.len();
        let mut plan = vec![Vec::new(); self.stripe.width()];
        plan[m] = keys;
        if count == 0 {
            // Nothing to replay, so no traffic would prove the revived
            // channel end-to-end. Without this probe a rejoin with an
            // empty missed set would mark the member up — and drop the
            // `degraded` gauge to zero — on pure faith in a channel that
            // may be as dead as the one it replaced. Any decodable reply
            // counts: the probe tests the transport, not the file.
            self.call_on::<GetAttrRes>(m, procnum::GETATTR, &Fh3::from_ino(0, 0))?;
        } else if self.write_back(&plan)?.committed[m].len() < count {
            return Err(std::io::Error::other("replica write verifier changed during re-sync"));
        }
        self.missed[m].clear();
        self.stripe.mark_up(m);
        self.stats.set(Gauge::Degraded, self.stripe.down_count());
        self.stats.emit(Hop::ReplicaWrite, 0, NO_PROC, m as u64);
        Ok(())
    }

    /// A proxy-initiated upstream call (attr fetches), routed to the
    /// first live member, walking down the set as members fail.
    fn call_upstream<T: XdrDecode>(
        &mut self,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> std::io::Result<T> {
        let record = self.own_call(None, proc, args)?;
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
        let record = self.own_call(None, proc, args)?;
        let member = self.stripe.member(m);
        decode_reply(&call_jukebox_patient(&member, &self.stats, &self.channels.retry, &record)?)
    }

    /// Write a call of the proxy's own — as `cred` made it, else as the
    /// mount's latest call did — under the next xid, and take it across
    /// the [`upstream`](Self::upstream) boundary.
    fn own_call(
        &mut self,
        cred: Option<&OpaqueAuth>,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> std::io::Result<Vec<u8>> {
        self.next_xid = self.next_xid.wrapping_add(1);
        self.call_as(self.next_xid, cred, proc, args)
    }

    /// [`own_call`](Self::own_call) under `xid`, taken before.
    fn call_as(
        &mut self,
        xid: u32,
        cred: Option<&OpaqueAuth>,
        proc: u32,
        args: &dyn XdrEncode,
    ) -> std::io::Result<Vec<u8>> {
        let header = CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc,
            cred: cred.unwrap_or(&self.client_cred).clone(),
            verf: OpaqueAuth::none(),
        };
        let mut enc = XdrEncoder::with_capacity(128);
        header.encode(&mut enc);
        args.encode(&mut enc);
        Ok(self.upstream(Cow::Owned(enc.into_bytes()))?.into_owned())
    }

    /// The upstream boundary every call the proxy sends crosses: a logged
    /// name the call names ships first, then the namespace cache swaps
    /// each minted handle for the server's ([`NameCache::to_server`]).
    fn upstream<'r>(&mut self, record: Cow<'r, [u8]>) -> std::io::Result<Cow<'r, [u8]>> {
        let due = self.namecache.unshipped_in(&record);
        if !due.is_empty() {
            self.ship(&due)?;
        }
        Ok(self.namecache.to_server(&record).map_or(record, Cow::Owned))
    }

    /// Log a CREATE or MKDIR the namespace cache can make here, or cancel
    /// the logged name a REMOVE or RMDIR removes, and return the local
    /// reply — once the journal, if any, holds the change. `None` sends
    /// the call upstream, which a journal that failed for real also does.
    fn write_behind(
        &mut self,
        xid: u32,
        call: &Call,
        cred: &OpaqueAuth,
    ) -> std::io::Result<Option<Vec<u8>>> {
        if let Some(entry) = self.namecache.loggable(call, cred) {
            // The record is built only for a store that keeps it.
            let kept = self.store.as_ref().is_some_and(|s| s.keeps_names());
            if !kept || self.journal_name(&entry.record())? {
                return Ok(Some(self.namecache.log(xid, entry)));
            }
        } else if let Some(fh) = self.namecache.cancellable(call) {
            if self.journal_name(&NameRecord::Cancelled { fh: fh.clone() })? {
                self.forget_data(&fh);
                return Ok(Some(self.namecache.cancel(xid, &fh)));
            }
        }
        Ok(None)
    }

    /// Journal one change to the namespace log; whether it is durable.
    /// Only an injected crash is an error: a store whose journal failed
    /// for real stops promising, as a spool that fails a WRITE does.
    fn journal_name(&mut self, rec: &NameRecord) -> std::io::Result<bool> {
        match self.store.as_mut().map(|s| s.record_name(rec)) {
            Some(Err(e)) if sgfs_net::crash::is_crash(&e) => Err(e),
            Some(Err(_)) => Ok(false),
            _ => Ok(true),
        }
    }

    /// Ship the logged entries `due` and the logged directories above
    /// them: a parent before its children, each dependency level as one
    /// split-phase batch to every live member (a member that is down
    /// misses it, as it misses any mirrored namespace call), a CREATE as
    /// GUARDED (see [`Entry::shipped`]). Each entry is journaled as sent
    /// before its call leaves, and with its server handle once made. One
    /// the server refused — another client took the name, or anything
    /// else — is journaled refused and stays logged with everything
    /// beneath it, and the ship fails naming its path; it is never renamed
    /// or retried UNCHECKED. The one exception is an entry still marked
    /// sent, whose earlier call's outcome never reached the journal (a
    /// lost reply, a killed process): EXIST may then be that call's doing,
    /// and the name the server has, if it is of the entry's kind, is
    /// taken as the entry's ([`adopt`](Self::adopt)).
    fn ship(&mut self, due: &[Fh3]) -> std::io::Result<()> {
        let mut refused = None;
        for (depth, level) in self.namecache.ship_plan(due).into_iter().enumerate() {
            if depth > 0 {
                self.hit_crash(CrashPoint::ShipBetweenLevels)?;
            }
            let level: Vec<Entry> =
                level.into_iter().filter(|e| !self.namecache.is_logged(&e.where_().dir)).collect();
            let mut records = Vec::with_capacity(level.len());
            for e in &level {
                // A journal that failed for real keeps the mark in memory
                // only, as it keeps no other promise.
                self.journal_name(&NameRecord::Sent { fh: e.fh.clone() })?;
                self.namecache.sent(&e.fh, true);
                self.stats.forwarded(e.proc());
                records.push(self.own_call(Some(&e.cred), e.proc(), &*e.shipped())?);
            }
            if records.is_empty() {
                continue;
            }
            let replies = self.mirror_to(0..self.stripe.width(), &records)?;
            self.hit_crash(CrashPoint::ShipAfterReply)?;
            for (e, reply) in level.iter().zip(replies) {
                let status = match decode_reply::<CreateRes>(&reply) {
                    Ok(CreateRes {
                        status: NfsStat3::Ok,
                        obj: Some(server),
                        obj_attr,
                        dir_wcc,
                    }) => {
                        self.made(e, server, obj_attr, dir_wcc)?;
                        continue;
                    }
                    // Made or not, the server did not say: the entry
                    // stays sent.
                    Ok(CreateRes { status: NfsStat3::Ok, .. }) | Err(_) => NfsStat3::ServerFault,
                    Ok(CreateRes { status, .. }) => {
                        if status == NfsStat3::Exist && e.was_sent() && self.adopt(e)? {
                            continue;
                        }
                        // The server did not make it: a name the entry
                        // meets there later is another's.
                        self.journal_name(&NameRecord::Refused { fh: e.fh.clone() })?;
                        self.namecache.sent(&e.fh, false);
                        status
                    }
                };
                let path = self.namecache.path(e.where_());
                refused.get_or_insert(Refused { path, status });
            }
        }
        refused.map_or(Ok(()), |r| Err(std::io::Error::other(r)))
    }

    /// The server made the logged entry `e` as `server`: journal it, then
    /// let the namespace cache map it.
    fn made(
        &mut self,
        e: &Entry,
        server: Fh3,
        obj: Option<Fattr3>,
        dir: WccData,
    ) -> std::io::Result<()> {
        let fileid = obj.as_ref().map(|a| a.fileid);
        let rec = NameRecord::Shipped { fh: e.fh.clone(), server: server.clone(), fileid };
        // A journal that failed for real leaves the entry marked sent,
        // which is what recovery needs to adopt it.
        self.journal_name(&rec)?;
        let dirty = is_dirty(&self.store, &e.fh);
        self.namecache.shipped(&e.fh, server, obj, dir, dirty);
        Ok(())
    }

    /// A sent entry met EXIST: LOOKUP its name and take what the server
    /// has as the entry, if it is of the entry's kind. Whether it did.
    fn adopt(&mut self, e: &Entry) -> std::io::Result<bool> {
        self.stats.forwarded(procnum::LOOKUP);
        let record = self.own_call(Some(&e.cred), procnum::LOOKUP, e.where_())?;
        let kind = if e.is_dir() { FType3::Dir } else { FType3::Reg };
        match decode_reply::<LookupRes>(&self.call_first_live(&record)?) {
            Ok(LookupRes {
                status: NfsStat3::Ok,
                object: Some(server),
                obj_attr: Some(attr),
                dir_attr,
            }) if attr.ftype == kind => {
                self.made(e, server, Some(attr), WccData { before: None, after: dir_attr })?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

/// A logged name the server refused to make.
#[derive(Debug)]
struct Refused {
    path: String,
    status: NfsStat3,
}

impl std::fmt::Display for Refused {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "write-back of the name {} failed: {:?}", self.path, self.status)
    }
}

impl std::error::Error for Refused {}

/// The server's status, when `e` is a refused name.
fn refusal(e: &std::io::Error) -> Option<NfsStat3> {
    e.get_ref().and_then(|e| e.downcast_ref::<Refused>()).map(|r| r.status)
}

/// What one write-back round made stable.
struct Round {
    /// Per member, the blocks it committed under one unchanged write
    /// verifier.
    committed: Vec<HashSet<BlockKey>>,
    /// Per file, the post-op attributes of its first successful COMMIT.
    after: HashMap<Fh3, Fattr3>,
}

/// One member's WRITEs in a write-back round: the blocks of its plan not
/// yet encoded, and its calls in flight, oldest first, each with its xid.
struct Feed<'p> {
    member: Pipeline,
    rest: std::slice::Iter<'p, BlockKey>,
    out: VecDeque<(BlockKey, u32, PendingReply)>,
}

/// One member's share of a write-back round.
#[derive(Default)]
struct Part {
    /// The blocks whose WRITE it confirmed.
    written: Vec<BlockKey>,
    /// The write verifier of its first confirmed reply; `unstable` once
    /// another reply carried a different one.
    verf: Option<u64>,
    unstable: bool,
    /// The files it answered with an NFS error status.
    rejected: Vec<(Fh3, NfsStat3)>,
    /// Failed over in this round.
    struck: bool,
}

impl Part {
    fn verify(&mut self, verf: u64) {
        self.unstable |= *self.verf.get_or_insert(verf) != verf;
    }

    /// Still in the round, and answered no error status for `fh`.
    fn accepts(&self, fh: &Fh3) -> bool {
        !self.struck && self.rejected.iter().all(|(f, _)| f != fh)
    }
}

/// The round's error for a file the server answered with `status`.
fn rejected(status: NfsStat3) -> std::io::Error {
    std::io::Error::other(format!("write-back failed: {status:?}"))
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

/// Whether `store` holds unflushed data for `fh` (server attrs are
/// stale).
fn is_dirty(store: &Option<Box<dyn BlockStore>>, fh: &Fh3) -> bool {
    store.as_ref().is_some_and(|s| s.has_dirty(fh))
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

    /// A `/GFS` export of a fresh file system, and its root handle.
    fn export() -> (Arc<sgfs_vfs::Vfs>, Arc<sgfs_nfsd::NfsServer>, Fh3) {
        let vfs = Arc::new(sgfs_vfs::Vfs::new());
        vfs.mkdir_p("/GFS", 0o755, &sgfs_vfs::UserContext::root()).unwrap();
        let mut exports = sgfs_nfsd::Exports::new();
        exports.add(sgfs_nfsd::ExportEntry::localhost("/GFS"));
        let server = sgfs_nfsd::NfsServer::new_no_squash(vfs.clone(), exports);
        let root = server.mount("/GFS", "localhost").unwrap();
        (vfs, server, root)
    }

    /// A caching (`MemoryMeta`) proxy over `server`, which a shard serves
    /// while the returned `ShardServer` lives.
    fn caching_proxy(
        server: Arc<dyn sgfs_oncrpc::server::RpcService>,
    ) -> (Arc<sgfs_oncrpc::ShardServer>, ClientProxy) {
        let shards = sgfs_oncrpc::ShardServer::new(1);
        let (client_end, server_end) = sgfs_net::pipe_pair();
        let watch = server_end.watch();
        let service = Arc::new(sgfs_oncrpc::shard::RpcRecordService(server));
        shards.add_session(Box::new(server_end), watch, service).unwrap();
        let mut config = SessionConfig::new(crate::config::SecurityLevel::None);
        config.cache = CacheMode::MemoryMeta;
        let watch = client_end.watch();
        let upstream = Upstream::Plain(Box::new(client_end));
        (shards, ClientProxy::new(upstream, watch, &config).unwrap())
    }

    /// The result body of `proxy`'s reply to call `xid` of `proc`, made
    /// as root.
    fn call(proxy: &mut ClientProxy, xid: u32, proc: u32, args: &[u8]) -> Vec<u8> {
        call_by(proxy, 0, xid, proc, args)
    }

    /// [`call`], made as `uid`.
    fn call_by(proxy: &mut ClientProxy, uid: u32, xid: u32, proc: u32, args: &[u8]) -> Vec<u8> {
        let header = CallHeader {
            xid,
            prog: NFS_PROGRAM,
            vers: NFS_VERSION,
            proc,
            cred: OpaqueAuth::sys(&sgfs_oncrpc::msg::AuthSysParams::new("host", uid, uid)),
            verf: OpaqueAuth::none(),
        };
        let mut record = header.to_xdr_bytes();
        record.extend_from_slice(args);
        let reply = proxy.process_one(&record).unwrap();
        assert_eq!(sgfs_obs::peek_xid(&reply), xid);
        success_body(&reply).expect("accepted").to_vec()
    }

    /// An upstream that makes a MKNOD's node as a regular file, as a
    /// server implementing MKNOD would, and hands every other call to
    /// `sgfs-nfsd`.
    struct MknodServer(Arc<sgfs_nfsd::NfsServer>);

    impl sgfs_oncrpc::server::RpcService for MknodServer {
        fn program(&self) -> u32 {
            NFS_PROGRAM
        }

        fn version(&self) -> u32 {
            NFS_VERSION
        }

        fn handle(
            &self,
            proc: u32,
            cred: &OpaqueAuth,
            args: &mut XdrDecoder<'_>,
        ) -> sgfs_oncrpc::server::Dispatch {
            if proc != procnum::MKNOD {
                return self.0.handle(proc, cred, args);
            }
            let where_ = DirOpArgs3::decode(args).expect("MKNOD opens with its where");
            let how = CreateMode::Unchecked(Sattr3::default());
            let create = CreateArgs { where_, how }.to_xdr_bytes();
            self.0.handle(procnum::CREATE, cred, &mut XdrDecoder::new(&create))
        }
    }

    /// A MKNOD is a name-making call like CREATE: the directory's cached
    /// listing is stale once the server has made the node.
    #[test]
    fn a_mknod_makes_its_directorys_listing_stale() {
        let (_, server, dir) = export();
        let (_shards, mut proxy) = caching_proxy(Arc::new(MknodServer(server)));
        let readdir = ReaddirArgs { dir: dir.clone(), cookie: 0, cookieverf: 0, count: 65536 };
        let readdir = readdir.to_xdr_bytes();
        let listing = |body: Vec<u8>| {
            let res = ReaddirRes::from_xdr_bytes(&body).unwrap();
            res.entries.into_iter().map(|e| e.name).filter(|n| !n.starts_with('.')).collect()
        };
        let names: Vec<String> = listing(call(&mut proxy, 1, procnum::READDIR, &readdir));
        assert!(names.is_empty(), "{names:?}");

        // MKNOD's `where`, then a FIFO's type (NF3FIFO = 7) and attributes.
        let mut mknod = DirOpArgs3 { dir, name: "fifo".into() }.to_xdr_bytes();
        mknod.extend_from_slice(&7u32.to_xdr_bytes());
        mknod.extend_from_slice(&Sattr3::default().to_xdr_bytes());
        let made = call(&mut proxy, 2, procnum::MKNOD, &mknod);
        assert_eq!(CreateRes::from_xdr_bytes(&made).unwrap().status, NfsStat3::Ok);

        let names: Vec<String> = listing(call(&mut proxy, 3, procnum::READDIR, &readdir));
        assert_eq!(names, ["fifo"]);
        assert_eq!(proxy.forwarded_by_proc()[procnum::READDIR as usize], 2);
    }

    /// A caching proxy over an export whose root holds `files` empty files
    /// made on the server, named `f0000`, `f0001`, …, and the root.
    fn listing_rig(files: usize) -> (Arc<sgfs_oncrpc::ShardServer>, ClientProxy, Fh3) {
        let (vfs, server, root) = export();
        let ctx = sgfs_vfs::UserContext::root();
        let top = vfs.resolve("/GFS", &ctx).unwrap().ino;
        for i in 0..files {
            vfs.create(top, &format!("f{i:04}"), 0o644, true, &ctx).unwrap();
        }
        let (shards, proxy) = caching_proxy(server);
        (shards, proxy, root)
    }

    fn sent(proxy: &ClientProxy, proc: u32) -> u64 {
        proxy.forwarded_by_proc()[proc as usize]
    }

    fn create_args(dir: &Fh3, name: &str) -> Vec<u8> {
        let how = CreateMode::Guarded(Sattr3 { mode: Some(0o644), ..Default::default() });
        let where_ = DirOpArgs3 { dir: dir.clone(), name: name.into() };
        CreateArgs { where_, how }.to_xdr_bytes()
    }

    /// The first LOOKUP miss in a directory lists it, with the ACCESS
    /// verdict beside the first batch, and is answered from the listing;
    /// so is every LOOKUP in it after, present or absent.
    #[test]
    fn the_triggering_lookup_is_answered_from_the_listing() {
        let (_shards, mut proxy, root) = listing_rig(3);
        let mut lookup = |xid, name: &str| {
            let args = DirOpArgs3 { dir: root.clone(), name: name.into() }.to_xdr_bytes();
            LookupRes::from_xdr_bytes(&call(&mut proxy, xid, procnum::LOOKUP, &args)).unwrap()
        };
        let found = lookup(1, "f0001");
        assert_eq!(found.status, NfsStat3::Ok);
        assert_eq!(found.obj_attr.map(|a| a.ftype), Some(FType3::Reg));
        assert_eq!(lookup(2, "g").status, NfsStat3::NoEnt);
        assert_eq!(lookup(3, "f0002").status, NfsStat3::Ok);
        let upstream = [procnum::LOOKUP, procnum::READDIRPLUS, procnum::ACCESS];
        assert_eq!(upstream.map(|p| sent(&proxy, p)), [0, 1, 1], "LOOKUP, READDIRPLUS, ACCESS");
    }

    /// A directory that does not list to EOF within the budget stays
    /// unknown: the call that tried is forwarded as before, a CREATE in it
    /// is not logged, and it is never listed again.
    #[test]
    fn an_over_budget_directory_is_forwarded_as_today() {
        let (_shards, mut proxy, root) = listing_rig(800);
        let lookup = DirOpArgs3 { dir: root.clone(), name: "g".into() }.to_xdr_bytes();
        let res = LookupRes::from_xdr_bytes(&call(&mut proxy, 1, procnum::LOOKUP, &lookup));
        assert_eq!(res.unwrap().status, NfsStat3::NoEnt);
        let made = call(&mut proxy, 2, procnum::CREATE, &create_args(&root, "g"));
        let made = CreateRes::from_xdr_bytes(&made).unwrap();
        assert_eq!(made.status, NfsStat3::Ok);
        assert!(!is_minted(&made.obj.expect("made")), "the server's handle");
        let res = LookupRes::from_xdr_bytes(&call(&mut proxy, 3, procnum::LOOKUP, &lookup));
        assert_eq!(res.unwrap().status, NfsStat3::Ok);
        let upstream = [procnum::LOOKUP, procnum::CREATE, procnum::READDIRPLUS];
        let upstream = upstream.map(|p| sent(&proxy, p));
        assert_eq!(upstream, [1, 1, LISTING_BATCHES as u64], "LOOKUP, CREATE, READDIRPLUS");
    }

    /// In a listed directory the caller's right to add names is the
    /// server's ACCESS verdict: a caller it denies MODIFY and EXTEND logs
    /// nothing, though the directory's owner may write there.
    #[test]
    fn a_directory_whose_access_verdict_denies_modify_or_extend_logs_nothing() {
        let (_shards, mut proxy, root) = listing_rig(1);
        let stranger = 1000;
        let made = call_by(&mut proxy, stranger, 1, procnum::CREATE, &create_args(&root, "g"));
        assert_eq!(CreateRes::from_xdr_bytes(&made).unwrap().status, NfsStat3::Acces);
        let mkdir = MkdirArgs {
            where_: DirOpArgs3 { dir: root.clone(), name: "d".into() },
            attributes: Sattr3 { mode: Some(0o755), ..Default::default() },
        };
        let made = call_by(&mut proxy, stranger, 2, procnum::MKDIR, &mkdir.to_xdr_bytes());
        assert_eq!(CreateRes::from_xdr_bytes(&made).unwrap().status, NfsStat3::Acces);
        // An ACCES refusal changes nothing in the directory, which stays
        // known: the MKDIR does not list it again.
        let upstream = [procnum::CREATE, procnum::MKDIR, procnum::READDIRPLUS];
        assert_eq!(upstream.map(|p| sent(&proxy, p)), [1, 1, 1], "CREATE, MKDIR, READDIRPLUS");
        assert!(proxy.namecache.logged().is_empty());
        // The owner, whom the server grants them, logs once the server's
        // verdict for them is cached: a mount asks ACCESS before it
        // creates, and the directory is still known.
        let access = AccessArgs { object: root.clone(), access: ADD_NAMES };
        call(&mut proxy, 3, procnum::ACCESS, &access.to_xdr_bytes());
        let made = call(&mut proxy, 4, procnum::CREATE, &create_args(&root, "g"));
        assert!(is_minted(&CreateRes::from_xdr_bytes(&made).unwrap().obj.expect("made")));
    }

    /// An upstream that refuses every REMOVE with ACCES and no
    /// attributes, as a per-file ACL the server changed would, and hands
    /// every other call to `sgfs-nfsd`.
    struct RefusesRemove(Arc<sgfs_nfsd::NfsServer>);

    impl sgfs_oncrpc::server::RpcService for RefusesRemove {
        fn program(&self) -> u32 {
            NFS_PROGRAM
        }

        fn version(&self) -> u32 {
            NFS_VERSION
        }

        fn handle(
            &self,
            proc: u32,
            cred: &OpaqueAuth,
            args: &mut XdrDecoder<'_>,
        ) -> sgfs_oncrpc::server::Dispatch {
            if proc != procnum::REMOVE {
                return self.0.handle(proc, cred, args);
            }
            let refused = WccRes { status: NfsStat3::Acces, wcc: WccData::default() };
            sgfs_oncrpc::server::Dispatch::reply(&refused)
        }
    }

    /// An ACCES refusal keeps a listed directory known but drops the
    /// cached ACCESS verdict that granted the caller names there: the
    /// caller's next CREATE goes to the server, which just refused them,
    /// instead of being logged.
    #[test]
    fn an_acces_refusal_drops_the_cached_verdict_of_its_directory() {
        let (vfs, server, root) = export();
        let ctx = sgfs_vfs::UserContext::root();
        let top = vfs.resolve("/GFS", &ctx).unwrap().ino;
        vfs.create(top, "f", 0o644, true, &ctx).unwrap();
        let (_shards, mut proxy) = caching_proxy(Arc::new(RefusesRemove(server)));
        let made = call(&mut proxy, 1, procnum::CREATE, &create_args(&root, "g"));
        assert!(is_minted(&CreateRes::from_xdr_bytes(&made).unwrap().obj.expect("made")));

        let remove = DirOpArgs3 { dir: root.clone(), name: "f".into() }.to_xdr_bytes();
        let removed = call(&mut proxy, 2, procnum::REMOVE, &remove);
        assert_eq!(WccRes::from_xdr_bytes(&removed).unwrap().status, NfsStat3::Acces);
        // The directory's attributes come back as the cache stamped them:
        // the refusal changed nothing there.
        let attrs = call(&mut proxy, 3, procnum::GETATTR, &root.to_xdr_bytes());
        assert_eq!(GetAttrRes::from_xdr_bytes(&attrs).unwrap().status, NfsStat3::Ok);
        let creates = sent(&proxy, procnum::CREATE);
        let made = call(&mut proxy, 4, procnum::CREATE, &create_args(&root, "h"));
        let made = CreateRes::from_xdr_bytes(&made).unwrap();
        assert_eq!(made.status, NfsStat3::Ok);
        assert!(!is_minted(&made.obj.expect("made")));
        assert_eq!(sent(&proxy, procnum::CREATE), creates + 1, "the CREATE is forwarded");
        // The directory stayed known: nothing listed it again.
        assert_eq!(sent(&proxy, procnum::READDIRPLUS), 1);
    }

    /// A store whose `put` fails while `full` is set, as a spool out of
    /// space does.
    struct Full {
        inner: Box<dyn BlockStore>,
        full: Arc<std::sync::atomic::AtomicBool>,
    }

    impl BlockStore for Full {
        fn get(&mut self, key: &BlockKey) -> Option<Vec<u8>> {
            self.inner.get(key)
        }
        fn put(&mut self, key: BlockKey, data: &[u8], dirty: bool) -> std::io::Result<()> {
            if self.full.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(std::io::Error::other("spool full"));
            }
            self.inner.put(key, data, dirty)
        }
        fn meta(&self, key: &BlockKey) -> Option<crate::proxy::blockstore::BlockMeta> {
            self.inner.meta(key)
        }
        fn set_clean(&mut self, key: &BlockKey) -> std::io::Result<()> {
            self.inner.set_clean(key)
        }
        fn set_dirty(&mut self, key: &BlockKey) -> std::io::Result<()> {
            self.inner.set_dirty(key)
        }
        fn blocks_of(&self, fh: &Fh3) -> Vec<u64> {
            self.inner.blocks_of(fh)
        }
        fn dirty_blocks_of(&self, fh: &Fh3) -> Vec<u64> {
            self.inner.dirty_blocks_of(fh)
        }
        fn has_dirty(&self, fh: &Fh3) -> bool {
            self.inner.has_dirty(fh)
        }
        fn dirty_files(&self) -> Vec<Fh3> {
            self.inner.dirty_files()
        }
        fn drop_file(&mut self, fh: &Fh3) {
            self.inner.drop_file(fh)
        }
        fn total_bytes(&self) -> u64 {
            self.inner.total_bytes()
        }
        fn dirty_bytes(&self) -> u64 {
            self.inner.dirty_bytes()
        }
    }

    /// A caching proxy over a fresh export whose store can be filled up,
    /// the server's file `f` looked up through it, and WRITE "old"
    /// absorbed into it.
    fn absorbed_old() -> (
        Arc<sgfs_vfs::Vfs>,
        Arc<sgfs_oncrpc::ShardServer>,
        ClientProxy,
        Arc<std::sync::atomic::AtomicBool>,
        Fh3,
    ) {
        let (vfs, server, root) = export();
        let ctx = sgfs_vfs::UserContext::root();
        vfs.create(vfs.resolve("/GFS", &ctx).unwrap().ino, "f", 0o644, true, &ctx).unwrap();
        let (shards, mut proxy) = caching_proxy(server);
        let full = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let inner = proxy.store.take().expect("a caching proxy");
        proxy.store = Some(Box::new(Full { inner, full: full.clone() }));
        let lookup = DirOpArgs3 { dir: root, name: "f".into() };
        let found = call(&mut proxy, 1, procnum::LOOKUP, &lookup.to_xdr_bytes());
        let file = LookupRes::from_xdr_bytes(&found).unwrap().object.expect("found");
        assert_eq!(write(&mut proxy, 2, &file, b"old"), NfsStat3::Ok);
        assert_eq!(proxy.forwarded_by_proc()[procnum::WRITE as usize], 0, "absorbed");
        (vfs, shards, proxy, full, file)
    }

    /// The status of an UNSTABLE WRITE of `data` at offset 0 of `file`.
    fn write(proxy: &mut ClientProxy, xid: u32, file: &Fh3, data: &[u8]) -> NfsStat3 {
        let stable = StableHow::Unstable;
        let args = WriteArgs { file: file.clone(), offset: 0, stable, data: data.to_vec() };
        let reply = call(proxy, xid, procnum::WRITE, &args.to_xdr_bytes());
        WriteRes::from_xdr_bytes(&reply).unwrap().status
    }

    fn on_server(vfs: &sgfs_vfs::Vfs) -> Vec<u8> {
        let ctx = sgfs_vfs::UserContext::root();
        let ino = vfs.resolve("/GFS/f", &ctx).unwrap().ino;
        vfs.read(ino, 0, 16, &ctx).unwrap().0
    }

    /// A WRITE the store cannot absorb goes to the server, and what the
    /// store held of the file goes first: no READ serves it and no flush
    /// writes it over the new data.
    #[test]
    fn a_write_the_store_cannot_absorb_leaves_no_older_block_behind() {
        let (vfs, _shards, mut proxy, full, file) = absorbed_old();
        full.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(write(&mut proxy, 3, &file, b"NEW"), NfsStat3::Ok);
        assert_eq!(proxy.forwarded_by_proc()[procnum::WRITE as usize], 1, "written through");
        assert_eq!(on_server(&vfs), b"NEW");

        full.store(false, std::sync::atomic::Ordering::Relaxed);
        let read = ReadArgs { file, offset: 0, count: 16 }.to_xdr_bytes();
        let res = ReadRes::from_xdr_bytes(&call(&mut proxy, 4, procnum::READ, &read)).unwrap();
        assert_eq!(res.data, b"NEW");
        assert_eq!(res.attr.map(|a| a.size), Some(3));
        proxy.flush_all().unwrap();
        assert_eq!(on_server(&vfs), b"NEW");
    }

    /// When the older data cannot be flushed ahead of it, the WRITE fails
    /// with NFS3ERR_IO and is never sent.
    #[test]
    fn a_write_through_whose_flush_fails_is_answered_io_unsent() {
        let (vfs, _shards, mut proxy, full, file) = absorbed_old();
        // The file goes behind the proxy's back: its write-back is refused.
        let ctx = sgfs_vfs::UserContext::root();
        vfs.remove(vfs.resolve("/GFS", &ctx).unwrap().ino, "f", &ctx).unwrap();
        full.store(true, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(write(&mut proxy, 3, &file, b"NEW"), NfsStat3::Io);
        assert_eq!(proxy.forwarded_by_proc()[procnum::WRITE as usize], 0);
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
