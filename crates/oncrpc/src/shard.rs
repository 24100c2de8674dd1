//! Sharded event-driven RPC server core: the server plane's owner of the
//! shared worker loop ([`crate::pool`]).
//!
//! [`ShardServer`] pins every accepted session to one of a fixed set of
//! `sgfs-shard-N` workers (`id % shards`) and never migrates it, so every
//! shard is shared-nothing: its sessions, its record scratch buffers — no
//! cross-shard locks on the data path. A pinned session is a
//! [`PoolConn`] whose `pump` is one deficit-round-robin visit: top up the
//! session's byte credit, serve request records within it (executing or,
//! under the [`AdmissionPolicy`], shedding them), and yield. The state a
//! shard lends its sessions is the `ShardState`: the shared record and
//! write-assembly buffers, the shard's backlog aggregate and its
//! overload-band flag.

use crate::pool::{ConnPump, IoPool, PoolConn};
use crate::record::{read_record_into, write_marked, MARK_LEN};
use crate::server::{process_record, RpcService};
use sgfs_net::{BoxStream, PipeWatch, Readiness};
use sgfs_obs::{peek_proc, peek_xid, Counter, Emitter, Hop, Obs, NO_PROC};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// A per-record request processor — the unit of work a shard drives.
///
/// [`RpcService`] decodes and dispatches; SGFS server proxies implement
/// this directly so each record passes through their stats/hop-cost
/// accounting. Implementations must be cheap to call repeatedly and must
/// not block on another session's progress (in-process backends use
/// [`crate::loopback::LoopbackStream`] for exactly this reason).
pub trait RecordService: Send + Sync {
    /// Consume one request record, produce one reply record.
    fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>>;

    /// Like [`process_record`](Self::process_record), but the reply lands
    /// in `out` behind the [`MARK_LEN`] bytes its caller reserves there
    /// for the record mark: on success `out[MARK_LEN..]` is exactly the
    /// reply. Whatever `out` held past the headroom is stale and may be
    /// overwritten in place, so a buffer reused at its high-water length
    /// costs no zero-fill; after an error its contents are unspecified.
    /// The shard hands every session its one send buffer this way. The
    /// default copies the reply `process_record` returns; a service that
    /// can write its reply straight into `out` overrides it.
    fn process_record_into(&self, record: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
        let reply = self.process_record(record)?;
        out.truncate(MARK_LEN);
        out.extend_from_slice(&reply);
        Ok(())
    }

    /// Produce a cheap "try again later" reply for `record` *without*
    /// executing it, or `None` if this service cannot shed (the shard
    /// then processes the record normally). Admission control calls this
    /// when a session is over its backlog cap or the shard is inside its
    /// overload band; NFS services answer with `NFS3ERR_JUKEBOX`, whose
    /// contract — the call was not executed — makes a verbatim client
    /// retry safe even for non-idempotent procedures.
    fn shed_record(&self, record: &[u8]) -> Option<Vec<u8>> {
        let _ = record;
        None
    }
}

/// Adapter exposing any [`RpcService`] as a [`RecordService`].
pub struct RpcRecordService(pub Arc<dyn RpcService>);

impl RecordService for RpcRecordService {
    fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>> {
        Ok(process_record(record, self.0.as_ref()))
    }
}

/// Default per-visit record budget for one session (see
/// [`AdmissionPolicy::max_pump`]).
const MAX_PUMP: usize = 32;

/// Admission, backpressure, and fair-scheduling knobs for one shard.
///
/// Scheduling is deficit round robin: every backlogged session is in the
/// worker's ready queue and receives `quantum` bytes of service credit
/// per visit; a session whose requests exhaust its deficit re-arms to the
/// back of the queue, so one hot session cannot starve its neighbors no
/// matter how deep its backlog is.
///
/// Admission is two-level with hysteresis. A session whose sampled wire
/// backlog exceeds `session_backlog_cap` has its *newly drained* records
/// shed (answered via [`RecordService::shed_record`] without execution)
/// until it falls back under the cap. Independently, when the sum of all
/// sessions' sampled backlogs crosses `shard_backlog_budget` the shard
/// enters an overload band that *tightens* the per-session cap to a
/// quarter: backlogged sessions — the ones actually holding the bytes —
/// are shed much harder, while a well-behaved closed-loop session (whose
/// wire backlog is near zero) keeps being served. Shedding from the
/// culprits, not the bystanders, is what lets the fairness SLO hold: a
/// flood cannot convert its own backlog into its neighbors' latency.
/// The band exits once the aggregate drains below *half* the budget
/// (the hysteresis exit, so the gauge does not flap at the boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Per-session sampled-backlog cap in bytes; above it the session's
    /// drained records are shed instead of executed.
    pub session_backlog_cap: usize,
    /// Aggregate per-shard backlog budget in bytes; above it the shard
    /// enters the overload band (exit at half).
    pub shard_backlog_budget: usize,
    /// DRR service credit in bytes added to a session's deficit per run-
    /// queue visit (accumulates to at most twice this).
    pub quantum: usize,
    /// Hard per-visit record-count bound (guards the tiny-record case
    /// where a byte quantum admits thousands of requests in one visit).
    pub max_pump: usize,
}

impl Default for AdmissionPolicy {
    /// Generous defaults: a well-behaved windowed client (the pipeline
    /// caps its in-flight bytes) never trips these.
    fn default() -> Self {
        Self {
            session_backlog_cap: 256 * 1024,
            shard_backlog_budget: 4 * 1024 * 1024,
            quantum: 64 * 1024,
            max_pump: MAX_PUMP,
        }
    }
}

/// What one shard's admission control *decides* on, shared between the
/// shard thread and the accept-side stats reader (all relaxed: advisory
/// gauges, no cross-field consistency promised). What the shard merely
/// *counts* — served, shed, accepts — lives in its [`Emitter`].
#[derive(Default)]
struct ShardGauges {
    /// Sum of the shard's per-session sampled wire backlogs, bytes.
    backlog: AtomicUsize,
    /// High-water mark of `backlog`.
    backlog_hwm: AtomicUsize,
    /// Inside the overload hysteresis band right now?
    overloaded: AtomicBool,
}

/// Aggregate counters over all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of shard event loops.
    pub shards: usize,
    /// Sessions ever accepted (the `shard_accept` events, so an accept a
    /// dead or shut-down shard then refused is counted too).
    pub accepted: u64,
    /// Sessions currently pinned to a shard.
    pub active: usize,
    /// Request records served across all shards.
    pub served: u64,
    /// Records shed by admission control (replied without execution).
    pub shed: u64,
    /// Shards currently inside the overload hysteresis band.
    pub overloaded: usize,
    /// Aggregate sampled wire backlog across all shards, bytes.
    pub backlog: usize,
    /// Largest aggregate backlog any single shard has sampled, bytes —
    /// the bounded-memory witness the overload tests gate on.
    pub backlog_hwm: usize,
}

/// The sharded server: a fixed set of event-loop threads plus the
/// accept-side API that pins sessions onto them.
pub struct ShardServer {
    pool: IoPool<ShardState>,
    /// One per shard, in shard order.
    gauges: Vec<Arc<ShardGauges>>,
    /// One per shard, so two shard threads never count into one cache
    /// line; the acceptor emits into the chosen shard's.
    emitters: Vec<Emitter>,
}

impl ShardServer {
    /// Start `shards` event loops (at least one) in an untraced domain
    /// of their own.
    pub fn new(shards: usize) -> Arc<Self> {
        Self::with_obs(shards, Obs::disabled())
    }

    /// Start `shards` event loops whose emitters ([`Hop::ShardAccept`],
    /// [`Hop::ShardHandoff`], [`Hop::Shed`], …) attach to `obs`.
    pub fn with_obs(shards: usize, obs: Arc<Obs>) -> Arc<Self> {
        Self::with_admission(shards, obs, AdmissionPolicy::default())
    }

    /// Start `shards` event loops under an explicit [`AdmissionPolicy`]
    /// (the overload tests shrink the caps to force shedding).
    pub fn with_admission(shards: usize, obs: Arc<Obs>, policy: AdmissionPolicy) -> Arc<Self> {
        let gauges: Vec<Arc<ShardGauges>> = (0..shards.max(1)).map(|_| Arc::default()).collect();
        let emitters: Vec<Emitter> = gauges.iter().map(|_| Emitter::new(&obs, "shard")).collect();
        let states = gauges.iter().zip(&emitters).enumerate().map(|(index, (gauges, em))| {
            ShardState {
                index,
                gauges: gauges.clone(),
                em: em.clone(),
                policy,
                record: Vec::new(),
                send: Vec::new(),
                overloaded: false,
            }
        });
        Arc::new(Self {
            pool: IoPool::new("sgfs-shard", states),
            gauges,
            emitters,
        })
    }

    /// Number of shard event loops.
    pub fn num_shards(&self) -> usize {
        self.gauges.len()
    }

    /// Accept a session: assign it an id, pick its shard (`id % shards`),
    /// and hand it off. Returns the session id; fails once the server is
    /// shut down or the chosen shard's thread has died.
    ///
    /// `watch` must observe the *wire* the peer writes into — take it from
    /// the raw pipe end before wrapping the stream in fault injectors or
    /// GTLS, so readiness reflects arrivals regardless of wrapping.
    pub fn add_session(
        &self,
        stream: BoxStream,
        watch: PipeWatch,
        service: Arc<dyn RecordService>,
    ) -> io::Result<u64> {
        let id = self.pool.ticket() + 1;
        let shard = (id % self.gauges.len() as u64) as usize;
        self.emitters[shard].emit(Hop::ShardAccept, id as u32, NO_PROC, shard as u64);
        let session = PinnedSession { id, stream, watch, service, deficit: 0, backlog: 0 };
        self.pool.pin(shard, Box::new(session))?;
        Ok(id)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ShardStats {
        let sum = |f: &dyn Fn(&ShardGauges) -> usize| self.gauges.iter().map(|g| f(g)).sum();
        let counted = |f: &dyn Fn(&Emitter) -> u64| self.emitters.iter().map(f).sum();
        ShardStats {
            shards: self.gauges.len(),
            accepted: counted(&|e| e.count(Hop::ShardAccept)),
            active: self.pool.active(),
            served: counted(&|e| e.get(Counter::Served)),
            shed: counted(&|e| e.count(Hop::Shed)),
            overloaded: sum(&|g| g.overloaded.load(Ordering::Relaxed) as usize),
            backlog: sum(&|g| g.backlog.load(Ordering::Relaxed)),
            backlog_hwm: self
                .gauges
                .iter()
                .map(|g| g.backlog_hwm.load(Ordering::Relaxed))
                .max()
                .unwrap_or(0),
        }
    }

    /// Stop accepting and ask every shard thread to exit. Sessions still
    /// pinned are dropped (their peers see EOF). Idempotent.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }

    /// Join shard threads after [`shutdown`](Self::shutdown); dropping the
    /// server does both.
    pub fn join(&mut self) {
        self.pool.join();
    }
}

/// What a shard's worker lends every session it serves.
struct ShardState {
    index: usize,
    gauges: Arc<ShardGauges>,
    em: Emitter,
    policy: AdmissionPolicy,
    /// One request buffer and one reply buffer shared by every session the
    /// shard owns — zero-alloc at steady state. A reply is written into
    /// `send` behind [`MARK_LEN`] bytes of headroom and leaves in one
    /// write with its mark, never staged.
    record: Vec<u8>,
    send: Vec<u8>,
    /// Inside the overload hysteresis band (mirrored into the gauge).
    overloaded: bool,
}

impl ShardState {
    fn set_overloaded(&mut self, on: bool) {
        self.overloaded = on;
        self.gauges.overloaded.store(on, Ordering::Relaxed);
        self.em.emit(Hop::Overload, self.index as u32, NO_PROC, on as u64);
    }
}

/// One session pinned to a shard.
struct PinnedSession {
    id: u64,
    stream: BoxStream,
    watch: PipeWatch,
    service: Arc<dyn RecordService>,
    /// DRR service credit in bytes; replenished per visit.
    deficit: usize,
    /// Last sampled wire backlog (bytes), mirrored into the shard total.
    backlog: usize,
}

impl PoolConn<ShardState> for PinnedSession {
    fn attach(&mut self, readiness: Readiness, shard: &mut ShardState) {
        self.watch.register(readiness);
        shard.em.emit(Hop::ShardHandoff, self.id as u32, NO_PROC, shard.index as u64);
    }

    /// One DRR visit: top up the deficit, serve within it, and re-arm
    /// behind every waiting neighbor if input remains.
    fn pump(&mut self, shard: &mut ShardState) -> ConnPump {
        let budget = shard.policy.shard_backlog_budget;
        self.resample_backlog(&shard.gauges);
        if !shard.overloaded && shard.gauges.backlog.load(Ordering::Relaxed) > budget {
            shard.set_overloaded(true);
        }
        self.deficit = (self.deficit + shard.policy.quantum).min(2 * shard.policy.quantum);
        let verdict = self.serve(shard);
        match verdict {
            ConnPump::Idle => {
                self.deficit = 0;
                self.resample_backlog(&shard.gauges);
            }
            ConnPump::Rearm => self.resample_backlog(&shard.gauges),
            ConnPump::Gone => {
                shard.gauges.backlog.fetch_sub(self.backlog, Ordering::Relaxed);
            }
        }
        if shard.overloaded && shard.gauges.backlog.load(Ordering::Relaxed) < budget / 2 {
            shard.set_overloaded(false);
        }
        verdict
    }
}

impl PinnedSession {
    /// Re-sample the session's wire backlog and fold the delta into the
    /// shard aggregate (so the total stays O(1) per visit, not O(sessions)).
    fn resample_backlog(&mut self, gauges: &ShardGauges) {
        let now = self.watch.queued_bytes();
        let old = std::mem::replace(&mut self.backlog, now);
        if now >= old {
            let total = gauges.backlog.fetch_add(now - old, Ordering::Relaxed) + (now - old);
            gauges.backlog_hwm.fetch_max(total, Ordering::Relaxed);
        } else {
            gauges.backlog.fetch_sub(old - now, Ordering::Relaxed);
        }
    }

    /// Serve request records until the deficit, the per-visit record
    /// budget, or the input runs out.
    fn serve(&mut self, shard: &mut ShardState) -> ConnPump {
        let ShardState { em, policy, record, send, overloaded, .. } = shard;
        for _ in 0..policy.max_pump {
            if self.deficit == 0 {
                break; // DRR budget spent; yield to the neighbors.
            }
            if self.watch.has_input() {
                // Message-atomic writer invariant (pool module docs): the
                // record whose first bytes are queued cannot stall us
                // indefinitely.
                match read_record_into(&mut self.stream, record) {
                    Ok(true) => {
                        self.deficit = self.deficit.saturating_sub(record.len().max(1));
                        // Admission: a session over its cap has this record
                        // shed (answered without execution) — the client's
                        // JUKEBOX retry re-sends it once the backlog drains.
                        // In the overload band the cap tightens to a quarter,
                        // which sheds the sessions holding the backlog while
                        // closed-loop bystanders keep being served.
                        let backlog = self.watch.queued_bytes();
                        let cap = if *overloaded {
                            policy.session_backlog_cap / 4
                        } else {
                            policy.session_backlog_cap
                        };
                        // A failed service may have left `send` anywhere:
                        // every reply starts from restored headroom.
                        send.resize(send.len().max(MARK_LEN), 0);
                        if backlog > cap {
                            if let Some(reply) = self.service.shed_record(record) {
                                em.emit(
                                    Hop::Shed,
                                    peek_xid(record),
                                    peek_proc(record),
                                    backlog as u64,
                                );
                                send.truncate(MARK_LEN);
                                send.extend_from_slice(&reply);
                                if write_marked(&mut self.stream, send).is_err() {
                                    return ConnPump::Gone;
                                }
                                continue;
                            }
                        }
                        if self.service.process_record_into(record, send).is_err() {
                            return ConnPump::Gone;
                        }
                        // Count before the reply leaves: a peer that has seen
                        // the reply must also see it counted.
                        em.add(Counter::Served, 1);
                        if write_marked(&mut self.stream, send).is_err() {
                            return ConnPump::Gone;
                        }
                    }
                    Ok(false) | Err(_) => return ConnPump::Gone,
                }
            } else if self.watch.is_closed() {
                // Close is final and the queue is empty: clean EOF.
                return ConnPump::Gone;
            } else {
                return ConnPump::Idle;
            }
        }
        // Budget exhausted with input (possibly) left — be fair to neighbors.
        if self.watch.has_input() || self.watch.is_closed() {
            ConnPump::Rearm
        } else {
            ConnPump::Idle
        }
    }
}

/// Threads currently live in this process, from `/proc/self/status`
/// (`None` off Linux or if the file is unreadable). The scale tests use
/// this to assert the sharded core's thread ceiling.
pub fn process_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::pool::tests::{serial, settled_thread_count};
    use crate::msg::{AcceptStat, OpaqueAuth};
    use crate::server::Dispatch;
    use sgfs_net::pipe_pair;
    use sgfs_xdr::XdrDecoder;

    struct Doubler;

    impl RpcService for Doubler {
        fn program(&self) -> u32 {
            0x2000_0001
        }
        fn version(&self) -> u32 {
            1
        }
        fn handle(&self, proc: u32, _cred: &OpaqueAuth, args: &mut XdrDecoder<'_>) -> Dispatch {
            match proc {
                0 => Dispatch::reply(&crate::client::NoArgs),
                1 => match args.get_u32() {
                    Ok(v) => Dispatch::reply(&(v * 2)),
                    Err(_) => Dispatch::Error(AcceptStat::GarbageArgs),
                },
                _ => Dispatch::Error(AcceptStat::ProcUnavail),
            }
        }
    }

    fn connect(server: &ShardServer) -> RpcClient {
        let (client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        server
            .add_session(
                Box::new(server_end),
                watch,
                Arc::new(RpcRecordService(Arc::new(Doubler))),
            )
            .unwrap();
        RpcClient::new(Box::new(client_end), 0x2000_0001, 1)
    }

    #[test]
    fn single_session_roundtrips() {
        let _serial = serial();
        let server = ShardServer::new(2);
        let mut c = connect(&server);
        for v in [1u32, 2, 99] {
            let r: u32 = c.call(1, &v).unwrap();
            assert_eq!(r, v * 2);
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.served, 3);
    }

    #[test]
    fn many_sessions_few_threads() {
        let _serial = serial();
        let before = settled_thread_count();
        let server = ShardServer::new(4);
        let mut clients: Vec<RpcClient> = (0..64).map(|_| connect(&server)).collect();
        for (i, c) in clients.iter_mut().enumerate() {
            let r: u32 = c.call(1, &(i as u32)).unwrap();
            assert_eq!(r, i as u32 * 2);
        }
        if let (Some(b), Some(a)) = (before, settled_thread_count()) {
            assert!(
                a <= b + 4,
                "64 sessions must cost at most 4 shard threads (before={b}, after={a})"
            );
        }
        assert_eq!(server.stats().active, 64);
        drop(clients);
    }

    #[test]
    fn session_close_unpins() {
        let _serial = serial();
        let server = ShardServer::new(1);
        let c = connect(&server);
        drop(c);
        // EOF propagation is asynchronous; poll briefly.
        for _ in 0..200 {
            if server.stats().active == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("session not unpinned after client EOF");
    }

    #[test]
    fn shutdown_drops_sessions_and_joins() {
        let _serial = serial();
        let server = ShardServer::new(3);
        let mut c = connect(&server);
        let r: u32 = c.call(1, &21).unwrap();
        assert_eq!(r, 42);
        server.shutdown();
        // After shutdown the peer sees EOF on its next call.
        assert!(c.call::<u32>(1, &1u32).is_err());
        let (_client_end, server_end) = pipe_pair();
        let watch = server_end.watch();
        assert!(server
            .add_session(
                Box::new(server_end),
                watch,
                Arc::new(RpcRecordService(Arc::new(Doubler))),
            )
            .is_err());
    }

    /// Writes its reply straight into the shard's send buffer; the record
    /// `b"bad"` fails after wrecking the buffer's headroom.
    struct Direct;

    impl RecordService for Direct {
        fn process_record(&self, _: &[u8]) -> io::Result<Vec<u8>> {
            unreachable!("the shard replies through process_record_into")
        }

        fn process_record_into(&self, record: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
            if record == b"bad" {
                out.clear();
                return Err(io::Error::other("failed mid-reply"));
            }
            out.truncate(MARK_LEN);
            out.extend_from_slice(b"direct:");
            out.extend_from_slice(record);
            Ok(())
        }
    }

    /// Sessions share one send buffer per shard: a service that fails
    /// after wrecking it drops only its own session, and the neighbour's
    /// replies stay exact — shorter after longer included.
    #[test]
    fn a_failed_reply_leaves_no_trace_in_the_next() {
        use crate::record::{read_record, write_record};
        let _serial = serial();
        let server = ShardServer::new(1);
        let mut ends = Vec::new();
        for _ in 0..2 {
            let (client_end, server_end) = pipe_pair();
            let watch = server_end.watch();
            server.add_session(Box::new(server_end), watch, Arc::new(Direct)).unwrap();
            ends.push(client_end);
        }
        let (mut bad, mut good) = (ends.remove(0), ends.remove(0));
        write_record(&mut good, b"a long request first").unwrap();
        assert_eq!(read_record(&mut good).unwrap().unwrap(), b"direct:a long request first");
        write_record(&mut bad, b"bad").unwrap();
        assert!(read_record(&mut bad).unwrap().is_none(), "the failing session is dropped");
        for req in [&b"short"[..], b""] {
            write_record(&mut good, req).unwrap();
            assert_eq!(read_record(&mut good).unwrap().unwrap(), [b"direct:", req].concat());
        }
        assert_eq!(server.stats().served, 3);
    }

    #[test]
    fn interleaved_sessions_on_one_shard() {
        let _serial = serial();
        let server = ShardServer::new(1);
        let mut clients: Vec<RpcClient> = (0..8).map(|_| connect(&server)).collect();
        for round in 0..50u32 {
            for (i, c) in clients.iter_mut().enumerate() {
                let v = round * 8 + i as u32;
                let r: u32 = c.call(1, &v).unwrap();
                assert_eq!(r, v * 2);
            }
        }
        assert_eq!(server.stats().served, 400);
    }
}
