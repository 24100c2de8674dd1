//! The five workloads: how each builds its sessions, what one timed round
//! (or repetition) does, and which public counters it reads afterwards.
//!
//! Load model, all workloads: closed loop, one caller per session — the
//! next `NfsMount` call is issued when the previous one returns. Traffic
//! crosses in-memory `sgfs-net` pipes, never a socket.

use crate::exec::{preload, run_steps, tree_mismatches, Cursor, Sample, Target};
use crate::gen::{self, mix, PostmarkShape, Script, SmallfileShape};
use crate::measure;
use sgfs::config::{HopCost, SecurityLevel};
use sgfs::session::{GridWorld, Session, SessionParams, SetupKind, FILE_UID};
use sgfs_obs::Obs;
use sgfs_oncrpc::{ClientIoPool, ShardServer};
use sgfs_vfs::Vfs;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The stack every workload mounts: mutual-auth GTLS, AES-256-GCM records.
const KIND: SetupKind = SetupKind::Sgfs(SecurityLevel::AeadCipher);
/// The paper's wide-area round-trip time.
const WAN_RTT: Duration = Duration::from_millis(40);
/// The NFS transfer size (`MountOptions::block_size` default).
pub const BLOCK: usize = 32 * 1024;
/// Warm-up rounds are numbered from here.
const WARMUP_ROUND: u64 = 90_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LanSmallfile,
    LanStream,
    LanMulti,
    WanSmallfile,
    WanStream,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::LanSmallfile,
        Workload::LanStream,
        Workload::LanMulti,
        Workload::WanSmallfile,
        Workload::WanStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LanSmallfile => "lan_smallfile",
            Workload::LanStream => "lan_stream",
            Workload::LanMulti => "lan_multi",
            Workload::WanSmallfile => "wan_smallfile",
            Workload::WanStream => "wan_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// WAN workloads run one fresh session per repetition and are timed
    /// on its `SimClock`; LAN workloads keep their sessions across rounds
    /// and are timed on the wall clock.
    pub fn is_wan(self) -> bool {
        matches!(self, Workload::WanSmallfile | Workload::WanStream)
    }

    pub fn sessions(self) -> usize {
        if self == Workload::LanMulti {
            2
        } else {
            1
        }
    }
}

/// Input sizes. `full` is what the numbers in the README were taken
/// with; `quick` only has to exercise every code path.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub smallfile: SmallfileShape,
    pub postmark: PostmarkShape,
    /// `lan_stream`: client memory cache and file (twice the cache, so
    /// LRU never serves the re-read).
    pub lan_cache: usize,
    pub lan_file: usize,
    pub wan_cache: usize,
    pub wan_file: usize,
}

impl Sizes {
    pub fn full() -> Self {
        Self {
            smallfile: SmallfileShape {
                dirs: 10,
                files: 125,
                per_kind: 250,
                min_size: 512,
                max_size: 16 * 1024,
                patch: 1024,
            },
            postmark: PostmarkShape {
                dirs: 100,
                files: 500,
                transactions: 1000,
                min_size: 512,
                max_size: 16 * 1024,
            },
            lan_cache: 32 << 20,
            lan_file: 64 << 20,
            wan_cache: 4 << 20,
            wan_file: 8 << 20,
        }
    }

    pub fn quick() -> Self {
        Self {
            smallfile: SmallfileShape {
                dirs: 3,
                files: 20,
                per_kind: 40,
                min_size: 512,
                max_size: 16 * 1024,
                patch: 1024,
            },
            postmark: PostmarkShape {
                dirs: 10,
                files: 40,
                transactions: 80,
                min_size: 512,
                max_size: 16 * 1024,
            },
            lan_cache: 1 << 20,
            lan_file: 2 << 20,
            wan_cache: 256 << 10,
            wan_file: 512 << 10,
        }
    }
}

/// Cumulative counts read from the program's public accessors. `sum`
/// fields add up over sessions; `peak` fields keep the largest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub rpcs: u64,
    pub page_hits: u64,
    pub page_misses: u64,
    pub client_busy_s: f64,
    pub client_msgs: u64,
    pub meta_hits: u64,
    pub meta_misses: u64,
    pub prefetch_hits: u64,
    pub pipeline_peak: u64,
    pub record_alloc_bytes: u64,
    pub journal_appends: u64,
    pub retries: u64,
    pub writeback_sim_s: f64,
    pub writeback_bytes: u64,
    pub server_busy_s: f64,
    pub server_msgs: u64,
    pub link_msgs: u64,
    pub link_bytes: u64,
    pub shard_served: u64,
    pub shard_shed: u64,
    pub shard_backlog_hwm: u64,
}

/// `add` and `since` over the same field lists: `sum` fields accumulate
/// and subtract, `peak` fields keep the largest seen.
macro_rules! counters_arithmetic {
    (sum: $($sum:ident),+; peak: $($peak:ident),+) => {
        impl Counters {
            fn add(&mut self, o: &Counters) {
                $(self.$sum += o.$sum;)+
                $(self.$peak = self.$peak.max(o.$peak);)+
            }

            /// What happened between `earlier` and `self` (peaks are kept as is).
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($sum: self.$sum - earlier.$sum,)+
                    $($peak: self.$peak,)+
                }
            }
        }
    };
}

counters_arithmetic!(
    sum: rpcs, page_hits, page_misses, client_busy_s, client_msgs, meta_hits, meta_misses,
        prefetch_hits, record_alloc_bytes, journal_appends, retries, writeback_sim_s,
        writeback_bytes, server_busy_s, server_msgs, link_msgs, link_bytes, shard_served,
        shard_shed;
    peak: pipeline_peak, shard_backlog_hwm
);

/// Everything a live session exposes, shard core excluded (sessions of
/// `lan_multi` share one, so it is read once per environment).
fn session_counters(s: &Session) -> Counters {
    let mut c = Counters {
        rpcs: s.mount.stats().total(),
        ..Default::default()
    };
    (c.page_hits, c.page_misses) = s.mount.cache_stats();
    if let Some(p) = s.client_proxy_stats() {
        c.client_busy_s = p.busy().as_secs_f64();
        c.client_msgs = p.messages();
        c.prefetch_hits = p.prefetch_hits();
        c.pipeline_peak = p.pipeline_peak();
        c.record_alloc_bytes = p.record_alloc_bytes();
        c.journal_appends = p.journal_appends();
        c.retries = p.reconnects() + p.replays() + p.jukebox_retries();
    }
    if let Some(p) = s.server_proxy() {
        c.server_busy_s = p.stats().busy().as_secs_f64();
        c.server_msgs = p.stats().messages();
    }
    let link = s.link();
    c.link_msgs = link.messages_sent(0) + link.messages_sent(1);
    c.link_bytes = link.bytes_sent(0) + link.bytes_sent(1);
    c
}

fn shard_counters(shards: &ShardServer, c: &mut Counters) {
    let s = shards.stats();
    c.shard_served += s.served;
    c.shard_shed += s.shed;
    c.shard_backlog_hwm = c.shard_backlog_hwm.max(s.backlog_hwm as u64);
}

/// One timed round (LAN) or repetition (WAN).
#[derive(Debug, Clone)]
pub struct Round {
    /// Wall seconds inside the timed phases.
    pub wall_s: f64,
    /// The same stretch on the session's `SimClock`; on WAN workloads it
    /// runs from the first call through `Session::finish()`.
    pub sim_s: f64,
    /// Process CPU seconds over the stretch `wall_s` covers, without what
    /// the benchmark spent comparing server trees in between.
    pub cpu_s: f64,
    /// The same as the kernel splits it into `(user, system)` — sampled
    /// at its 10 ms ticks, so only sums over many rounds mean anything.
    pub cpu_split_s: (f64, f64),
    /// This round's calls, as indices into the run's sample list.
    pub samples: std::ops::Range<usize>,
    /// Failed calls plus server-tree entries that differ from the model.
    pub failed: u64,
    /// `SimClock` seconds of `Session::finish()`'s write-back (WAN).
    pub writeback_sim_s: f64,
    /// Context switches of every thread while the calls ran.
    pub ctx_switches: u64,
    /// Live threads of the process as the last call returned.
    pub threads: u64,
    /// Resident-set high-water mark over the round, MiB; the mark is
    /// reset once the round's script exists.
    pub peak_rss_mb: f64,
}

/// A workload's standing state: the PKI world and, on LAN workloads, the
/// mounted session(s) that rounds reuse.
pub struct Env {
    workload: Workload,
    sizes: Sizes,
    epoch: Instant,
    /// Sessions a round drives (`lan_multi` also measures one alone).
    pub active_sessions: usize,
    world: GridWorld,
    obs: Option<Arc<Obs>>,
    sessions: Vec<Session>,
    /// Totals of sessions that have already ended.
    ended: Counters,
}

/// Run `f` with the calling thread on the server CPU (the first one the
/// process was given; the process itself lives on the last). Threads
/// inherit the CPU of the thread that starts them, so whatever `f`
/// constructs runs its threads there.
fn on_server_cpu<T>(f: impl FnOnce() -> T) -> T {
    let cpus = measure::given_cpus();
    let (Some(&server), Some(&client)) = (cpus.first(), cpus.last()) else {
        return f();
    };
    let moved = measure::pin_self_to(server);
    let made = f();
    if !(moved && measure::pin_self_to(client)) {
        eprintln!("warning: cannot place the server core on its own CPU; metrics will be noisier");
    }
    made
}

fn lan_params(workload: Workload, sizes: &Sizes) -> SessionParams {
    let mut p = SessionParams::lan(KIND);
    // No emulated latency and no calibrated hop charge: the SimClock adds
    // nothing, so every LAN number is wall time of the real program.
    p.rtt = Duration::ZERO;
    p.hop_cost = HopCost::free();
    if workload == Workload::LanStream {
        p.mem_cache_bytes = sizes.lan_cache;
    }
    p
}

impl Env {
    /// `GridWorld::new` plus, on LAN workloads, `Session::build` for each
    /// session. With `obs` every session (and `lan_multi`'s shard core)
    /// emits into that domain.
    pub fn build(workload: Workload, sizes: Sizes, epoch: Instant, obs: Option<Arc<Obs>>) -> Env {
        let world = GridWorld::new();
        let mut sessions = Vec::new();
        if !workload.is_wan() {
            let mut params = lan_params(workload, &sizes);
            params.obs = obs.clone();
            if workload == Workload::LanMulti {
                let n = workload.sessions();
                params.shard_server = Some(on_server_cpu(|| match &obs {
                    Some(o) => ShardServer::with_obs(n, o.clone()),
                    None => ShardServer::new(n),
                }));
                params.client_pool = Some(ClientIoPool::new(n));
                params.vfs = Some(Arc::new(Vfs::new()));
            }
            for _ in 0..workload.sessions() {
                sessions.push(Session::build(&world, &params).expect("LAN session"));
            }
        }
        Env {
            workload,
            sizes,
            epoch,
            active_sessions: workload.sessions(),
            world,
            obs,
            sessions,
            ended: Counters::default(),
        }
    }

    fn script(&self, seed: u64, round: u64, session: usize, postmark: &PostmarkShape) -> Script {
        match self.workload {
            Workload::LanSmallfile | Workload::LanMulti => gen::smallfile_round(
                mix(seed.wrapping_add(session as u64), round),
                &format!("/s{session}r{round:05}"),
                &self.sizes.smallfile,
            ),
            Workload::LanStream => {
                gen::stream_round(mix(seed, round), "/stream.dat", self.sizes.lan_file, BLOCK)
            }
            Workload::WanSmallfile => gen::postmark(mix(seed, round), postmark),
            Workload::WanStream => gen::stream_wan(mix(seed, round), self.sizes.wan_file, BLOCK),
        }
    }

    /// Counters of everything so far: ended sessions plus live ones.
    pub fn counters(&self) -> Counters {
        let mut c = self.ended;
        for s in &self.sessions {
            c.add(&session_counters(s));
        }
        if let Some(s) = self.sessions.first() {
            shard_counters(s.shard_server(), &mut c);
        }
        c
    }

    /// The untimed round that ends a set-up. It is numbered apart from
    /// the timed rounds, so it shares no path and no content with them.
    /// On `wan_smallfile` it is a PostMark of a dozen files: every code
    /// path still runs once, but the sandbox's file system stays out of
    /// `setup_s` — creating one spool file costs it 13 µs or 400 µs,
    /// depending on what it did in the minutes before.
    pub fn warm_up(&mut self, seed: u64, n: u64, samples: &mut Vec<Sample>) -> Round {
        let postmark = PostmarkShape {
            dirs: 2,
            files: 8,
            transactions: 8,
            ..self.sizes.postmark
        };
        let scripts = (0..self.active_sessions)
            .map(|s| self.script(seed, WARMUP_ROUND + n, s, &postmark))
            .collect();
        self.run(scripts, samples, usize::MAX, &mut || {})
    }

    /// Run round `round`, appending its calls to `samples`. `pause` is
    /// called between chunks of `chunk` calls with the clocks stopped
    /// (the traced run drains the obs rings there).
    pub fn round(
        &mut self,
        seed: u64,
        round: u64,
        samples: &mut Vec<Sample>,
        chunk: usize,
        pause: &mut (dyn FnMut() + Send),
    ) -> Round {
        let scripts = (0..self.active_sessions)
            .map(|s| self.script(seed, round, s, &self.sizes.postmark))
            .collect();
        self.run(scripts, samples, chunk, pause)
    }

    fn run(
        &mut self,
        scripts: Vec<Script>,
        samples: &mut Vec<Sample>,
        chunk: usize,
        pause: &mut (dyn FnMut() + Send),
    ) -> Round {
        let first = samples.len();
        measure::reset_peak_rss();
        let mut r = if self.workload.is_wan() {
            self.wan_repetition(&scripts[0], samples, chunk, pause)
        } else {
            self.lan_round(&scripts, samples, chunk, pause)
        };
        r.peak_rss_mb = measure::peak_rss_mb();
        r.samples = first..samples.len();
        r.failed += samples[first..].iter().filter(|s| !s.ok).count() as u64;
        r
    }

    fn lan_round(
        &mut self,
        scripts: &[Script],
        samples: &mut Vec<Sample>,
        chunk: usize,
        pause: &mut (dyn FnMut() + Send),
    ) -> Round {
        let epoch = self.epoch;
        let barrier = Barrier::new(scripts.len());
        // Only the first session's driver pauses between chunks.
        let mut pause = Some(pause);
        // Driver threads live only inside the scope and count their own
        // switches; this sum sees the program's threads.
        let ctx0 = measure::context_switches();
        let (cpu0, split0) = (measure::process_cpu_s(), measure::cpu_times());
        let driven: Vec<Driven> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .sessions
                .iter_mut()
                .zip(scripts)
                .enumerate()
                .map(|(i, (session, script))| {
                    let pause = pause.take();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        drive(session, script, epoch, i as u8, Some(barrier), chunk, pause)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect()
        });
        // Phases start together on the barrier, so a phase lasts as long
        // as its slowest session.
        let phases = driven[0].phases.len();
        let longest = |f: fn(&(Duration, Duration)) -> Duration| -> f64 {
            (0..phases)
                .map(|p| {
                    driven
                        .iter()
                        .map(|d| f(&d.phases[p]))
                        .max()
                        .unwrap_or_default()
                })
                .sum::<Duration>()
                .as_secs_f64()
        };
        let (cpu1, split1) = (measure::process_cpu_s(), measure::cpu_times());
        // Comparing trees is reading and hashing: user time.
        let checking: f64 = driven.iter().map(|d| d.checking_cpu_s).sum();
        let mut round = Round {
            wall_s: longest(|p| p.0),
            sim_s: longest(|p| p.1),
            cpu_s: cpu1 - cpu0 - checking,
            cpu_split_s: (split1.0 - split0.0 - checking, split1.1 - split0.1),
            samples: 0..0,
            failed: driven.iter().map(|d| d.tree_mismatches).sum(),
            writeback_sim_s: 0.0,
            ctx_switches: measure::context_switches().saturating_sub(ctx0)
                + driven.iter().map(|d| d.ctx_switches).sum::<u64>(),
            threads: driven.iter().map(|d| d.threads).max().unwrap_or(0),
            peak_rss_mb: 0.0,
        };
        for d in driven {
            samples.extend(d.samples);
        }
        // With every session quiet, each round's subtree must be as modelled.
        let vfs = self.sessions[0].server().vfs();
        for script in scripts {
            round.failed += tree_mismatches(vfs, &script.root, &script.end);
        }
        round
    }

    fn wan_repetition(
        &mut self,
        script: &Script,
        samples: &mut Vec<Sample>,
        chunk: usize,
        pause: &mut (dyn FnMut() + Send),
    ) -> Round {
        let mut params = SessionParams::wan(KIND, WAN_RTT);
        if self.workload == Workload::WanStream {
            params.mem_cache_bytes = self.sizes.wan_cache;
        }
        params.obs = self.obs.clone();
        let mut session = Session::build(&self.world, &params).expect("WAN session");
        let vfs = session.server().vfs().clone();
        preload(&vfs, script, FILE_UID);

        let clock = session.clock().clone();
        // The process-wide sum sees the program's threads; read it again
        // before `finish` ends them. The caller counts its own.
        let ctx0 = measure::context_switches();
        let (t0, sim0) = (Instant::now(), clock.now());
        let (cpu0, split0) = (measure::process_cpu_s(), measure::cpu_times());
        let epoch = self.epoch;
        let d = std::thread::scope(|scope| {
            let caller =
                scope.spawn(|| drive(&mut session, script, epoch, 0, None, chunk, Some(pause)));
            caller.join().expect("driver thread")
        });
        let ctx_switches = measure::context_switches().saturating_sub(ctx0) + d.ctx_switches;
        let mut counters = session_counters(&session);
        shard_counters(session.shard_server(), &mut counters);
        let (stats, link) = (
            session.client_proxy_stats().cloned(),
            session.link().clone(),
        );
        let report = session.finish();
        let (wall, sim) = (t0.elapsed() - d.paused, clock.now() - sim0 - d.paused);
        let (cpu1, split1) = (measure::process_cpu_s(), measure::cpu_times());

        let mut failed = d.tree_mismatches;
        let mut writeback_sim_s = 0.0;
        match report {
            Ok(report) => {
                // The final flush ran after the counters were read.
                if let Some(p) = &stats {
                    counters.client_busy_s = p.busy().as_secs_f64();
                    counters.client_msgs = p.messages();
                    counters.pipeline_peak = p.pipeline_peak();
                }
                counters.link_msgs = link.messages_sent(0) + link.messages_sent(1);
                counters.link_bytes = link.bytes_sent(0) + link.bytes_sent(1);
                (counters.meta_hits, counters.meta_misses) = report.proxy_cache.unwrap_or((0, 0));
                counters.writeback_bytes = report.writeback_bytes;
                writeback_sim_s = report.writeback_time.as_secs_f64();
                counters.writeback_sim_s = writeback_sim_s;
            }
            Err(e) => {
                eprintln!("Session::finish failed: {e}");
                failed += 1;
            }
        }
        self.ended.add(&counters);
        // Write-back must have landed: the server now holds the model.
        failed += tree_mismatches(&vfs, &script.root, &script.end);
        let threads = d.threads;
        samples.extend(d.samples);
        Round {
            wall_s: wall.as_secs_f64(),
            sim_s: sim.as_secs_f64(),
            cpu_s: cpu1 - cpu0 - d.checking_cpu_s,
            cpu_split_s: (split1.0 - split0.0 - d.checking_cpu_s, split1.1 - split0.1),
            samples: 0..0,
            failed,
            writeback_sim_s,
            ctx_switches,
            threads,
            peak_rss_mb: 0.0,
        }
    }

    /// End the LAN sessions (`Session::finish`) and fold their final
    /// reports into the counters. Returns the finish failures.
    pub fn teardown(&mut self) -> u64 {
        let mut failed = 0;
        let shards = self.sessions.first().map(|s| s.shard_server().clone());
        for session in std::mem::take(&mut self.sessions) {
            let mut c = session_counters(&session);
            match session.finish() {
                Ok(report) => {
                    (c.meta_hits, c.meta_misses) = report.proxy_cache.unwrap_or((0, 0));
                    c.writeback_bytes = report.writeback_bytes;
                    c.writeback_sim_s = report.writeback_time.as_secs_f64();
                }
                Err(e) => {
                    eprintln!("Session::finish failed: {e}");
                    failed += 1;
                }
            }
            self.ended.add(&c);
        }
        if let Some(shards) = shards {
            shard_counters(&shards, &mut self.ended);
        }
        failed
    }
}

/// What one session's driver did in one round.
struct Driven {
    samples: Vec<Sample>,
    /// `(wall, SimClock)` time of each timed phase, pauses excluded.
    phases: Vec<(Duration, Duration)>,
    /// Wall time spent in `pause` callbacks.
    paused: Duration,
    tree_mismatches: u64,
    /// CPU seconds this thread spent comparing the server tree mid-round.
    checking_cpu_s: f64,
    /// Context switches of the driving thread itself.
    ctx_switches: u64,
    /// Live threads of the process as the last call returned.
    threads: u64,
}

/// Drive one session through its script: the steps up to the midpoint,
/// an untimed comparison of the server's subtree with the model (only
/// where a midpoint is defined — stacks without a write-back cache), then
/// the rest.
fn drive(
    session: &mut Session,
    script: &Script,
    epoch: Instant,
    sid: u8,
    barrier: Option<&Barrier>,
    chunk: usize,
    mut pause: Option<&mut (dyn FnMut() + Send + '_)>,
) -> Driven {
    let clock = session.clock().clone();
    let vfs = session.server().vfs().clone();
    let mut out = Driven {
        samples: Vec::with_capacity(script.steps.len()),
        phases: Vec::new(),
        paused: Duration::ZERO,
        tree_mismatches: 0,
        checking_cpu_s: 0.0,
        ctx_switches: 0,
        threads: 0,
    };
    let ctx0 = measure::thread_context_switches();
    let mut cursor = Cursor::default();
    let cut = script
        .midpoint
        .as_ref()
        .map(|(n, _)| *n)
        .unwrap_or(script.steps.len());
    for range in [0..cut, cut..script.steps.len()] {
        if range.is_empty() {
            continue;
        }
        if let Some(b) = barrier {
            b.wait();
        }
        let mut phase = (Duration::ZERO, Duration::ZERO);
        let mut at = range.start;
        while at < range.end {
            let upto = at.saturating_add(chunk).min(range.end);
            let (t0, sim0) = (Instant::now(), clock.now());
            let mut target = Target {
                mount: &mut session.mount,
                clock: &clock,
                epoch,
                session: sid,
            };
            run_steps(&mut target, script, at..upto, &mut cursor, &mut out.samples);
            phase.0 += t0.elapsed();
            phase.1 += clock.now() - sim0;
            at = upto;
            if let Some(p) = pause.as_mut() {
                let t = Instant::now();
                p();
                out.paused += t.elapsed();
            }
        }
        out.phases.push(phase);
        if let (true, Some((_, tree))) = (range.end == cut, &script.midpoint) {
            let cpu0 = measure::thread_cpu_s();
            out.tree_mismatches += tree_mismatches(&vfs, &script.root, tree);
            out.checking_cpu_s += measure::thread_cpu_s() - cpu0;
        }
    }
    out.ctx_switches = measure::thread_context_switches().saturating_sub(ctx0);
    out.threads = measure::threads();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Call;

    /// WAN sessions spool under `temp_dir()`; keep that inside the package.
    fn spool_inside_the_package() {
        let tmp = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-tmp");
        std::fs::create_dir_all(&tmp).expect("scratch directory");
        std::env::set_var("TMPDIR", tmp);
    }

    fn quick_env(workload: Workload) -> Env {
        Env::build(workload, Sizes::quick(), Instant::now(), None)
    }

    #[test]
    fn wan_message_counts_repeat_for_one_seed() {
        spool_inside_the_package();
        let per_op = |_: ()| {
            let mut env = quick_env(Workload::WanSmallfile);
            let mut samples = Vec::new();
            let round = env.round(11, 0, &mut samples, usize::MAX, &mut || {});
            assert_eq!(round.failed, 0);
            let c = env.counters();
            let calls = samples.len() as f64;
            (c.rpcs as f64 / calls, c.link_msgs as f64 / calls)
        };
        let (a, b) = (per_op(()), per_op(()));
        assert!(a.0 > 0.0 && a.1 > 0.0);
        assert!(
            (a.0 - b.0).abs() / a.0 < 1e-3,
            "nfsclient.rpcs_per_op {a:?} vs {b:?}"
        );
        assert!(
            (a.1 - b.1).abs() / a.1 < 1e-3,
            "net.link.msgs_per_op {a:?} vs {b:?}"
        );
    }

    #[test]
    fn every_workload_runs_clean_at_quick_sizes() {
        spool_inside_the_package();
        for workload in Workload::ALL {
            let mut env = quick_env(workload);
            let mut samples = Vec::new();
            let round = env.round(3, 0, &mut samples, 64, &mut || {});
            assert_eq!(round.failed, 0, "{}", workload.name());
            assert!(round.sim_s > 0.0 && !samples.is_empty());
            assert_eq!(env.teardown(), 0);
        }
    }

    #[test]
    fn wrong_bytes_and_wrong_trees_are_counted() {
        let mut env = quick_env(Workload::LanSmallfile);
        let mut script = env.script(5, 0, 0, &Sizes::quick().postmark);
        let read = script
            .steps
            .iter_mut()
            .find_map(|s| match &mut s.call {
                Call::ReadFile { digest, .. } => Some(digest),
                _ => None,
            })
            .expect("the round reads a file");
        *read ^= 1;
        let (_, tree) = script.midpoint.as_mut().expect("small-file midpoint");
        tree.files.values_mut().next().expect("a file").len += 1;
        let mut samples = Vec::new();
        let round = env.lan_round(&[script], &mut samples, usize::MAX, &mut || {});
        let bad_calls = samples.iter().filter(|s| !s.ok).count();
        assert_eq!(
            (bad_calls, round.failed),
            (1, 1),
            "one wrong read, one wrong tree entry"
        );
    }
}
