//! What PostMark sends across the WAN, as counts.
//!
//! Quick PostMark on `sgfs_bench::wan_session` (sgfs-aes, disk cache) at
//! 5 and at 40 ms RTT. Its runtime is linear in the round trips it
//! exposes, so the two runs give the fit `runtime = fixed + n × RTT`
//! (reported). The gated rows are the upstream call counts of the
//! namespace procedures: PostMark's directories sit in the export root,
//! which the first MKDIR lists in one READDIRPLUS batch, and every file
//! lives in one of those directories and is deleted before the run ends,
//! so every name is logged and cancelled: no LOOKUP, CREATE, REMOVE, MKDIR
//! or RMDIR crosses the WAN. Counts do not depend on the host's clock, so
//! no row flakes.

use super::Check;
use crate::{postmark_wan, RunOpts};
use sgfs::config::SecurityLevel;
use sgfs::session::{GridWorld, SetupKind};
use sgfs_nfs3::proc::procnum;
use sgfs_workloads::postmark::PostmarkConfig;
use std::time::Duration;

const RTTS_MS: [u64; 2] = [5, 40];

pub(super) fn suite(opts: &RunOpts) -> Vec<Check> {
    let world = GridWorld::new();
    let cfg = PostmarkConfig { dirs: 10, files: 50, transactions: 100, ..Default::default() };
    let kind = SetupKind::Sgfs(SecurityLevel::StrongCipher);
    let runs: Vec<_> = RTTS_MS
        .iter()
        .map(|&ms| postmark_wan(&world, kind, Duration::from_millis(ms), opts.mem_cache(), &cfg))
        .collect();
    let forwarded = runs[1].forwarded.expect("an sgfs session has a client proxy");
    let count = |proc: u32| forwarded[proc as usize] as f64;
    let (near, far) = (runs[0].runtime.as_secs_f64(), runs[1].runtime.as_secs_f64());
    let rtt = |i: usize| RTTS_MS[i] as f64 / 1e3;
    let round_trips = (far - near) / (rtt(1) - rtt(0));
    let listings = count(procnum::READDIRPLUS);
    vec![
        Check::at_most("postmark.forwarded.lookup", count(procnum::LOOKUP), "count", 0.0),
        Check::at_most("postmark.forwarded.create", count(procnum::CREATE), "count", 0.0),
        Check::at_most("postmark.forwarded.remove", count(procnum::REMOVE), "count", 0.0),
        Check::at_most("postmark.forwarded.mkdir", count(procnum::MKDIR), "count", 0.0),
        Check::at_most("postmark.forwarded.rmdir", count(procnum::RMDIR), "count", 0.0),
        Check::at_most("postmark.forwarded.readdirplus", listings, "count", 1.0),
        Check::report("postmark.shipped_at_teardown", runs[1].shipped_at_teardown as f64, "count"),
        Check::report("postmark.runtime_5ms_s", near, "s"),
        Check::report("postmark.runtime_40ms_s", far, "s"),
        Check::report("postmark.fixed_s", near - round_trips * rtt(0), "s"),
        Check::report("postmark.exposed_round_trips", round_trips, "count"),
    ]
}
