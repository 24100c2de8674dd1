//! Pipelined vs serial RPC forwarding: the same call mix over an emulated
//! 20 ms-RTT link, window 1 (the old serial protocol) vs window 8,
//! measured in the testbed's virtual time. Serial pays one RTT per call;
//! the xid-demultiplexed window overlaps them.

use super::{mock, Check};
use crate::RunOpts;
use sgfs::proxy::client::Upstream;
use sgfs::proxy::pipeline::Pipeline;
use sgfs_net::{pipe_pair_over_link, Link, LinkSpec, SimClock};
use sgfs_obs::Emitter;
use std::time::Duration;

/// Virtual seconds to push `calls` equal calls upstream over a 20 ms
/// link, `window` at a time, and the deepest the window got: one caller
/// submits each round as a batch — which the pipeline admits whole before
/// it collects any reply — and waits for it, so a round costs one round
/// trip in virtual time whatever the scheduler does.
fn forwarding_time(calls: usize, window: u32) -> (f64, u64) {
    let clock = SimClock::new();
    let link = Link::new(LinkSpec::wan_rtt(Duration::from_millis(20)), clock.clone());
    let (client_end, server_end) = pipe_pair_over_link(link);
    mock::echo_upstream(server_end);
    let stats = Emitter::detached("client");
    let watch = client_end.watch();
    let pipeline =
        Pipeline::new(Upstream::Plain(Box::new(client_end)), watch, window, None, stats.clone());
    let start = clock.now();
    let xids: Vec<u32> = (0..calls as u32).collect();
    for round in xids.chunks(window as usize) {
        let records = round
            .iter()
            .map(|xid| {
                let mut record = xid.to_be_bytes().to_vec();
                record.extend_from_slice(&[0u8; 60]);
                record
            })
            .collect();
        for reply in pipeline.submit_batch(records) {
            reply.wait().expect("forwarded call");
        }
    }
    ((clock.now() - start).as_secs_f64(), stats.pipeline_peak())
}

pub fn suite(opts: &RunOpts) -> Vec<Check> {
    let calls = if opts.quick { 32 } else { 64 };
    let (window_1_s, _) = forwarding_time(calls, 1);
    let (window_8_s, peak) = forwarding_time(calls, 8);
    vec![
        Check::report("window_1_s", window_1_s, "s"),
        Check::report("window_8_s", window_8_s, "s"),
        Check::report("window_8_peak_depth", peak as f64, "count"),
        Check::at_least("window_8_speedup", window_1_s / window_8_s, "ratio", 2.0),
    ]
}
