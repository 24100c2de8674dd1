//! A shard thread that dies — any panic out of
//! `RecordService::process_record` — must not take its acceptors with it:
//! the next `add_session` placed on the dead shard fails, promptly, and
//! the other shards keep serving. The server-plane twin of
//! `client_pool::add_conn_fails_fast_after_worker_death`.
//!
//! Every step that would hang on a regression runs against a deadline of
//! its own, so this fails instead of stalling `cargo test`.

use sgfs_net::{pipe_pair, PipeEnd};
use sgfs_oncrpc::record::{read_record, write_record};
use sgfs_oncrpc::{RecordService, ShardServer};
use std::io;
use std::sync::{mpsc, Arc};
use std::time::Duration;

struct Echo;

impl RecordService for Echo {
    fn process_record(&self, record: &[u8]) -> io::Result<Vec<u8>> {
        Ok(record.to_vec())
    }
}

struct DecoderBug;

impl RecordService for DecoderBug {
    fn process_record(&self, _: &[u8]) -> io::Result<Vec<u8>> {
        panic!("wire-facing decoder hit an unwrap");
    }
}

/// Accept one session; returns its id and the peer's end of the wire.
fn accept(server: &ShardServer, service: Arc<dyn RecordService>) -> io::Result<(u64, PipeEnd)> {
    let (peer, server_end) = pipe_pair();
    let watch = server_end.watch();
    let id = server.add_session(Box::new(server_end), watch, service)?;
    Ok((id, peer))
}

fn echoes(peer: &mut PipeEnd, payload: &[u8]) -> bool {
    write_record(peer, payload).is_ok()
        && matches!(read_record(peer), Ok(Some(reply)) if reply == payload)
}

/// Run `step` on a thread of its own and fail if it is not done in time.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    step: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || done_tx.send(step()));
    done.recv_timeout(limit).unwrap_or_else(|_| panic!("{what}: not done within {limit:?}"))
}

#[test]
fn dead_shard_fails_its_acceptors_fast_and_neighbors_keep_answering() {
    let server = ShardServer::new(2);
    let (healthy_id, mut healthy) = accept(&server, Arc::new(Echo)).unwrap();
    let (doomed_id, mut doomed) = accept(&server, Arc::new(DecoderBug)).unwrap();
    assert_eq!((healthy_id % 2, doomed_id % 2), (1, 0), "ids alternate shards");

    // Kill shard 0. Its unwinding thread drops the session, so the peer
    // reads EOF once the shard is on its way out.
    let eof = within(Duration::from_secs(5), "peer of the dying shard reads EOF", move || {
        write_record(&mut doomed, b"boom").unwrap();
        !matches!(read_record(&mut doomed), Ok(Some(_)))
    });
    assert!(eof);

    // Every second id lands on shard 0. An accept racing the last instants
    // of the unwind may still be taken; the first refusal must come within
    // the second. Before the fix this call never returned.
    let acceptor = server.clone();
    within(Duration::from_secs(1), "add_session onto a dead shard fails", move || {
        while accept(&acceptor, Arc::new(Echo)).is_ok() {}
    });

    // Shard 1 is untouched: its old session and a new one both answer.
    let (id, mut fresh) = accept(&server, Arc::new(Echo)).expect("shard 1 still accepts");
    assert_eq!(id % 2, 1);
    let answered = within(Duration::from_secs(5), "shard 1 answers", move || {
        echoes(&mut healthy, b"old session") && echoes(&mut fresh, b"new session")
    });
    assert!(answered);
}
