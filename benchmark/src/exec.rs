//! Executes a [`Script`] against a mounted session, one blocking call at
//! a time, and checks what comes back.
//!
//! Every `NfsMount` call is timed on the wall clock and on the session's
//! `SimClock` from just before the call to just after it returns; content
//! checks run outside that window. A call that returns `Err`, the wrong
//! length or the wrong bytes is recorded as failed and the script goes on.

use crate::gen::{digest, Call, Digest, FileState, Kind, OpenMode, Phase, Script, Tree};
use sgfs_net::SimClock;
use sgfs_nfsclient::{Fd, FsError, NfsMount, OpenFlags};
use sgfs_vfs::{FileKind, UserContext, Vfs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One completed `NfsMount` call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub phase: Phase,
    /// Which of the workload's sessions issued the call.
    pub session: u8,
    pub ok: bool,
    /// NFS RPCs the kernel-client stand-in issued for this call.
    pub rpcs: u32,
    /// Payload bytes the call carried (reads: bytes returned).
    pub bytes: u32,
    /// Wall nanoseconds since the process epoch at which the call began.
    pub start_ns: u64,
    pub wall_ns: u64,
    /// Duration on the session's `SimClock` (wall + virtual network time).
    pub sim_ns: u64,
}

/// The mounted session a script's calls go to, and the clocks that time them.
pub struct Target<'a> {
    pub mount: &'a mut NfsMount,
    pub clock: &'a SimClock,
    pub epoch: Instant,
    pub session: u8,
}

/// The one open descriptor a script may hold between runs of its steps.
#[derive(Default)]
pub struct Cursor {
    fd: Option<Fd>,
}

fn open_flags(mode: OpenMode) -> OpenFlags {
    match mode {
        OpenMode::Read => OpenFlags::rdonly(),
        OpenMode::ReadWrite => OpenFlags::rdwr(),
        OpenMode::CreateTruncate => OpenFlags::create_truncate(),
    }
}

/// What a successful call returned, as far as the script checks it.
enum Outcome {
    Done,
    Size(u64),
    Data(Vec<u8>),
}

fn no_fd() -> FsError {
    FsError::Usage("script has no open descriptor".into())
}

/// Say what went wrong with a call — for the first few; a broken program
/// fails thousands of calls and the count is what gets reported.
fn complain(call: &Call, error: Option<&FsError>) {
    static SHOWN: AtomicU32 = AtomicU32::new(0);
    if SHOWN.fetch_add(1, Ordering::Relaxed) < 20 {
        match error {
            Some(e) => eprintln!("call failed: {call:?}: {e}"),
            None => eprintln!("wrong result: {call:?}"),
        }
    }
}

/// Issue `script.steps[range]` in order, appending one [`Sample`] per call.
pub fn run_steps(
    target: &mut Target<'_>,
    script: &Script,
    range: std::ops::Range<usize>,
    cursor: &mut Cursor,
    out: &mut Vec<Sample>,
) {
    for step in &script.steps[range] {
        let mount = &mut *target.mount;
        let rpcs0 = mount.stats().total();
        let sim0 = target.clock.now();
        let start = target.epoch.elapsed();
        let t0 = Instant::now();
        // What came back is checked after the clock stops.
        let result: Result<Outcome, FsError> = match &step.call {
            Call::Mkdir { path } => mount.mkdir(path, 0o755).map(|()| Outcome::Done),
            Call::Rmdir { path } => mount.rmdir(path).map(|()| Outcome::Done),
            Call::Unlink { path } => mount.unlink(path).map(|()| Outcome::Done),
            Call::Stat { path, .. } => mount.stat(path).map(|a| Outcome::Size(a.size)),
            Call::WriteFile { path, data } => mount
                .write_file(path, script.blob(*data))
                .map(|()| Outcome::Done),
            Call::ReadFile { path, .. } => mount.read_file(path).map(Outcome::Data),
            Call::Open { path, mode } => mount.open(path, open_flags(*mode), 0o644).map(|fd| {
                cursor.fd = Some(fd);
                Outcome::Done
            }),
            Call::Pwrite { offset, data } => cursor
                .fd
                .ok_or_else(no_fd)
                .and_then(|fd| mount.pwrite(fd, *offset, script.blob(*data)))
                .map(|_| Outcome::Done),
            Call::Write { data } => cursor
                .fd
                .ok_or_else(no_fd)
                .and_then(|fd| mount.write(fd, script.blob(*data)))
                .map(|_| Outcome::Done),
            Call::Read { ask, .. } => cursor
                .fd
                .ok_or_else(no_fd)
                .and_then(|fd| mount.read(fd, *ask as usize))
                .map(Outcome::Data),
            Call::Fsync => cursor
                .fd
                .ok_or_else(no_fd)
                .and_then(|fd| mount.fsync(fd))
                .map(|()| Outcome::Done),
            Call::Close => cursor
                .fd
                .take()
                .ok_or_else(no_fd)
                .and_then(|fd| mount.close(fd))
                .map(|()| Outcome::Done),
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let sim_ns = target.clock.now().saturating_sub(sim0).as_nanos() as u64;
        let rpcs = (mount.stats().total() - rpcs0) as u32;

        let (ok, bytes) = match (&step.call, &result) {
            (_, Err(_)) => (false, 0),
            (Call::Stat { size, .. }, Ok(Outcome::Size(got))) => (got == size, 0),
            (
                Call::ReadFile {
                    len, digest: want, ..
                },
                Ok(Outcome::Data(got)),
            ) => (got.len() as u64 == *len && digest(got) == *want, got.len()),
            (
                Call::Read {
                    len, digest: want, ..
                },
                Ok(Outcome::Data(got)),
            ) => (
                got.len() == *len as usize && digest(got) == *want,
                got.len(),
            ),
            (
                Call::WriteFile { data, .. } | Call::Pwrite { data, .. } | Call::Write { data },
                Ok(_),
            ) => (true, data.len),
            (_, Ok(_)) => (true, 0),
        };
        if !ok {
            complain(&step.call, result.as_ref().err());
        }
        out.push(Sample {
            kind: step.call.kind(),
            phase: step.phase,
            session: target.session,
            ok,
            rpcs,
            bytes: bytes as u32,
            start_ns: start.as_nanos() as u64,
            wall_ns,
            sim_ns,
        });
    }
}

/// Put a script's preload files straight into the server's file system,
/// owned by the file account the session maps to.
pub fn preload(vfs: &Vfs, script: &Script, owner: u32) {
    let root = UserContext::root();
    let export = vfs.mkdir_p("/GFS", 0o755, &root).expect("export directory");
    for (path, blocks) in &script.preload {
        let name = path.trim_start_matches('/');
        let file = vfs
            .create(export.ino, name, 0o644, false, &root)
            .expect("preload create");
        let mut at = 0;
        for block in blocks {
            vfs.write(file.ino, at, script.blob(*block), &root)
                .expect("preload write");
            at += block.len as u64;
        }
        let chown = sgfs_vfs::SetAttrs {
            uid: Some(owner),
            gid: Some(owner),
            ..Default::default()
        };
        vfs.setattr(file.ino, &chown, &root).expect("preload chown");
    }
}

/// The subtree of the export at mount path `root`, read straight from the
/// server's file system (names, sizes, content digests). `root` itself is
/// listed among the directories unless it is the export's top.
pub fn snapshot(vfs: &Vfs, root: &str) -> Tree {
    fn walk(vfs: &Vfs, ino: u64, path: &str, ctx: &UserContext, tree: &mut Tree) {
        for entry in vfs.readdir(ino, ctx).unwrap_or_default() {
            if entry.name == "." || entry.name == ".." {
                continue;
            }
            let child = format!("{}/{}", path.trim_end_matches('/'), entry.name);
            match entry.kind {
                FileKind::Directory => {
                    tree.dirs.insert(child.clone());
                    walk(vfs, entry.ino, &child, ctx, tree);
                }
                _ => {
                    let mut d = Digest::default();
                    let mut len = 0u64;
                    while let Ok((chunk, eof)) = vfs.read(entry.ino, len, 1 << 20, ctx) {
                        d.update(&chunk);
                        len += chunk.len() as u64;
                        if eof || chunk.is_empty() {
                            break;
                        }
                    }
                    tree.files.insert(
                        child,
                        FileState {
                            len,
                            digest: d.finish(),
                        },
                    );
                }
            }
        }
    }
    let ctx = UserContext::root();
    let mut tree = Tree::default();
    let top = root.trim_end_matches('/');
    if let Ok(attr) = vfs.resolve(&format!("/GFS{top}"), &ctx) {
        if !top.is_empty() {
            tree.dirs.insert(top.to_string());
        }
        walk(vfs, attr.ino, top, &ctx, &mut tree);
    }
    tree
}

/// Compare the server's subtree with the generator's model; returns the
/// number of entries that differ (0 = identical).
pub fn tree_mismatches(vfs: &Vfs, root: &str, want: &Tree) -> u64 {
    let got = snapshot(vfs, root);
    let mut bad = 0;
    bad += got.dirs.symmetric_difference(&want.dirs).count() as u64;
    for (path, state) in &want.files {
        if got.files.get(path) != Some(state) {
            bad += 1;
        }
    }
    bad += got
        .files
        .keys()
        .filter(|p| !want.files.contains_key(*p))
        .count() as u64;
    if bad > 0 {
        eprintln!(
            "server tree under {root:?} differs from the model in {bad} entries \
             (have {} dirs / {} files, want {} / {})",
            got.dirs.len(),
            got.files.len(),
            want.dirs.len(),
            want.files.len()
        );
    }
    bad
}
