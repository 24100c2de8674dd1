//! Seeded, self-contained workload generators.
//!
//! A generator turns `(seed, round)` into a [`Script`]: the exact list of
//! `NfsMount` calls to issue, the payload bytes they carry, what every
//! read must return, and the tree the server must hold afterwards. The
//! program under test sees only the calls; the seed never reaches it.
//!
//! Scripts are *stratified*: the number of calls of each kind, the
//! multiset of file sizes and the number of times each file is targeted
//! are fixed by the shape, and the seed only permutes order, targets'
//! pairing and content. Two seeds therefore do the same amount of work,
//! which keeps the run-to-run spread of the metrics down to what the
//! machine adds.

use std::collections::{BTreeMap, BTreeSet};

/// xorshift64* seeded through splitmix64 (so small seeds diverge at once).
#[derive(Debug, Clone)]
pub struct Prng {
    state: u64,
}

impl Prng {
    pub fn new(seed: u64) -> Self {
        Self {
            state: mix(seed, 0x5347_4653).max(1),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        (self.next_u64() % bound as u64) as usize
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let tail = chunks.into_remainder();
        let word = self.next_u64().to_le_bytes();
        tail.copy_from_slice(&word[..tail.len()]);
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent sub-seed (splitmix64 finalizer over the pair).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Streaming 64-bit content digest, eight bytes per multiply. Not
/// cryptographic: it only has to tell right bytes from wrong ones, and be
/// cheap next to the call it checks.
#[derive(Debug, Clone)]
pub struct Digest {
    h: u64,
    pending: [u8; 8],
    pending_len: usize,
    total: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Self {
            h: 0x6a09_e667_f3bc_c908,
            pending: [0; 8],
            pending_len: 0,
            total: 0,
        }
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.h ^= self.h >> 32;
    }

    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 8 {
                return;
            }
            self.word(u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let tail = chunks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    pub fn finish(mut self) -> u64 {
        if self.pending_len > 0 {
            self.pending[self.pending_len..].fill(0);
            self.word(u64::from_le_bytes(self.pending));
        }
        self.word(self.total);
        self.h
    }
}

pub fn digest(bytes: &[u8]) -> u64 {
    let mut d = Digest::default();
    d.update(bytes);
    d.finish()
}

/// The `NfsMount` entry points the benchmark drives; also the span names
/// of the benchmark's own trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    Mkdir,
    Rmdir,
    Unlink,
    Stat,
    WriteFile,
    ReadFile,
    Open,
    Pwrite,
    Write,
    Read,
    Fsync,
    Close,
}

impl Kind {
    pub const ALL: [Kind; 12] = [
        Kind::Mkdir,
        Kind::Rmdir,
        Kind::Unlink,
        Kind::Stat,
        Kind::WriteFile,
        Kind::ReadFile,
        Kind::Open,
        Kind::Pwrite,
        Kind::Write,
        Kind::Read,
        Kind::Fsync,
        Kind::Close,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Mkdir => "mkdir",
            Kind::Rmdir => "rmdir",
            Kind::Unlink => "unlink",
            Kind::Stat => "stat",
            Kind::WriteFile => "write_file",
            Kind::ReadFile => "read_file",
            Kind::Open => "open",
            Kind::Pwrite => "pwrite",
            Kind::Write => "write",
            Kind::Read => "read",
            Kind::Fsync => "fsync",
            Kind::Close => "close",
        }
    }
}

/// Which part of a round a call belongs to; throughput metrics are taken
/// per phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Build the directory and file pool.
    Create,
    /// The transaction mix over the pool.
    Transact,
    /// Remove everything the round made.
    Delete,
    /// Sequential write + fsync + close of the stream file.
    Write,
    /// First sequential read of the stream file.
    Read,
    /// Second sequential read (after close/open).
    Reread,
}

/// A payload: `pool[off..off + len]` of the owning [`Script`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blob {
    pub off: usize,
    pub len: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    Read,
    ReadWrite,
    CreateTruncate,
}

/// One `NfsMount` call. `Open` sets the script's single current
/// descriptor; `Pwrite`/`Write`/`Read`/`Fsync`/`Close` use it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    Mkdir {
        path: String,
    },
    Rmdir {
        path: String,
    },
    Unlink {
        path: String,
    },
    Stat {
        path: String,
        size: u64,
    },
    WriteFile {
        path: String,
        data: Blob,
    },
    ReadFile {
        path: String,
        len: u64,
        digest: u64,
    },
    Open {
        path: String,
        mode: OpenMode,
    },
    Pwrite {
        offset: u64,
        data: Blob,
    },
    Write {
        data: Blob,
    },
    /// Ask for `ask` bytes at the descriptor's offset; `len` come back.
    Read {
        ask: u32,
        len: u32,
        digest: u64,
    },
    Fsync,
    Close,
}

impl Call {
    pub fn kind(&self) -> Kind {
        match self {
            Call::Mkdir { .. } => Kind::Mkdir,
            Call::Rmdir { .. } => Kind::Rmdir,
            Call::Unlink { .. } => Kind::Unlink,
            Call::Stat { .. } => Kind::Stat,
            Call::WriteFile { .. } => Kind::WriteFile,
            Call::ReadFile { .. } => Kind::ReadFile,
            Call::Open { .. } => Kind::Open,
            Call::Pwrite { .. } => Kind::Pwrite,
            Call::Write { .. } => Kind::Write,
            Call::Read { .. } => Kind::Read,
            Call::Fsync => Kind::Fsync,
            Call::Close => Kind::Close,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    pub phase: Phase,
    pub call: Call,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileState {
    pub len: u64,
    pub digest: u64,
}

/// What the export must hold: paths as the mount names them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tree {
    pub dirs: BTreeSet<String>,
    pub files: BTreeMap<String, FileState>,
}

/// One round's (or repetition's) calls plus everything needed to check it.
#[derive(Debug, Clone)]
pub struct Script {
    pub steps: Vec<Step>,
    /// The seeded byte tape every payload is a window of. Payloads differ
    /// by where their window starts, so the script's memory stays at one
    /// tape however many bytes its calls move — the benchmark's own
    /// footprint must not drown the program's in `peak_rss_mb`.
    pub pool: Vec<u8>,
    /// Files to place in the server's file system before the session
    /// exists (the paper preloads IOzone's and Seismic's inputs), as the
    /// windows that make up their content.
    pub preload: Vec<(String, Vec<Blob>)>,
    /// `(n, tree)`: after the first `n` steps the subtree under
    /// [`root`](Self::root) must equal `tree` — on a stack without a
    /// write-back cache.
    pub midpoint: Option<(usize, Tree)>,
    /// The subtree under `root` after the last step (and, with a
    /// write-back cache, after the session's final flush).
    pub end: Tree,
    /// The directory this script works in (`"/"` = the whole export).
    pub root: String,
}

impl Script {
    pub fn blob(&self, b: Blob) -> &[u8] {
        &self.pool[b.off..b.off + b.len]
    }

    /// Digest of the whole script: calls, payloads, expectations.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for step in &self.steps {
            d.update(format!("{step:?}\n").as_bytes());
        }
        d.update(&self.pool);
        d.update(format!("{:?}{:?}{:?}", self.preload, self.midpoint, self.end).as_bytes());
        d.finish()
    }
}

/// Accumulates payload bytes and the expected content of every file.
struct Builder {
    rng: Prng,
    steps: Vec<Step>,
    pool: Vec<u8>,
    dirs: BTreeSet<String>,
    files: BTreeMap<String, Vec<u8>>,
}

/// Bytes of seeded tape behind a script's payloads.
const TAPE: usize = 1 << 20;

/// A fresh tape drawn from `rng`.
fn tape(rng: &mut Prng) -> Vec<u8> {
    let mut pool = vec![0u8; TAPE];
    rng.fill(&mut pool);
    pool
}

/// A `len`-byte window of the tape at a seeded position.
fn window(rng: &mut Prng, len: usize) -> Blob {
    Blob {
        off: rng.below(TAPE - len + 1),
        len,
    }
}

impl Builder {
    fn new(seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        Self {
            pool: tape(&mut rng),
            rng,
            steps: Vec::new(),
            dirs: BTreeSet::new(),
            files: BTreeMap::new(),
        }
    }

    fn push(&mut self, phase: Phase, call: Call) {
        self.steps.push(Step { phase, call });
    }

    fn mkdir(&mut self, phase: Phase, path: &str) {
        self.dirs.insert(path.to_string());
        self.push(
            phase,
            Call::Mkdir {
                path: path.to_string(),
            },
        );
    }

    fn rmdir(&mut self, phase: Phase, path: &str) {
        self.dirs.remove(path);
        self.push(
            phase,
            Call::Rmdir {
                path: path.to_string(),
            },
        );
    }

    fn write_file(&mut self, phase: Phase, path: &str, len: usize) {
        let data = window(&mut self.rng, len);
        self.files.insert(
            path.to_string(),
            self.pool[data.off..data.off + len].to_vec(),
        );
        self.push(
            phase,
            Call::WriteFile {
                path: path.to_string(),
                data,
            },
        );
    }

    fn read_file(&mut self, phase: Phase, path: &str) {
        let content = &self.files[path];
        let call = Call::ReadFile {
            path: path.to_string(),
            len: content.len() as u64,
            digest: digest(content),
        };
        self.push(phase, call);
    }

    fn stat(&mut self, phase: Phase, path: &str) {
        let size = self.files[path].len() as u64;
        self.push(
            phase,
            Call::Stat {
                path: path.to_string(),
                size,
            },
        );
    }

    fn unlink(&mut self, phase: Phase, path: &str) {
        self.files.remove(path);
        self.push(
            phase,
            Call::Unlink {
                path: path.to_string(),
            },
        );
    }

    /// `pwrite(offset, len fresh bytes)` on the open file `path`.
    fn pwrite(&mut self, phase: Phase, path: &str, offset: usize, len: usize) {
        let data = window(&mut self.rng, len);
        let content = self
            .files
            .get_mut(path)
            .expect("pwrite targets a live file");
        if content.len() < offset + len {
            content.resize(offset + len, 0);
        }
        content[offset..offset + len].copy_from_slice(&self.pool[data.off..data.off + len]);
        self.push(
            phase,
            Call::Pwrite {
                offset: offset as u64,
                data,
            },
        );
    }

    fn tree(&self) -> Tree {
        Tree {
            dirs: self.dirs.clone(),
            files: self
                .files
                .iter()
                .map(|(p, c)| {
                    (
                        p.clone(),
                        FileState {
                            len: c.len() as u64,
                            digest: digest(c),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// `n` sizes evenly spaced over `[min, max]`, in seeded order: every seed
/// moves the same bytes.
fn spread_sizes(rng: &mut Prng, n: usize, min: usize, max: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..n)
        .map(|i| {
            if n > 1 {
                min + i * (max - min) / (n - 1)
            } else {
                min
            }
        })
        .collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// `total` picks from `0..n`, each index as often as any other (±1), in
/// seeded order.
fn balanced_picks(rng: &mut Prng, n: usize, total: usize) -> Vec<usize> {
    let mut picks: Vec<usize> = (0..total).map(|i| i % n).collect();
    rng.shuffle(&mut picks);
    picks
}

/// Shape of the `lan_smallfile` / `lan_multi` round.
#[derive(Debug, Clone, Copy)]
pub struct SmallfileShape {
    pub dirs: usize,
    pub files: usize,
    /// Transactions of *each* of the four kinds (stat, read_file,
    /// open+pwrite+close, overwrite write_file).
    pub per_kind: usize,
    pub min_size: usize,
    pub max_size: usize,
    /// Bytes one `pwrite` transaction patches.
    pub patch: usize,
}

#[cfg(test)]
impl SmallfileShape {
    /// `NfsMount` calls in one round.
    pub fn calls(&self) -> usize {
        // round dir + dirs, pool, 3 single-call kinds + a 3-call kind, deletes
        2 * (1 + self.dirs) + 2 * self.files + 6 * self.per_kind
    }
}

/// One small-file round in the fresh subtree `root`: make the pool, run
/// the transaction mix, delete everything.
pub fn smallfile_round(seed: u64, root: &str, shape: &SmallfileShape) -> Script {
    #[derive(Clone, Copy)]
    enum Tx {
        Stat,
        Read,
        Patch,
        Overwrite,
    }
    let mut b = Builder::new(seed);
    let dir = |d: usize| format!("{root}/d{d:02}");
    let file = |f: usize| format!("{root}/d{:02}/f{f:05}", f % shape.dirs);

    b.mkdir(Phase::Create, root);
    for d in 0..shape.dirs {
        b.mkdir(Phase::Create, &dir(d));
    }
    let sizes = spread_sizes(&mut b.rng, shape.files, shape.min_size, shape.max_size);
    for (f, &size) in sizes.iter().enumerate() {
        b.write_file(Phase::Create, &file(f), size);
    }

    let mut txs: Vec<(Tx, usize)> = Vec::with_capacity(4 * shape.per_kind);
    for tx in [Tx::Stat, Tx::Read, Tx::Patch, Tx::Overwrite] {
        let picks = balanced_picks(&mut b.rng, shape.files, shape.per_kind);
        txs.extend(picks.into_iter().map(|f| (tx, f)));
    }
    b.rng.shuffle(&mut txs);
    for (tx, f) in txs {
        let path = file(f);
        match tx {
            Tx::Stat => b.stat(Phase::Transact, &path),
            Tx::Read => b.read_file(Phase::Transact, &path),
            Tx::Patch => {
                let len = b.files[&path].len();
                let offset = b.rng.below(len.saturating_sub(shape.patch) + 1);
                b.push(
                    Phase::Transact,
                    Call::Open {
                        path: path.clone(),
                        mode: OpenMode::ReadWrite,
                    },
                );
                b.pwrite(Phase::Transact, &path, offset, shape.patch);
                b.push(Phase::Transact, Call::Close);
            }
            Tx::Overwrite => {
                // The file's first length, new bytes: the byte total stays
                // seed-independent (a patch may have grown a tiny file).
                b.write_file(Phase::Transact, &path, sizes[f]);
            }
        }
    }
    let midpoint = Some((b.steps.len(), b.tree()));

    let mut order: Vec<usize> = (0..shape.files).collect();
    b.rng.shuffle(&mut order);
    for f in order {
        b.unlink(Phase::Delete, &file(f));
    }
    for d in 0..shape.dirs {
        b.rmdir(Phase::Delete, &dir(d));
    }
    b.rmdir(Phase::Delete, root);
    let end = b.tree();
    Script {
        steps: b.steps,
        pool: b.pool,
        preload: Vec::new(),
        midpoint,
        end,
        root: root.to_string(),
    }
}

/// Shape of the `wan_smallfile` repetition: PostMark as the paper
/// configures it.
#[derive(Debug, Clone, Copy)]
pub struct PostmarkShape {
    pub dirs: usize,
    pub files: usize,
    pub transactions: usize,
    pub min_size: usize,
    pub max_size: usize,
}

/// PostMark over the whole export: create the pool, run
/// `transactions` × (create|delete, read|append), delete everything.
/// Exactly half of each pair's choices go each way; the seed orders them.
pub fn postmark(seed: u64, shape: &PostmarkShape) -> Script {
    let mut b = Builder::new(seed);
    let dir = |d: usize| format!("/pm{d:03}");
    let file = |f: usize| format!("/pm{:03}/f{f:05}", f % shape.dirs);
    let half = shape.transactions / 2;

    for d in 0..shape.dirs {
        b.mkdir(Phase::Create, &dir(d));
    }
    let sizes = spread_sizes(
        &mut b.rng,
        shape.files + half,
        shape.min_size,
        shape.max_size,
    );
    for (f, &size) in sizes.iter().take(shape.files).enumerate() {
        b.write_file(Phase::Create, &file(f), size);
    }
    let mut live: Vec<usize> = (0..shape.files).collect();
    let mut next_new = shape.files;

    let mut creates: Vec<bool> = (0..shape.transactions).map(|i| i < half).collect();
    b.rng.shuffle(&mut creates);
    let mut reads: Vec<bool> = (0..shape.transactions).map(|i| i < half).collect();
    b.rng.shuffle(&mut reads);
    let appends = spread_sizes(
        &mut b.rng,
        shape.transactions - half,
        shape.min_size / 2,
        2048,
    );
    let mut appended = 0;
    for t in 0..shape.transactions {
        // An empty pool cannot lose a file; make one instead.
        if (creates[t] && next_new < sizes.len()) || live.is_empty() {
            let size = sizes[next_new.min(sizes.len() - 1)];
            b.write_file(Phase::Transact, &file(next_new), size);
            live.push(next_new);
            next_new += 1;
        } else {
            let f = live.swap_remove(b.rng.below(live.len()));
            b.unlink(Phase::Transact, &file(f));
        }
        if live.is_empty() {
            continue;
        }
        let path = file(live[b.rng.below(live.len())]);
        if reads[t] {
            b.read_file(Phase::Transact, &path);
        } else {
            let size = b.files[&path].len();
            b.push(
                Phase::Transact,
                Call::Open {
                    path: path.clone(),
                    mode: OpenMode::ReadWrite,
                },
            );
            b.stat(Phase::Transact, &path);
            b.pwrite(Phase::Transact, &path, size, appends[appended]);
            appended += 1;
            b.push(Phase::Transact, Call::Close);
        }
    }

    b.rng.shuffle(&mut live);
    for f in live {
        b.unlink(Phase::Delete, &file(f));
    }
    for d in 0..shape.dirs {
        b.rmdir(Phase::Delete, &dir(d));
    }
    let end = b.tree();
    Script {
        steps: b.steps,
        pool: b.pool,
        preload: Vec::new(),
        midpoint: None,
        end,
        root: "/".into(),
    }
}

/// A file made of `block`-sized windows of the tape, and the calls that
/// read or write it from end to end.
struct StreamFile {
    path: String,
    blocks: Vec<Blob>,
}

impl StreamFile {
    fn new(rng: &mut Prng, path: &str, file_bytes: usize, block: usize) -> Self {
        let blocks = (0..file_bytes.div_ceil(block))
            .map(|i| window(rng, block.min(file_bytes - i * block)))
            .collect();
        Self {
            path: path.to_string(),
            blocks,
        }
    }

    fn state(&self, pool: &[u8]) -> FileState {
        let mut d = Digest::default();
        for b in &self.blocks {
            d.update(&pool[b.off..b.off + b.len]);
        }
        FileState {
            len: self.blocks.iter().map(|b| b.len as u64).sum(),
            digest: d.finish(),
        }
    }

    fn read(&self, steps: &mut Vec<Step>, phase: Phase, pool: &[u8], block: usize) {
        steps.push(Step {
            phase,
            call: Call::Open {
                path: self.path.clone(),
                mode: OpenMode::Read,
            },
        });
        for b in &self.blocks {
            let call = Call::Read {
                ask: block as u32,
                len: b.len as u32,
                digest: digest(&pool[b.off..b.off + b.len]),
            };
            steps.push(Step { phase, call });
        }
        // The application reads until end of file.
        steps.push(Step {
            phase,
            call: Call::Read {
                ask: block as u32,
                len: 0,
                digest: digest(&[]),
            },
        });
        steps.push(Step {
            phase,
            call: Call::Close,
        });
    }

    fn write(&self, steps: &mut Vec<Step>) {
        let phase = Phase::Write;
        let open = Call::Open {
            path: self.path.clone(),
            mode: OpenMode::CreateTruncate,
        };
        steps.push(Step { phase, call: open });
        steps.extend(self.blocks.iter().map(|b| Step {
            phase,
            call: Call::Write { data: *b },
        }));
        steps.push(Step {
            phase,
            call: Call::Fsync,
        });
        steps.push(Step {
            phase,
            call: Call::Close,
        });
    }
}

/// One `lan_stream` round on `path`: write the file in `block`-sized
/// calls, fsync, close; read it sequentially twice; unlink it.
pub fn stream_round(seed: u64, path: &str, file_bytes: usize, block: usize) -> Script {
    let mut rng = Prng::new(seed);
    let pool = tape(&mut rng);
    let file = StreamFile::new(&mut rng, path, file_bytes, block);
    let mut steps = Vec::new();
    file.write(&mut steps);
    let mut written = Tree::default();
    written.files.insert(path.to_string(), file.state(&pool));
    let midpoint = Some((steps.len(), written));
    file.read(&mut steps, Phase::Read, &pool, block);
    file.read(&mut steps, Phase::Reread, &pool, block);
    steps.push(Step {
        phase: Phase::Delete,
        call: Call::Unlink {
            path: path.to_string(),
        },
    });
    Script {
        steps,
        pool,
        preload: Vec::new(),
        midpoint,
        end: Tree::default(),
        root: "/".into(),
    }
}

/// One `wan_stream` repetition: cold sequential read of the preloaded
/// `/input.dat`, close/open, warm re-read, then sequential write of a new
/// `/output.dat`, fsync, close. The caller ends the session afterwards.
pub fn stream_wan(seed: u64, file_bytes: usize, block: usize) -> Script {
    let mut rng = Prng::new(seed);
    let pool = tape(&mut rng);
    let input = StreamFile::new(&mut rng, "/input.dat", file_bytes, block);
    let output = StreamFile::new(&mut rng, "/output.dat", file_bytes, block);
    let mut steps = Vec::new();
    input.read(&mut steps, Phase::Read, &pool, block);
    input.read(&mut steps, Phase::Reread, &pool, block);
    output.write(&mut steps);
    let mut end = Tree::default();
    end.files.insert(input.path.clone(), input.state(&pool));
    end.files.insert(output.path.clone(), output.state(&pool));
    Script {
        steps,
        preload: vec![(input.path, input.blocks)],
        pool,
        midpoint: None,
        end,
        root: "/".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: SmallfileShape = SmallfileShape {
        dirs: 3,
        files: 12,
        per_kind: 24,
        min_size: 512,
        max_size: 16 * 1024,
        patch: 1024,
    };
    const PM: PostmarkShape = PostmarkShape {
        dirs: 5,
        files: 20,
        transactions: 40,
        min_size: 512,
        max_size: 16 * 1024,
    };

    #[test]
    fn same_seed_same_script_other_seed_other_script() {
        type Gen = fn(u64) -> Script;
        let gens: [Gen; 4] = [
            |s| smallfile_round(s, "/r0", &SHAPE),
            |s| postmark(s, &PM),
            |s| stream_round(s, "/s", 256 * 1024, 32 * 1024),
            |s| stream_wan(s, 128 * 1024, 32 * 1024),
        ];
        for gen in gens {
            assert_eq!(gen(7).digest(), gen(7).digest());
            assert_ne!(gen(7).digest(), gen(8).digest());
        }
    }

    #[test]
    fn seeds_permute_but_do_not_change_the_work() {
        let count = |s: &Script, k: Kind| s.steps.iter().filter(|st| st.call.kind() == k).count();
        let bytes = |s: &Script| -> usize {
            s.steps
                .iter()
                .map(|st| match &st.call {
                    Call::WriteFile { data, .. } | Call::Pwrite { data, .. } => data.len,
                    _ => 0,
                })
                .sum()
        };
        let (a, b) = (
            smallfile_round(1, "/r", &SHAPE),
            smallfile_round(2, "/r", &SHAPE),
        );
        assert_eq!(a.steps.len(), SHAPE.calls());
        for k in Kind::ALL {
            assert_eq!(count(&a, k), count(&b, k), "{k:?}");
        }
        assert_eq!(bytes(&a), bytes(&b));
        let (a, b) = (postmark(1, &PM), postmark(2, &PM));
        for k in Kind::ALL {
            assert_eq!(count(&a, k), count(&b, k), "{k:?}");
        }
    }

    #[test]
    fn rounds_clean_up_after_themselves() {
        assert_eq!(smallfile_round(3, "/r", &SHAPE).end, Tree::default());
        assert_eq!(postmark(3, &PM).end, Tree::default());
        let mid = smallfile_round(3, "/r", &SHAPE)
            .midpoint
            .expect("small-file midpoint")
            .1;
        assert_eq!(mid.files.len(), SHAPE.files);
        assert_eq!(mid.dirs.len(), SHAPE.dirs + 1);
    }

    #[test]
    fn digest_is_chunking_independent() {
        let mut data = vec![0u8; 1000];
        Prng::new(5).fill(&mut data);
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let mut d = Digest::default();
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finish(), digest(&data), "split at {split}");
        }
        assert_ne!(digest(&data[..999]), digest(&data));
    }
}
