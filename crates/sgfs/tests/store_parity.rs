//! Property test: every [`BlockStore`] implementation exposes identical
//! visible semantics under arbitrary operation sequences.
//!
//! One seed draws one op sequence (SplitMix64, the same generator idiom
//! as the fault and crash injectors); the sequence is applied in lockstep
//! to the in-memory store, the ephemeral disk store, and the journaled
//! disk store, and after every single op the three must agree on every
//! observable: `get` payloads, `meta`, per-file block lists, the dirty
//! set, and the byte totals. The journal is pure crash-recovery state —
//! it must never change what a live store answers.

use proptest::prelude::*;
use sgfs::config::DurabilityPolicy;
use sgfs::proxy::blockstore::{BlockKey, BlockStore, DiskStore, MemStore};
use sgfs_nfs3::Fh3;
use sgfs_obs::Emitter;
use std::path::PathBuf;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone)]
enum Op {
    Put { key: BlockKey, data: Vec<u8>, dirty: bool },
    Get(BlockKey),
    SetClean(BlockKey),
    SetDirty(BlockKey),
    DropFile(Fh3),
    CommitFile(Fh3),
}

fn gen_ops(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = seed;
    let fhs: Vec<Fh3> = (0..3).map(|i| Fh3::from_ino(1, 100 + i)).collect();
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let r = splitmix(&mut rng);
        let fh = fhs[(r >> 8) as usize % fhs.len()].clone();
        let offset = ((r >> 16) % 4) * 512;
        let key = (fh.clone(), offset);
        ops.push(match r % 10 {
            // Puts dominate so sequences build real state to disagree on.
            0..=3 => {
                let len = 1 + (splitmix(&mut rng) % 64) as usize;
                let fill = (r >> 24) as u8;
                Op::Put { key, data: vec![fill; len], dirty: r & 1 == 0 }
            }
            4 | 5 => Op::Get(key),
            6 => Op::SetClean(key),
            7 => Op::SetDirty(key),
            8 => Op::DropFile(fh),
            _ => Op::CommitFile(fh),
        });
    }
    ops
}

/// Apply one op; the return value is the op's visible result.
fn apply(store: &mut dyn BlockStore, op: &Op) -> Option<Vec<u8>> {
    match op {
        Op::Put { key, data, dirty } => {
            store.put(key.clone(), data, *dirty).expect("put");
            None
        }
        Op::Get(key) => store.get(key),
        Op::SetClean(key) => {
            store.set_clean(key).expect("set_clean");
            None
        }
        Op::SetDirty(key) => {
            store.set_dirty(key).expect("set_dirty");
            None
        }
        Op::DropFile(fh) => {
            store.drop_file(fh);
            None
        }
        Op::CommitFile(fh) => {
            store.commit_file(fh).expect("commit_file");
            None
        }
    }
}

/// Everything a caller can observe about a store, for equality checks.
#[derive(Debug, PartialEq, Eq)]
struct Snapshot {
    blocks: Vec<(u64, Vec<u64>)>,
    dirty_blocks: Vec<(u64, Vec<u64>)>,
    dirty_files: Vec<Fh3>,
    has_dirty: Vec<bool>,
    total_bytes: u64,
    dirty_bytes: u64,
    metas: Vec<Option<(u32, bool)>>,
}

fn snapshot(store: &dyn BlockStore) -> Snapshot {
    let fhs: Vec<Fh3> = (0..3).map(|i| Fh3::from_ino(1, 100 + i)).collect();
    Snapshot {
        blocks: fhs.iter().enumerate().map(|(i, f)| (i as u64, store.blocks_of(f))).collect(),
        dirty_blocks: fhs
            .iter()
            .enumerate()
            .map(|(i, f)| (i as u64, store.dirty_blocks_of(f)))
            .collect(),
        dirty_files: store.dirty_files(),
        has_dirty: fhs.iter().map(|f| store.has_dirty(f)).collect(),
        total_bytes: store.total_bytes(),
        dirty_bytes: store.dirty_bytes(),
        metas: fhs
            .iter()
            .flat_map(|f| (0..4).map(|b| store.meta(&(f.clone(), b * 512))))
            .map(|m| m.map(|m| (m.len, m.dirty)))
            .collect(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sgfs-store-parity-{tag}-{}", std::process::id()))
}

fn parity_case(seed: u64, n: usize) {
    let ops = gen_ops(seed, n);
    let mut mem = MemStore::new(u64::MAX); // unbounded: no eviction
    let eph_dir = temp_dir(&format!("eph-{seed:x}"));
    let _ = std::fs::remove_dir_all(&eph_dir);
    let mut eph = DiskStore::new(eph_dir).expect("ephemeral store");
    let jour_dir = temp_dir(&format!("wal-{seed:x}"));
    let _ = std::fs::remove_dir_all(&jour_dir);
    let policy = DurabilityPolicy { journal: true, fsync_every: 1, compact_min_records: 4 };
    let (mut jour, _) = DiskStore::with_durability(jour_dir.clone(), policy, Emitter::detached("client"), None)
        .expect("journaled store");

    for (i, op) in ops.iter().enumerate() {
        let r_mem = apply(&mut mem, op);
        let r_eph = apply(&mut eph, op);
        let r_jour = apply(&mut jour, op);
        prop_assert_eq!(&r_mem, &r_eph, "op {} {:?}: mem vs ephemeral-disk result", i, op);
        prop_assert_eq!(&r_mem, &r_jour, "op {} {:?}: mem vs journaled-disk result", i, op);
        let s_mem = snapshot(&mem);
        prop_assert_eq!(&s_mem, &snapshot(&eph), "op {} {:?}: mem vs ephemeral-disk", i, op);
        prop_assert_eq!(&s_mem, &snapshot(&jour), "op {} {:?}: mem vs journaled-disk", i, op);
    }
    drop(jour);
    let _ = std::fs::remove_dir_all(&jour_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn all_stores_agree_on_any_op_sequence(seed: u64, n in 1usize..48) {
        parity_case(seed, n);
    }
}
