//! Property tests: the VFS maintains its structural invariants under
//! arbitrary operation sequences, and behaves identically to a simple
//! in-memory model for flat-file data operations.

use proptest::prelude::*;
use sgfs_vfs::{FileKind, UserContext, Vfs, VfsError, ROOT_INO};
use std::collections::HashMap;

/// Operations the model understands.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write(u8, u16, Vec<u8>),
    Truncate(u8, u16),
    Remove(u8),
    Rename(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::Create),
        (any::<u8>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..200))
            .prop_map(|(f, off, data)| Op::Write(f, off % 2048, data)),
        (any::<u8>(), any::<u16>()).prop_map(|(f, sz)| Op::Truncate(f, sz % 2048)),
        any::<u8>().prop_map(Op::Remove),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| Op::Rename(a, b)),
    ]
}

fn name(f: u8) -> String {
    format!("file{:02}", f % 16) // small namespace to force collisions
}

/// One step on a single file large enough to span several 64 KiB
/// extents: a write (its bytes derived from a seed), a SETATTR size, or a
/// read through both `read` and `read_with`.
#[derive(Debug, Clone)]
enum BigOp {
    Write(u32, u32, u8),
    Resize(u32),
    Read(u32, u32),
}

/// Offsets and lengths reach past three extents and straddle their
/// edges; some writes and reads start within 64 bytes of an edge.
const SPAN: u32 = 200 * 1024;

/// An offset within 64 bytes of an extent edge.
fn near_edge(extent: u32, delta: u32) -> u32 {
    (extent * 64 * 1024 + delta).saturating_sub(64)
}

fn big_op_strategy() -> impl Strategy<Value = BigOp> {
    prop_oneof![
        (0..SPAN, 0u32..80 * 1024, any::<u8>()).prop_map(|(o, n, s)| BigOp::Write(o, n, s)),
        (0u32..4, 0u32..128, 0u32..128, any::<u8>())
            .prop_map(|(e, d, n, s)| BigOp::Write(near_edge(e, d), n, s)),
        (0..SPAN).prop_map(BigOp::Resize),
        (0..SPAN + 1024, 0u32..140 * 1024).prop_map(|(o, n)| BigOp::Read(o, n)),
        (0u32..4, 0u32..128, 0u32..128).prop_map(|(e, d, n)| BigOp::Read(near_edge(e, d), n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The VFS agrees with a HashMap<String, Vec<u8>> model under
    /// arbitrary create/write/truncate/remove/rename sequences.
    #[test]
    fn vfs_matches_flat_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let vfs = Vfs::new();
        let ctx = UserContext::root();
        let mut model: HashMap<String, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                Op::Create(f) => {
                    let n = name(f);
                    let r = vfs.create(ROOT_INO, &n, 0o644, false, &ctx);
                    prop_assert!(r.is_ok());
                    model.entry(n).or_default();
                }
                Op::Write(f, off, data) => {
                    let n = name(f);
                    if let Some(content) = model.get_mut(&n) {
                        let ino = vfs.lookup(ROOT_INO, &n, &ctx).unwrap().ino;
                        vfs.write(ino, off as u64, &data, &ctx).unwrap();
                        let end = off as usize + data.len();
                        if content.len() < end {
                            content.resize(end, 0);
                        }
                        content[off as usize..end].copy_from_slice(&data);
                    }
                }
                Op::Truncate(f, sz) => {
                    let n = name(f);
                    if let Some(content) = model.get_mut(&n) {
                        let ino = vfs.lookup(ROOT_INO, &n, &ctx).unwrap().ino;
                        vfs.setattr(
                            ino,
                            &sgfs_vfs::SetAttrs { size: Some(sz as u64), ..Default::default() },
                            &ctx,
                        )
                        .unwrap();
                        content.resize(sz as usize, 0);
                    }
                }
                Op::Remove(f) => {
                    let n = name(f);
                    let r = vfs.remove(ROOT_INO, &n, &ctx);
                    if model.remove(&n).is_some() {
                        prop_assert!(r.is_ok());
                    } else {
                        prop_assert_eq!(r, Err(VfsError::NotFound));
                    }
                }
                Op::Rename(a, b) => {
                    let (na, nb) = (name(a), name(b));
                    let r = vfs.rename(ROOT_INO, &na, ROOT_INO, &nb, &ctx);
                    match model.remove(&na) {
                        Some(content) => {
                            prop_assert!(r.is_ok(), "rename {na}->{nb}: {r:?}");
                            model.insert(nb, content);
                        }
                        None => prop_assert!(r.is_err()),
                    }
                }
            }
        }

        // Final states agree: same names, same contents, same sizes.
        let mut listed: Vec<String> = vfs
            .readdir(ROOT_INO, &ctx)
            .unwrap()
            .into_iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| e.name)
            .collect();
        listed.sort();
        let mut expected: Vec<String> = model.keys().cloned().collect();
        expected.sort();
        prop_assert_eq!(listed, expected);
        for (n, content) in &model {
            let attr = vfs.lookup(ROOT_INO, n, &ctx).unwrap();
            prop_assert_eq!(attr.size, content.len() as u64, "{}", n);
            let (data, _) = vfs.read(attr.ino, 0, u32::MAX / 2, &ctx).unwrap();
            prop_assert_eq!(&data, content, "{}", n);
        }
    }

    /// Link-count invariant: after arbitrary hard-link/remove churn, every
    /// file's nlink equals the number of directory entries pointing at it.
    #[test]
    fn nlink_matches_entry_count(ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..40)) {
        let vfs = Vfs::new();
        let ctx = UserContext::root();
        let base = vfs.create(ROOT_INO, "base", 0o644, false, &ctx).unwrap();
        for (i, (f, link)) in ops.into_iter().enumerate() {
            let n = format!("link{:02}", f % 8);
            if link {
                let _ = vfs.link(base.ino, ROOT_INO, &n, &ctx);
            } else {
                let _ = vfs.remove(ROOT_INO, &n, &ctx);
            }
            let _ = i;
        }
        let entries = vfs.readdir(ROOT_INO, &ctx).unwrap();
        let pointing = entries
            .iter()
            .filter(|e| e.kind == FileKind::Regular && e.ino == base.ino)
            .count() as u32;
        prop_assert_eq!(vfs.getattr(base.ino).unwrap().nlink, pointing);
    }

    /// Sparse reads: whatever the write pattern, reading past EOF returns
    /// empty+eof, and reads never exceed the file size.
    #[test]
    fn read_bounds(off1 in 0u64..4096, len1 in 0usize..512, roff in 0u64..8192) {
        let vfs = Vfs::new();
        let ctx = UserContext::root();
        let f = vfs.create(ROOT_INO, "s", 0o644, false, &ctx).unwrap();
        vfs.write(f.ino, off1, &vec![7u8; len1], &ctx).unwrap();
        let size = vfs.getattr(f.ino).unwrap().size;
        prop_assert_eq!(size, off1 + len1 as u64);
        let (data, eof) = vfs.read(f.ino, roff, 1024, &ctx).unwrap();
        if roff >= size {
            prop_assert!(data.is_empty());
            prop_assert!(eof);
        } else {
            prop_assert!(data.len() as u64 <= size - roff);
        }
    }

    /// A file's extents agree with a plain `Vec<u8>` under writes with
    /// holes, SETATTR truncation and extension, and reads that cross
    /// extent edges — through both the copying and the in-place read.
    #[test]
    fn extents_match_a_flat_vec(ops in proptest::collection::vec(big_op_strategy(), 1..40)) {
        let vfs = Vfs::new();
        let ctx = UserContext::root();
        let ino = vfs.create(ROOT_INO, "big", 0o644, false, &ctx).unwrap().ino;
        let mut model: Vec<u8> = Vec::new();
        for op in ops {
            match op {
                BigOp::Write(off, len, seed) => {
                    let data: Vec<u8> =
                        (0..len).map(|i| seed.wrapping_add((i % 253) as u8)).collect();
                    let attr = vfs.write(ino, off as u64, &data, &ctx).unwrap();
                    let (off, end) = (off as usize, off as usize + data.len());
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[off..end].copy_from_slice(&data);
                    prop_assert_eq!(attr.size, model.len() as u64);
                }
                BigOp::Resize(size) => {
                    let set = sgfs_vfs::SetAttrs { size: Some(size as u64), ..Default::default() };
                    vfs.setattr(ino, &set, &ctx).unwrap();
                    model.resize(size as usize, 0);
                }
                BigOp::Read(off, count) => {
                    let start = (off as usize).min(model.len());
                    let end = (start + count as usize).min(model.len());
                    let want = (model[start..end].to_vec(), end == model.len());
                    prop_assert_eq!(&vfs.read(ino, off as u64, count, &ctx).unwrap(), &want);
                    let seen = vfs.read_with(ino, off as u64, count, &ctx, |d, eof| (d.to_vec(), eof));
                    prop_assert_eq!(&seen.unwrap(), &want);
                }
            }
        }
        let (data, eof) = vfs.read(ino, 0, u32::MAX / 2, &ctx).unwrap();
        prop_assert!(eof);
        prop_assert_eq!(data, model);
        prop_assert_eq!(vfs.statfs().0, vfs.getattr(ino).unwrap().size);
    }
}
