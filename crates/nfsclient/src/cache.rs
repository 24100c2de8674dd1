//! Client-side caches: attributes (with adaptive timeouts) and pages
//! (bounded LRU buffer cache with dirty tracking).

use sgfs_nfs3::{Fattr3, Fh3};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

/// One cached attribute record.
#[derive(Debug, Clone)]
struct AttrEntry {
    attr: Fattr3,
    fetched_at: Duration,
    timeout: Duration,
}

/// The attribute cache.
///
/// Timeouts follow the classic NFS heuristic: the more recently a file
/// changed, the shorter its attributes are trusted —
/// `clamp(acmin, (now - mtime) / 10, acmax)`.
pub struct AttrCache {
    entries: HashMap<Fh3, AttrEntry>,
    ac_min: Duration,
    ac_max: Duration,
}

impl AttrCache {
    /// New cache with the given timeout bounds (Linux defaults 3s/60s).
    pub fn new(ac_min: Duration, ac_max: Duration) -> Self {
        Self { entries: HashMap::new(), ac_min, ac_max }
    }

    /// Record freshly fetched attributes at simulated time `now`.
    ///
    /// Returns `true` when a previous entry existed whose `mtime` differs —
    /// the signal to purge that file's cached pages.
    pub fn update(&mut self, fh: &Fh3, attr: &Fattr3, now: Duration) -> bool {
        let age_nanos = now.as_nanos().saturating_sub(attr.mtime.as_nanos() as u128);
        let timeout = Duration::from_nanos((age_nanos / 10).min(u64::MAX as u128) as u64)
            .clamp(self.ac_min, self.ac_max);
        let changed = self
            .entries
            .get(fh)
            .map(|old| old.attr.mtime != attr.mtime || old.attr.size != attr.size)
            .unwrap_or(false);
        self.entries
            .insert(fh.clone(), AttrEntry { attr: attr.clone(), fetched_at: now, timeout });
        changed
    }

    /// Fresh (unexpired) attributes, if cached.
    pub fn get(&self, fh: &Fh3, now: Duration) -> Option<&Fattr3> {
        let e = self.entries.get(fh)?;
        if now.saturating_sub(e.fetched_at) < e.timeout {
            Some(&e.attr)
        } else {
            None
        }
    }

    /// Drop one entry.
    pub fn invalidate(&mut self, fh: &Fh3) {
        self.entries.remove(fh);
    }

    /// Drop everything (unmount / cache flush).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One cached page.
struct Page {
    data: Vec<u8>,
    dirty: bool,
    /// Its place in the LRU order: the key of its entry in `lru`.
    stamp: u64,
}

/// One file's resident pages, in offset order, and how many are dirty.
struct FilePages {
    fh: Fh3,
    pages: BTreeMap<u64, Page>,
    dirty: usize,
}

/// A bounded LRU page cache ("the buffer cache").
///
/// Pages are `page_size` bytes (the mount's rsize/wsize, 32 KB in the
/// paper's setup). Total resident bytes are capped; the LRU victim is
/// evicted when over budget — dirty victims are returned to the caller to
/// write back first.
///
/// Pages are indexed per file, so a file's pages, its dirty ones and
/// whether it has any are found without scanning the cache; the LRU
/// order is a map from a use stamp to the page, so a use and an eviction
/// cost O(log n).
pub struct PageCache {
    /// Each cached file's id: its key in `files` and in the LRU order.
    ids: HashMap<Fh3, u64>,
    files: HashMap<u64, FilePages>,
    /// LRU order, stamp → (file id, page index): first = least recently
    /// used.
    lru: BTreeMap<u64, (u64, u64)>,
    next_id: u64,
    next_stamp: u64,
    page_size: usize,
    capacity_bytes: usize,
    resident_bytes: usize,
    hits: u64,
    misses: u64,
}

/// Move `page` (file `id`, index `idx`) to the most recently used end.
fn restamp(
    lru: &mut BTreeMap<u64, (u64, u64)>,
    next: &mut u64,
    page: &mut Page,
    id: u64,
    idx: u64,
) {
    lru.remove(&page.stamp);
    page.stamp = *next;
    *next += 1;
    lru.insert(page.stamp, (id, idx));
}

impl PageCache {
    /// New cache of at most `capacity_bytes` with `page_size` pages.
    pub fn new(capacity_bytes: usize, page_size: usize) -> Self {
        Self {
            ids: HashMap::new(),
            files: HashMap::new(),
            lru: BTreeMap::new(),
            next_id: 0,
            next_stamp: 0,
            page_size,
            capacity_bytes,
            resident_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Hit/miss counters (for the evaluation harness).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Bytes currently resident.
    pub fn resident(&self) -> usize {
        self.resident_bytes
    }

    fn file(&self, fh: &Fh3) -> Option<&FilePages> {
        self.ids.get(fh).map(|id| &self.files[id])
    }

    /// Look up a page, updating LRU order and counters.
    pub fn get(&mut self, fh: &Fh3, page: u64) -> Option<&[u8]> {
        let found = self.ids.get(fh).and_then(|&id| {
            let p = self.files.get_mut(&id)?.pages.get_mut(&page)?;
            restamp(&mut self.lru, &mut self.next_stamp, p, id, page);
            Some(p)
        });
        match found {
            Some(p) => {
                self.hits += 1;
                Some(&p.data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Peek without counting a hit/miss or touching LRU (used by flushes).
    pub fn peek(&self, fh: &Fh3, page: u64) -> Option<&[u8]> {
        self.file(fh)?.pages.get(&page).map(|p| &p.data[..])
    }

    /// Insert (or replace) a page. Returns evicted dirty pages
    /// `(fh, page_index, data)` that the caller must write back.
    pub fn insert(
        &mut self,
        fh: &Fh3,
        page: u64,
        data: Vec<u8>,
        dirty: bool,
    ) -> Vec<(Fh3, u64, Vec<u8>)> {
        let id = match self.ids.get(fh) {
            Some(&id) => id,
            None => {
                let id = self.next_id;
                self.next_id += 1;
                self.ids.insert(fh.clone(), id);
                let pages = BTreeMap::new();
                self.files.insert(id, FilePages { fh: fh.clone(), pages, dirty: 0 });
                id
            }
        };
        let file = self.files.get_mut(&id).expect("every id has its file");
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.lru.insert(stamp, (id, page));
        self.resident_bytes += data.len();
        file.dirty += dirty as usize;
        if let Some(old) = file.pages.insert(page, Page { data, dirty, stamp }) {
            self.resident_bytes -= old.data.len();
            self.lru.remove(&old.stamp);
            file.dirty -= old.dirty as usize;
        }
        self.evict_over_budget()
    }

    /// Mark an existing page dirty after an in-place mutation.
    pub fn write_into(&mut self, fh: &Fh3, page: u64, offset: usize, data: &[u8]) -> bool {
        let Some(&id) = self.ids.get(fh) else { return false };
        let file = self.files.get_mut(&id).expect("every id has its file");
        let Some(p) = file.pages.get_mut(&page) else { return false };
        let end = offset + data.len();
        if p.data.len() < end {
            self.resident_bytes += end - p.data.len();
            p.data.resize(end, 0);
        }
        p.data[offset..end].copy_from_slice(data);
        file.dirty += !p.dirty as usize;
        p.dirty = true;
        restamp(&mut self.lru, &mut self.next_stamp, p, id, page);
        true
    }

    /// Evict least recently used pages while over budget. The page just
    /// inserted is the most recently used, so never the victim.
    fn evict_over_budget(&mut self) -> Vec<(Fh3, u64, Vec<u8>)> {
        let mut writebacks = Vec::new();
        while self.resident_bytes > self.capacity_bytes && self.lru.len() > 1 {
            let (_, (id, idx)) = self.lru.pop_first().expect("more than one page");
            let file = self.files.get_mut(&id).expect("every id has its file");
            let page = file.pages.remove(&idx).expect("every stamp has its page");
            self.resident_bytes -= page.data.len();
            file.dirty -= page.dirty as usize;
            let fh = if file.pages.is_empty() {
                let file = self.files.remove(&id).expect("just used");
                self.ids.remove(&file.fh);
                file.fh
            } else {
                file.fh.clone()
            };
            if page.dirty {
                writebacks.push((fh, idx, page.data));
            }
        }
        writebacks
    }

    /// Clear the dirty bit of every dirty page of one file and return
    /// their indices in order — the close/fsync flush set. The pages stay
    /// resident, for the flush to send from in place.
    pub fn take_dirty(&mut self, fh: &Fh3) -> Vec<u64> {
        let Some(&id) = self.ids.get(fh) else { return Vec::new() };
        let file = self.files.get_mut(&id).expect("every id has its file");
        let mut out = Vec::with_capacity(file.dirty);
        for (&idx, p) in file.pages.iter_mut().filter(|(_, p)| p.dirty) {
            p.dirty = false;
            out.push(idx);
        }
        file.dirty = 0;
        out
    }

    /// Drop all pages of one file (returns whether any were dirty —
    /// callers flush before invalidating, so dirty drops indicate bugs).
    pub fn invalidate_file(&mut self, fh: &Fh3) -> bool {
        let Some(id) = self.ids.remove(fh) else { return false };
        let file = self.files.remove(&id).expect("every id has its file");
        for p in file.pages.values() {
            self.resident_bytes -= p.data.len();
            self.lru.remove(&p.stamp);
        }
        file.dirty > 0
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.files.clear();
        self.lru.clear();
        self.resident_bytes = 0;
    }

    /// True when the file has at least one dirty page.
    pub fn has_dirty(&self, fh: &Fh3) -> bool {
        self.file(fh).is_some_and(|f| f.dirty > 0)
    }

    /// Distinct files that currently have dirty pages, in handle order.
    pub fn all_dirty_fhs(&self) -> Vec<Fh3> {
        let mut out: Vec<Fh3> =
            self.files.values().filter(|f| f.dirty > 0).map(|f| f.fh.clone()).collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgfs_nfs3::{FType3, NfsTime3};

    fn fh(n: u64) -> Fh3 {
        Fh3::from_ino(1, n)
    }

    fn attr(mtime_nanos: u64) -> Fattr3 {
        Fattr3 {
            ftype: FType3::Reg,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: 100,
            used: 100,
            fsid: 1,
            fileid: 1,
            atime: NfsTime3::default(),
            mtime: NfsTime3::from_nanos(mtime_nanos),
            ctime: NfsTime3::default(),
        }
    }

    #[test]
    fn attr_cache_expires() {
        let mut c = AttrCache::new(Duration::from_secs(3), Duration::from_secs(60));
        let now = Duration::from_secs(100);
        c.update(&fh(1), &attr(99_000_000_000), now);
        // Fresh within ac_min.
        assert!(c.get(&fh(1), now + Duration::from_secs(2)).is_some());
        // Recently modified file gets the minimum timeout: expired at +4s.
        assert!(c.get(&fh(1), now + Duration::from_secs(4)).is_none());
    }

    #[test]
    fn attr_cache_old_files_live_longer() {
        let mut c = AttrCache::new(Duration::from_secs(3), Duration::from_secs(60));
        let now = Duration::from_secs(1000);
        // mtime 1000s ago → age/10 = 100s, capped at ac_max (60s).
        c.update(&fh(1), &attr(0), now);
        assert!(c.get(&fh(1), now + Duration::from_secs(59)).is_some());
        assert!(c.get(&fh(1), now + Duration::from_secs(61)).is_none());
    }

    #[test]
    fn attr_update_reports_mtime_change() {
        let mut c = AttrCache::new(Duration::from_secs(3), Duration::from_secs(60));
        let now = Duration::from_secs(10);
        assert!(!c.update(&fh(1), &attr(1_000_000_000), now));
        assert!(!c.update(&fh(1), &attr(1_000_000_000), now));
        assert!(c.update(&fh(1), &attr(2_000_000_000), now), "mtime changed");
    }

    #[test]
    fn page_cache_lru_eviction() {
        // Capacity of 3 pages of 100 bytes.
        let mut c = PageCache::new(300, 100);
        for i in 0..3u64 {
            assert!(c.insert(&fh(1), i, vec![i as u8; 100], false).is_empty());
        }
        // Touch page 0 so page 1 becomes the LRU victim.
        assert!(c.get(&fh(1), 0).is_some());
        c.insert(&fh(1), 3, vec![3; 100], false);
        assert!(c.get(&fh(1), 1).is_none(), "page 1 evicted");
        assert!(c.get(&fh(1), 0).is_some());
        assert!(c.peek(&fh(1), 3).is_some());
        assert!(c.resident() <= 300);
    }

    #[test]
    fn sequential_scan_larger_than_cache_always_misses_on_reread() {
        // The IOzone read/reread scenario in miniature: 8-page file,
        // 4-page cache, two sequential passes.
        let mut c = PageCache::new(400, 100);
        for pass in 0..2 {
            for i in 0..8u64 {
                if c.get(&fh(1), i).is_none() {
                    c.insert(&fh(1), i, vec![0; 100], false);
                }
            }
            let (hits, misses) = c.stats();
            assert_eq!(hits, 0, "pass {pass}: LRU gives zero reuse");
            assert_eq!(misses, 8 * (pass + 1));
        }
    }

    #[test]
    fn dirty_pages_survive_eviction_as_writebacks() {
        let mut c = PageCache::new(200, 100);
        c.insert(&fh(1), 0, vec![1; 100], true);
        c.insert(&fh(1), 1, vec![2; 100], false);
        let wb = c.insert(&fh(1), 2, vec![3; 100], false);
        assert_eq!(wb.len(), 1, "dirty LRU victim returned for writeback");
        assert_eq!(wb[0].1, 0);
        assert_eq!(wb[0].2, vec![1; 100]);
    }

    #[test]
    fn take_dirty_clears_and_orders() {
        let mut c = PageCache::new(10_000, 100);
        c.insert(&fh(1), 5, vec![5; 100], true);
        c.insert(&fh(1), 2, vec![2; 100], true);
        c.insert(&fh(1), 3, vec![3; 100], false);
        c.insert(&fh(2), 0, vec![9; 100], true); // other file
        assert_eq!(c.take_dirty(&fh(1)), vec![2, 5]);
        assert!(c.take_dirty(&fh(1)).is_empty(), "dirty bits cleared");
        assert_eq!(c.peek(&fh(1), 5), Some(&[5; 100][..]), "taken pages stay resident");
        assert!(c.has_dirty(&fh(2)), "file 2 still dirty");
    }

    #[test]
    fn write_into_grows_page() {
        let mut c = PageCache::new(10_000, 100);
        c.insert(&fh(1), 0, vec![0; 10], false);
        assert!(c.write_into(&fh(1), 0, 5, &[7; 20]));
        let page = c.peek(&fh(1), 0).unwrap();
        assert_eq!(page.len(), 25);
        assert_eq!(page[5], 7);
        assert_eq!(c.take_dirty(&fh(1)).len(), 1);
        assert!(!c.write_into(&fh(1), 9, 0, &[1]), "absent page");
    }

    #[test]
    fn invalidate_file_removes_only_that_file() {
        let mut c = PageCache::new(10_000, 100);
        c.insert(&fh(1), 0, vec![1; 100], false);
        c.insert(&fh(2), 0, vec![2; 100], false);
        c.invalidate_file(&fh(1));
        assert!(c.peek(&fh(1), 0).is_none());
        assert!(c.peek(&fh(2), 0).is_some());
    }

    /// The cache before it was indexed per file — a `HashMap` of pages and
    /// a `VecDeque` LRU scanned on every use — kept as the oracle the
    /// indexed cache must match call for call.
    mod oracle {
        use sgfs_nfs3::Fh3;
        use std::collections::{HashMap, VecDeque};

        type PageKey = (Fh3, u64);

        struct Page {
            data: Vec<u8>,
            dirty: bool,
        }

        pub struct PageCache {
            pages: HashMap<PageKey, Page>,
            lru: VecDeque<PageKey>,
            capacity_bytes: usize,
            resident_bytes: usize,
            pub hits: u64,
            pub misses: u64,
        }

        impl PageCache {
            pub fn new(capacity_bytes: usize) -> Self {
                let (pages, lru) = (HashMap::new(), VecDeque::new());
                Self { pages, lru, capacity_bytes, resident_bytes: 0, hits: 0, misses: 0 }
            }

            fn touch(&mut self, key: &PageKey) {
                if let Some(pos) = self.lru.iter().position(|k| k == key) {
                    self.lru.remove(pos);
                }
                self.lru.push_back(key.clone());
            }

            pub fn get(&mut self, fh: &Fh3, page: u64) -> Option<Vec<u8>> {
                let key = (fh.clone(), page);
                if self.pages.contains_key(&key) {
                    self.hits += 1;
                    self.touch(&key);
                    Some(self.pages[&key].data.clone())
                } else {
                    self.misses += 1;
                    None
                }
            }

            pub fn peek(&self, fh: &Fh3, page: u64) -> Option<&Vec<u8>> {
                self.pages.get(&(fh.clone(), page)).map(|p| &p.data)
            }

            pub fn insert(
                &mut self,
                fh: &Fh3,
                page: u64,
                data: Vec<u8>,
                dirty: bool,
            ) -> Vec<(Fh3, u64, Vec<u8>)> {
                let key = (fh.clone(), page);
                if let Some(old) = self.pages.insert(key.clone(), Page { dirty, data }) {
                    self.resident_bytes -= old.data.len();
                }
                self.resident_bytes += self.pages[&key].data.len();
                self.touch(&key);
                let mut writebacks = Vec::new();
                while self.resident_bytes > self.capacity_bytes && self.lru.len() > 1 {
                    let victim = match self.lru.iter().position(|k| *k != key) {
                        Some(pos) => self.lru.remove(pos).expect("position is valid"),
                        None => break,
                    };
                    if let Some(page) = self.pages.remove(&victim) {
                        self.resident_bytes -= page.data.len();
                        if page.dirty {
                            writebacks.push((victim.0, victim.1, page.data));
                        }
                    }
                }
                writebacks
            }

            pub fn write_into(&mut self, fh: &Fh3, page: u64, offset: usize, data: &[u8]) -> bool {
                let key = (fh.clone(), page);
                match self.pages.get_mut(&key) {
                    Some(p) => {
                        let end = offset + data.len();
                        if p.data.len() < end {
                            self.resident_bytes += end - p.data.len();
                            p.data.resize(end, 0);
                        }
                        p.data[offset..end].copy_from_slice(data);
                        p.dirty = true;
                        self.touch(&key);
                        true
                    }
                    None => false,
                }
            }

            pub fn take_dirty(&mut self, fh: &Fh3) -> Vec<(u64, Vec<u8>)> {
                let mut out: Vec<(u64, Vec<u8>)> = self
                    .pages
                    .iter_mut()
                    .filter(|((f, _), p)| f == fh && p.dirty)
                    .map(|((_, idx), p)| {
                        p.dirty = false;
                        (*idx, p.data.clone())
                    })
                    .collect();
                out.sort_by_key(|(idx, _)| *idx);
                out
            }

            pub fn invalidate_file(&mut self, fh: &Fh3) -> bool {
                let keys: Vec<PageKey> =
                    self.pages.keys().filter(|(f, _)| f == fh).cloned().collect();
                let mut had_dirty = false;
                for key in keys {
                    if let Some(p) = self.pages.remove(&key) {
                        self.resident_bytes -= p.data.len();
                        had_dirty |= p.dirty;
                    }
                    if let Some(pos) = self.lru.iter().position(|k| *k == key) {
                        self.lru.remove(pos);
                    }
                }
                had_dirty
            }

            pub fn clear(&mut self) {
                self.pages.clear();
                self.lru.clear();
                self.resident_bytes = 0;
            }

            pub fn resident(&self) -> usize {
                self.resident_bytes
            }

            /// Every dirty page, `(fh, index)`, in order.
            pub fn dirty_set(&self) -> Vec<(Fh3, u64)> {
                let mut out: Vec<(Fh3, u64)> =
                    self.pages.iter().filter(|(_, p)| p.dirty).map(|(k, _)| k.clone()).collect();
                out.sort();
                out
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u8, u8, u8, bool),
        Get(u8, u8),
        WriteInto(u8, u8, u8, u8),
        TakeDirty(u8),
        Invalidate(u8),
        Clear,
    }

    fn op() -> impl proptest::prelude::Strategy<Value = Op> {
        use proptest::prelude::*;
        // Three files of six pages, page size 8, pages 1..=8 bytes long,
        // a 32-byte budget. Inserts and uses dominate, so the cache stays
        // full and most inserts evict; a clear is rare.
        let draw = (0u8..20, 0u8..3, 0u8..6, 1u8..9, any::<bool>(), 0u8..8);
        draw.prop_map(|(kind, f, p, n, dirty, o)| match kind {
            0..=7 => Op::Insert(f, p, n, dirty),
            8..=11 => Op::Get(f, p),
            12..=15 => Op::WriteInto(f, p, o, n.min(4)),
            16..=17 => Op::TakeDirty(f),
            18 => Op::Invalidate(f),
            _ => Op::Clear,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The indexed cache answers every call as the scanning one did:
        /// the same hits and misses, the same write-back victims in the
        /// same order, the same flush sets and the same dirty pages.
        #[test]
        fn the_indexed_cache_matches_the_scanning_one(
            ops in proptest::collection::vec(op(), 1..120)
        ) {
            let mut new = PageCache::new(32, 8);
            let mut old = oracle::PageCache::new(32);
            for (step, op) in ops.into_iter().enumerate() {
                let tag = (step as u8).wrapping_mul(31);
                match op {
                    Op::Insert(f, p, n, dirty) => {
                        let (f, p, data) = (fh(f as u64), p as u64, vec![tag; n as usize]);
                        let got = new.insert(&f, p, data.clone(), dirty);
                        proptest::prop_assert_eq!(got, old.insert(&f, p, data, dirty));
                    }
                    Op::Get(f, p) => {
                        let got = new.get(&fh(f as u64), p as u64).map(<[u8]>::to_vec);
                        proptest::prop_assert_eq!(got, old.get(&fh(f as u64), p as u64));
                    }
                    Op::WriteInto(f, p, o, n) => {
                        let (f, p, o, data) = (fh(f as u64), p as u64, o as usize, vec![tag; n as usize]);
                        let got = new.write_into(&f, p, o, &data);
                        proptest::prop_assert_eq!(got, old.write_into(&f, p, o, &data));
                    }
                    Op::TakeDirty(f) => {
                        let taken = new.take_dirty(&fh(f as u64));
                        let got: Vec<(u64, Vec<u8>)> = taken
                            .iter()
                            .map(|&i| (i, new.peek(&fh(f as u64), i).expect("resident").to_vec()))
                            .collect();
                        proptest::prop_assert_eq!(got, old.take_dirty(&fh(f as u64)));
                    }
                    Op::Invalidate(f) => {
                        let got = new.invalidate_file(&fh(f as u64));
                        proptest::prop_assert_eq!(got, old.invalidate_file(&fh(f as u64)));
                    }
                    Op::Clear => {
                        new.clear();
                        old.clear();
                    }
                }
                proptest::prop_assert_eq!(new.stats(), (old.hits, old.misses));
                proptest::prop_assert_eq!(new.resident(), old.resident());
                let mut dirty = Vec::new();
                for f in 0..3u64 {
                    proptest::prop_assert_eq!(
                        new.has_dirty(&fh(f)),
                        old.dirty_set().iter().any(|(d, _)| *d == fh(f))
                    );
                    for p in 0..6u64 {
                        let page = new.peek(&fh(f), p);
                        proptest::prop_assert_eq!(page, old.peek(&fh(f), p).map(|d| &d[..]));
                    }
                    if let Some(file) = new.file(&fh(f)) {
                        let pages = file.pages.iter().filter(|(_, p)| p.dirty);
                        let before = dirty.len();
                        dirty.extend(pages.map(|(&i, _)| (fh(f), i)));
                        proptest::prop_assert_eq!(file.dirty, dirty.len() - before);
                    }
                }
                let mut files: Vec<Fh3> = dirty.iter().map(|(f, _)| f.clone()).collect();
                files.dedup();
                proptest::prop_assert_eq!(new.all_dirty_fhs(), files);
                proptest::prop_assert_eq!(dirty, old.dirty_set());
            }
        }
    }
}
