//! Client-side caches: attributes (with adaptive timeouts) and pages
//! (bounded LRU buffer cache with dirty tracking).

use sgfs_nfs3::{Fattr3, Fh3};
use std::collections::{HashMap, VecDeque};
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

    /// Attributes regardless of freshness (for post-invalidation checks).
    pub fn get_stale_ok(&self, fh: &Fh3) -> Option<&Fattr3> {
        self.entries.get(&fh.clone()).map(|e| &e.attr)
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

/// Key of one cached page: file handle + page index.
type PageKey = (Fh3, u64);

struct Page {
    data: Vec<u8>,
    dirty: bool,
}

/// A bounded LRU page cache ("the buffer cache").
///
/// Pages are `page_size` bytes (the mount's rsize/wsize, 32 KB in the
/// paper's setup). Total resident bytes are capped; the LRU victim is
/// evicted when over budget — dirty victims are returned to the caller to
/// write back first.
pub struct PageCache {
    pages: HashMap<PageKey, Page>,
    /// LRU order: front = least recently used.
    lru: VecDeque<PageKey>,
    page_size: usize,
    capacity_bytes: usize,
    resident_bytes: usize,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// New cache of at most `capacity_bytes` with `page_size` pages.
    pub fn new(capacity_bytes: usize, page_size: usize) -> Self {
        Self {
            pages: HashMap::new(),
            lru: VecDeque::new(),
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

    fn touch(&mut self, key: &PageKey) {
        if let Some(pos) = self.lru.iter().position(|k| k == key) {
            self.lru.remove(pos);
        }
        self.lru.push_back(key.clone());
    }

    /// Look up a page, updating LRU order and counters.
    pub fn get(&mut self, fh: &Fh3, page: u64) -> Option<&[u8]> {
        let key = (fh.clone(), page);
        if self.pages.contains_key(&key) {
            self.hits += 1;
            self.touch(&key);
            Some(&self.pages[&key].data)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Peek without counting a hit/miss or touching LRU (used by flushes).
    pub fn peek(&self, fh: &Fh3, page: u64) -> Option<&Vec<u8>> {
        self.pages.get(&(fh.clone(), page)).map(|p| &p.data)
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
        let key = (fh.clone(), page);
        if let Some(old) = self.pages.insert(key.clone(), Page { dirty, data }) {
            self.resident_bytes -= old.data.len();
        }
        self.resident_bytes += self.pages[&key].data.len();
        self.touch(&key);
        self.evict_over_budget(Some(&key))
    }

    /// Mark an existing page dirty after an in-place mutation.
    pub fn write_into(&mut self, fh: &Fh3, page: u64, offset: usize, data: &[u8]) -> bool {
        let key = (fh.clone(), page);
        match self.pages.get_mut(&key) {
            Some(p) => {
                let end = offset + data.len();
                if p.data.len() < end {
                    let grown = end - p.data.len();
                    p.data.resize(end, 0);
                    self.resident_bytes += grown;
                }
                p.data[offset..end].copy_from_slice(data);
                p.dirty = true;
                self.touch(&key);
                true
            }
            None => false,
        }
    }

    fn evict_over_budget(&mut self, keep: Option<&PageKey>) -> Vec<(Fh3, u64, Vec<u8>)> {
        let mut writebacks = Vec::new();
        while self.resident_bytes > self.capacity_bytes && self.lru.len() > 1 {
            // Never evict the page just inserted.
            let victim = match self.lru.iter().position(|k| Some(k) != keep) {
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

    /// Take all dirty pages of one file (clearing their dirty bit),
    /// ordered by page index — the close/fsync flush set.
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

    /// Total dirty bytes across all files.
    pub fn dirty_bytes(&self) -> usize {
        self.pages.values().filter(|p| p.dirty).map(|p| p.data.len()).sum()
    }

    /// Drop all pages of one file (returns whether any were dirty —
    /// callers flush before invalidating, so dirty drops indicate bugs).
    pub fn invalidate_file(&mut self, fh: &Fh3) -> bool {
        let keys: Vec<PageKey> = self.pages.keys().filter(|(f, _)| f == fh).cloned().collect();
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

    /// Drop everything.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.lru.clear();
        self.resident_bytes = 0;
    }

    /// True when the file has at least one dirty page.
    pub fn dirty_fh_contains(&self, fh: &Fh3) -> bool {
        self.pages.iter().any(|((f, _), p)| f == fh && p.dirty)
    }

    /// Distinct files that currently have dirty pages.
    pub fn all_dirty_fhs(&self) -> Vec<Fh3> {
        let mut out: Vec<Fh3> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|((f, _), _)| f.clone())
            .collect();
        out.sort();
        out.dedup();
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
        let dirty = c.take_dirty(&fh(1));
        assert_eq!(dirty.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![2, 5]);
        assert!(c.take_dirty(&fh(1)).is_empty(), "dirty bits cleared");
        assert_eq!(c.dirty_bytes(), 100, "file 2 still dirty");
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
}
