//! A regular file's bytes, held in fixed-size extents.
//!
//! One growing `Vec<u8>` per file doubles as it grows: every doubling
//! copies the file and, once the allocator serves the growth from its
//! heap rather than from fresh mappings, leaves the freed half resident.
//! Extents never move: an append fills the last extent and starts a new
//! one, so a file's footprint is its size plus at most one extent's slack.

/// Bytes per extent. An aligned NFS READ of up to this size lies inside
/// one extent and is handed out in place.
pub(crate) const EXTENT: usize = 64 * 1024;

/// The bytes of one regular file: every extent but the last holds exactly
/// [`EXTENT`] bytes, and the last holds 1..=[`EXTENT`].
#[derive(Default)]
pub(crate) struct Extents(Vec<Vec<u8>>);

impl Extents {
    /// File size in bytes.
    pub(crate) fn len(&self) -> usize {
        match self.0.last() {
            Some(last) => (self.0.len() - 1) * EXTENT + last.len(),
            None => 0,
        }
    }

    /// `[start, end)` as one slice when it lies inside one extent (or is
    /// empty); `None` when it crosses an extent boundary.
    pub(crate) fn slice(&self, start: usize, end: usize) -> Option<&[u8]> {
        if start == end {
            return Some(&[]);
        }
        let (i, off) = (start / EXTENT, start % EXTENT);
        (off + (end - start) <= EXTENT).then(|| &self.0[i][off..off + (end - start)])
    }

    /// A copy of `[start, end)`, gathered across extents.
    pub(crate) fn gather(&self, start: usize, end: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(end - start);
        let mut pos = start;
        while pos < end {
            let (i, off) = (pos / EXTENT, pos % EXTENT);
            let take = (EXTENT - off).min(end - pos);
            out.extend_from_slice(&self.0[i][off..off + take]);
            pos += take;
        }
        out
    }

    /// Write `data` at `offset`: a hole in front of it is zero-filled,
    /// bytes inside the file are overwritten and the rest is appended.
    pub(crate) fn write(&mut self, offset: usize, data: &[u8]) {
        let len = self.len();
        if offset > len {
            self.grow(offset - len, |e, n| e.resize(e.len() + n, 0));
        }
        let overlap = (self.len() - offset).min(data.len());
        let mut pos = offset;
        while pos < offset + overlap {
            let (i, off) = (pos / EXTENT, pos % EXTENT);
            let take = (EXTENT - off).min(offset + overlap - pos);
            self.0[i][off..off + take].copy_from_slice(&data[pos - offset..pos - offset + take]);
            pos += take;
        }
        let mut rest = &data[overlap..];
        self.grow(rest.len(), |e, n| {
            e.extend_from_slice(&rest[..n]);
            rest = &rest[n..];
        });
    }

    /// Truncate to, or zero-extend to, `size` bytes.
    pub(crate) fn resize(&mut self, size: usize) {
        let len = self.len();
        if size >= len {
            self.grow(size - len, |e, n| e.resize(e.len() + n, 0));
            return;
        }
        let keep = size.div_ceil(EXTENT);
        self.0.truncate(keep);
        if let Some(last) = self.0.last_mut() {
            last.truncate(size - (keep - 1) * EXTENT);
            last.shrink_to_fit();
        }
    }

    /// Append `n` bytes, `fill(extent, k)` appending each extent's `k`.
    /// The first extent grows to fit, doubling up to [`EXTENT`], so a
    /// small file holds little more than its size; a file past its first
    /// extent is large, and each further extent is allocated whole.
    fn grow(&mut self, mut n: usize, mut fill: impl FnMut(&mut Vec<u8>, usize)) {
        while n > 0 {
            if self.0.last().is_none_or(|e| e.len() == EXTENT) {
                let cap = if self.0.is_empty() { 0 } else { EXTENT };
                self.0.push(Vec::with_capacity(cap));
            }
            let last = self.0.last_mut().expect("pushed above");
            let take = n.min(EXTENT - last.len());
            let need = last.len() + take;
            if need > last.capacity() {
                let cap = (last.capacity() * 2).clamp(need, EXTENT);
                last.reserve_exact(cap - last.len());
            }
            fill(last, take);
            n -= take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_aligned_block_is_handed_out_in_place_and_a_straddling_one_is_gathered() {
        let mut x = Extents::default();
        let data: Vec<u8> = (0..3 * EXTENT + 100).map(|i| (i % 251) as u8).collect();
        x.write(0, &data);
        assert_eq!(x.len(), data.len());
        assert_eq!(x.slice(EXTENT, EXTENT + 32 * 1024), Some(&data[EXTENT..EXTENT + 32 * 1024]));
        assert_eq!(x.slice(EXTENT - 1, EXTENT + 1), None);
        assert_eq!(x.gather(EXTENT - 1, 2 * EXTENT + 5), &data[EXTENT - 1..2 * EXTENT + 5]);
    }

    #[test]
    fn a_small_file_holds_little_more_than_its_size() {
        let mut x = Extents::default();
        x.write(0, &[1; 100]);
        x.write(100, &[2; 100]);
        assert!(x.0[0].capacity() <= 400, "{}", x.0[0].capacity());
        x.resize(10);
        assert_eq!(x.gather(0, 10), vec![1; 10]);
        x.resize(0);
        assert!(x.0.is_empty());
    }
}
