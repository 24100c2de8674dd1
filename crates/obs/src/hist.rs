//! Log-bucketed latency histograms (HDR-style).
//!
//! Values (nanoseconds) are binned into buckets whose width grows
//! geometrically: within each power-of-two octave the range is subdivided
//! into `2^SUB_BITS` linear sub-buckets, bounding the relative
//! quantization error at `2^-SUB_BITS` (≈12.5% here) across the full
//! `u64` range with a fixed, small table. All counters are atomics with
//! relaxed ordering — each `record` is an independent increment with no
//! cross-counter invariant, so snapshots may be momentarily torn between
//! buckets but every sample is eventually counted exactly once
//! (see the ordering contract on `crate::Emitter`'s module).

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave = `2^SUB_BITS`.
const SUB_BITS: u32 = 3;
const SUB: u64 = 1 << SUB_BITS;
/// 8 exact buckets for values `< 8`, then 8 sub-buckets for each octave
/// `[2^e, 2^(e+1))`, `e = 3..=63`.
pub const BUCKETS: usize = SUB as usize + (64 - SUB_BITS as usize) * SUB as usize;

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // 2^e <= v < 2^(e+1), e >= SUB_BITS
    let sub = (v >> (e - SUB_BITS)) - SUB; // top SUB_BITS mantissa bits, 0..SUB
    (SUB + (e as u64 - SUB_BITS as u64) * SUB + sub) as usize
}

/// Representative value for a bucket: the midpoint of its range, so
/// quantile estimates are unbiased within the ±12.5% bucket width.
fn bucket_value(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx;
    }
    let e = (idx - SUB) / SUB + SUB_BITS as u64;
    let sub = (idx - SUB) % SUB;
    let low = (SUB + sub) << (e - SUB_BITS as u64);
    let width = 1u64 << (e - SUB_BITS as u64);
    low + width / 2
}

/// A mergeable, thread-safe latency histogram.
///
/// `record` is wait-free (one relaxed `fetch_add` per counter); snapshots
/// and merges read the buckets without stopping writers.
pub struct Hist {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Count one value (nanoseconds).
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Add every sample of `other` into `self` (cross-thread merge).
    pub fn merge(&self, other: &Hist) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum.fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max.fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean of all samples (nanoseconds), 0 if empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Largest sample seen (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) in nanoseconds; 0 if empty.
    ///
    /// The estimate is the representative value of the first bucket whose
    /// cumulative count reaches `ceil(q * count)` — within one bucket
    /// width (±12.5%) of the true order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_value(idx);
            }
        }
        self.max()
    }

    /// `(p50, p95, p99)` in nanoseconds.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.50), self.quantile(0.95), self.quantile(0.99))
    }

    /// 99.9th percentile estimate in nanoseconds — the SLO-gate tail.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p50, p95, p99) = self.percentiles();
        f.debug_struct("Hist")
            .field("count", &self.count())
            .field("mean_ns", &self.mean())
            .field("p50_ns", &p50)
            .field("p95_ns", &p95)
            .field("p99_ns", &p99)
            .field("max_ns", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_values() {
        let h = Hist::new();
        for v in 0..8 {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.quantile(0.0), 0);
        // p100 of {0..7} is 7, exactly representable.
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn bucket_roundtrip_error_bounded() {
        // Representative value of a sample's bucket stays within 12.5%.
        for shift in 0..60 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift) + off;
                let rep = bucket_value(bucket_of(v));
                let err = (rep as f64 - v as f64).abs() / v.max(1) as f64;
                assert!(err <= 0.125, "v={v} rep={rep} err={err}");
            }
        }
    }

    #[test]
    fn buckets_are_monotonic() {
        let mut prev = 0;
        for idx in 1..BUCKETS {
            let v = bucket_value(idx);
            assert!(v >= prev, "bucket {idx} value {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn quantiles_of_uniform() {
        let h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs..1ms
        }
        let (p50, p95, p99) = h.percentiles();
        let within = |est: u64, truth: u64| {
            (est as f64 - truth as f64).abs() / truth as f64 <= 0.13
        };
        assert!(within(p50, 500_000), "p50={p50}");
        assert!(within(p95, 950_000), "p95={p95}");
        assert!(within(p99, 990_000), "p99={p99}");
        assert_eq!(h.max(), 1_000_000);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Hist::new();
        let b = Hist::new();
        for v in 0..100 {
            a.record(v * 17);
            b.record(v * 31);
        }
        let m = Hist::new();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.count(), 200);
        assert_eq!(m.max(), b.max());
        assert!(m.mean() > 0.0);
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(Hist::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(i * (t + 1));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }
}
