//! Sample statistics and the seeded generator every workload derives its
//! inputs from.

use rand::rngs::SplitMix64;
use rand::RngCore;

/// Nearest-rank quantile `q` in `[0, 1]` of unsorted `f64` samples;
/// `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Buckets per power of two in a [`Histogram`]: a sample is kept to
/// within 1/1024 of its size.
const SUB_BITS: u32 = 10;

/// Samples at or above `2^HIST_BITS` ns (about 4.3 s) share a
/// [`Histogram`]'s last bucket.
const HIST_BITS: u32 = 32;

/// A log-linear histogram of ns samples: samples below 1024 are kept
/// exactly, larger ones in buckets 1/1024 of their size wide, so a
/// percentile over every op of a run costs fixed memory however many ops
/// it makes.
pub struct Histogram {
    counts: Vec<u32>,
    sums: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        let buckets = ((HIST_BITS - SUB_BITS + 1) as usize) << SUB_BITS;
        Histogram {
            counts: vec![0; buckets],
            sums: vec![0; buckets],
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        let v = v.min((1 << HIST_BITS) - 1);
        if v < 1 << SUB_BITS {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> shift) as usize & ((1 << SUB_BITS) - 1);
        ((shift as usize + 1) << SUB_BITS) | sub
    }

    /// The smallest sample bucket `i` holds, and the bucket's width.
    #[cfg(test)]
    fn bounds(i: usize) -> (u64, u64) {
        let (block, sub) = (i >> SUB_BITS, (i & ((1 << SUB_BITS) - 1)) as u64);
        match block {
            0 => (sub, 1),
            _ => (((1 << SUB_BITS) | sub) << (block - 1), 1 << (block - 1)),
        }
    }

    /// Add one sample.
    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        self.counts[i] += 1;
        self.sums[i] += v;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Nearest-rank percentile `p` (the smallest sample with at least `p`
    /// percent of the samples at or below it, `p` clamped to `[0, 100]`):
    /// the mean of the samples in the bucket that holds it, so exact below
    /// 1024 or when the bucket holds one sample, and within 1/1024
    /// otherwise. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0u64;
        let i = self.counts.iter().position(|&c| {
            seen += u64::from(c);
            seen >= rank
        })?;
        Some(self.sums[i] as f64 / f64::from(self.counts[i]))
    }
}

/// A seeded stream of uniforms. Every workload input is drawn from one of
/// these, keyed by the run's `--seed` and a per-purpose stream index, so
/// the same seed always gives the same inputs.
pub struct Rng(SplitMix64);

impl Rng {
    /// Stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(SplitMix64::stream(seed, stream))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential variate with the given rate.
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_match_nearest_rank_to_its_precision() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        let samples: Vec<u64> = (1..=1000).chain([5_000, 123_456_789]).collect();
        samples.iter().for_each(|&v| h.record(v));
        assert_eq!(h.len(), 1002);
        // Below 1024 every sample is exact.
        assert_eq!(h.percentile(50.0), Some(501.0));
        assert_eq!(h.percentile(99.0), Some(992.0));
        // A sample alone in its bucket is exact.
        assert_eq!(h.percentile(99.9), Some(5_000.0));
        assert_eq!(h.percentile(100.0), Some(123_456_789.0));
        // Samples sharing a bucket read as their mean.
        let mut shared = Histogram::new();
        for v in [1_000_000, 1_000_100, 1_000_200] {
            shared.record(v);
        }
        assert_eq!(shared.percentile(50.0), Some(1_000_100.0));
        // Every bucket's bounds invert its index.
        for v in [1024, 1025, 2047, 2048, 4097, 1 << 31, (1 << 32) - 1] {
            let (low, width) = Histogram::bounds(Histogram::index(v));
            assert!(low <= v && v - low < width, "{v}: {low} + {width}");
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [4.0, 1.0, 3.0, 2.0, 8.0, 7.0, 6.0, 5.0];
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 0.75), Some(6.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(8.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn rng_streams_repeat_and_stay_in_range() {
        let a: Vec<u64> = {
            let mut r = Rng::new(9, 1);
            (0..64).map(|_| r.below(7)).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(9, 1);
            (0..64).map(|_| r.below(7)).collect()
        };
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x < 7));
        let mut r = Rng::new(9, 2);
        assert!((0..1000)
            .map(|_| r.uniform())
            .all(|u| (0.0..1.0).contains(&u)));
    }
}
