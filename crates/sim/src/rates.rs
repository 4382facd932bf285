//! Incremental transition-rate table for Gillespie jump-chain loops.
//!
//! The simulator hot loops (replay and the crossbar recorder) pick the
//! next event by sampling `pick ∈ [0, total)` and walking a rate vector.
//! Historically every iteration rebuilt all rates and rescanned linearly;
//! an event only changes one class's rates, so [`RateTable`] keeps the
//! vector resident and applies O(1) slot updates instead.
//!
//! Bit-compatibility is the design constraint: decisions must stay
//! bit-identical to the legacy rebuild loops (proven by the differential
//! proptest battery and the golden-stream tests). Two details follow:
//!
//! - **Total.** The legacy loops fold the total in a fixed order
//!   (`total += arr + dep` per class in the replay, `iter().sum()` in the
//!   crossbar). Floating-point addition is not associative, so the table
//!   *re-sums* the resident vector in exactly that fold order whenever a
//!   slot changed since the last query — O(R) adds, but only on
//!   state-changing events (blocked arrivals reuse the cached total), and
//!   without the O(R) `lambda`/`permutation` recomputation the rebuild
//!   paid. An incremental `total += delta` would drift bitwise.
//! - **Selection.** The legacy subtractive scan (`if pick < rate; pick -=
//!   rate`) is kept verbatim. It is O(R) per arrival, which is cheap at
//!   every class count the workspace builds.

/// Resident transition-rate vector with cached total and O(1) updates.
#[derive(Clone, Debug)]
pub struct RateTable {
    rates: Vec<f64>,
    /// `true` → re-sum pairwise (`t += rates[2r] + rates[2r+1]`), matching
    /// the replay loop's fold; `false` → flat left fold, matching
    /// `iter().sum()`.
    pairs: bool,
    total: f64,
    dirty: bool,
}

impl RateTable {
    /// A table of `len` zero slots. `pairs` selects the total fold order
    /// (see type docs); it must match the legacy loop being replaced.
    pub fn new(len: usize, pairs: bool) -> Self {
        RateTable {
            rates: vec![0.0; len],
            pairs,
            total: 0.0,
            dirty: false,
        }
    }

    /// Set slot `j` to `v`. O(1); the total is lazily re-summed on the
    /// next [`Self::total`] call.
    pub fn set(&mut self, j: usize, v: f64) {
        self.rates[j] = v;
        self.dirty = true;
    }

    /// Total rate, bit-identical to the legacy loop's fold over a freshly
    /// rebuilt vector.
    pub fn total(&mut self) -> f64 {
        if self.dirty {
            self.total = if self.pairs {
                let mut t = 0.0;
                let mut i = 0;
                while i + 1 < self.rates.len() {
                    t += self.rates[i] + self.rates[i + 1];
                    i += 2;
                }
                if i < self.rates.len() {
                    t += self.rates[i];
                }
                t
            } else {
                let mut t = 0.0;
                for &x in &self.rates {
                    t += x;
                }
                t
            };
            self.dirty = false;
        }
        self.total
    }

    /// Slot selected by `pick ∈ [0, total)`: the legacy subtractive scan,
    /// verbatim, including its last-slot fallback when `pick` survives
    /// the whole walk through accumulated rounding.
    pub fn select(&self, mut pick: f64) -> usize {
        let mut chosen = self.rates.len() - 1;
        for (j, &rate) in self.rates.iter().enumerate() {
            if pick < rate {
                chosen = j;
                break;
            }
            pick -= rate;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The legacy replay fold: `total += arr + dep` per class.
    fn pair_fold(rates: &[f64]) -> f64 {
        let mut t = 0.0;
        for pair in rates.chunks(2) {
            t += pair[0] + pair[1];
        }
        t
    }

    /// The legacy subtractive scan, copied from the old loops.
    fn scan(rates: &[f64], mut pick: f64) -> usize {
        let mut chosen = rates.len() - 1;
        for (j, &rate) in rates.iter().enumerate() {
            if pick < rate {
                chosen = j;
                break;
            }
            pick -= rate;
        }
        chosen
    }

    #[test]
    fn scalar_total_is_bitwise_equal_to_the_legacy_folds() {
        let mut rng = StdRng::seed_from_u64(31);
        for len in [2usize, 4, 6, 8, 12] {
            let mut pairs = RateTable::new(len, true);
            let mut flat = RateTable::new(len, false);
            let mut v = vec![0.0f64; len];
            for _ in 0..200 {
                let j = rng.gen_range(0..len);
                let x = rng.gen::<f64>() * 10.0;
                v[j] = x;
                pairs.set(j, x);
                flat.set(j, x);
                assert_eq!(pairs.total().to_bits(), pair_fold(&v).to_bits());
                let legacy_flat: f64 = v.iter().sum();
                assert_eq!(flat.total().to_bits(), legacy_flat.to_bits());
            }
        }
    }

    #[test]
    fn scalar_select_is_the_legacy_scan() {
        let mut rng = StdRng::seed_from_u64(32);
        let len = 10;
        let mut table = RateTable::new(len, true);
        let mut v = vec![0.0f64; len];
        for (i, slot) in v.iter_mut().enumerate() {
            let x = rng.gen::<f64>();
            *slot = x;
            table.set(i, x);
        }
        let total = table.total();
        for _ in 0..10_000 {
            let pick = rng.gen::<f64>() * total;
            assert_eq!(table.select(pick), scan(&v, pick));
        }
        // Zero-rate slots are skipped by both paths.
        v[3] = 0.0;
        table.set(3, 0.0);
        let total = table.total();
        for _ in 0..1_000 {
            let pick = rng.gen::<f64>() * total;
            let got = table.select(pick);
            assert_eq!(got, scan(&v, pick));
            assert_ne!(got, 3);
        }
    }
}
