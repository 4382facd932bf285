//! Memoizing solve engine: a keyed LRU of finished [`Solution`]s plus a
//! work-stealing batch front-end.
//!
//! Fleet batches repeat models: a models file, a design grid or an
//! experiment's anchor set often names one configuration several times.
//! [`SolveCache`] memoizes by a canonicalised model fingerprint so those
//! repeats cost a hash lookup instead of a ray build or a lattice sweep;
//! [`SolveCache::solve_fleet`] fans a slice of models out over a
//! [`crossbeam::queue::SegQueue`] work pool (work-stealing, so unbalanced
//! sweeps with large-`N` tails no longer serialise on the slowest chunk).
//!
//! # Cache-key canonicalisation
//!
//! Two models must share a cache entry iff a solve cannot tell them apart.
//! The fingerprint therefore covers the *requested* algorithm (so an
//! [`Algorithm::Auto`] solution, whose [`Solution::algorithm`] reports
//! `Auto`, is never returned for an explicit `Alg1F64` request), the
//! dims, and every class's
//! `(α, β, μ, a, w)` tuple in workload order. Floats are compared by bit
//! pattern with `-0.0` normalised to `+0.0` — the one bit-level distinction
//! IEEE arithmetic cannot observe here — so no tolerance is involved:
//! models differing in the last ulp are (correctly) distinct entries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use super::{solve, Algorithm, Solution, SolveError};
use crate::model::Model;

/// Canonical fingerprint of one `(Model, Algorithm)` solve request.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Key {
    algorithm: Algorithm,
    n1: u32,
    n2: u32,
    /// Per class: `[α, β, μ, weight]` as canonical bit patterns plus the
    /// bandwidth, flattened in workload order.
    classes: Vec<u64>,
}

/// `f64` → canonical bit pattern (`-0.0` folds onto `+0.0`).
fn canon_bits(x: f64) -> u64 {
    if x == 0.0 {
        0u64
    } else {
        x.to_bits()
    }
}

fn fingerprint(model: &Model, algorithm: Algorithm) -> Key {
    let dims = model.dims();
    let classes = model.workload().classes();
    let mut flat = Vec::with_capacity(classes.len() * 5);
    let mut canonicalised = 0u64;
    for c in classes {
        for x in [c.alpha, c.beta, c.mu, c.weight] {
            if x == 0.0 && x.is_sign_negative() {
                canonicalised += 1;
            }
            flat.push(canon_bits(x));
        }
        flat.push(c.bandwidth as u64);
    }
    if canonicalised > 0 {
        xbar_obs::add("cache.canonicalised", canonicalised);
    }
    Key {
        algorithm,
        n1: dims.n1,
        n2: dims.n2,
        classes: flat,
    }
}

/// Hit/miss counters of a [`SolveCache`] (monotonic since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that ran a fresh solve.
    pub misses: u64,
}

/// A bounded, thread-safe LRU of finished solutions keyed by the
/// canonicalised model fingerprint (see the module docs).
///
/// Entries are `Arc<Solution>`, so a hit is a pointer clone — callers on
/// different threads share one lattice. Failed solves are *not* cached:
/// errors are cheap to reproduce (a fixed-precision lattice reports its
/// underflow as soon as the sweep ends).
///
/// The store is a mutexed most-recently-used-first vector rather than a
/// hash map: capacities are small (tens of entries — each large lattice is
/// megabytes), so a linear scan of inline keys beats hashing, and eviction
/// is `pop()`. Solves run *outside* the lock; concurrent misses on the same
/// key may both solve, and the loser's entry is simply dropped.
pub struct SolveCache {
    capacity: usize,
    /// MRU first.
    entries: Mutex<Vec<(Key, Arc<Solution>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SolveCache {
    /// An empty cache holding at most `capacity` solutions (`capacity` is
    /// clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        SolveCache {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Serve `solve(model, algorithm)` from the cache, running (and
    /// memoizing) a fresh solve on miss.
    pub fn get_or_solve(
        &self,
        model: &Model,
        algorithm: Algorithm,
    ) -> Result<Arc<Solution>, SolveError> {
        let key = fingerprint(model, algorithm);
        {
            let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(pos) = entries.iter().position(|(k, _)| *k == key) {
                let hit = entries.remove(pos);
                let sol = Arc::clone(&hit.1);
                entries.insert(0, hit);
                self.hits.fetch_add(1, Ordering::Relaxed);
                xbar_obs::inc("cache.hits");
                return Ok(sol);
            }
        }
        // Miss: solve without holding the lock (a solve can take seconds at
        // N = 512; serialising misses would defeat solve_fleet entirely).
        self.misses.fetch_add(1, Ordering::Relaxed);
        xbar_obs::inc("cache.misses");
        let sol = Arc::new(solve(model, algorithm)?);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.iter().any(|(k, _)| *k == key) {
            xbar_obs::inc("cache.insert_races");
        } else {
            entries.insert(0, (key, Arc::clone(&sol)));
            let evicted = entries.len().saturating_sub(self.capacity);
            if evicted > 0 {
                entries.truncate(self.capacity);
                xbar_obs::add("cache.evictions", evicted as u64);
            }
        }
        Ok(sol)
    }

    /// Number of cached solutions.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` iff the cache holds no solutions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached solution (counters keep running).
    pub fn clear(&self) {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Solve every model in `models` as one fleet batch, returning
    /// results in input order.
    ///
    /// Models with identical canonical fingerprints are deduplicated
    /// up front — one solve, one shared `Arc` (and one shared error:
    /// [`SolveError`] is `Clone`). The unique models are sharded across
    /// the persistent worker pool with work stealing, each inner solve
    /// pinned to one thread; a fleet of one (or a one-thread
    /// configuration) runs inline, so batching adds no overhead to the
    /// single-model path.
    pub fn solve_fleet(
        &self,
        models: &[Model],
        algorithm: Algorithm,
    ) -> Vec<Result<Arc<Solution>, SolveError>> {
        xbar_obs::inc("fleet.solves");
        xbar_obs::record("fleet.batch_size", models.len() as f64);
        if models.is_empty() {
            return Vec::new();
        }
        if models.len() == 1 {
            return vec![self.get_or_solve(&models[0], algorithm)];
        }

        // Dedupe by fingerprint: `uniq` holds the first index per
        // distinct key, `slot_of[i]` the uniq position serving model i.
        let keys: Vec<Key> = models.iter().map(|m| fingerprint(m, algorithm)).collect();
        let mut first_of: HashMap<&Key, usize> = HashMap::with_capacity(models.len());
        let mut uniq: Vec<usize> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::with_capacity(models.len());
        for key in &keys {
            let next = uniq.len();
            let slot = *first_of.entry(key).or_insert(next);
            if slot == next {
                uniq.push(slot_of.len());
            }
            slot_of.push(slot);
        }
        xbar_obs::add("fleet.deduped", (models.len() - uniq.len()) as u64);

        let solved = crate::fleet::shard_map(uniq.len(), |u| {
            self.get_or_solve(&models[uniq[u]], algorithm)
        });
        slot_of.into_iter().map(|s| solved[s].clone()).collect()
    }
}

/// Capacity of the process-wide cache behind [`crate::solve_fleet`].
/// Sized for a fleet's working set of repeated models while bounding
/// worst-case memory: an `Auto` solution holds one diagonal ray, and even
/// an explicit `513 × 513` extended-range lattice is ~4 MB, so the ceiling
/// is a few hundred MB of solutions if every entry is maximal.
pub const GLOBAL_CACHE_CAPACITY: usize = 64;

/// The process-wide [`SolveCache`] used by [`crate::solve_fleet`].
pub fn global_cache() -> &'static SolveCache {
    static GLOBAL: OnceLock<SolveCache> = OnceLock::new();
    GLOBAL.get_or_init(|| SolveCache::new(GLOBAL_CACHE_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dims;
    use proptest::prelude::*;
    use xbar_traffic::{TrafficClass, Workload};

    fn mixed_model(n1: u32, n2: u32) -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.3))
            .with(TrafficClass::bpp(0.2, 0.08, 1.0));
        Model::new(Dims::new(n1, n2), w).unwrap()
    }

    #[test]
    fn hit_returns_same_arc_and_identical_measures() {
        let cache = SolveCache::new(8);
        let m = mixed_model(6, 6);
        let a = cache.get_or_solve(&m, Algorithm::Auto).unwrap();
        let b = cache.get_or_solve(&m, Algorithm::Auto).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.measures(), b.measures());
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        // An equal-but-distinct Model value hits too (value keying).
        let m2 = mixed_model(6, 6);
        let c = cache.get_or_solve(&m2, Algorithm::Auto).unwrap();
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn requested_algorithm_is_part_of_the_key() {
        let cache = SolveCache::new(8);
        let m = mixed_model(6, 6);
        // Auto answers from the ray and Alg1F64 from the lattice; the two
        // requests stay distinct entries so Solution::algorithm() is
        // preserved.
        let auto = cache.get_or_solve(&m, Algorithm::Auto).unwrap();
        let f64_ = cache.get_or_solve(&m, Algorithm::Alg1F64).unwrap();
        assert!(!Arc::ptr_eq(&auto, &f64_));
        assert_eq!(auto.algorithm(), Algorithm::Auto);
        assert_eq!(f64_.algorithm(), Algorithm::Alg1F64);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_models_are_distinct_entries() {
        let cache = SolveCache::new(8);
        let a = cache
            .get_or_solve(&mixed_model(6, 6), Algorithm::Auto)
            .unwrap();
        let b = cache
            .get_or_solve(&mixed_model(6, 5), Algorithm::Auto)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = SolveCache::new(2);
        let m1 = mixed_model(4, 4);
        let m2 = mixed_model(5, 5);
        let m3 = mixed_model(6, 6);
        cache.get_or_solve(&m1, Algorithm::Auto).unwrap();
        cache.get_or_solve(&m2, Algorithm::Auto).unwrap();
        // Touch m1 so m2 is now least recently used.
        cache.get_or_solve(&m1, Algorithm::Auto).unwrap();
        cache.get_or_solve(&m3, Algorithm::Auto).unwrap();
        assert_eq!(cache.len(), 2);
        let before = cache.stats();
        cache.get_or_solve(&m1, Algorithm::Auto).unwrap();
        assert_eq!(cache.stats().hits, before.hits + 1, "m1 was evicted");
        cache.get_or_solve(&m2, Algorithm::Auto).unwrap();
        assert_eq!(cache.stats().misses, before.misses + 1, "m2 survived");
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = SolveCache::new(8);
        let w = Workload::new().with(TrafficClass::poisson(1e-5));
        let big = Model::new(Dims::square(200), w).unwrap();
        for _ in 0..2 {
            assert!(matches!(
                cache.get_or_solve(&big, Algorithm::Alg1F64),
                Err(SolveError::Underflow(_))
            ));
        }
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn negative_zero_canonicalises() {
        // β = -0.0 and β = 0.0 describe the same (Poisson) class.
        assert_eq!(canon_bits(-0.0), canon_bits(0.0));
        assert_ne!(canon_bits(1.0), canon_bits(-1.0));
    }

    /// A random valid traffic class (Poisson / Pascal / Bernoulli) for a
    /// switch with `max_n` ports, with bandwidths up to 3.
    fn arb_class(max_n: u32) -> impl Strategy<Value = TrafficClass> {
        let poisson =
            (0.001f64..2.0, 0.2f64..3.0, 1u32..4, 0.01f64..2.0).prop_map(|(rho, mu, a, w)| {
                TrafficClass::bpp(rho * mu, 0.0, mu)
                    .with_bandwidth(a)
                    .with_weight(w)
            });
        let pascal = (
            0.001f64..1.5,
            0.05f64..0.9,
            0.5f64..2.0,
            1u32..4,
            0.01f64..2.0,
        )
            .prop_map(|(alpha, frac, mu, a, w)| {
                TrafficClass::bpp(alpha, frac * mu, mu)
                    .with_bandwidth(a)
                    .with_weight(w)
            });
        let bernoulli = (1u64..6, 0.01f64..0.5, 0.5f64..2.0, 0.01f64..2.0).prop_map(
            move |(extra, p_rate, mu, w)| {
                let s = (max_n as u64 + extra) as f64;
                TrafficClass::bpp(s * p_rate, -p_rate, mu).with_weight(w)
            },
        );
        prop_oneof![poisson, pascal, bernoulli]
    }

    /// Random models with mostly rectangular dims (`N1 ≠ N2`).
    fn arb_model() -> impl Strategy<Value = Model> {
        (2u32..20, 2u32..20).prop_flat_map(|(n1, n2)| {
            let max_n = n1.max(n2);
            prop::collection::vec(arb_class(max_n), 1..4).prop_filter_map(
                "classes must fit switch",
                move |classes| {
                    let min_n = n1.min(n2);
                    if classes.iter().any(|c| c.bandwidth > min_n) {
                        return None;
                    }
                    Model::new(Dims::new(n1, n2), Workload::from_classes(classes)).ok()
                },
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn cache_hit_returns_identical_measures(
            model in arb_model(),
            algorithm in prop_oneof![
                Just(Algorithm::Auto),
                Just(Algorithm::Alg1F64),
                Just(Algorithm::Alg1Ext),
                Just(Algorithm::Alg1Scaled),
            ],
        ) {
            let cache = SolveCache::new(4);
            let cold = solve(&model, algorithm).unwrap();
            let miss = cache.get_or_solve(&model, algorithm).unwrap();
            let hit = cache.get_or_solve(&model, algorithm).unwrap();
            prop_assert_eq!(cache.stats().hits, 1);
            prop_assert_eq!(cache.stats().misses, 1);
            // The hit shares the miss's lattice, and both equal a cold solve
            // exactly (same code path; memoization must not perturb results).
            prop_assert!(std::sync::Arc::ptr_eq(&miss, &hit));
            prop_assert_eq!(hit.measures(), cold.measures());
            prop_assert_eq!(hit.algorithm(), algorithm);
        }
    }
}
