//! The obs counters emitted by the solve cache and the cross-checked
//! solve are part of the public contract (`xbar --metrics` serialises
//! them), so their exact semantics are pinned here with scoped
//! registries — the global registry is shared across parallel tests.

use std::sync::Arc;

use xbar_core::{solve_cross_checked, Algorithm, Dims, Model, SolveCache};
use xbar_traffic::{TrafficClass, Workload};

fn small_model(rho: f64) -> Model {
    Model::new(
        Dims::square(4),
        Workload::new().with(TrafficClass::poisson(rho)),
    )
    .expect("valid model")
}

#[test]
fn cache_counters_track_hits_misses_and_evictions_exactly() {
    let reg = Arc::new(xbar_obs::Registry::new());
    {
        let _g = xbar_obs::scope(&reg);
        let cache = SolveCache::new(2);
        // Three distinct models into a 2-slot cache: 3 misses, 1 eviction
        // (the oldest entry, rho = 0.01, falls off).
        for rho in [0.01, 0.02, 0.03] {
            cache
                .get_or_solve(&small_model(rho), Algorithm::Auto)
                .unwrap();
        }
        // Still resident → hit; evicted → miss again.
        cache
            .get_or_solve(&small_model(0.03), Algorithm::Auto)
            .unwrap();
        cache
            .get_or_solve(&small_model(0.01), Algorithm::Auto)
            .unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counter("cache.misses"), Some(4));
    assert_eq!(snap.counter("cache.hits"), Some(1));
    assert_eq!(snap.counter("cache.evictions"), Some(2));
    assert_eq!(snap.counter("cache.insert_races"), None);
}

#[test]
fn cache_counts_negative_zero_canonicalisations() {
    let reg = Arc::new(xbar_obs::Registry::new());
    {
        let _g = xbar_obs::scope(&reg);
        let cache = SolveCache::new(4);
        // beta = -0.0 must fingerprint identically to +0.0 — and the
        // normalisation is counted.
        let pos = Model::new(
            Dims::square(4),
            Workload::new().with(TrafficClass::bpp(0.05, 0.0, 1.0)),
        )
        .unwrap();
        let neg = Model::new(
            Dims::square(4),
            Workload::new().with(TrafficClass::bpp(0.05, -0.0, 1.0)),
        )
        .unwrap();
        cache.get_or_solve(&pos, Algorithm::Auto).unwrap();
        cache.get_or_solve(&neg, Algorithm::Auto).unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counter("cache.misses"), Some(1));
    assert_eq!(snap.counter("cache.hits"), Some(1));
    assert!(snap.counter("cache.canonicalised").unwrap_or(0) >= 1);
}

#[test]
fn resilient_escalation_counters_record_the_failure_chain() {
    // A cross-checked solve at N = 200 is checked against MVA.
    let model = Model::new(
        Dims::square(200),
        Workload::new().with(TrafficClass::poisson(1e-5)),
    )
    .unwrap();
    let reg = Arc::new(xbar_obs::Registry::new());
    {
        let _g = xbar_obs::scope(&reg);
        solve_cross_checked(&model, 1e-9).expect("cross-checked solve succeeds");
    }
    let snap = reg.snapshot();
    // Exactly two solves, Auto and its checker, and one agreement: no
    // attempt, escalation or failure counters.
    let solver: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("solver."))
        .map(|(name, n)| (name.as_str(), *n))
        .collect();
    assert_eq!(
        solver,
        [
            ("solver.cross_check.agreed", 1),
            ("solver.solve", 2),
            ("solver.solve.alg2-mva", 1),
            ("solver.solve.auto", 1),
        ]
    );
    // The gap was sampled once, and no solve has a per-attempt span.
    assert_eq!(
        snap.histogram("solver.cross_check.gap").map(|h| h.count),
        Some(1)
    );
    assert!(snap
        .histograms
        .iter()
        .all(|(name, _)| !name.starts_with("span.solver.")));
}
