#![warn(missing_docs)]

//! Shared fixtures for the Criterion benchmarks: canonical models at the
//! paper's operating points, so every bench target measures the same
//! objects the experiments use. End-to-end and per-layer timings of the
//! commands people run come from the separate `perfbench` package, not
//! from this crate.

use xbar_core::{Dims, Model};
use xbar_traffic::{TildeClass, TrafficClass, Workload};

/// The Table 2 (set 1) model at size `n`: one Poisson class and one Pascal
/// class at `ρ̃ = β̃ = .0012`, `w = (1, 10⁻⁴)`.
pub fn table2_model(n: u32) -> Model {
    let workload = Workload::from_tilde(
        &[
            TildeClass::poisson(0.0012).with_weight(1.0),
            TildeClass::bpp(0.0012, 0.0012, 1.0).with_weight(0.0001),
        ],
        n,
    );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// The Figure 1 model at size `n` and smoothing `β̃ ≤ 0`.
pub fn fig1_model(n: u32, beta_tilde: f64) -> Model {
    let workload = Workload::from_tilde(&[TildeClass::bpp(0.0024, beta_tilde, 1.0)], n);
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// One member of the heterogeneous fleet fixture: sizes cycle through
/// `24..=39` while the offered load drifts with the index, so every
/// member carries a distinct canonical fingerprint (no two dedupe away
/// inside `solve_fleet`) and a batch of `k` members really is `k`
/// independent solves.
pub fn fleet_member_model(i: usize) -> Model {
    let n = 24 + (i % 16) as u32;
    let alpha = 0.0012 * (1.0 + 0.002 * i as f64);
    let workload = Workload::from_tilde(
        &[
            TildeClass::poisson(alpha).with_weight(1.0),
            TildeClass::bpp(alpha, alpha, 1.0).with_weight(0.0001),
        ],
        n,
    );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// A heavier mixed multi-rate fixture exercising all recursion paths.
pub fn mixed_model(n: u32) -> Model {
    let workload = Workload::from_tilde(
        &[
            TildeClass::poisson(0.4),
            TildeClass::bpp(0.2, 0.1, 1.0),
            TildeClass::poisson(0.1).with_bandwidth(2),
            TildeClass::bpp(0.05, 0.02, 2.0).with_bandwidth(2),
        ],
        n,
    );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// The planner benchmark's model at size `n`: a Poisson class, a peaky
/// class and a wideband (`a = 2`) Poisson class, at the per-set loads of
/// perfbench's plan-grid base model.
pub fn plan_grid_model(n: u32) -> Model {
    let workload = Workload::new()
        .with(TrafficClass::poisson(5e-5))
        .with(TrafficClass::bpp(2e-5, 1e-6, 1.0).with_weight(1.5))
        .with(
            TrafficClass::poisson(5e-11)
                .with_bandwidth(2)
                .with_weight(4.0),
        );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::{solve, Algorithm};

    #[test]
    fn fixtures_are_solvable() {
        assert!(solve(&table2_model(8), Algorithm::Auto).is_ok());
        assert!(solve(&fig1_model(16, -2.0e-6), Algorithm::Auto).is_ok());
        assert!(solve(&mixed_model(8), Algorithm::Auto).is_ok());
        assert!(solve(&plan_grid_model(512), Algorithm::Auto).is_ok());
    }

    #[test]
    fn fixtures_scale_to_large_sizes() {
        assert!(solve(&table2_model(256), Algorithm::Alg1Ext).is_ok());
    }

    #[test]
    fn fleet_members_are_solvable_and_pairwise_distinct() {
        let models: Vec<_> = (0..100).map(fleet_member_model).collect();
        assert!(solve(&models[0], Algorithm::Auto).is_ok());
        assert!(solve(&models[99], Algorithm::Auto).is_ok());
        // No two members may dedupe inside solve_fleet: every batch of k
        // must cost k real solves for the `fleet_solve` bench numbers to
        // mean anything.
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        {
            let _g = xbar_obs::scope(&reg);
            let results = xbar_core::SolveCache::new(128).solve_fleet(&models, Algorithm::Auto);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        assert_eq!(reg.snapshot().counter("fleet.deduped").unwrap_or(0), 0);
    }
}
