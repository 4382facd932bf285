//! Fleet solving: batch many heterogeneous [`Model`]s — per-tenant
//! geometries and class mixes — through one call, sharded across the
//! persistent worker pool with work stealing.
//!
//! Two batched surfaces:
//!
//! * [`SolveCache::solve_fleet`](crate::SolveCache::solve_fleet) (and
//!   the [`solve_fleet`] free function over the process-wide cache) —
//!   batched *anchor* solves: deduplicate identical models up front,
//!   shard the misses over [`crate::parallel::run_scoped`] workers that
//!   steal whole models from a shared queue, and return results in
//!   input order. This is what the CLI `xbar fleet` command calls.
//! * [`sweep_many`] — batched *sweep* precomputes: one owned
//!   [`SweepSolver`] per model, built on the same sharded pool. The
//!   figure drivers, per-anchor repricing solvers and
//!   [`crate::SweepGrid`] batch builds all warm through it.
//!
//! Every solve and sweep build is single-threaded, so the pool's width
//! goes to whole models: sharding pins each member to one thread
//! ([`crate::parallel::with_threads`]), and a fleet batch nested inside
//! a member runs inline instead of fanning out again. A fleet of one
//! skips the pool (and the pinning) entirely, so single-model latency is
//! unchanged.

use std::sync::{Arc, Mutex};

use crossbeam::queue::SegQueue;

use crate::model::Model;
use crate::parallel;
use crate::solver::cache::global_cache;
use crate::solver::{Algorithm, Solution, SolveError};
use crate::sweep::SweepSolver;

/// Run `f(i)` for every `i in 0..n` across the persistent pool with
/// work stealing and return the results in index order.
///
/// With more than one effective worker, each item runs pinned to one
/// thread, so a nested pool call inside it runs inline; with one worker
/// the items run inline on the caller.
pub(crate) fn shard_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = parallel::effective_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }

    let queue = SegQueue::new();
    for i in 0..n {
        queue.push(i);
    }
    // Enough to amortise the queue lock, small enough that the tail
    // stays balanced across workers.
    let batch = (n / (threads * 4)).clamp(1, 16);
    let mut slots: Vec<Mutex<Option<T>>> = Vec::new();
    slots.resize_with(n, || Mutex::new(None));

    // Pool workers are long-lived threads, so the caller's scoped obs
    // registry (if any) must be re-entered by hand.
    let obs_scope = xbar_obs::current_scope();
    parallel::run_scoped(threads, |_w| {
        let _obs = obs_scope.enter();
        loop {
            let taken = queue.pop_batch(batch);
            if taken.is_empty() {
                break;
            }
            for i in taken {
                let r = parallel::with_threads(1, || f(i));
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("shard_map drained the queue but left a slot empty")
        })
        .collect()
}

/// Batched [`solve`](crate::solve): solve every model in `models` as one
/// fleet through the process-wide cache. See
/// [`SolveCache::solve_fleet`](crate::SolveCache::solve_fleet).
pub fn solve_fleet(
    models: &[Model],
    algorithm: Algorithm,
) -> Vec<Result<Arc<Solution>, SolveError>> {
    global_cache().solve_fleet(models, algorithm)
}

/// Build one owned [`SweepSolver`] precompute per model, sharded across
/// the persistent worker pool with work stealing (results in input
/// order, one `Result` per model).
///
/// This is the warm path for the figure drivers, per-anchor repricing
/// solvers and [`crate::SweepGrid`] batch builds: the `O(R·C²)`
/// precomputes amortise across the pool. Each solver's leave-one-out
/// rays are built later, by the caller that first uses them. Counted as
/// `fleet.sweep_warm` (one increment per model).
pub fn sweep_many(models: &[Model], algorithm: Algorithm) -> Vec<Result<SweepSolver, SolveError>> {
    xbar_obs::add("fleet.sweep_warm", models.len() as u64);
    shard_map(models.len(), |i| SweepSolver::new(&models[i], algorithm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dims;
    use crate::solve;
    use crate::solver::SolveCache;
    use xbar_traffic::{TrafficClass, Workload};

    fn member_model(n: u32, rho: f64) -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(rho))
            .with(TrafficClass::bpp(rho / 2.0, 0.05, 1.0));
        Model::new(Dims::square(n), w).unwrap()
    }

    fn heterogeneous_fleet() -> Vec<Model> {
        (0..12)
            .map(|i| member_model(4 + (i % 5) as u32 * 3, 0.05 + 0.02 * i as f64))
            .collect()
    }

    #[test]
    fn solve_fleet_matches_independent_solves() {
        let models = heterogeneous_fleet();
        let cache = SolveCache::new(models.len());
        let fleet = cache.solve_fleet(&models, Algorithm::Auto);
        assert_eq!(fleet.len(), models.len());
        for (m, got) in models.iter().zip(&fleet) {
            let got = got.as_ref().unwrap();
            let solo = solve(m, Algorithm::Auto).unwrap();
            for r in 0..m.workload().classes().len() {
                assert_eq!(got.blocking(r).to_bits(), solo.blocking(r).to_bits());
            }
        }
    }

    #[test]
    fn solve_fleet_dedupes_identical_models() {
        let m = member_model(6, 0.1);
        let models = vec![m.clone(), m.clone(), m];
        let cache = SolveCache::new(4);
        let fleet = cache.solve_fleet(&models, Algorithm::Auto);
        let first = fleet[0].as_ref().unwrap();
        for other in &fleet[1..] {
            assert!(Arc::ptr_eq(first, other.as_ref().unwrap()));
        }
        // One unique model → one cached solve.
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn solve_fleet_keeps_per_model_errors_in_order() {
        let good = member_model(5, 0.1);
        // An f64 solve at N = 256 underflows — a per-member error.
        let big = Model::new(
            Dims::square(256),
            Workload::new().with(TrafficClass::poisson(0.1)),
        )
        .unwrap();
        let models = vec![good.clone(), big, good];
        let cache = SolveCache::new(4);
        let fleet = cache.solve_fleet(&models, Algorithm::Alg1F64);
        assert!(fleet[0].is_ok());
        assert!(matches!(fleet[1], Err(SolveError::Underflow(_))));
        assert!(fleet[2].is_ok());
    }

    #[test]
    fn solve_fleet_of_one_and_empty() {
        let cache = SolveCache::new(4);
        assert!(cache.solve_fleet(&[], Algorithm::Auto).is_empty());
        let m = member_model(6, 0.1);
        let one = cache.solve_fleet(std::slice::from_ref(&m), Algorithm::Auto);
        assert_eq!(one.len(), 1);
        assert!(one[0].is_ok());
    }

    #[test]
    fn sweep_many_matches_solo_solvers_in_order() {
        let mut models = heterogeneous_fleet();
        // ρ = 0.4 per tuple at N = 256 overflows the scaled rays, so Auto
        // escalates and the batch carries an extended-range member among
        // the scaled ones.
        models.push(
            Model::new(
                Dims::square(256),
                Workload::new().with(TrafficClass::poisson(0.4)),
            )
            .unwrap(),
        );
        let many = sweep_many(&models, Algorithm::Auto);
        assert_eq!(many.len(), models.len());
        assert_eq!(many[0].as_ref().unwrap().algorithm(), Algorithm::Alg1Scaled);
        assert_eq!(
            many.last().unwrap().as_ref().unwrap().algorithm(),
            Algorithm::Alg1Ext
        );
        for (m, got) in models.iter().zip(many) {
            let got = got.unwrap();
            let solo = SweepSolver::new(m, Algorithm::Auto).unwrap();
            assert_eq!(got.algorithm(), solo.algorithm());
            assert_eq!(
                got.solve_base().unwrap().blocking(0).to_bits(),
                solo.solve_base().unwrap().blocking(0).to_bits()
            );
            // An edited point: one recombination on each side.
            assert_eq!(
                got.solve_with_rho(0, 0.17).unwrap().blocking(0).to_bits(),
                solo.solve_with_rho(0, 0.17).unwrap().blocking(0).to_bits()
            );
        }
    }

    #[test]
    fn shard_map_is_ordered_and_complete() {
        for n in [0usize, 1, 7, 33] {
            let out = shard_map(n, |i| i * i);
            assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
    }
}
