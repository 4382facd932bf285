//! Candidate evaluation: one design in, one scored [`Evaluation`] out.
//!
//! Every evaluation routes through a shared [`SweepGrid`] so candidates
//! that differ only in the swept class's own parameters (a whole
//! innermost scanline of the exhaustive grid, or consecutive
//! line-search probes of the gradient strategy that move one knob)
//! recombine against a single leave-one-out precompute in `O(C²/a)`.

use xbar_core::{Solution, SolveError, SweepGrid};

use crate::space::{Candidate, DesignSpace};

/// What the planner maximises. Only weighted revenue `W` today; an enum
/// so the CLI's `--objective` flag has a typed home and future
/// objectives (carried load, acceptance) slot in without re-plumbing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Objective {
    /// The paper's §4 weighted revenue `W = Σ_r w_r·E_r`.
    #[default]
    Revenue,
}

impl Objective {
    /// Extract the objective value from a solved candidate.
    pub fn value(self, sol: &Solution) -> f64 {
        match self {
            Objective::Revenue => sol.revenue(),
        }
    }
}

/// A scored candidate: the objective, every class's call blocking, and
/// the SLO verdict.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The design that was evaluated.
    pub candidate: Candidate,
    /// Objective value (revenue `W`).
    pub objective: f64,
    /// Per-class call blocking `1 − call_acceptance` (what the SLOs
    /// bound, and what the Gillespie replay estimates).
    pub call_blocking: Vec<f64>,
    /// Per-class expected concurrency `E_r`.
    pub concurrency: Vec<f64>,
    /// Whether every SLO holds (inclusive bounds).
    pub feasible: bool,
}

impl Evaluation {
    /// The worst (largest) call blocking over SLO'd classes, or over all
    /// classes when the space has no SLOs — the frontier's second
    /// coordinate.
    pub fn worst_blocking(&self, space: &DesignSpace) -> f64 {
        let over_slos = space
            .slos
            .iter()
            .map(|s| self.call_blocking[s.class])
            .fold(f64::NAN, f64::max);
        if over_slos.is_nan() {
            self.call_blocking.iter().copied().fold(0.0, f64::max)
        } else {
            over_slos
        }
    }
}

/// Evaluate one candidate through the shared grid. Counts
/// `plan.evaluated` plus exactly one of `plan.feasible` /
/// `plan.infeasible`.
pub fn evaluate(
    space: &DesignSpace,
    grid: &SweepGrid,
    candidate: Candidate,
    objective: Objective,
) -> Result<Evaluation, SolveError> {
    let model = space.model_for(&candidate).map_err(SolveError::Model)?;
    let r = space.sweep_class();
    let class = model.workload().classes()[r].clone();
    let sol = grid.solve_cell(&model, r, class)?;
    let classes = model.num_classes();
    let call_blocking: Vec<f64> = (0..classes).map(|k| 1.0 - sol.call_acceptance(k)).collect();
    let concurrency: Vec<f64> = (0..classes).map(|k| sol.concurrency(k)).collect();
    let feasible = space
        .slos
        .iter()
        .all(|s| call_blocking[s.class] <= s.max_blocking);
    xbar_obs::inc("plan.evaluated");
    xbar_obs::inc(if feasible {
        "plan.feasible"
    } else {
        "plan.infeasible"
    });
    Ok(Evaluation {
        candidate,
        objective: objective.value(&sol),
        call_blocking,
        concurrency,
        feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{RhoAxis, Slo};
    use xbar_core::{solve, Algorithm, Dims, Model};
    use xbar_traffic::{TrafficClass, Workload};

    fn space() -> DesignSpace {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.02))
            .with(TrafficClass::bpp(0.008, 0.004, 1.0).with_weight(2.0));
        DesignSpace::new(Model::new(Dims::square(8), w).unwrap())
            .with_axis(RhoAxis {
                class: 0,
                lo: 0.02,
                hi: 0.02,
                steps: 1,
            })
            .with_slo(Slo {
                class: 1,
                max_blocking: 0.5,
            })
    }

    #[test]
    fn evaluation_matches_a_direct_solve() {
        let space = space();
        let grid = SweepGrid::new(Algorithm::Auto);
        let c = space.candidate(0);
        let ev = evaluate(&space, &grid, c.clone(), Objective::Revenue).unwrap();
        let sol = solve(&space.model_for(&c).unwrap(), Algorithm::Alg1Ext).unwrap();
        assert!((ev.objective - sol.revenue()).abs() < 1e-12);
        for k in 0..2 {
            assert!((ev.call_blocking[k] - (1.0 - sol.call_acceptance(k))).abs() < 1e-12);
        }
        assert!(ev.feasible, "blocking={:?}", ev.call_blocking);
    }

    #[test]
    fn slo_boundary_is_inclusive() {
        // Pin the SLO exactly at the achieved blocking: still feasible.
        let mut s = space();
        let grid = SweepGrid::new(Algorithm::Auto);
        let ev = evaluate(&s, &grid, s.candidate(0), Objective::Revenue).unwrap();
        s.slos[0].max_blocking = ev.call_blocking[1];
        let ev2 = evaluate(&s, &grid, s.candidate(0), Objective::Revenue).unwrap();
        assert!(ev2.feasible, "exact boundary must count as feasible");
        // An SLO infinitesimally below flips it.
        s.slos[0].max_blocking = ev.call_blocking[1] * (1.0 - 1e-9);
        let ev3 = evaluate(&s, &grid, s.candidate(0), Objective::Revenue).unwrap();
        assert!(!ev3.feasible);
    }
}
