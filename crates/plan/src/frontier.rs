//! Pareto frontier and contour extraction from a finished search.
//!
//! Both are plain row vectors — the `xbar-experiments` crate renders
//! them through its shared `Table` type so the artefacts flow through
//! the same golden-CSV pipeline as every figure
//! (`out/plan_frontier.csv`, `out/plan_contour.csv`).

use crate::objective::Evaluation;
use crate::search::PlanReport;
use crate::space::DesignSpace;

/// One non-dominated design: maximal revenue among designs at or below
/// its worst SLO'd-class call blocking.
#[derive(Clone, Debug)]
pub struct FrontierRow {
    /// Canonical candidate index ([`crate::space::OFF_GRID`] for
    /// gradient iterates).
    pub index: u64,
    /// Geometry.
    pub n1: u32,
    /// Geometry.
    pub n2: u32,
    /// Per-axis `ρ` values.
    pub rho: Vec<f64>,
    /// Objective value (revenue `W`).
    pub objective: f64,
    /// Worst call blocking over SLO'd classes (all classes when no
    /// SLOs) — the frontier's cost coordinate.
    pub worst_blocking: f64,
    /// Whether this row is the reported optimum.
    pub optimal: bool,
}

/// One evaluated grid cell (for contour plots of `W` over the space).
#[derive(Clone, Debug)]
pub struct ContourRow {
    /// Canonical candidate index.
    pub index: u64,
    /// Geometry.
    pub n1: u32,
    /// Geometry.
    pub n2: u32,
    /// Per-axis `ρ` values.
    pub rho: Vec<f64>,
    /// Objective value.
    pub objective: f64,
    /// Worst SLO'd-class call blocking.
    pub worst_blocking: f64,
    /// SLO verdict.
    pub feasible: bool,
}

/// Extract the Pareto frontier over the *feasible* evaluations:
/// maximise revenue, minimise worst blocking. Rows come out in
/// descending-revenue order (ties broken by evaluation order), each with
/// strictly lower worst blocking than every richer row.
pub fn frontier(space: &DesignSpace, report: &PlanReport) -> Vec<FrontierRow> {
    let mut feasible: Vec<(usize, &Evaluation)> = report
        .evaluations
        .iter()
        .enumerate()
        .filter(|(_, e)| e.feasible)
        .collect();
    // Stable sort: revenue descending, evaluation order on ties.
    feasible.sort_by(|(ia, a), (ib, b)| {
        b.objective
            .partial_cmp(&a.objective)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ia.cmp(ib))
    });
    let mut rows = Vec::new();
    let mut best_blocking = f64::INFINITY;
    for (_, e) in feasible {
        let wb = e.worst_blocking(space);
        if wb < best_blocking {
            best_blocking = wb;
            rows.push(FrontierRow {
                index: e.candidate.index,
                n1: e.candidate.geometry.n1,
                n2: e.candidate.geometry.n2,
                rho: e.candidate.rho.clone(),
                objective: e.objective,
                worst_blocking: wb,
                optimal: e.candidate == report.optimum.candidate
                    && e.objective == report.optimum.objective,
            });
        }
    }
    rows
}

/// Every evaluated cell as a contour row, in evaluation (canonical
/// grid) order.
pub fn contour(space: &DesignSpace, report: &PlanReport) -> Vec<ContourRow> {
    report
        .evaluations
        .iter()
        .map(|e| ContourRow {
            index: e.candidate.index,
            n1: e.candidate.geometry.n1,
            n2: e.candidate.geometry.n2,
            rho: e.candidate.rho.clone(),
            objective: e.objective,
            worst_blocking: e.worst_blocking(space),
            feasible: e.feasible,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{plan, PlanConfig};
    use crate::space::{RhoAxis, Slo};
    use xbar_core::{Dims, Model};
    use xbar_traffic::{TrafficClass, Workload};

    fn space() -> DesignSpace {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.02))
            .with(TrafficClass::bpp(0.008, 0.004, 1.0).with_weight(2.0));
        DesignSpace::new(Model::new(Dims::square(8), w).unwrap())
            .with_geometry(Dims::square(6))
            .with_geometry(Dims::square(8))
            .with_axis(RhoAxis {
                class: 0,
                lo: 0.002,
                hi: 0.08,
                steps: 7,
            })
            .with_slo(Slo {
                class: 1,
                max_blocking: 0.40,
            })
    }

    #[test]
    fn frontier_is_pareto_and_contains_the_optimum() {
        let space = space();
        let report = plan(&space, &PlanConfig::default()).unwrap();
        let rows = frontier(&space, &report);
        assert!(!rows.is_empty());
        // Pareto shape: revenue strictly decreasing, blocking strictly
        // decreasing (each row trades revenue for availability).
        for w in rows.windows(2) {
            assert!(w[0].objective >= w[1].objective);
            assert!(w[0].worst_blocking > w[1].worst_blocking);
        }
        // The richest row is the optimum.
        assert!(rows[0].optimal);
        assert!((rows[0].objective - report.optimum.objective).abs() < 1e-15);
        // No feasible evaluation dominates any frontier row.
        for e in report.evaluations.iter().filter(|e| e.feasible) {
            for r in &rows {
                let dominates =
                    e.objective > r.objective && e.worst_blocking(&space) <= r.worst_blocking;
                assert!(!dominates, "frontier row dominated");
            }
        }
    }

    #[test]
    fn contour_covers_every_evaluation() {
        let space = space();
        let report = plan(&space, &PlanConfig::default()).unwrap();
        let rows = contour(&space, &report);
        assert_eq!(rows.len(), report.evaluations.len());
    }
}
