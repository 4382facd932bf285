//! Verified solve: [`solve`] with [`Algorithm::Auto`], checked against an
//! independent recursion.
//!
//! `Auto` answers from the diagonal ray — Algorithm 1's recursion with the
//! §6 scaling, falling back to extended range by itself — and its measures
//! pass the numeric guards. Passing the guards proves the numbers are
//! *plausible*, not *right*: a scaled recursion can lose precision and
//! still land in `[0, 1]`. [`solve_cross_checked`] therefore solves the
//! model a second time through a recursion of a different structure —
//! occupancy convolution (Algorithm 3) while `max(N1, N2) ≤ 64`, MVA on
//! ratios (Algorithm 2) above — and compares every measure. Two
//! independent recursions agreeing to a tight relative tolerance is strong
//! evidence neither is corrupt; disagreement is a first-class error,
//! [`SolveError::CrossCheckFailed`], carrying both answers.

use std::fmt;

use xbar_numeric::guard::relative_gap;

use super::{solve, Algorithm, Solution, SolveError};
use crate::measures::SwitchMeasures;
use crate::model::Model;

/// Largest `max(N1, N2)` checked against occupancy convolution; larger
/// switches are checked against MVA.
const ENUMERABLE_LIMIT: u32 = 64;

/// Result of checking the `Auto` solve against the independent checker.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossCheck {
    /// The independent algorithm used for verification.
    pub checker: Algorithm,
    /// The tolerance the comparison ran with.
    pub tol: f64,
    /// What the comparison found.
    pub outcome: CrossCheckOutcome,
}

/// Outcome of a cross-check that did not fail the solve.
#[derive(Clone, Debug, PartialEq)]
pub enum CrossCheckOutcome {
    /// The two solves agree on every compared measure.
    Agreed {
        /// Worst [`relative_gap`] observed across all compared measures.
        max_rel_gap: f64,
    },
    /// The checker itself failed to produce guard-clean measures, so the
    /// solution stands unverified.
    CheckerFailed(SolveError),
}

impl fmt::Display for CrossCheck {
    /// One line, e.g. `cross-check alg2-mva: agreed (max rel gap 3.1e-13
    /// <= 1.0e-9)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cross-check {}: ", self.checker)?;
        match &self.outcome {
            CrossCheckOutcome::Agreed { max_rel_gap } => write!(
                f,
                "agreed (max rel gap {max_rel_gap:.1e} <= {:.1e})",
                self.tol
            ),
            CrossCheckOutcome::CheckerFailed(e) => write!(f, "checker failed ({e})"),
        }
    }
}

/// Payload of [`SolveError::CrossCheckFailed`]: both answers.
#[derive(Clone, Debug, PartialEq)]
pub struct CrossCheckFailure {
    /// The independent algorithm the `Auto` solve was checked against.
    pub checker: Algorithm,
    /// The `Auto` solve's measures.
    pub auto_measures: SwitchMeasures,
    /// The checker's measures.
    pub checker_measures: SwitchMeasures,
    /// Worst [`relative_gap`] across all compared measures.
    pub max_rel_gap: f64,
    /// The tolerance that was exceeded.
    pub tol: f64,
}

impl fmt::Display for CrossCheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cross-check failed: {} and {} disagree (max rel gap {:.3e} > tol {:.1e})",
            Algorithm::Auto,
            self.checker,
            self.max_rel_gap,
            self.tol
        )
    }
}

/// The checker for a switch whose larger side has `max_n` ports.
fn checker_for(max_n: u32) -> Algorithm {
    if max_n <= ENUMERABLE_LIMIT {
        Algorithm::Convolution
    } else {
        Algorithm::Mva
    }
}

/// Worst [`relative_gap`] between two measure sets, over every per-class
/// probability/concurrency/throughput plus revenue and total throughput.
fn max_measure_gap(a: &SwitchMeasures, b: &SwitchMeasures) -> f64 {
    let mut worst: f64 = 0.0;
    for (ca, cb) in a.classes.iter().zip(&b.classes) {
        worst = worst
            .max(relative_gap(ca.nonblocking, cb.nonblocking))
            .max(relative_gap(ca.concurrency, cb.concurrency))
            .max(relative_gap(ca.throughput, cb.throughput))
            .max(relative_gap(ca.call_acceptance, cb.call_acceptance));
    }
    worst
        .max(relative_gap(a.revenue, b.revenue))
        .max(relative_gap(a.total_throughput, b.total_throughput))
}

/// Solve `model` with [`Algorithm::Auto`], then check every measure
/// against one independent checker solve (see the module docs).
///
/// * the `Auto` solve fails → its error;
/// * the two disagree beyond `tol` → [`SolveError::CrossCheckFailed`]
///   carrying both sets of measures;
/// * the checker fails → the solution with a
///   [`CrossCheckOutcome::CheckerFailed`] record.
pub fn solve_cross_checked(model: &Model, tol: f64) -> Result<(Solution, CrossCheck), SolveError> {
    let solution = solve(model, Algorithm::Auto)?;
    let checker = checker_for(model.dims().max_n());
    let outcome = match solve(model, checker) {
        Err(e) => {
            xbar_obs::inc("solver.cross_check.checker_failed");
            CrossCheckOutcome::CheckerFailed(e)
        }
        Ok(check) => {
            let gap = max_measure_gap(solution.measures(), check.measures());
            xbar_obs::record("solver.cross_check.gap", gap);
            if gap > tol {
                xbar_obs::inc("solver.cross_check.disagreed");
                return Err(SolveError::CrossCheckFailed(Box::new(CrossCheckFailure {
                    checker,
                    auto_measures: solution.measures().clone(),
                    checker_measures: check.measures().clone(),
                    max_rel_gap: gap,
                    tol,
                })));
            }
            xbar_obs::inc("solver.cross_check.agreed");
            CrossCheckOutcome::Agreed { max_rel_gap: gap }
        }
    };
    Ok((
        solution,
        CrossCheck {
            checker,
            tol,
            outcome,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn two_class(n: u32) -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.3))
            .with(TrafficClass::bpp(0.2, 0.08, 1.0));
        Model::new(Dims::square(n), w).expect("valid model")
    }

    #[test]
    fn small_switch_is_checked_against_convolution() {
        let (sol, check) = solve_cross_checked(&two_class(8), 1e-9).expect("solves");
        assert_eq!(sol.algorithm(), Algorithm::Auto);
        assert_eq!(check.checker, Algorithm::Convolution);
        assert!(matches!(check.outcome, CrossCheckOutcome::Agreed { .. }));
    }

    #[test]
    fn n200_is_checked_against_mva() {
        let w = Workload::new().with(TrafficClass::poisson(1e-5));
        let m = Model::new(Dims::square(200), w).expect("valid model");
        let (sol, check) = solve_cross_checked(&m, 1e-9).expect("solves");
        assert_eq!(check.checker, Algorithm::Mva);
        assert_eq!(check.tol, 1e-9);
        match check.outcome {
            CrossCheckOutcome::Agreed { max_rel_gap } => assert!(max_rel_gap <= 1e-12),
            ref other => panic!("expected agreement, got {other:?}"),
        }
        assert!(sol.blocking(0).is_finite());
    }

    #[test]
    fn cross_check_line_reads_like_a_trace() {
        let w = Workload::new().with(TrafficClass::poisson(1e-5));
        let m = Model::new(Dims::square(200), w).expect("valid model");
        let (_, check) = solve_cross_checked(&m, 1e-9).expect("solves");
        let line = check.to_string();
        assert!(line.starts_with("cross-check alg2-mva: agreed"), "{line}");
        assert!(line.ends_with("<= 1.0e-9)"), "{line}");

        let failed = CrossCheck {
            checker: Algorithm::Convolution,
            tol: 1e-9,
            outcome: CrossCheckOutcome::CheckerFailed(SolveError::Underflow(
                Algorithm::Convolution,
            )),
        };
        let line = failed.to_string();
        assert!(
            line.starts_with("cross-check alg3-convolution: checker failed ("),
            "{line}"
        );
        assert!(line.contains("under/overflowed"), "{line}");
    }

    #[test]
    fn checker_is_convolution_up_to_64_then_mva() {
        assert_eq!(checker_for(64), Algorithm::Convolution);
        assert_eq!(checker_for(65), Algorithm::Mva);
    }

    #[test]
    fn impossible_tolerance_fails_cross_check_with_both_answers() {
        // No two floating-point recursions agree to 1e-18.
        match solve_cross_checked(&two_class(12), 1e-18) {
            Err(SolveError::CrossCheckFailed(fail)) => {
                assert_eq!(fail.checker, Algorithm::Convolution);
                assert!(fail.max_rel_gap > 1e-18);
                assert_eq!(fail.auto_measures.classes.len(), 2);
                assert_eq!(fail.checker_measures.classes.len(), 2);
                assert_ne!(fail.auto_measures, fail.checker_measures);
                // And both answers are still sane probabilities.
                assert!(fail.auto_measures.validate().is_ok());
                assert!(fail.checker_measures.validate().is_ok());
            }
            Err(e) => panic!("expected CrossCheckFailed, got {e:?}"),
            Ok((_, check)) => panic!("expected CrossCheckFailed, got {check:?}"),
        }
    }
}
