#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Online admission control for the asynchronous multi-rate crossbar.
//!
//! The paper evaluates its measures — the non-blocking probabilities
//! `B_r`, the MVA ratios `F_i(N) = Q(N−1_i)/Q(N)` and the §4 shadow
//! prices — in offline batch sweeps. This crate turns them into the
//! quantities a switch controller consults *at call-setup time*: an
//! [`AdmissionEngine`] ingests a stream of per-class arrival/departure
//! events and answers admit/deny in `O(R)` work per event.
//!
//! The engine prices from the product form alone. A policy that consults
//! the §4 shadow prices gets them from one sweep precompute
//! ([`xbar_core::sensitivity()`]) in [`AdmissionEngine::new`]; they are
//! functions of the model's parameters, not of the occupancy, so nothing
//! recomputes them while the engine lives. Between events the engine
//! maintains, incrementally:
//!
//! - the occupancy vector `k` and the port occupancy `k·A`;
//! - the log stationary weight `ln π̃(k) = ln(π(k)/π(0))` of the current
//!   state, updated with one `O(a_r)` delta per event (the product-form
//!   birth/death ratio `Ψ(k+1_r)/Ψ(k) · λ_r(k_r)/((k_r+1)μ_r)`);
//! - per-class instantaneous tuple availability, derivable in `O(a_r)`
//!   from `k·A` alone.
//!
//! The incremental log-weight is a long sum of floating-point deltas, so
//! it drifts. Every `check_interval` events the engine recomputes the
//! weight exactly (an `O(N)` scan) and, when the gap exceeds
//! `drift_tol`, **re-anchors**: the weight is reset from the exact
//! recomputation and the pricing gradient is restamped as fresh. A
//! re-anchor solves nothing and cannot fail.
//!
//! Three [`PolicySpec`]s are pluggable: complete sharing (the paper's
//! model), per-class trunk reservation (the semantics of
//! [`xbar_core::policy::solve_policy`]), and revenue-aware shadow-price
//! thresholding derived from [`xbar_core::sensitivity()`].

pub mod engine;
pub mod policy;

pub use engine::{
    AdmissionEngine, AdmissionError, ClassStats, Decision, DenyReason, EngineConfig, EngineState,
    EngineStats, Event,
};
pub use policy::PolicySpec;
