#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Product-form performance analysis of an `N1 × N2` **asynchronous
//! multi-rate crossbar** with bursty (BPP) traffic — a full reproduction of
//! Stirpe & Pinsky, *"Performance Analysis of an Asynchronous Multi-rate
//! Crossbar with Bursty Traffic"*, SIGCOMM 1992.
//!
//! # The model
//!
//! An unbuffered circuit-switched crossbar has `N1` inputs and `N2` outputs.
//! A class-`r` connection occupies `a_r` inputs and `a_r` outputs for a
//! holding time with mean `1/μ_r` (any distribution — the chain is
//! insensitive). Requests arrive with state-dependent rate
//! `λ_r(k_r) = α_r + β_r·k_r` per port-tuple; blocked requests are cleared.
//! The state `k = (k_1, …, k_R)` (connections in progress per class) is a
//! reversible Markov chain with product-form stationary distribution
//!
//! ```text
//! π(k) = Ψ(k)·Π_r Φ_r(k_r) / G(N),
//! Ψ(k) = N1!/(N1−k·A)! · N2!/(N2−k·A)!,
//! Φ_r(k) = Π_{l=1..k} λ_r(l−1)/(l·μ_r).
//! ```
//!
//! # What this crate provides
//!
//! * [`Model`] — switch geometry ([`Dims`]) plus a
//!   [`Workload`](xbar_traffic::Workload) of BPP classes.
//! * [`brute`] — exact enumeration of `Γ(N)` (the ground-truth oracle).
//! * [`alg1`] — the paper's Algorithm 1: an `O(N1·N2·R)` lattice recursion
//!   on `Q(N) = G(N)/(N1!·N2!)`, in three numeric backends (plain `f64`,
//!   the paper's §6 dynamically-scaled `f64`, and extended-range floats).
//! * [`alg2`] — the paper's Algorithm 2: mean-value analysis on the ratios
//!   `F_i(N) = Q(N−1_i)/Q(N)`, which never leave probability scale.
//! * [`alg3`] — our occupancy-space convolution (Kaufman–Roberts style):
//!   a third independent route to every measure that additionally exposes
//!   the occupancy distribution and per-class marginals.
//! * [`measures`] — blocking / non-blocking probability, per-class
//!   concurrency, call-level acceptance, revenue `W` and its gradients
//!   (closed form where the paper has one, forward differences where it
//!   doesn't — §4).
//! * [`solver`] — a front-end that picks the right algorithm/backend for
//!   the requested size, following the paper's own guidance (Algorithm 1
//!   for `N ≤ 32`, Algorithm 2 / extended-range beyond); its
//!   [`solver::resilient`] submodule adds a fault-tolerant pipeline that
//!   escalates through backends on failure and cross-checks the winner
//!   against an independent algorithm.
//! * [`approx`] — the classical reduced-load (Erlang fixed-point)
//!   approximation, as the cheap baseline the exact analysis improves on.
//! * [`transient`] — uniformisation-based transient analysis `π(t)` for
//!   enumerable switches (beyond the paper's stationary-only scope).
//! * [`policy`] — trunk-reservation admission control, turning §4's
//!   shadow-price diagnosis into an enforceable policy (numerical chain
//!   solve; no product form).
//! * [`sensitivity`] — full cross-class Jacobians `∂B_r/∂ρ_s`,
//!   `∂E_r/∂ρ_s`, `∂W/∂·` (the matrix version of §4's gradients),
//!   computed exactly from the sweep partials (finite differences kept
//!   as a test oracle).
//! * [`sweep`] — the incremental sweep solver: per-class leave-one-out
//!   partial convolutions on the diagonal ray, answering one-class
//!   parameter edits in `O(C²/a)` instead of a full lattice solve, plus
//!   exact §4 gradients.
//! * [`simd`] — the multi-lane recombination kernel for the sweep hot
//!   loop, bit-for-bit equal to its scalar reference.
//! * [`fleet`] — batched anchor solves and sweep precomputes of many
//!   heterogeneous models over the persistent worker pool, with
//!   work-stealing sharding.
//!
//! # Quick example
//!
//! ```
//! use xbar_core::{Dims, Model, solver::{solve, Algorithm}};
//! use xbar_traffic::{TildeClass, Workload};
//!
//! // A 16×16 crossbar carrying one Poisson class and one peaky class.
//! let dims = Dims::square(16);
//! let workload = Workload::from_tilde(
//!     &[
//!         TildeClass::poisson(0.0012),
//!         TildeClass::bpp(0.0012, 0.0012, 1.0),
//!     ],
//!     dims.n2,
//! );
//! let model = Model::new(dims, workload).unwrap();
//! let sol = solve(&model, Algorithm::Auto).unwrap();
//! assert!(sol.blocking(0) > 0.0 && sol.blocking(0) < 0.01);
//! ```

pub mod alg1;
pub mod alg2;
pub mod alg3;
pub mod approx;
pub mod brute;
pub mod fleet;
pub mod measures;
pub mod model;
pub mod parallel;
pub mod policy;
pub mod sensitivity;
pub mod simd;
pub mod solver;
pub mod state;
pub mod sweep;
pub mod transient;

pub use fleet::{solve_fleet, sweep_many};
pub use measures::{ClassMeasures, SwitchMeasures};
pub use model::{Dims, Model, ModelError};
pub use sensitivity::{sensitivity, sensitivity_from, Sensitivity};
pub use solver::resilient::{solve_resilient, ResilientConfig, ResilientSolution, SolveReport};
pub use solver::{solve, solve_cached, Algorithm, Solution, SolveCache, SolveError};
pub use state::StateIter;
pub use sweep::{SweepGradients, SweepGrid, SweepSolution, SweepSolver};
