#![warn(missing_docs)]

//! `xbar` — performance analysis of asynchronous multi-rate crossbar
//! switches with bursty (BPP) traffic.
//!
//! This facade crate re-exports the whole public API of the workspace
//! reproducing Stirpe & Pinsky, *"Performance Analysis of an Asynchronous
//! Multi-rate Crossbar with Bursty Traffic"* (SIGCOMM 1992):
//!
//! * [`traffic`] — BPP traffic classes (Bernoulli / Poisson / Pascal),
//!   peakedness, fitting, tilde-parameter conversion;
//! * [`analytic`] — the product-form model, Algorithms 1 & 2, all
//!   performance measures and revenue gradients;
//! * [`sim`] — a discrete-event simulator of the same switch with general
//!   service times and hot-spot traffic;
//! * [`baselines`] — Erlang-B, the synchronous slotted crossbar, and an
//!   Omega multistage network for comparison;
//! * [`serve`] — a fault-tolerant multi-tenant admission daemon over the
//!   online engine, with WAL + snapshot durability, supervised restarts,
//!   and load shedding;
//! * [`plan`] — gradient-guided capacity planning: search a design space
//!   of geometries and offered loads for the revenue-maximal design that
//!   honours per-class blocking SLOs;
//! * [`numeric`] — the extended-range floats and special functions
//!   underpinning it all.
//!
//! The most common entry points are lifted to the crate root.
//!
//! ```
//! use xbar::{solve, Algorithm, Dims, Model, TildeClass, Workload};
//!
//! // A 32×32 optical crossbar carrying voice-like smooth traffic and
//! // bursty video at 2 ports per connection.
//! let dims = Dims::square(32);
//! let workload = Workload::from_tilde(
//!     &[
//!         TildeClass::bpp(0.0024, -2.0e-6, 1.0),          // smooth, S=1200
//!         TildeClass::bpp(0.001, 0.0005, 1.0).with_bandwidth(2), // peaky
//!     ],
//!     dims.n2,
//! );
//! let sol = solve(&Model::new(dims, workload).unwrap(), Algorithm::Auto).unwrap();
//! assert!(sol.blocking(1) > sol.blocking(0)); // wide+peaky blocks more
//! ```

pub mod cli;

pub use xbar_baselines as baselines;
pub use xbar_core as analytic;
pub use xbar_numeric as numeric;
pub use xbar_obs as obs;
pub use xbar_plan as plan;
pub use xbar_serve as serve;
pub use xbar_sim as sim;
pub use xbar_traffic as traffic;

pub use xbar_core::{
    solve, solve_cross_checked, Algorithm, Dims, Model, ModelError, Solution, SwitchMeasures,
};
pub use xbar_sim::{
    run_replications, run_sim_replications, run_sim_until_ci, run_until_ci, CiTarget, CrossbarSim,
    FaultConfig, RepConfig, RunConfig, ServiceDist, SimConfig, SimError, SimReplications,
};
pub use xbar_traffic::{Burstiness, TildeClass, TrafficClass, Workload};
