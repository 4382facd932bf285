#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Discrete-event simulation of the asynchronous `N1 × N2` circuit-switched
//! crossbar with state-dependent (BPP) arrivals and general service times.
//!
//! The paper analyses this system in closed form and lists "comparing our
//! analytical results with simulation" as future work (§8); this crate is
//! that simulator. It exists for three reasons:
//!
//! 1. **Validation** — an independent implementation of the *dynamics* (the
//!    analytic crates implement the *stationary distribution*); agreement
//!    is strong evidence both are right.
//! 2. **Insensitivity** — the product form is claimed insensitive to the
//!    holding-time distribution beyond its mean (paper §2, ref \[7\]); a
//!    simulator can actually swap distributions ([`ServiceDist`]) and
//!    check.
//! 3. **Beyond the model** — non-uniform (hot-spot) output traffic (the
//!    subject of the authors' companion paper \[28\]) and end-point retrial
//!    behaviour (probing the blocked-calls-cleared assumption) have no
//!    closed form; the simulators in [`hotspot`] and [`retrial`] cover
//!    them. Port-failure injection ([`faults`]) degrades the switch at
//!    runtime — something the perfect-switch product form cannot model,
//!    but whose static special case it *can* price (a switch with `f1`
//!    inputs and `f2` outputs down behaves like a fault-free
//!    `(N1−f1) × (N2−f2)` crossbar for its surviving traffic).
//!
//! # Structure
//!
//! The event-driven simulators ([`CrossbarSim`], [`HotspotSim`],
//! [`RetrialSim`], and the Omega network in `xbar-baselines`) share one
//! event core, [`events::Calendar`]: a clock, a calendar of scheduled
//! events, and one step that races the arrival clock (and the crossbar's
//! port-fault clock) against it. Each simulator supplies only its event
//! handlers. [`replay`] is the exception: it drives the admission engine
//! with an embedded jump chain counted in events, over the resident
//! rates of [`RateTable`], and needs no clock. The [`harness`] runs
//! replications of any of them through one replication loop.
//!
//! # Semantics (matching the product form exactly)
//!
//! A class-`r` request needs `a_r` inputs and `a_r` outputs. Consistently
//! with the stationary distribution `Ψ(k)·ΠΦ` (see DESIGN.md), class-`r`
//! requests arrive — in state `k_r` concurrent class-`r` connections — at
//! total rate `P(N1,a_r)·P(N2,a_r)·λ_r(k_r)` and pick an *ordered* tuple of
//! `a_r` inputs and one of `a_r` outputs uniformly; the request is accepted
//! iff all 2·`a_r` chosen ports are idle, else it is **cleared** (no
//! buffering, no retry). Holding times are i.i.d. with mean `1/μ_r` from
//! any [`ServiceDist`].
//!
//! # Example
//!
//! ```
//! use xbar_sim::{CrossbarSim, RunConfig, ServiceDist, SimConfig};
//! use xbar_traffic::TrafficClass;
//!
//! let cfg = SimConfig::new(8, 8)
//!     .with_class(TrafficClass::poisson(0.005), ServiceDist::exponential(1.0));
//! let mut sim = CrossbarSim::new(cfg, 42);
//! let report = sim.run(RunConfig {
//!     warmup: 100.0,
//!     duration: 5_000.0,
//!     batches: 10,
//! });
//! // Port utilisation ≈ 4%, so pair blocking sits around 8%.
//! assert!(report.classes[0].blocking.mean < 0.15);
//! ```

pub mod crossbar;
pub mod events;
pub mod faults;
pub mod harness;
pub mod hotspot;
pub mod rates;
pub mod replay;
pub mod retrial;
pub mod service;
pub mod stats;

pub use crossbar::{ClassReport, CrossbarSim, RunConfig, SimConfig, SimError, SimReport};
pub use faults::{FaultConfig, FaultReport};
pub use harness::{
    run_replications, run_retrial_replications, run_retrial_until_ci, run_sim_replications,
    run_sim_until_ci, run_until_ci, CiTarget, MergedClassReplay, MergedClassSim, RepConfig,
    ReplayReplications, RetrialReplications, SimReplications,
};
pub use hotspot::HotspotSim;
pub use rates::RateTable;
pub use replay::{replay, ClassReplay, ReplayConfig, ReplayReport};
pub use retrial::{RetrialConfig, RetrialReport, RetrialSim};
pub use service::ServiceDist;
pub use stats::{BatchMeans, Confidence, Estimate, Welford};
