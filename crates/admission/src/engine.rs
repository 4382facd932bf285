//! The online admission engine: `O(R)` admit/deny per event over
//! incrementally maintained product-form state.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use xbar_core::{sensitivity, Algorithm, Model, Sensitivity, SolveError};
use xbar_numeric::permutation;

use crate::policy::PolicySpec;

/// One call-level event offered to the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A class-`class` call requests admission.
    Arrival {
        /// Class index in model order.
        class: usize,
    },
    /// A previously admitted class-`class` call completes.
    Departure {
        /// Class index in model order.
        class: usize,
    },
}

/// The engine's answer to an arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// The call is admitted (and the engine state was advanced).
    Admit,
    /// The call is denied.
    Deny(DenyReason),
}

/// Why an arrival was denied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DenyReason {
    /// The ports do not fit: `k·A + a_r > min(N1,N2)` (or the drawn
    /// port tuple was busy, for callers that model tuple selection).
    Capacity,
    /// The ports fit but the policy's reservation threshold forbids the
    /// admission: `min(N1,N2) − k·A < a_r + t_r`.
    Policy,
}

/// A typed admission-engine failure.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionError {
    /// The policy's pricing gradients could not be computed (a failed
    /// sweep precompute, or a non-finite gradient).
    Solve(SolveError),
    /// A class index outside `0..R`.
    UnknownClass {
        /// The offending index.
        class: usize,
        /// Number of classes in the model.
        classes: usize,
    },
    /// A departure for a class with no connection in progress.
    NoConnection {
        /// The offending class.
        class: usize,
    },
    /// A trunk-reservation threshold vector of the wrong arity.
    ThresholdArity {
        /// Thresholds supplied.
        got: usize,
        /// Classes in the model.
        want: usize,
    },
    /// A restored occupancy vector of the wrong arity.
    StateArity {
        /// Classes in the restored state.
        got: usize,
        /// Classes in the model.
        want: usize,
    },
    /// A restored occupancy vector whose port usage exceeds capacity.
    StateOverCapacity {
        /// Restored port occupancy `k·A`.
        ka: u64,
        /// Connection-slot capacity `min(N1, N2)`.
        cap: u32,
    },
    /// Repricing refused: the pricing gradient's timestamp is older than
    /// the configured deadline, and the shadow policy must not price on
    /// a stale gradient (re-anchor to restamp it).
    StalePrices {
        /// Age of the cached gradient when pricing was attempted, in ms.
        age_ms: u64,
        /// The configured staleness deadline, in ms.
        deadline_ms: u64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Solve(e) => write!(f, "{e}"),
            AdmissionError::UnknownClass { class, classes } => {
                write!(f, "unknown class {class} (model has {classes})")
            }
            AdmissionError::NoConnection { class } => {
                write!(
                    f,
                    "departure for class {class} with no connection in progress"
                )
            }
            AdmissionError::ThresholdArity { got, want } => {
                write!(
                    f,
                    "policy needs one threshold per class: got {got}, want {want}"
                )
            }
            AdmissionError::StateArity { got, want } => {
                write!(
                    f,
                    "restored state needs one occupancy per class: got {got}, want {want}"
                )
            }
            AdmissionError::StateOverCapacity { ka, cap } => {
                write!(
                    f,
                    "restored state occupies {ka} ports but capacity is {cap}"
                )
            }
            AdmissionError::StalePrices {
                age_ms,
                deadline_ms,
            } => {
                write!(
                    f,
                    "pricing gradient is stale: {age_ms} ms old, deadline {deadline_ms} ms \
                     (re-anchor to refresh)"
                )
            }
        }
    }
}

impl std::error::Error for AdmissionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AdmissionError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

/// Engine construction parameters.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The admission policy.
    pub policy: PolicySpec,
    /// Backend of the shadow policy's pricing gradients (and of the
    /// analytic acceptance a replay checks against). `Auto` by default:
    /// scaled `f64` rays, extended range only where they are unhealthy.
    pub algorithm: Algorithm,
    /// Events between exact drift checks of the incremental log-weight
    /// (`0` disables periodic checks; [`AdmissionEngine::re_anchor`]
    /// remains available).
    pub check_interval: u64,
    /// Relative drift tolerance: the engine re-anchors when
    /// `|inc − exact| > drift_tol · max(1, |exact|)`.
    pub drift_tol: f64,
    /// Events per online repricing batch: every `n` events the engine
    /// re-derives the policy thresholds from its pricing gradients
    /// ([`AdmissionEngine::reprice_now`]). Event-count-driven so a
    /// WAL replay reproduces the cadence exactly. `None` (or `Some(0)`)
    /// disables repricing: the thresholds resolved in
    /// [`AdmissionEngine::new`] stand (the model never changes, so a
    /// pass would re-derive the same vector).
    pub reprice_batch: Option<u64>,
    /// Maximum age of the pricing gradient, counted from construction or
    /// the last [`AdmissionEngine::re_anchor`]: a reprice due after this
    /// deadline refuses with [`AdmissionError::StalePrices`] instead of
    /// pricing. `None` = no deadline (gradients only depend on the
    /// model, so they never *drift* — the deadline bounds how long a
    /// supervisor may serve prices without re-anchoring).
    pub price_deadline: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            policy: PolicySpec::CompleteSharing,
            algorithm: Algorithm::Auto,
            check_interval: 4096,
            drift_tol: 1e-9,
            reprice_batch: None,
            price_deadline: None,
        }
    }
}

/// Per-class decision counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Arrivals offered.
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals denied for capacity (ports don't fit / tuple busy).
    pub denied_capacity: u64,
    /// Arrivals denied by the reservation policy.
    pub denied_policy: u64,
}

/// Whole-engine counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed (arrivals, external blocks and departures).
    pub events: u64,
    /// Departures processed.
    pub departures: u64,
    /// Times the engine re-anchored.
    pub re_anchors: u64,
    /// Times a non-finite incremental delta forced an exact snap-back
    /// recomputation of the log-weight (λ = 0 transitions, propagated
    /// non-finite state). Silent before PR 6; see `admission.reanchor.*`.
    pub snap_backs: u64,
    /// Re-anchor attempts that failed. Kept in the snapshot format so
    /// existing snapshots load; a re-anchor cannot fail, so only a
    /// restored state sets it.
    pub re_anchor_failures: u64,
    /// Per-batch repricing passes attempted (successful or refused).
    pub reprice_batches: u64,
    /// Repricing passes that actually changed the threshold vector
    /// (always `≤ reprice_batches` — the exit-6 metrics invariant).
    pub reprice_updates: u64,
    /// Per-class decision split.
    pub per_class: Vec<ClassStats>,
}

impl EngineStats {
    /// Total arrivals offered.
    pub fn offered(&self) -> u64 {
        self.per_class.iter().map(|c| c.offered).sum()
    }

    /// Total arrivals admitted.
    pub fn admitted(&self) -> u64 {
        self.per_class.iter().map(|c| c.admitted).sum()
    }

    /// Total capacity denials.
    pub fn denied_capacity(&self) -> u64 {
        self.per_class.iter().map(|c| c.denied_capacity).sum()
    }

    /// Total policy denials.
    pub fn denied_policy(&self) -> u64 {
        self.per_class.iter().map(|c| c.denied_policy).sum()
    }
}

/// A portable capture of everything an [`AdmissionEngine`] accumulates at
/// runtime — the occupancy vector, the incremental log-weight (bit-exact),
/// and the decision counters. Everything *else* an engine holds (pricing
/// gradients, thresholds, capacities) is a pure function of the model and
/// [`EngineConfig`], so `new` + [`AdmissionEngine::restore_state`]
/// reconstructs an engine that behaves identically to the captured one —
/// the durability contract `xbar-serve` snapshots rely on.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineState {
    /// Occupancy vector `k` (one entry per class).
    pub k: Vec<u32>,
    /// The incrementally maintained `ln(π(k)/π(0))`, bit-exact: restoring
    /// it (rather than recomputing) reproduces the original engine's
    /// subsequent drift checks event-for-event.
    pub log_weight: f64,
    /// The effective spare-slot thresholds at capture time — the
    /// *pricing state*. Deterministic given the model and config, but
    /// captured explicitly so a recovered engine provably serves the
    /// same prices it served before the crash.
    pub thresholds: Vec<u32>,
    /// Events into the current repricing batch at capture time, so a
    /// recovered engine's next reprice fires after exactly the same
    /// event as the uninterrupted run's.
    pub reprice_events: u64,
    /// Decision and event counters.
    pub stats: EngineStats,
}

/// The shadow policy's pricing state: the model's §4 gradients, computed
/// once in [`AdmissionEngine::new`] (they depend only on the model), and
/// when they were last stamped fresh (for the staleness deadline).
struct Pricer {
    sens: Sensitivity,
    built: Instant,
}

/// The online admission-control engine. See the crate docs for the
/// incremental state it maintains and the re-anchoring contract.
pub struct AdmissionEngine {
    model: Model,
    cfg: EngineConfig,
    /// `min(N1, N2)` — the connection-slot capacity.
    cap: u32,
    /// Per-class bandwidth `a_r`.
    bw: Vec<u32>,
    /// `P(N1,a_r)·P(N2,a_r)` per class (availability denominator).
    tuple_count: Vec<f64>,
    /// Effective spare-slot thresholds (resolved from the policy).
    thresholds: Vec<u32>,
    /// Occupancy vector `k`.
    k: Vec<u32>,
    /// Port occupancy `k·A`.
    ka: u32,
    /// Incremental `ln(π(k)/π(0))`.
    log_weight: f64,
    /// Pricing state (present iff the policy consults gradients).
    pricer: Option<Pricer>,
    /// Events into the current repricing batch.
    reprice_events: u64,
    stats: EngineStats,
}

impl AdmissionEngine {
    /// Build an engine for `model`. A policy that consults gradients
    /// gets them here, from one sweep precompute; nothing later
    /// recomputes them.
    pub fn new(model: &Model, cfg: EngineConfig) -> Result<Self, AdmissionError> {
        let pricer = if cfg.policy.needs_sensitivity() {
            Some(Pricer {
                sens: sensitivity(model, cfg.algorithm).map_err(AdmissionError::Solve)?,
                built: Instant::now(),
            })
        } else {
            None
        };
        let thresholds = cfg
            .policy
            .thresholds(model.num_classes(), pricer.as_ref().map(|p| &p.sens))?;
        let dims = model.dims();
        let classes = model.workload().classes();
        let bw: Vec<u32> = classes.iter().map(|c| c.bandwidth).collect();
        let tuple_count = bw
            .iter()
            .map(|&a| permutation(dims.n1 as u64, a as u64) * permutation(dims.n2 as u64, a as u64))
            .collect();
        let r_count = classes.len();
        Ok(AdmissionEngine {
            model: model.clone(),
            cap: dims.min_n(),
            bw,
            tuple_count,
            thresholds,
            k: vec![0; r_count],
            ka: 0,
            log_weight: 0.0,
            pricer,
            reprice_events: 0,
            stats: EngineStats {
                per_class: vec![ClassStats::default(); r_count],
                ..EngineStats::default()
            },
            cfg,
        })
    }

    fn check_class(&self, class: usize) -> Result<(), AdmissionError> {
        if class >= self.k.len() {
            return Err(AdmissionError::UnknownClass {
                class,
                classes: self.k.len(),
            });
        }
        Ok(())
    }

    /// The pure policy decision for a class-`class` arrival in the
    /// current state — no state change, no accounting.
    pub fn decide(&self, class: usize) -> Result<Decision, AdmissionError> {
        self.check_class(class)?;
        let a = self.bw[class];
        if self.ka + a > self.cap {
            return Ok(Decision::Deny(DenyReason::Capacity));
        }
        if self.cap - self.ka < a + self.thresholds[class] {
            return Ok(Decision::Deny(DenyReason::Policy));
        }
        Ok(Decision::Admit)
    }

    /// Offer a class-`class` arrival: decide, advance the state if
    /// admitted, and account the outcome.
    pub fn offer(&mut self, class: usize) -> Result<Decision, AdmissionError> {
        let decision = self.decide(class)?;
        self.stats.per_class[class].offered += 1;
        match decision {
            Decision::Admit => {
                self.stats.per_class[class].admitted += 1;
                self.apply_arrival(class);
            }
            Decision::Deny(DenyReason::Capacity) => {
                self.stats.per_class[class].denied_capacity += 1
            }
            Decision::Deny(DenyReason::Policy) => self.stats.per_class[class].denied_policy += 1,
        }
        self.tick()?;
        Ok(decision)
    }

    /// Account a class-`class` arrival blocked *outside* the engine — a
    /// caller that models port-tuple selection found the drawn tuple
    /// busy. Counted as a capacity denial; no state change.
    pub fn record_blocked(&mut self, class: usize) -> Result<(), AdmissionError> {
        self.check_class(class)?;
        self.stats.per_class[class].offered += 1;
        self.stats.per_class[class].denied_capacity += 1;
        self.tick()
    }

    /// A previously admitted class-`class` call completes.
    pub fn depart(&mut self, class: usize) -> Result<(), AdmissionError> {
        self.check_class(class)?;
        if self.k[class] == 0 {
            return Err(AdmissionError::NoConnection { class });
        }
        self.apply_departure(class);
        self.stats.departures += 1;
        self.tick()
    }

    /// Apply one event; arrivals return the decision.
    pub fn apply(&mut self, event: Event) -> Result<Option<Decision>, AdmissionError> {
        match event {
            Event::Arrival { class } => self.offer(class).map(Some),
            Event::Departure { class } => self.depart(class).map(|()| None),
        }
    }

    /// The product-form log ratio for the transition `k → k + 1_class`
    /// taken from a state with `k_before` class connections and `ka_before`
    /// busy ports: `ln Ψ(k+1)/Ψ(k) + ln λ(k_before) − ln((k_before+1)μ)`.
    fn delta_log(&self, class: usize, k_before: u32, ka_before: u32) -> f64 {
        let dims = self.model.dims();
        let a = self.bw[class];
        let c = &self.model.workload().classes()[class];
        let mut d = 0.0f64;
        for j in ka_before..ka_before + a {
            d += ((dims.n1 - j) as f64).ln() + ((dims.n2 - j) as f64).ln();
        }
        d + c.lambda(k_before as u64).ln() - ((k_before + 1) as f64 * c.mu).ln()
    }

    fn apply_arrival(&mut self, class: usize) {
        let d = self.delta_log(class, self.k[class], self.ka);
        self.k[class] += 1;
        self.ka += self.bw[class];
        if d.is_finite() && self.log_weight.is_finite() {
            self.log_weight += d;
        } else {
            // λ = 0 transitions land in zero-probability states
            // (ln π = −∞); resolve exactly rather than propagating NaN.
            self.stats.snap_backs += 1;
            self.log_weight = self.exact_log_weight();
        }
    }

    fn apply_departure(&mut self, class: usize) {
        self.k[class] -= 1;
        self.ka -= self.bw[class];
        let d = self.delta_log(class, self.k[class], self.ka);
        if d.is_finite() && self.log_weight.is_finite() {
            self.log_weight -= d;
        } else {
            self.stats.snap_backs += 1;
            self.log_weight = self.exact_log_weight();
        }
    }

    /// Per-event bookkeeping: periodic exact drift check, then the
    /// per-batch repricing pass. Repricing runs *last* so that when it
    /// refuses ([`AdmissionError::StalePrices`]), the event itself has
    /// already been fully applied and accounted — the caller only lost
    /// the threshold refresh, not the event.
    fn tick(&mut self) -> Result<(), AdmissionError> {
        self.stats.events += 1;
        if self.cfg.check_interval > 0 && self.stats.events.is_multiple_of(self.cfg.check_interval)
        {
            let exact = self.exact_log_weight();
            let drift = (self.log_weight - exact).abs();
            // Negated so NaN drift (incomparable) also re-anchors.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(drift <= self.cfg.drift_tol * exact.abs().max(1.0)) {
                self.re_anchor().unwrap_or_else(|e| match e {});
            }
        }
        if let Some(batch) = self.cfg.reprice_batch {
            if batch > 0 {
                self.reprice_events += 1;
                if self.reprice_events >= batch {
                    // Reset *before* pricing so a refused reprice retries
                    // after a full fresh batch, not on every event.
                    self.reprice_events = 0;
                    self.reprice_now()?;
                }
            }
        }
        Ok(())
    }

    /// Re-derive the policy thresholds from the pricing gradients — the
    /// per-batch repricing pass, `O(R)`. Returns whether the thresholds
    /// changed.
    ///
    /// If a [`EngineConfig::price_deadline`] is set and the gradient is
    /// at least that old, the pass refuses with
    /// [`AdmissionError::StalePrices`] rather than serving prices a
    /// supervisor should have refreshed — the attempt is still counted in
    /// [`EngineStats::reprice_batches`].
    pub fn reprice_now(&mut self) -> Result<bool, AdmissionError> {
        self.stats.reprice_batches += 1;
        if let (Some(p), Some(deadline)) = (&self.pricer, self.cfg.price_deadline) {
            let age = p.built.elapsed();
            if age >= deadline {
                return Err(AdmissionError::StalePrices {
                    age_ms: age.as_millis() as u64,
                    deadline_ms: deadline.as_millis() as u64,
                });
            }
        }
        let thresholds = self
            .cfg
            .policy
            .thresholds(self.k.len(), self.pricer.as_ref().map(|p| &p.sens))?;
        let changed = thresholds != self.thresholds;
        if changed {
            self.stats.reprice_updates += 1;
            self.thresholds = thresholds;
        }
        Ok(changed)
    }

    /// Reset the incremental log-weight from an exact recomputation,
    /// restamp the pricing gradient as fresh, and count the re-anchor.
    /// The gradients and thresholds are functions of the model alone, so
    /// there is nothing analytic to recompute and nothing that can fail.
    pub fn re_anchor(&mut self) -> Result<(), Infallible> {
        self.log_weight = self.exact_log_weight();
        if let Some(p) = &mut self.pricer {
            p.built = Instant::now();
        }
        self.stats.re_anchors += 1;
        // `reprice_events` is deliberately *not* reset — the repricing
        // cadence is purely event-count-driven so a WAL replay reproduces
        // it exactly regardless of when drift checks re-anchored.
        Ok(())
    }

    /// Reset only the incremental log-weight from an exact recomputation,
    /// without counting a re-anchor or restamping the pricing gradient.
    /// This is the degraded-mode fallback a deadline-bound supervisor
    /// uses when a re-anchor has blown its latency budget: drift is
    /// corrected, the anchor stays marked stale.
    pub fn reset_weight(&mut self) {
        self.log_weight = self.exact_log_weight();
    }

    /// `ln(π(k)/π(0))` recomputed from scratch (`O(k·A + Σ_r k_r)`):
    /// `ln Ψ(k) + Σ_r Σ_{l=1..k_r} [ln λ_r(l−1) − ln(l·μ_r)]`.
    pub fn exact_log_weight(&self) -> f64 {
        let dims = self.model.dims();
        let mut s = 0.0f64;
        for j in 0..self.ka {
            s += ((dims.n1 - j) as f64).ln() + ((dims.n2 - j) as f64).ln();
        }
        for (r, c) in self.model.workload().classes().iter().enumerate() {
            for l in 1..=self.k[r] {
                s += c.lambda((l - 1) as u64).ln() - (l as f64 * c.mu).ln();
            }
        }
        s
    }

    /// The incrementally maintained `ln(π(k)/π(0))`.
    pub fn log_weight(&self) -> f64 {
        self.log_weight
    }

    /// Probability that a uniformly drawn class-`class` port tuple is
    /// fully idle in the current state —
    /// `P(N1−k·A, a)·P(N2−k·A, a) / (P(N1,a)·P(N2,a))`, the state-wise
    /// integrand of the paper's `B_r`.
    pub fn availability(&self, class: usize) -> f64 {
        let dims = self.model.dims();
        let a = self.bw[class] as u64;
        permutation((dims.n1 - self.ka) as u64, a) * permutation((dims.n2 - self.ka) as u64, a)
            / self.tuple_count[class]
    }

    /// Current occupancy vector `k`.
    pub fn state(&self) -> &[u32] {
        &self.k
    }

    /// Current port occupancy `k·A`.
    pub fn occupancy(&self) -> u32 {
        self.ka
    }

    /// Connection-slot capacity `min(N1, N2)`.
    pub fn capacity(&self) -> u32 {
        self.cap
    }

    /// The model this engine serves.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Effective per-class spare-slot thresholds.
    pub fn thresholds(&self) -> &[u32] {
        &self.thresholds
    }

    /// Decision and event counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Capture the engine's runtime state for durable snapshots.
    pub fn export_state(&self) -> EngineState {
        EngineState {
            k: self.k.clone(),
            log_weight: self.log_weight,
            thresholds: self.thresholds.clone(),
            reprice_events: self.reprice_events,
            stats: self.stats.clone(),
        }
    }

    /// Restore a previously [exported](AdmissionEngine::export_state)
    /// runtime state into this engine (built with the *same* model and
    /// config). The occupancy vector is validated against the model —
    /// wrong arity or over-capacity port usage is a typed error and leaves
    /// the engine untouched. The log-weight is restored bit-exactly, not
    /// recomputed, so replaying the same events afterwards reproduces the
    /// original run's drift checks and counters exactly.
    pub fn restore_state(&mut self, state: &EngineState) -> Result<(), AdmissionError> {
        if state.k.len() != self.k.len() || state.stats.per_class.len() != self.k.len() {
            return Err(AdmissionError::StateArity {
                got: state.k.len(),
                want: self.k.len(),
            });
        }
        if state.thresholds.len() != self.k.len() {
            return Err(AdmissionError::ThresholdArity {
                got: state.thresholds.len(),
                want: self.k.len(),
            });
        }
        let ka: u64 = state
            .k
            .iter()
            .zip(&self.bw)
            .map(|(&k, &a)| k as u64 * a as u64)
            .sum();
        if ka > self.cap as u64 {
            return Err(AdmissionError::StateOverCapacity { ka, cap: self.cap });
        }
        self.k = state.k.clone();
        self.ka = ka as u32;
        self.log_weight = state.log_weight;
        self.thresholds = state.thresholds.clone();
        self.reprice_events = state.reprice_events;
        self.stats = state.stats.clone();
        Ok(())
    }

    /// Flush the decision counters into the active observability sink
    /// (aggregate totals plus the per-class admit/deny split). Call once
    /// per run, like the simulator does — the hot path stays untouched.
    pub fn flush_obs(&self) {
        if !xbar_obs::enabled() {
            return;
        }
        xbar_obs::add("admission.events", self.stats.events);
        xbar_obs::add("admission.offers", self.stats.offered());
        xbar_obs::add("admission.admitted", self.stats.admitted());
        xbar_obs::add("admission.denied.capacity", self.stats.denied_capacity());
        xbar_obs::add("admission.denied.policy", self.stats.denied_policy());
        xbar_obs::add("admission.departures", self.stats.departures);
        xbar_obs::add("admission.reanchors", self.stats.re_anchors);
        xbar_obs::add("admission.reanchor.count", self.stats.re_anchors);
        xbar_obs::add("admission.reanchor.snap_backs", self.stats.snap_backs);
        xbar_obs::add("admission.reanchor.failures", self.stats.re_anchor_failures);
        xbar_obs::add("admission.reprice.batches", self.stats.reprice_batches);
        xbar_obs::add("admission.reprice.updates", self.stats.reprice_updates);
        for (r, c) in self.stats.per_class.iter().enumerate() {
            xbar_obs::add(&format!("admission.admit.class{r}"), c.admitted);
            xbar_obs::add(
                &format!("admission.deny.capacity.class{r}"),
                c.denied_capacity,
            );
            xbar_obs::add(&format!("admission.deny.policy.class{r}"), c.denied_policy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::brute::Brute;
    use xbar_core::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn two_class_model() -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.15).with_weight(1.0))
            .with(TrafficClass::bpp(0.1, 0.05, 1.0).with_weight(0.1));
        Model::new(Dims::square(5), w).unwrap()
    }

    fn engine(model: &Model, policy: PolicySpec) -> AdmissionEngine {
        AdmissionEngine::new(
            model,
            EngineConfig {
                policy,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn complete_sharing_admits_to_capacity_then_denies() {
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        for i in 0..5 {
            assert_eq!(e.offer(0).unwrap(), Decision::Admit, "call {i}");
        }
        assert_eq!(e.occupancy(), 5);
        assert_eq!(e.offer(0).unwrap(), Decision::Deny(DenyReason::Capacity));
        assert_eq!(e.offer(1).unwrap(), Decision::Deny(DenyReason::Capacity));
        e.depart(0).unwrap();
        assert_eq!(e.offer(1).unwrap(), Decision::Admit);
        let s = e.stats();
        assert_eq!(s.offered(), 8);
        assert_eq!(s.admitted(), 6);
        assert_eq!(s.denied_capacity(), 2);
        assert_eq!(s.denied_policy(), 0);
        assert_eq!(s.departures, 1);
    }

    #[test]
    fn trunk_reservation_denies_with_policy_reason() {
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::TrunkReservation(vec![0, 2]));
        // Fill to cap − 2: class 1 still fits by capacity but not policy.
        for _ in 0..3 {
            assert_eq!(e.offer(0).unwrap(), Decision::Admit);
        }
        assert_eq!(e.offer(1).unwrap(), Decision::Deny(DenyReason::Policy));
        assert_eq!(e.offer(0).unwrap(), Decision::Admit);
        // Now ka = 4, cap = 5: class 1 fits by neither; capacity wins the
        // classification only when the ports genuinely don't fit.
        assert_eq!(e.offer(0).unwrap(), Decision::Admit);
        assert_eq!(e.offer(1).unwrap(), Decision::Deny(DenyReason::Capacity));
    }

    #[test]
    fn boundary_state_at_full_occupancy_denies_everything() {
        // k·A = min(N1,N2) exactly: every class must be denied Capacity.
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        while e.occupancy() < e.capacity() {
            e.offer(0).unwrap();
        }
        for r in 0..2 {
            assert_eq!(e.decide(r).unwrap(), Decision::Deny(DenyReason::Capacity));
            assert_eq!(e.availability(r), 0.0);
        }
    }

    #[test]
    fn log_weight_matches_brute_force_ratio() {
        let m = two_class_model();
        let brute = Brute::new(&m);
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        let seq: [(bool, usize); 9] = [
            (true, 0),
            (true, 1),
            (true, 0),
            (false, 0),
            (true, 1),
            (true, 0),
            (false, 1),
            (true, 0),
            (true, 1),
        ];
        for &(arrival, class) in &seq {
            if arrival {
                e.offer(class).unwrap();
            } else {
                e.depart(class).unwrap();
            }
        }
        let pi0 = brute.pi(&[0, 0]);
        let pik = brute.pi(e.state());
        let want = (pik / pi0).ln();
        assert!(
            (e.log_weight() - want).abs() < 1e-10,
            "{} vs {}",
            e.log_weight(),
            want
        );
        assert!((e.log_weight() - e.exact_log_weight()).abs() < 1e-10);
    }

    #[test]
    fn errors_are_typed() {
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        assert_eq!(
            e.decide(7),
            Err(AdmissionError::UnknownClass {
                class: 7,
                classes: 2
            })
        );
        assert_eq!(e.depart(0), Err(AdmissionError::NoConnection { class: 0 }));
        assert_eq!(
            AdmissionEngine::new(
                &m,
                EngineConfig {
                    policy: PolicySpec::TrunkReservation(vec![0]),
                    ..EngineConfig::default()
                }
            )
            .err(),
            Some(AdmissionError::ThresholdArity { got: 1, want: 2 })
        );
    }

    #[test]
    fn shadow_policy_throttles_only_unprofitable_classes() {
        // A cheap, hungry class next to a valuable one: the §4 gradient is
        // negative for the cheap class, so the shadow policy must assign
        // it (and only it) the reserve threshold.
        let w = Workload::new()
            .with(TrafficClass::poisson(0.25).with_weight(1.0))
            .with(TrafficClass::poisson(0.5).with_weight(0.01));
        let m = Model::new(Dims::square(4), w).unwrap();
        let e = engine(&m, PolicySpec::ShadowPrice { reserve: 2 });
        assert_eq!(e.thresholds(), &[0, 2]);
    }

    #[test]
    fn re_anchor_resets_weight_and_counts() {
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        e.offer(0).unwrap();
        e.offer(1).unwrap();
        e.re_anchor().unwrap();
        assert_eq!(e.stats().re_anchors, 1);
        assert_eq!(e.log_weight(), e.exact_log_weight());
    }

    #[test]
    fn explicit_scaled_pricing_builds_with_auto_thresholds() {
        // The scaled precompute is healthy here, and a scaled derivative
        // ray of the full Φ series overflowed: the engine once refused to
        // start. Gradients now come from the healthy full ray alone, so
        // the explicit scaled engine builds and prices as `Auto` does.
        let w = Workload::new()
            .with(TrafficClass::poisson(5.0))
            .with(TrafficClass::poisson(1e-3));
        let m = Model::new(Dims::square(128), w).unwrap();
        let cfg = |algorithm| EngineConfig {
            policy: PolicySpec::ShadowPrice { reserve: 2 },
            algorithm,
            ..EngineConfig::default()
        };
        let scaled = AdmissionEngine::new(&m, cfg(Algorithm::Alg1Scaled)).unwrap();
        let auto = AdmissionEngine::new(&m, cfg(Algorithm::Auto)).unwrap();
        assert_eq!(scaled.thresholds(), auto.thresholds());
    }

    #[test]
    fn drift_check_re_anchors_automatically() {
        // check_interval 1 + zero tolerance: any representable drift
        // between the incremental sum and the exact recomputation forces
        // a re-anchor; after enough events under an inexact λ some must
        // fire, and the state stays exactly consistent.
        let m = two_class_model();
        let mut e = AdmissionEngine::new(
            &m,
            EngineConfig {
                check_interval: 1,
                drift_tol: 0.0,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for i in 0..200u32 {
            let class = (i % 2) as usize;
            if e.decide(class).unwrap() == Decision::Admit && i % 3 != 2 {
                e.offer(class).unwrap();
            } else if e.state()[class] > 0 {
                e.depart(class).unwrap();
            }
        }
        assert_eq!(e.log_weight(), e.exact_log_weight());
        assert!(e.stats().re_anchors > 0, "no drift in 200 events");
    }

    #[test]
    fn bernoulli_fill_drain_cycle_returns_to_zero_weight() {
        // S = 5 sources saturating a 5×5 switch: the last admitted call
        // uses the smallest λ the model permits (λ(4) = β·1). A full
        // fill/drain cycle must retrace the weight back to ln π̃(0) = 0
        // without accumulating error.
        let w = Workload::new().with(TrafficClass::bpp(0.5, -0.1, 1.0));
        let m = Model::new(Dims::square(5), w).unwrap();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        for _ in 0..5 {
            assert_eq!(e.offer(0).unwrap(), Decision::Admit);
        }
        assert_eq!(e.offer(0).unwrap(), Decision::Deny(DenyReason::Capacity));
        assert!((e.log_weight() - e.exact_log_weight()).abs() < 1e-10);
        for _ in 0..5 {
            e.depart(0).unwrap();
        }
        assert!(e.log_weight().abs() < 1e-10, "{}", e.log_weight());
    }

    #[test]
    fn export_restore_round_trips_bit_exactly() {
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        for i in 0..7u32 {
            let class = (i % 2) as usize;
            if e.decide(class).unwrap() == Decision::Admit {
                e.offer(class).unwrap();
            }
        }
        e.depart(0).unwrap();
        let state = e.export_state();
        // Restore into a fresh engine and drive both through the same
        // suffix: decisions, counters and the weight must stay identical.
        let mut f = engine(&m, PolicySpec::CompleteSharing);
        f.restore_state(&state).unwrap();
        assert_eq!(f.state(), e.state());
        assert_eq!(f.occupancy(), e.occupancy());
        assert_eq!(f.log_weight().to_bits(), e.log_weight().to_bits());
        assert_eq!(f.stats(), e.stats());
        for i in 0..20u32 {
            let class = (i % 2) as usize;
            assert_eq!(e.decide(class).unwrap(), f.decide(class).unwrap());
            if e.decide(class).unwrap() == Decision::Admit {
                e.offer(class).unwrap();
                f.offer(class).unwrap();
            } else if e.state()[class] > 0 {
                e.depart(class).unwrap();
                f.depart(class).unwrap();
            }
        }
        assert_eq!(f.log_weight().to_bits(), e.log_weight().to_bits());
        assert_eq!(f.stats(), e.stats());
    }

    #[test]
    fn restore_rejects_wrong_arity_and_over_capacity() {
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        let mut bad = e.export_state();
        bad.k = vec![0; 3];
        bad.stats.per_class = vec![ClassStats::default(); 3];
        assert_eq!(
            e.restore_state(&bad),
            Err(AdmissionError::StateArity { got: 3, want: 2 })
        );
        let mut over = e.export_state();
        over.k = vec![9, 0]; // 9 ports > cap 5
        assert_eq!(
            e.restore_state(&over),
            Err(AdmissionError::StateOverCapacity { ka: 9, cap: 5 })
        );
        // Failed restores leave the engine untouched.
        assert_eq!(e.state(), &[0, 0]);
    }

    #[test]
    fn snap_backs_are_counted_not_silent() {
        // Model validation keeps λ positive inside the lattice, so the
        // non-finite guard's reachable trigger is a poisoned *weight* —
        // e.g. a corrupted snapshot restored into a healthy engine. The
        // next event must snap back to the exact recomputation (healing
        // the state) and count it instead of doing so silently.
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        e.offer(0).unwrap();
        let mut poisoned = e.export_state();
        poisoned.log_weight = f64::NAN;
        e.restore_state(&poisoned).unwrap();
        assert_eq!(e.stats().snap_backs, 0);
        assert_eq!(e.offer(0).unwrap(), Decision::Admit);
        assert_eq!(e.stats().snap_backs, 1, "snap-back not counted");
        assert_eq!(e.log_weight(), e.exact_log_weight());
        // Healed: subsequent events are finite and do not snap back again.
        e.offer(1).unwrap();
        assert_eq!(e.stats().snap_backs, 1);
    }

    #[test]
    fn reset_weight_corrects_drift_without_touching_the_anchor() {
        let m = two_class_model();
        let mut e = engine(&m, PolicySpec::CompleteSharing);
        e.offer(0).unwrap();
        e.offer(1).unwrap();
        let anchors_before = e.stats().re_anchors;
        e.reset_weight();
        assert_eq!(e.log_weight(), e.exact_log_weight());
        assert_eq!(e.stats().re_anchors, anchors_before, "anchor refreshed");
    }

    #[test]
    fn flush_obs_exports_the_decision_split() {
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let m = two_class_model();
        {
            let _g = xbar_obs::scope(&reg);
            let mut e = engine(&m, PolicySpec::TrunkReservation(vec![0, 2]));
            for _ in 0..4 {
                e.offer(0).unwrap();
            }
            e.offer(1).unwrap(); // policy deny at ka = 4
            e.offer(0).unwrap(); // admit (ka 4 → 5)
            e.offer(0).unwrap(); // capacity deny
            e.re_anchor().unwrap();
            e.flush_obs();
        }
        let snap = reg.snapshot();
        let c = |n: &str| snap.counter(n).unwrap_or(0);
        assert_eq!(c("admission.offers"), 7);
        assert_eq!(c("admission.admitted"), 5);
        assert_eq!(c("admission.denied.capacity"), 1);
        assert_eq!(c("admission.denied.policy"), 1);
        assert_eq!(c("admission.reanchors"), 1);
        assert_eq!(c("admission.admit.class0"), 5);
        assert_eq!(c("admission.deny.policy.class1"), 1);
        assert_eq!(
            c("admission.offers"),
            c("admission.admitted") + c("admission.denied.capacity") + c("admission.denied.policy"),
        );
    }

    fn shadow_model() -> Model {
        // Same cheap-hungry vs valuable pair as the shadow-policy test,
        // so the repriced thresholds are non-trivial ([0, reserve]).
        let w = Workload::new()
            .with(TrafficClass::poisson(0.25).with_weight(1.0))
            .with(TrafficClass::poisson(0.5).with_weight(0.01));
        Model::new(Dims::square(4), w).unwrap()
    }

    #[test]
    fn repriced_thresholds_match_a_fresh_sensitivity_anchor() {
        // Per-batch repricing must serve the *same* thresholds a fresh
        // full sensitivity() anchor would — bit-identical, since the
        // cached gradients depend only on the model.
        let m = shadow_model();
        let policy = PolicySpec::ShadowPrice { reserve: 2 };
        let mut repriced = AdmissionEngine::new(
            &m,
            EngineConfig {
                policy: policy.clone(),
                reprice_batch: Some(3),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let fresh = engine(&m, policy);
        assert_eq!(repriced.thresholds(), fresh.thresholds());
        for i in 0..30u32 {
            let class = (i % 2) as usize;
            if repriced.decide(class).unwrap() == Decision::Admit && i % 3 != 2 {
                repriced.offer(class).unwrap();
            } else if repriced.state()[class] > 0 {
                repriced.depart(class).unwrap();
            } else {
                repriced.record_blocked(class).unwrap();
            }
            assert_eq!(repriced.thresholds(), fresh.thresholds(), "event {i}");
        }
        let s = repriced.stats();
        assert_eq!(s.reprice_batches, s.events / 3, "one pass per batch");
        // The model never changes, so the prices never move.
        assert_eq!(s.reprice_updates, 0);
        assert!(s.reprice_updates <= s.reprice_batches);
    }

    #[test]
    fn reprice_counters_respect_the_updates_le_batches_invariant() {
        // Static policies reprice too (to the same static vector), so
        // batches advance while updates stay at zero.
        let m = two_class_model();
        let mut e = AdmissionEngine::new(
            &m,
            EngineConfig {
                policy: PolicySpec::TrunkReservation(vec![0, 2]),
                reprice_batch: Some(2),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for _ in 0..8 {
            e.offer(0).unwrap();
        }
        let s = e.stats();
        assert_eq!(s.reprice_batches, 4);
        assert_eq!(s.reprice_updates, 0);
        assert!(s.reprice_updates <= s.reprice_batches);
        assert!(e.reprice_now().is_ok());
        assert_eq!(e.stats().reprice_batches, 5);
    }

    #[test]
    fn stale_prices_are_refused_not_served() {
        // Regression for the silent-staleness gap: with a zero deadline
        // every reprice attempt finds the gradient already expired and
        // must refuse with the typed error instead of pricing on it.
        // The triggering event is still fully applied and accounted.
        let m = shadow_model();
        let mut e = AdmissionEngine::new(
            &m,
            EngineConfig {
                policy: PolicySpec::ShadowPrice { reserve: 2 },
                reprice_batch: Some(1),
                price_deadline: Some(Duration::ZERO),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let err = e.offer(0).unwrap_err();
        assert!(
            matches!(err, AdmissionError::StalePrices { deadline_ms: 0, .. }),
            "{err:?}"
        );
        // The arrival itself landed before the refusal.
        assert_eq!(e.stats().per_class[0].offered, 1);
        assert_eq!(e.stats().per_class[0].admitted, 1);
        assert_eq!(e.state(), &[1, 0]);
        assert_eq!(e.stats().reprice_batches, 1);
        assert_eq!(e.stats().reprice_updates, 0);
        // Without the deadline the same engine would price normally —
        // prove the refusal is purely the deadline by relaxing it.
        let mut relaxed = AdmissionEngine::new(
            &m,
            EngineConfig {
                policy: PolicySpec::ShadowPrice { reserve: 2 },
                reprice_batch: Some(1),
                price_deadline: None,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(relaxed.offer(0).unwrap(), Decision::Admit);
        assert_eq!(relaxed.stats().reprice_batches, 1);
    }

    #[test]
    fn failed_reprice_retries_after_a_full_batch() {
        // The batch counter resets before the pricing attempt, so a
        // refused pass doesn't turn into a per-event refusal storm.
        let m = shadow_model();
        let mut e = AdmissionEngine::new(
            &m,
            EngineConfig {
                policy: PolicySpec::ShadowPrice { reserve: 2 },
                reprice_batch: Some(3),
                price_deadline: Some(Duration::ZERO),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert_eq!(e.offer(0).unwrap(), Decision::Admit);
        assert_eq!(e.offer(1).unwrap(), Decision::Admit);
        assert!(e.offer(0).is_err(), "batch boundary must refuse");
        // Two more events pass quietly before the next refusal.
        e.depart(0).unwrap();
        e.depart(1).unwrap();
        assert!(e.depart(0).is_err());
        assert_eq!(e.stats().reprice_batches, 2);
    }

    #[test]
    fn export_restore_round_trips_the_pricing_state() {
        let m = shadow_model();
        let cfg = EngineConfig {
            policy: PolicySpec::ShadowPrice { reserve: 2 },
            reprice_batch: Some(5),
            ..EngineConfig::default()
        };
        let mut e = AdmissionEngine::new(&m, cfg.clone()).unwrap();
        for i in 0..7u32 {
            let class = (i % 2) as usize;
            if e.decide(class).unwrap() == Decision::Admit {
                e.offer(class).unwrap();
            } else {
                e.record_blocked(class).unwrap();
            }
        }
        let state = e.export_state();
        assert_eq!(state.thresholds, e.thresholds());
        assert_eq!(state.reprice_events, 2, "7 events into batches of 5");
        let mut f = AdmissionEngine::new(&m, cfg).unwrap();
        f.restore_state(&state).unwrap();
        // Drive both to the next batch boundary: the recovered engine's
        // reprice must fire on exactly the same event.
        for i in 0..6u32 {
            let class = (i % 2) as usize;
            if e.decide(class).unwrap() == Decision::Admit {
                e.offer(class).unwrap();
                f.offer(class).unwrap();
            } else {
                e.record_blocked(class).unwrap();
                f.record_blocked(class).unwrap();
            }
        }
        assert_eq!(f.stats(), e.stats());
        assert_eq!(f.thresholds(), e.thresholds());
        assert_eq!(f.export_state(), e.export_state());
        // Arity of the restored thresholds is validated.
        let mut bad = e.export_state();
        bad.thresholds = vec![0; 3];
        assert_eq!(
            f.restore_state(&bad),
            Err(AdmissionError::ThresholdArity { got: 3, want: 2 })
        );
    }

    #[test]
    fn flush_obs_exports_reprice_counters() {
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let m = shadow_model();
        {
            let _g = xbar_obs::scope(&reg);
            let mut e = AdmissionEngine::new(
                &m,
                EngineConfig {
                    policy: PolicySpec::ShadowPrice { reserve: 2 },
                    reprice_batch: Some(2),
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            for _ in 0..6 {
                let _ = e.offer(0).unwrap();
            }
            e.flush_obs();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("admission.reprice.batches"), Some(3));
        assert_eq!(snap.counter("admission.reprice.updates"), Some(0));
    }
}
