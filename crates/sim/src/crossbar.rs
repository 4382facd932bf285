//! The asynchronous crossbar discrete-event simulator.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xbar_numeric::permutation;
use xbar_traffic::{TrafficClass, TrafficError};

use crate::events::Calendar;
use crate::faults::{FaultConfig, FaultLayer, FaultReport, Side};
use crate::rates::RateTable;
use crate::service::ServiceDist;
use crate::stats::{BatchMeans, Confidence, Estimate};

/// Static simulation configuration: switch geometry plus one
/// (traffic class, holding-time distribution) pair per class.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Inputs `N1`.
    pub n1: u32,
    /// Outputs `N2`.
    pub n2: u32,
    /// Classes with their holding-time laws. The class's `μ` is used for
    /// the *rate* bookkeeping; the distribution's mean should equal `1/μ`
    /// (checked at construction).
    pub classes: Vec<(TrafficClass, ServiceDist)>,
    /// Port-failure injection (off by default; see [`FaultConfig`]).
    pub faults: FaultConfig,
}

impl SimConfig {
    /// An empty config for an `n1 × n2` switch.
    pub fn new(n1: u32, n2: u32) -> Self {
        SimConfig {
            n1,
            n2,
            classes: Vec::new(),
            faults: FaultConfig::none(),
        }
    }

    /// Add a class (builder style).
    pub fn with_class(mut self, class: TrafficClass, service: ServiceDist) -> Self {
        self.classes.push((class, service));
        self
    }

    /// Add a class with its canonical exponential holding time.
    pub fn with_exp_class(self, class: TrafficClass) -> Self {
        let mu = class.mu;
        self.with_class(class, ServiceDist::exponential(mu))
    }

    /// Enable port-failure injection (builder style).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// Why a simulator could not be constructed from a [`SimConfig`].
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// `n1` or `n2` is zero.
    NoPorts,
    /// The config has no traffic classes.
    NoClasses,
    /// A class failed BPP validation for this geometry.
    InvalidClass {
        /// Index of the offending class in config order.
        index: usize,
        /// The underlying validation failure.
        source: TrafficError,
    },
    /// A class's bandwidth exceeds `min(n1, n2)`.
    BandwidthExceedsSwitch {
        /// Index of the offending class in config order.
        index: usize,
    },
    /// A service distribution's mean disagrees with the class's `1/μ`.
    ServiceMeanMismatch {
        /// Index of the offending class in config order.
        index: usize,
        /// The distribution's mean.
        got: f64,
        /// The class's `1/μ`.
        want: f64,
    },
    /// A fault rate is negative or non-finite.
    BadFaultRate {
        /// Which rate (`"fail_rate"` / `"repair_rate"`).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// More static port failures than ports on that side.
    TooManyFailedPorts {
        /// Which side overflows.
        side: Side,
        /// Statically failed ports requested.
        requested: u32,
        /// Ports available on that side.
        available: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoPorts => write!(f, "switch must have at least one input and one output"),
            SimError::NoClasses => write!(f, "need at least one traffic class"),
            SimError::InvalidClass { index, source } => write!(f, "class {index}: {source}"),
            SimError::BandwidthExceedsSwitch { index } => {
                write!(f, "class {index}: bandwidth exceeds switch")
            }
            SimError::ServiceMeanMismatch { index, got, want } => {
                write!(f, "class {index}: service mean {got} != 1/mu = {want}")
            }
            SimError::BadFaultRate { what, value } => {
                write!(f, "fault {what} must be finite and >= 0, got {value}")
            }
            SimError::TooManyFailedPorts {
                side,
                requested,
                available,
            } => write!(
                f,
                "cannot statically fail {requested} {side:?} ports of {available}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Run-length parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Transient period discarded before measurement starts.
    pub warmup: f64,
    /// Measured simulation time (after warmup).
    pub duration: f64,
    /// Number of batches for the batch-means confidence intervals.
    pub batches: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup: 1_000.0,
            duration: 100_000.0,
            batches: 20,
        }
    }
}

/// Per-class simulation output.
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// Requests generated during the measurement window.
    pub offered: u64,
    /// Requests that found all their ports idle.
    pub accepted: u64,
    /// Requests cleared (congestion *and* fault blocking).
    pub blocked: u64,
    /// Requests cleared solely because their drawn tuple touched a failed
    /// port (a subset of `blocked`; always `0` without fault injection).
    pub fault_blocked: u64,
    /// Call-level blocking ratio (blocked/offered) with CI.
    pub blocking: Estimate,
    /// Same point estimate with a 99% CI (wider quantile over the same
    /// batch means) — what the statistical sim-vs-analytic regression
    /// tests assert against.
    pub blocking_99: Estimate,
    /// Blocking ratio among *viable* requests — those whose drawn tuple
    /// avoided every failed port. Equals `blocking` without fault
    /// injection; with static failures it matches the blocking of the
    /// shrunken `(N1−f1) × (N2−f2)` crossbar.
    pub viable_blocking: Estimate,
    /// Time-average number of connections in progress with CI.
    pub concurrency: Estimate,
    /// Time-average probability that a uniformly-chosen port tuple for this
    /// class is entirely idle *and working* — the simulation analogue of
    /// the paper's `B_r` (eq. 4), with CI.
    pub availability: Estimate,
}

/// Whole-run simulation output.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Measured (post-warmup) simulated time.
    pub duration: f64,
    /// Events processed in the measurement window.
    pub events: u64,
    /// Per-class reports, in config order.
    pub classes: Vec<ClassReport>,
    /// Revenue rate `Σ_r w_r·E_r` using measured concurrency.
    pub revenue: f64,
    /// Time-weighted distribution of the total port occupancy `k·A`
    /// (index = busy input count), normalised.
    pub occupancy: Vec<f64>,
    /// Fault statistics — `Some` iff fault injection was enabled.
    pub faults: Option<FaultReport>,
}

/// Owner-array entry of a port that no circuit holds.
const IDLE: u32 = u32::MAX;

/// A slot's record in the circuit slab. `generation` counts the circuits
/// the slot has held and released; a departure carries the generation of
/// the circuit it ends, so one scheduled for an earlier occupant no longer
/// matches.
#[derive(Clone, Copy)]
struct LiveConn {
    class: u32,
    generation: u32,
}

/// The live circuits: a slab of [`LiveConn`] records, a flat port arena
/// holding slot `s`'s `a` inputs then `a` outputs from `s·stride`
/// (`stride = 2·max a`), and a free list of released slots. At most
/// `min(N1, N2)` circuits are live, so the slab stops growing early and
/// opening or closing a circuit allocates nothing after that.
struct Circuits {
    conns: Vec<LiveConn>,
    ports: Vec<u32>,
    stride: usize,
    free: Vec<u32>,
}

impl Circuits {
    fn new(stride: usize) -> Self {
        Circuits {
            conns: Vec::new(),
            ports: Vec::new(),
            stride,
            free: Vec::new(),
        }
    }

    /// Store a class-`class` circuit holding `ports` (inputs then
    /// outputs) and return its slot and generation.
    fn open(&mut self, class: usize, ports: &[u32]) -> (u32, u32) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(LiveConn {
                class: 0,
                generation: 0,
            });
            self.ports.resize(self.conns.len() * self.stride, IDLE);
            (self.conns.len() - 1) as u32
        });
        let conn = &mut self.conns[slot as usize];
        conn.class = class as u32;
        let base = slot as usize * self.stride;
        self.ports[base..base + ports.len()].copy_from_slice(ports);
        (slot, conn.generation)
    }

    /// Release `slot`, whose circuit has `a` ports per side, and return
    /// the ports it held. A departure carrying the old generation is stale
    /// from here on.
    fn close(&mut self, slot: u32, a: usize) -> &[u32] {
        let conn = &mut self.conns[slot as usize];
        conn.generation = conn.generation.wrapping_add(1);
        self.free.push(slot);
        self.held(slot, a)
    }

    /// The `a` inputs then `a` outputs stored for `slot`.
    fn held(&self, slot: u32, a: usize) -> &[u32] {
        let base = slot as usize * self.stride;
        &self.ports[base..base + 2 * a]
    }
}

/// What fires in the event loop: the arrival and port-fault clocks, or a
/// scheduled departure carrying its circuit's slot and generation.
enum Ev {
    Arrival,
    Fault,
    Departure(u32, u32),
}

/// Per-class batch accumulators.
#[derive(Clone, Default)]
struct ClassBatch {
    offered: u64,
    blocked: u64,
    fault_blocked: u64,
    k_time: f64,     // ∫ k_r dt
    avail_time: f64, // ∫ P(tuple idle ∧ working) dt
}

/// Draw `count` distinct ports in `0..failed.len()` and append them to
/// `picked`, reporting whether all were idle (`busy` false) and whether
/// all were working per `failed`. Repeats are checked only against this
/// draw's ports, so one buffer can take a tuple's inputs and then its
/// outputs. The drawing consumes the same RNG stream regardless of port
/// state.
pub(crate) fn draw_ports(
    rng: &mut StdRng,
    busy: impl Fn(usize) -> bool,
    failed: &[bool],
    count: u32,
    picked: &mut Vec<u32>,
) -> (bool, bool) {
    let n = failed.len();
    let start = picked.len();
    // Rejection of repeats: for the small port counts here that is
    // cheaper than fancier sampling.
    let mut all_free = true;
    let mut all_working = true;
    while picked.len() - start < count as usize {
        let cand = rng.gen_range(0..n) as u32;
        if picked[start..].contains(&cand) {
            continue;
        }
        if busy(cand as usize) {
            all_free = false;
        }
        if failed[cand as usize] {
            all_working = false;
        }
        picked.push(cand);
    }
    (all_free, all_working)
}

/// The simulator.
pub struct CrossbarSim {
    cfg: SimConfig,
    rng: StdRng,
    /// Per-input owner: the slot of the circuit holding the port, or
    /// [`IDLE`]. A failing port finds its circuit here in O(1).
    owner_in: Vec<u32>,
    /// Per-output owner, as `owner_in`.
    owner_out: Vec<u32>,
    /// Total busy inputs (= busy outputs, since every connection takes
    /// `a_r` of each).
    occupancy: u32,
    k: Vec<u64>,
    /// The live circuits, by slot.
    live: Circuits,
    /// The arrival's drawn tuple (inputs then outputs), reused across
    /// arrivals.
    drawn: Vec<u32>,
    cal: Calendar<Ev>,
    /// `P(N1,a_r)·P(N2,a_r)` per class: the ordered-tuple count the
    /// aggregate arrival rate is proportional to (see crate docs).
    tuple_count: Vec<f64>,
    faults: FaultLayer,
    /// Circuits torn down by port failures (whole run, incl. warmup).
    torn_down: u64,
    /// Resident per-class arrival rates — an event changes at most one
    /// class's rate, so the hot loop updates this in O(1) instead of
    /// rebuilding a `Vec` per event (see [`crate::rates`] for the
    /// bit-compatibility argument).
    arr_rates: RateTable,
    /// Resident per-class tuple availabilities, recomputed only when the
    /// occupancy or the failed-port sets change (blocked arrivals and
    /// end-of-interval events leave them untouched).
    avail: Vec<f64>,
}

impl CrossbarSim {
    /// Build a simulator from a config and an RNG seed.
    ///
    /// # Panics
    /// Panics if the config is invalid (see [`CrossbarSim::try_new`] for
    /// the panic-free variant and [`SimError`] for the cases).
    pub fn new(cfg: SimConfig, seed: u64) -> Self {
        Self::try_new(cfg, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a simulator from a config and an RNG seed, rejecting invalid
    /// configs with a typed error instead of panicking.
    pub fn try_new(cfg: SimConfig, seed: u64) -> Result<Self, SimError> {
        if cfg.n1 < 1 || cfg.n2 < 1 {
            return Err(SimError::NoPorts);
        }
        if cfg.classes.is_empty() {
            return Err(SimError::NoClasses);
        }
        let max_n = cfg.n1.max(cfg.n2);
        for (index, (class, service)) in cfg.classes.iter().enumerate() {
            class
                .validate(max_n)
                .map_err(|source| SimError::InvalidClass { index, source })?;
            if class.bandwidth > cfg.n1.min(cfg.n2) {
                return Err(SimError::BandwidthExceedsSwitch { index });
            }
            let want = 1.0 / class.mu;
            if (service.mean() - want).abs() > 1e-9 * want {
                return Err(SimError::ServiceMeanMismatch {
                    index,
                    got: service.mean(),
                    want,
                });
            }
        }
        for (what, value) in [
            ("fail_rate", cfg.faults.fail_rate),
            ("repair_rate", cfg.faults.repair_rate),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(SimError::BadFaultRate { what, value });
            }
        }
        for (side, requested, available) in [
            (Side::Input, cfg.faults.fail_inputs, cfg.n1),
            (Side::Output, cfg.faults.fail_outputs, cfg.n2),
        ] {
            if requested > available {
                return Err(SimError::TooManyFailedPorts {
                    side,
                    requested,
                    available,
                });
            }
        }
        let tuple_count = cfg
            .classes
            .iter()
            .map(|(c, _)| {
                permutation(cfg.n1 as u64, c.bandwidth as u64)
                    * permutation(cfg.n2 as u64, c.bandwidth as u64)
            })
            .collect();
        let r = cfg.classes.len();
        let max_a = cfg
            .classes
            .iter()
            .map(|(c, _)| c.bandwidth)
            .max()
            .unwrap_or(0);
        Ok(CrossbarSim {
            owner_in: vec![IDLE; cfg.n1 as usize],
            owner_out: vec![IDLE; cfg.n2 as usize],
            occupancy: 0,
            k: vec![0; r],
            live: Circuits::new(2 * max_a as usize),
            drawn: Vec::new(),
            cal: Calendar::new(),
            rng: StdRng::seed_from_u64(seed),
            tuple_count,
            faults: FaultLayer::new(cfg.faults.clone(), cfg.n1, cfg.n2),
            torn_down: 0,
            arr_rates: RateTable::new(r, false),
            avail: vec![0.0; r],
            cfg,
        })
    }

    /// Aggregate arrival rate of class `r` in the current state.
    fn arrival_rate(&self, r: usize) -> f64 {
        self.tuple_count[r] * self.cfg.classes[r].0.lambda(self.k[r])
    }

    /// Probability a uniformly-chosen class-`r` port tuple is fully idle
    /// *and working* in the current state. Busy and failed port sets are
    /// disjoint (a failing port's circuit is torn down), so the free count
    /// subtracts both.
    fn availability(&self, r: usize) -> f64 {
        let a = self.cfg.classes[r].0.bandwidth as u64;
        let free1 = (self.cfg.n1 - self.occupancy - self.faults.failed_in_count) as u64;
        let free2 = (self.cfg.n2 - self.occupancy - self.faults.failed_out_count) as u64;
        permutation(free1, a) * permutation(free2, a) / self.tuple_count[r]
    }

    /// Run for `run.warmup + run.duration` sim-time and report measures
    /// over the measurement window.
    pub fn run(&mut self, run: RunConfig) -> SimReport {
        assert!(run.batches >= 1, "need at least one batch");
        assert!(run.duration > 0.0);
        let r_count = self.cfg.classes.len();

        // Warmup: advance without recording.
        let warmup_end = self.cal.now() + run.warmup;
        self.advance_until(warmup_end, &mut |_| {});

        let t0 = self.cal.now();
        let batch_len = run.duration / run.batches as f64;
        // Batch `b`'s per-class accumulators, one row of `r_count`.
        let mut batches = vec![ClassBatch::default(); run.batches * r_count];
        let mut occupancy_time = vec![0.0f64; self.cfg.n1.min(self.cfg.n2) as usize + 1];
        // Fault accounting: window-only deltas via snapshots, plus
        // time-integrals of the failed-port counts.
        let failures0 = self.faults.failures;
        let repairs0 = self.faults.repairs;
        let torn_down0 = self.torn_down;
        let mut failed_in_time = 0.0f64;
        let mut failed_out_time = 0.0f64;

        // The recorder distributes elapsed time (and counts) into batches;
        // state snapshots arrive through the callback argument so the
        // closure doesn't alias `self`.
        let end = t0 + run.duration;
        let batch_of = |t: f64| -> usize { (((t - t0) / batch_len) as usize).min(run.batches - 1) };

        let events = self.advance_until(end, &mut |rec: Record| match rec {
            Record::Elapse {
                from,
                to,
                k,
                avail,
                occ,
                failed_in,
                failed_out,
            } => {
                failed_in_time += failed_in as f64 * (to - from);
                failed_out_time += failed_out as f64 * (to - from);
                // Split [from, to) across batch boundaries. The last batch
                // runs to `to`: its boundary can round below the end of
                // the window, and recomputing the batch from `cur` would
                // then stall there.
                let mut cur = from;
                let mut b = batch_of(from);
                while cur < to {
                    let stop = if b + 1 < run.batches {
                        (t0 + (b + 1) as f64 * batch_len).min(to)
                    } else {
                        to
                    };
                    let dt = stop - cur;
                    let row = &mut batches[b * r_count..(b + 1) * r_count];
                    for ((cb, &k), &avail) in row.iter_mut().zip(k).zip(avail) {
                        cb.k_time += k as f64 * dt;
                        cb.avail_time += avail * dt;
                    }
                    occupancy_time[occ as usize] += dt;
                    cur = stop;
                    b += 1;
                }
            }
            Record::Offered {
                class,
                at,
                blocked,
                fault_blocked,
            } => {
                let cb = &mut batches[batch_of(at) * r_count + class];
                cb.offered += 1;
                if blocked {
                    cb.blocked += 1;
                }
                if fault_blocked {
                    cb.fault_blocked += 1;
                }
            }
        });

        // Aggregate.
        let mut classes = Vec::with_capacity(r_count);
        let mut revenue = 0.0;
        let mut fault_blocked_total = 0u64;
        for r in 0..r_count {
            let cbs = || batches.chunks(r_count).map(|b| &b[r]);
            let offered: u64 = cbs().map(|cb| cb.offered).sum();
            let blocked: u64 = cbs().map(|cb| cb.blocked).sum();
            let fault_blocked: u64 = cbs().map(|cb| cb.fault_blocked).sum();
            let blocking = BatchMeans::from_ratios(cbs().map(|cb| (cb.blocked, cb.offered)));
            let viable = BatchMeans::from_ratios(
                cbs().map(|cb| (cb.blocked - cb.fault_blocked, cb.offered - cb.fault_blocked)),
            );
            let conc_batches = cbs().map(|cb| cb.k_time / batch_len).collect();
            let avail_batches = cbs().map(|cb| cb.avail_time / batch_len).collect();
            fault_blocked_total += fault_blocked;
            let concurrency = BatchMeans::from_batches(conc_batches).estimate();
            revenue += self.cfg.classes[r].0.weight * concurrency.mean;
            classes.push(ClassReport {
                offered,
                accepted: offered - blocked,
                blocked,
                fault_blocked,
                blocking: blocking.estimate_at(Confidence::P95),
                blocking_99: blocking.estimate_at(Confidence::P99),
                viable_blocking: viable.estimate(),
                concurrency,
                availability: BatchMeans::from_batches(avail_batches).estimate(),
            });
        }
        let total_occ: f64 = occupancy_time.iter().sum();
        let occupancy = occupancy_time.iter().map(|t| t / total_occ).collect();

        // Flush aggregate obs counters once, after the event loop: the hot
        // loop and the RNG stream stay untouched, and the totals are
        // deterministic for a fixed seed regardless of whether metrics are
        // being collected.
        if xbar_obs::enabled() {
            let offered: u64 = classes.iter().map(|c| c.offered).sum();
            let blocked: u64 = classes.iter().map(|c| c.blocked).sum();
            xbar_obs::inc("sim.runs");
            xbar_obs::add("sim.offers", offered);
            xbar_obs::add("sim.admitted", offered - blocked);
            xbar_obs::add("sim.blocked.capacity", blocked - fault_blocked_total);
            xbar_obs::add("sim.blocked.fault", fault_blocked_total);
            xbar_obs::add("sim.events", events);
            xbar_obs::add("sim.port_failures", self.faults.failures - failures0);
            xbar_obs::add("sim.port_repairs", self.faults.repairs - repairs0);
            xbar_obs::add("sim.teardowns", self.torn_down - torn_down0);
        }

        let faults = self.faults.enabled().then(|| FaultReport {
            failures: self.faults.failures - failures0,
            repairs: self.faults.repairs - repairs0,
            torn_down: self.torn_down - torn_down0,
            fault_blocked: fault_blocked_total,
            mean_failed_inputs: failed_in_time / run.duration,
            mean_failed_outputs: failed_out_time / run.duration,
        });

        SimReport {
            duration: run.duration,
            events,
            classes,
            revenue,
            occupancy,
            faults,
        }
    }

    /// Connect the just-drawn tuple in `drawn` as a class-`class`
    /// circuit and return its slot and generation.
    fn connect(&mut self, class: usize) -> (u32, u32) {
        let a = self.cfg.classes[class].0.bandwidth;
        let (slot, generation) = self.live.open(class, &self.drawn);
        let (inputs, outputs) = self.drawn.split_at(a as usize);
        for &i in inputs {
            self.owner_in[i as usize] = slot;
        }
        for &o in outputs {
            self.owner_out[o as usize] = slot;
        }
        self.occupancy += a;
        self.k[class] += 1;
        self.refresh_class_rate(class);
        self.refresh_avail();
        (slot, generation)
    }

    /// End the circuit in `slot` if it is still the one of `generation`.
    /// A circuit torn down by a port failure leaves its departure behind
    /// as a stale calendar entry, and by then the slot's generation has
    /// moved on: the entry is skipped.
    fn depart(&mut self, slot: u32, generation: u32) {
        if self.live.conns[slot as usize].generation == generation {
            self.release(slot);
        }
    }

    /// Tear down the (at most one — ports are held exclusively) live
    /// circuit occupying the just-failed port, found through the port's
    /// owner entry, in O(a). Its scheduled departure stays in the
    /// calendar and goes stale.
    fn tear_down_port(&mut self, side: Side, port: u32) {
        let owner = match side {
            Side::Input => self.owner_in[port as usize],
            Side::Output => self.owner_out[port as usize],
        };
        if owner != IDLE {
            self.torn_down += 1;
            self.release(owner);
        }
    }

    /// Free a finished or torn-down circuit's slot and ports and refresh
    /// the resident rates it moved.
    fn release(&mut self, slot: u32) {
        let class = self.live.conns[slot as usize].class as usize;
        let a = self.cfg.classes[class].0.bandwidth;
        let ports = self.live.close(slot, a as usize);
        let (inputs, outputs) = ports.split_at(a as usize);
        for &i in inputs {
            self.owner_in[i as usize] = IDLE;
        }
        for &o in outputs {
            self.owner_out[o as usize] = IDLE;
        }
        self.occupancy -= a;
        self.k[class] -= 1;
        self.refresh_class_rate(class);
        self.refresh_avail();
    }

    /// Refresh class `r`'s resident arrival rate after a `k[r]` change.
    fn refresh_class_rate(&mut self, r: usize) {
        let v = self.arrival_rate(r);
        self.arr_rates.set(r, v);
    }

    /// Refresh every class's resident availability after an occupancy or
    /// failed-port change. O(R·a) — the same work the legacy loop paid on
    /// *every* event, now paid only on state-changing ones.
    fn refresh_avail(&mut self) {
        for r in 0..self.cfg.classes.len() {
            let v = self.availability(r);
            self.avail[r] = v;
        }
    }

    /// Rebuild both resident caches from the current state (loop entry —
    /// state may have changed since the previous `advance_until` call).
    fn refresh_residents(&mut self) {
        for r in 0..self.cfg.classes.len() {
            self.refresh_class_rate(r);
        }
        self.refresh_avail();
    }

    /// Core event loop with a recording callback, returning the number of
    /// events fired. Generic over the record sink so warmup can run it
    /// with a no-op.
    ///
    /// The loop keeps the per-class arrival rates and availabilities
    /// *resident* ([`Self::refresh_residents`]): only state-changing
    /// events (accepted arrivals, live departures, fault transitions)
    /// touch them, and the [`Record::Elapse`] snapshot borrows the
    /// resident buffers instead of allocating per event. The fault clock
    /// is passed at rate 0 unless the dynamic fault process is on, so
    /// fault-free runs draw exactly the fault-free stream.
    fn advance_until<F>(&mut self, end: f64, record: &mut F) -> u64
    where
        F: for<'a> FnMut(Record<'a>),
    {
        self.refresh_residents();
        let mut events = 0u64;
        loop {
            let total_rate = self.arr_rates.total();
            let fault_rate = if self.faults.dynamic() {
                self.faults.transition_rate()
            } else {
                0.0
            };
            let Some(fired) = self.cal.step(
                &mut self.rng,
                end,
                (total_rate, Ev::Arrival),
                (fault_rate, Ev::Fault),
                |from, to| {
                    record(Record::Elapse {
                        from,
                        to,
                        k: &self.k,
                        avail: &self.avail,
                        occ: self.occupancy,
                        failed_in: self.faults.failed_in_count,
                        failed_out: self.faults.failed_out_count,
                    })
                },
            ) else {
                return events;
            };
            events += 1;
            match fired {
                Ev::Fault => {
                    let tr = self.faults.sample_transition(&mut self.rng);
                    if tr.is_failure {
                        self.tear_down_port(tr.side, tr.port);
                    }
                    // Both failures and repairs move the failed-port counts.
                    self.refresh_avail();
                }
                Ev::Departure(slot, generation) => self.depart(slot, generation),
                Ev::Arrival => {
                    // Pick the class proportional to its rate.
                    let pick = self.rng.gen::<f64>() * total_rate;
                    let class = self.arr_rates.select(pick);
                    let a = self.cfg.classes[class].0.bandwidth;
                    self.drawn.clear();
                    let (in_free, in_working) = draw_ports(
                        &mut self.rng,
                        |i| self.owner_in[i] != IDLE,
                        &self.faults.failed_in,
                        a,
                        &mut self.drawn,
                    );
                    let (out_free, out_working) = draw_ports(
                        &mut self.rng,
                        |o| self.owner_out[o] != IDLE,
                        &self.faults.failed_out,
                        a,
                        &mut self.drawn,
                    );
                    let working = in_working && out_working;
                    let accepted = in_free && out_free && working;
                    record(Record::Offered {
                        class,
                        at: self.cal.now(),
                        blocked: !accepted,
                        fault_blocked: !working,
                    });
                    if accepted {
                        let (slot, generation) = self.connect(class);
                        let hold = self.cfg.classes[class].1.sample(&mut self.rng);
                        self.cal.schedule(hold, Ev::Departure(slot, generation));
                    }
                }
            }
        }
    }
}

/// What the event loop reports to the recorder of [`CrossbarSim::run`].
enum Record<'a> {
    /// The state held over `[from, to)`.
    Elapse {
        from: f64,
        to: f64,
        k: &'a [u64],
        avail: &'a [f64],
        occ: u32,
        failed_in: u32,
        failed_out: u32,
    },
    /// A class-`class` request was offered at `at`.
    Offered {
        class: usize,
        at: f64,
        blocked: bool,
        fault_blocked: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poisson_cfg(n: u32, rho: f64) -> SimConfig {
        SimConfig::new(n, n).with_exp_class(TrafficClass::poisson(rho))
    }

    #[test]
    fn conservation_counters_add_up() {
        let mut sim = CrossbarSim::new(poisson_cfg(4, 0.1), 1);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 2_000.0,
            batches: 10,
        });
        let c = &rep.classes[0];
        assert_eq!(c.offered, c.accepted + c.blocked);
        assert!(c.offered > 1000, "{}", c.offered);
        assert!(rep.events > 0);
    }

    #[test]
    fn occupancy_distribution_normalises_and_bounds() {
        let mut sim = CrossbarSim::new(poisson_cfg(4, 0.3), 2);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 1_000.0,
            batches: 5,
        });
        assert_eq!(rep.occupancy.len(), 5);
        let total: f64 = rep.occupancy.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let r1 = CrossbarSim::new(poisson_cfg(4, 0.2), 7).run(RunConfig::default());
        let r2 = CrossbarSim::new(poisson_cfg(4, 0.2), 7).run(RunConfig::default());
        assert_eq!(r1.classes[0].offered, r2.classes[0].offered);
        assert_eq!(r1.classes[0].blocked, r2.classes[0].blocked);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn different_seeds_differ() {
        let r1 = CrossbarSim::new(poisson_cfg(4, 0.2), 7).run(RunConfig::default());
        let r2 = CrossbarSim::new(poisson_cfg(4, 0.2), 8).run(RunConfig::default());
        assert_ne!(r1.classes[0].offered, r2.classes[0].offered);
    }

    #[test]
    fn zero_load_class_never_blocks() {
        // A Bernoulli class with S = max_n sources all at tiny rate plus an
        // essentially idle Poisson class: at near-zero load nothing blocks.
        let cfg = SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(1e-6));
        let mut sim = CrossbarSim::new(cfg, 3);
        let rep = sim.run(RunConfig {
            warmup: 0.0,
            duration: 10_000.0,
            batches: 5,
        });
        assert_eq!(rep.classes[0].blocked, 0);
    }

    #[test]
    fn saturating_load_blocks_heavily() {
        let mut sim = CrossbarSim::new(poisson_cfg(2, 50.0), 4);
        let rep = sim.run(RunConfig {
            warmup: 50.0,
            duration: 2_000.0,
            batches: 10,
        });
        assert!(
            rep.classes[0].blocking.mean > 0.5,
            "{}",
            rep.classes[0].blocking.mean
        );
    }

    #[test]
    fn multirate_class_occupies_multiple_ports() {
        let cfg =
            SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(0.05).with_bandwidth(2));
        let mut sim = CrossbarSim::new(cfg, 5);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 2_000.0,
            batches: 10,
        });
        // Occupancy histogram only has even entries populated.
        assert!(rep.occupancy[1] == 0.0 && rep.occupancy[3] == 0.0);
        assert!(rep.occupancy[2] > 0.0);
    }

    #[test]
    #[should_panic(expected = "service mean")]
    fn rejects_mismatched_service_mean() {
        let cfg = SimConfig::new(2, 2).with_class(
            TrafficClass::poisson(0.1), // mu = 1
            ServiceDist::Deterministic { mean: 2.0 },
        );
        let _ = CrossbarSim::new(cfg, 0);
    }

    #[test]
    #[should_panic(expected = "bandwidth exceeds switch")]
    fn rejects_oversized_bandwidth() {
        let cfg = SimConfig::new(2, 2).with_exp_class(TrafficClass::poisson(0.1).with_bandwidth(3));
        let _ = CrossbarSim::new(cfg, 0);
    }

    #[test]
    fn try_new_rejects_bad_configs_with_typed_errors() {
        let base = || poisson_cfg(4, 0.1);
        assert_eq!(
            CrossbarSim::try_new(SimConfig::new(0, 4), 0).err(),
            Some(SimError::NoPorts)
        );
        assert_eq!(
            CrossbarSim::try_new(SimConfig::new(4, 4), 0).err(),
            Some(SimError::NoClasses)
        );
        assert_eq!(
            CrossbarSim::try_new(
                base().with_faults(FaultConfig {
                    fail_rate: -1.0,
                    ..FaultConfig::none()
                }),
                0
            )
            .err(),
            Some(SimError::BadFaultRate {
                what: "fail_rate",
                value: -1.0
            })
        );
        assert_eq!(
            CrossbarSim::try_new(
                base().with_faults(FaultConfig::none().with_static_failures(0, 5)),
                0
            )
            .err(),
            Some(SimError::TooManyFailedPorts {
                side: Side::Output,
                requested: 5,
                available: 4
            })
        );
        assert!(CrossbarSim::try_new(base(), 0).is_ok());
    }

    #[test]
    fn zero_fault_rate_is_bit_for_bit_identical_to_no_faults() {
        // A config with the fault layer present but every mechanism off
        // must consume the exact same RNG stream as the plain config:
        // identical reports at equal seed, field for field.
        let run = RunConfig {
            warmup: 50.0,
            duration: 5_000.0,
            batches: 10,
        };
        let plain = CrossbarSim::new(poisson_cfg(4, 0.3), 99).run(run);
        let faulted = CrossbarSim::new(
            poisson_cfg(4, 0.3).with_faults(FaultConfig::from_mtbf_mttr(f64::INFINITY, 1.0)),
            99,
        )
        .run(run);
        assert_eq!(plain.events, faulted.events);
        assert_eq!(plain.occupancy, faulted.occupancy);
        assert_eq!(plain.revenue.to_bits(), faulted.revenue.to_bits());
        for (a, b) in plain.classes.iter().zip(faulted.classes.iter()) {
            assert_eq!(a.offered, b.offered);
            assert_eq!(a.blocked, b.blocked);
            assert_eq!(a.fault_blocked, 0);
            assert_eq!(b.fault_blocked, 0);
            assert_eq!(a.blocking.mean.to_bits(), b.blocking.mean.to_bits());
            assert_eq!(
                a.viable_blocking.mean.to_bits(),
                b.viable_blocking.mean.to_bits()
            );
            assert_eq!(a.concurrency.mean.to_bits(), b.concurrency.mean.to_bits());
            assert_eq!(a.availability.mean.to_bits(), b.availability.mean.to_bits());
        }
        assert_eq!(plain.faults, None);
        assert_eq!(faulted.faults, None);
    }

    #[test]
    fn static_failures_match_shrunken_switch_erlang() {
        // 3×3 with 2 inputs and 2 outputs statically failed carries its
        // viable traffic like a 1×1 switch: an M/M/1/1 loss system with
        // viable blocking ρ/(1+ρ).
        let rho = 0.5;
        let cfg = poisson_cfg(3, rho).with_faults(FaultConfig::none().with_static_failures(2, 2));
        let mut sim = CrossbarSim::new(cfg, 13);
        let rep = sim.run(RunConfig {
            warmup: 100.0,
            duration: 200_000.0,
            batches: 20,
        });
        let want = rho / (1.0 + rho);
        let got = &rep.classes[0].viable_blocking;
        assert!(
            got.covers_with_slack(want, 0.01),
            "viable blocking {got:?}, want {want}"
        );
        // Fault metadata: static failures never transition, every blocked
        // request that touched a dead port is fault-blocked, and the
        // time-average failed counts are exactly the static counts.
        let faults = rep.faults.expect("faults enabled");
        assert_eq!(faults.failures, 0);
        assert_eq!(faults.repairs, 0);
        assert_eq!(faults.torn_down, 0);
        assert_eq!(faults.fault_blocked, rep.classes[0].fault_blocked);
        assert!((faults.mean_failed_inputs - 2.0).abs() < 1e-9);
        assert!((faults.mean_failed_outputs - 2.0).abs() < 1e-9);
        // 8/9 of tuples touch a dead port, so most offers are fault-blocked.
        let frac = faults.fault_blocked as f64 / rep.classes[0].offered as f64;
        assert!((frac - 8.0 / 9.0).abs() < 0.02, "{frac}");
    }

    #[test]
    fn static_failures_match_shrunken_switch_analytic() {
        // 6×6 minus 2 inputs / 1 output ≡ 4×5 fault-free crossbar: the
        // faulted simulator's viable blocking must cover the analytic
        // solver's blocking for the shrunken geometry.
        use xbar_core::{solve, Algorithm, Dims, Model};
        use xbar_traffic::Workload;

        let class = TrafficClass::poisson(0.4);
        let cfg = SimConfig::new(6, 6)
            .with_exp_class(class.clone())
            .with_faults(FaultConfig::none().with_static_failures(2, 1));
        let mut sim = CrossbarSim::new(cfg, 21);
        let rep = sim.run(RunConfig {
            warmup: 200.0,
            duration: 150_000.0,
            batches: 20,
        });

        let model = Model::new(Dims::new(4, 5), Workload::new().with(class)).expect("valid model");
        let want = solve(&model, Algorithm::Auto)
            .expect("solvable")
            .blocking(0);
        let got = &rep.classes[0].viable_blocking;
        assert!(
            got.covers_with_slack(want, 0.005),
            "viable blocking {got:?}, analytic 4×5 blocking {want}"
        );
        // Availability integrates P(tuple idle ∧ working); its analogue in
        // the shrunken switch is the paper's B_r.
        let avail_scale = (4.0 * 5.0) / (6.0 * 6.0);
        let b = solve(&model, Algorithm::Auto)
            .expect("solvable")
            .nonblocking(0);
        assert!(
            rep.classes[0]
                .availability
                .covers_with_slack(b * avail_scale, 0.005),
            "availability {:?}, want {}",
            rep.classes[0].availability,
            b * avail_scale
        );
    }

    #[test]
    fn dynamic_faults_degrade_and_repair() {
        // Fast fail/repair on a lightly-loaded switch: transitions happen,
        // circuits get torn down, and the switch keeps carrying traffic.
        let cfg = poisson_cfg(4, 0.5).with_faults(FaultConfig::from_mtbf_mttr(50.0, 10.0));
        let mut sim = CrossbarSim::new(cfg, 17);
        let rep = sim.run(RunConfig {
            warmup: 100.0,
            duration: 50_000.0,
            batches: 10,
        });
        let faults = rep.faults.expect("faults enabled");
        assert!(faults.failures > 100, "{}", faults.failures);
        assert!(faults.repairs > 100, "{}", faults.repairs);
        assert!(faults.torn_down > 0);
        assert!(faults.fault_blocked > 0);
        // Per-port equilibrium failed fraction = fail/(fail+repair) = 1/6.
        let mean_failed = faults.mean_failed_inputs + faults.mean_failed_outputs;
        assert!(
            (mean_failed / 8.0 - 1.0 / 6.0).abs() < 0.03,
            "{mean_failed}"
        );
        // Conservation still holds and the switch still accepts calls.
        let c = &rep.classes[0];
        assert_eq!(c.offered, c.accepted + c.blocked);
        assert!(c.fault_blocked <= c.blocked);
        assert!(c.accepted > 0);
    }

    /// A 4×4 switch with an `a = 1` class 0 and an `a = 2` class 1.
    fn two_width_sim() -> CrossbarSim {
        let cfg = SimConfig::new(4, 4)
            .with_exp_class(TrafficClass::poisson(0.1))
            .with_exp_class(TrafficClass::poisson(0.01).with_bandwidth(2));
        CrossbarSim::new(cfg, 0)
    }

    /// Connect `ports` (inputs then outputs) as a class-`class` circuit,
    /// as an accepted arrival does, returning its slot and generation.
    fn connect(sim: &mut CrossbarSim, class: usize, ports: &[u32]) -> (u32, u32) {
        sim.drawn.clear();
        sim.drawn.extend_from_slice(ports);
        sim.connect(class)
    }

    #[test]
    fn failing_one_port_of_a_wide_circuit_frees_all_its_ports() {
        let mut sim = two_width_sim();
        connect(&mut sim, 0, &[3, 1]);
        connect(&mut sim, 1, &[0, 2, 0, 3]);
        assert_eq!((sim.occupancy, sim.k.clone()), (3, vec![1, 1]));
        sim.tear_down_port(Side::Output, 3);
        assert_eq!(sim.torn_down, 1);
        assert_eq!((sim.occupancy, sim.k.clone()), (1, vec![1, 0]));
        for (owners, freed) in [(&sim.owner_in, [0, 2]), (&sim.owner_out, [0, 3])] {
            assert!(freed.iter().all(|&p| owners[p] == IDLE), "{owners:?}");
        }
        // The narrow circuit keeps its ports.
        assert_ne!(sim.owner_in[3], IDLE);
        assert_ne!(sim.owner_out[1], IDLE);
        // A failing idle port tears nothing down.
        sim.tear_down_port(Side::Input, 0);
        assert_eq!((sim.torn_down, sim.occupancy), (1, 1));
    }

    #[test]
    fn a_stale_departure_skips_the_circuit_that_reused_its_slot() {
        let mut sim = two_width_sim();
        let (slot, torn) = connect(&mut sim, 1, &[0, 1, 2, 3]);
        sim.tear_down_port(Side::Input, 1);
        let (reused, live) = connect(&mut sim, 0, &[2, 0]);
        assert_eq!(reused, slot);
        assert_ne!(live, torn);
        // The torn-down circuit's departure fires: the generation no
        // longer matches, so the slot's new circuit stays up.
        sim.depart(slot, torn);
        assert_eq!((sim.occupancy, sim.k.clone()), (1, vec![1, 0]));
        assert_eq!((sim.owner_in[2], sim.owner_out[0]), (slot, slot));
        sim.depart(reused, live);
        assert_eq!((sim.occupancy, sim.k.clone()), (0, vec![0, 0]));
        assert!(sim
            .owner_in
            .iter()
            .chain(&sim.owner_out)
            .all(|&o| o == IDLE));
    }

    #[test]
    fn owner_arrays_agree_with_the_live_circuits_after_a_faulted_run() {
        let cfg = SimConfig::new(8, 8)
            .with_exp_class(TrafficClass::poisson(0.05))
            .with_exp_class(TrafficClass::poisson(0.01).with_bandwidth(2))
            .with_faults(FaultConfig::from_mtbf_mttr(20.0, 5.0));
        let mut sim = CrossbarSim::new(cfg, 23);
        let rep = sim.run(RunConfig {
            warmup: 10.0,
            duration: 2_000.0,
            batches: 5,
        });
        assert!(rep.faults.expect("faults enabled").torn_down > 0);
        let live: Vec<u32> = (0..sim.live.conns.len() as u32)
            .filter(|s| !sim.live.free.contains(s))
            .collect();
        assert!(!live.is_empty(), "the run should end with circuits up");
        let width = |slot: u32| {
            let class = sim.live.conns[slot as usize].class as usize;
            sim.cfg.classes[class].0.bandwidth as usize
        };
        let sides = [
            (&sim.owner_in, &sim.faults.failed_in, 0),
            (&sim.owner_out, &sim.faults.failed_out, 1),
        ];
        for (owners, failed, side) in sides {
            for (port, &slot) in owners.iter().enumerate() {
                if slot == IDLE {
                    continue;
                }
                assert!(live.contains(&slot), "port {port} owned by a free slot");
                let a = width(slot);
                let held = &sim.live.held(slot, a)[side * a..(side + 1) * a];
                assert!(held.contains(&(port as u32)), "{held:?} lacks {port}");
                assert!(!failed[port], "failed port {port} is owned");
            }
            let owned = owners.iter().filter(|&&o| o != IDLE).count();
            assert_eq!(owned, sim.occupancy as usize);
        }
        let widths: usize = live.iter().map(|&s| width(s)).sum();
        assert_eq!(widths, sim.occupancy as usize);
        assert_eq!(live.len() as u64, sim.k.iter().sum::<u64>());
    }

    #[test]
    fn a_last_batch_boundary_that_rounds_short_still_ends_the_run() {
        // 10 · (0.9 / 10) rounds below 0.9: the last batch's computed end
        // falls short of the window's, and the split must not stall there.
        let run = RunConfig {
            warmup: 0.0,
            duration: 0.9,
            batches: 10,
        };
        let batches = run.batches as f64;
        assert!(batches * (run.duration / batches) < run.duration);
        let rep = CrossbarSim::new(poisson_cfg(4, 0.1), 1).run(run);
        let total: f64 = rep.occupancy.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
    }

    #[test]
    fn n1x1_matches_erlang_one_line() {
        // A 1×1 crossbar with Poisson traffic is an M/M/1/1 loss system:
        // blocking = ρ/(1+ρ).
        let rho = 0.5;
        let mut sim = CrossbarSim::new(poisson_cfg(1, rho), 11);
        let rep = sim.run(RunConfig {
            warmup: 100.0,
            duration: 200_000.0,
            batches: 20,
        });
        let want = rho / (1.0 + rho);
        let got = &rep.classes[0].blocking;
        assert!(
            got.covers_with_slack(want, 0.01),
            "blocking {got:?}, want {want}"
        );
        // Availability (paper B) equals 1 − blocking here.
        assert!(rep.classes[0]
            .availability
            .covers_with_slack(1.0 - want, 0.01));
    }
}
