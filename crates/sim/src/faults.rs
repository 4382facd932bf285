//! Port-failure injection for the crossbar simulator.
//!
//! The analytic model assumes a perfect switch; real fabrics lose ports.
//! This module adds a per-port fail/repair process to
//! [`CrossbarSim`](crate::crossbar::CrossbarSim): each working port fails
//! at rate `fail_rate` and each failed port repairs at rate
//! `repair_rate`, both with exponential holding times, so the whole fault
//! process is memoryless and can be resampled every event like the
//! arrival process. Ports can also be failed
//! *statically* (down from `t = 0`, never repaired) — useful because a
//! switch with `f1` inputs and `f2` outputs down, where requests touching a
//! dead port are cleared, carries its surviving traffic exactly like a
//! fault-free `(N1−f1) × (N2−f2)` crossbar, which the analytic solver can
//! price. That equivalence is the validation anchor for the whole layer.
//!
//! Semantics:
//!
//! * a failing port tears down the circuit holding it (the connection's
//!   other ports are released; its scheduled departure becomes a stale
//!   calendar entry that the event loop skips);
//! * failed ports still *attract* requests — a request whose drawn tuple
//!   touches a failed port is cleared and counted as **fault-blocked**,
//!   separately from congestion blocking, so degraded-mode congestion is
//!   still measurable as `viable_blocking`;
//! * with `fail_rate == 0` and no static failures the layer draws no random
//!   numbers and perturbs no arithmetic: runs reproduce the fault-free
//!   simulator bit-for-bit at equal seeds.

use rand::rngs::StdRng;
use rand::Rng;

/// Fault-injection parameters (all off by default).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Failure rate of each *working* port (`1/MTBF`); `0` disables the
    /// dynamic fault process.
    pub fail_rate: f64,
    /// Repair rate of each *failed* port (`1/MTTR`); `0` means failed
    /// ports stay failed.
    pub repair_rate: f64,
    /// Input ports (`0..fail_inputs`) failed from `t = 0`.
    pub fail_inputs: u32,
    /// Output ports (`0..fail_outputs`) failed from `t = 0`.
    pub fail_outputs: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            fail_rate: 0.0,
            repair_rate: 0.0,
            fail_inputs: 0,
            fail_outputs: 0,
        }
    }
}

impl FaultConfig {
    /// No faults (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// Dynamic fail/repair process from mean time between failures and
    /// mean time to repair. Non-finite or non-positive means are treated
    /// as "never" (rate `0`).
    pub fn from_mtbf_mttr(mtbf: f64, mttr: f64) -> Self {
        let rate = |mean: f64| {
            if mean.is_finite() && mean > 0.0 {
                1.0 / mean
            } else {
                0.0
            }
        };
        FaultConfig {
            fail_rate: rate(mtbf),
            repair_rate: rate(mttr),
            ..Self::default()
        }
    }

    /// Statically fail the first `inputs`/`outputs` ports.
    pub fn with_static_failures(mut self, inputs: u32, outputs: u32) -> Self {
        self.fail_inputs = inputs;
        self.fail_outputs = outputs;
        self
    }

    /// `true` iff any fault mechanism is active.
    pub fn enabled(&self) -> bool {
        self.dynamic() || self.fail_inputs > 0 || self.fail_outputs > 0
    }

    /// `true` iff the dynamic fail/repair process is active.
    pub fn dynamic(&self) -> bool {
        self.fail_rate > 0.0
    }
}

/// Which side of the crossbar a port belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// An input port.
    Input,
    /// An output port.
    Output,
}

/// A fault-process transition chosen by [`FaultLayer::sample_transition`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultTransition {
    /// Which side the port is on.
    pub side: Side,
    /// Port index within its side.
    pub port: u32,
    /// `true` for a failure, `false` for a repair.
    pub is_failure: bool,
}

/// Aggregate fault statistics over the measurement window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultReport {
    /// Port failures during the measurement window.
    pub failures: u64,
    /// Port repairs during the measurement window.
    pub repairs: u64,
    /// Circuits torn down because a port they held failed.
    pub torn_down: u64,
    /// Requests cleared because their drawn tuple touched a failed port.
    pub fault_blocked: u64,
    /// Time-average number of failed input ports.
    pub mean_failed_inputs: f64,
    /// Time-average number of failed output ports.
    pub mean_failed_outputs: f64,
}

/// Live per-port fault state inside a running simulation.
#[derive(Clone, Debug)]
pub struct FaultLayer {
    cfg: FaultConfig,
    /// Failed flag per input port.
    pub failed_in: Vec<bool>,
    /// Failed flag per output port.
    pub failed_out: Vec<bool>,
    /// Count of `true`s in `failed_in`.
    pub failed_in_count: u32,
    /// Count of `true`s in `failed_out`.
    pub failed_out_count: u32,
    /// Failures applied so far (whole run, including warmup).
    pub failures: u64,
    /// Repairs applied so far (whole run, including warmup).
    pub repairs: u64,
}

impl FaultLayer {
    /// Initialise for an `n1 × n2` switch, applying static failures.
    ///
    /// Assumes `cfg` was validated against the geometry by the simulator
    /// constructor (`fail_inputs ≤ n1`, `fail_outputs ≤ n2`).
    pub fn new(cfg: FaultConfig, n1: u32, n2: u32) -> Self {
        let mut failed_in = vec![false; n1 as usize];
        let mut failed_out = vec![false; n2 as usize];
        for f in failed_in.iter_mut().take(cfg.fail_inputs as usize) {
            *f = true;
        }
        for f in failed_out.iter_mut().take(cfg.fail_outputs as usize) {
            *f = true;
        }
        FaultLayer {
            failed_in_count: cfg.fail_inputs,
            failed_out_count: cfg.fail_outputs,
            failed_in,
            failed_out,
            failures: 0,
            repairs: 0,
            cfg,
        }
    }

    /// `true` iff any fault mechanism is active (drives whether the report
    /// carries fault statistics).
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// `true` iff the dynamic fail/repair process is active (drives whether
    /// the event loop samples fault transitions — must be `false` for the
    /// bit-for-bit fault-free guarantee).
    pub fn dynamic(&self) -> bool {
        self.cfg.dynamic()
    }

    /// Total rate of the next fault transition in the current state:
    /// `fail_rate·(ports up) + repair_rate·(ports down)`.
    pub fn transition_rate(&self) -> f64 {
        let n1 = self.failed_in.len() as u32;
        let n2 = self.failed_out.len() as u32;
        let up = (n1 - self.failed_in_count) + (n2 - self.failed_out_count);
        let down = self.failed_in_count + self.failed_out_count;
        self.cfg.fail_rate * up as f64 + self.cfg.repair_rate * down as f64
    }

    /// Choose which transition happens (uniform over the competing
    /// exponential clocks) and apply it. Returns the transition so the
    /// simulator can tear down circuits on a failure.
    ///
    /// Must only be called when [`FaultLayer::transition_rate`] is
    /// positive.
    pub fn sample_transition(&mut self, rng: &mut StdRng) -> FaultTransition {
        let total = self.transition_rate();
        debug_assert!(total > 0.0, "no transition available");
        let mut pick = rng.gen::<f64>() * total;

        // Category rates, in fixed order: input failures, output failures,
        // input repairs, output repairs.
        let n1 = self.failed_in.len() as u32;
        let n2 = self.failed_out.len() as u32;
        let cats = [
            (
                Side::Input,
                true,
                n1 - self.failed_in_count,
                self.cfg.fail_rate,
            ),
            (
                Side::Output,
                true,
                n2 - self.failed_out_count,
                self.cfg.fail_rate,
            ),
            (
                Side::Input,
                false,
                self.failed_in_count,
                self.cfg.repair_rate,
            ),
            (
                Side::Output,
                false,
                self.failed_out_count,
                self.cfg.repair_rate,
            ),
        ];
        let mut chosen = None;
        for &(side, is_failure, count, rate) in &cats {
            let cat_rate = rate * count as f64;
            if pick < cat_rate && count > 0 {
                chosen = Some((side, is_failure, count));
                break;
            }
            pick -= cat_rate;
        }
        // Round-off can push `pick` past every category; fall back to the
        // last non-empty one.
        let (side, is_failure, count) = chosen.unwrap_or_else(|| {
            let &(side, is_failure, count, _) = cats
                .iter()
                .rev()
                .find(|&&(_, _, count, rate)| count > 0 && rate > 0.0)
                .expect("transition_rate > 0 implies a non-empty category");
            (side, is_failure, count)
        });

        // Uniformly pick the `idx`-th port in the chosen (side, state).
        let idx = rng.gen_range(0..count);
        let flags = match side {
            Side::Input => &mut self.failed_in,
            Side::Output => &mut self.failed_out,
        };
        let mut seen = 0u32;
        let mut port = 0u32;
        for (p, &failed) in flags.iter().enumerate() {
            if failed != is_failure {
                // failing ⇒ scan working ports; repairing ⇒ scan failed.
                if seen == idx {
                    port = p as u32;
                    break;
                }
                seen += 1;
            }
        }
        flags[port as usize] = is_failure;
        match (side, is_failure) {
            (Side::Input, true) => self.failed_in_count += 1,
            (Side::Input, false) => self.failed_in_count -= 1,
            (Side::Output, true) => self.failed_out_count += 1,
            (Side::Output, false) => self.failed_out_count -= 1,
        }
        if is_failure {
            self.failures += 1;
        } else {
            self.repairs += 1;
        }
        FaultTransition {
            side,
            port,
            is_failure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn disabled_config_is_inert() {
        let cfg = FaultConfig::none();
        assert!(!cfg.enabled());
        assert!(!cfg.dynamic());
        let layer = FaultLayer::new(cfg, 4, 4);
        assert_eq!(layer.transition_rate(), 0.0);
        assert_eq!(layer.failed_in_count, 0);
        assert_eq!(layer.failed_out_count, 0);
    }

    #[test]
    fn mtbf_mttr_conversion_handles_degenerate_means() {
        let c = FaultConfig::from_mtbf_mttr(100.0, 10.0);
        assert_eq!(c.fail_rate, 0.01);
        assert_eq!(c.repair_rate, 0.1);
        assert!(c.dynamic());
        let never = FaultConfig::from_mtbf_mttr(f64::INFINITY, 0.0);
        assert!(!never.dynamic());
        assert_eq!(never.repair_rate, 0.0);
    }

    #[test]
    fn static_failures_mark_leading_ports() {
        let cfg = FaultConfig::none().with_static_failures(2, 1);
        assert!(cfg.enabled() && !cfg.dynamic());
        let layer = FaultLayer::new(cfg, 4, 3);
        assert_eq!(layer.failed_in, vec![true, true, false, false]);
        assert_eq!(layer.failed_out, vec![true, false, false]);
        // Static-only: no dynamic process, so no transitions either.
        assert_eq!(layer.transition_rate(), 0.0);
    }

    #[test]
    fn transitions_conserve_counts_and_flags() {
        let cfg = FaultConfig::from_mtbf_mttr(10.0, 5.0);
        let mut layer = FaultLayer::new(cfg, 5, 3);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            assert!(layer.transition_rate() > 0.0);
            let t = layer.sample_transition(&mut rng);
            let flags = match t.side {
                Side::Input => &layer.failed_in,
                Side::Output => &layer.failed_out,
            };
            assert_eq!(flags[t.port as usize], t.is_failure);
            let count_in = layer.failed_in.iter().filter(|&&f| f).count() as u32;
            let count_out = layer.failed_out.iter().filter(|&&f| f).count() as u32;
            assert_eq!(count_in, layer.failed_in_count);
            assert_eq!(count_out, layer.failed_out_count);
        }
        // Both directions must actually occur.
        assert!(layer.failures > 0 && layer.repairs > 0);
    }

    #[test]
    fn no_repair_rate_absorbs_into_all_failed() {
        let cfg = FaultConfig {
            fail_rate: 1.0,
            repair_rate: 0.0,
            fail_inputs: 0,
            fail_outputs: 0,
        };
        let mut layer = FaultLayer::new(cfg, 2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        while layer.transition_rate() > 0.0 {
            layer.sample_transition(&mut rng);
        }
        assert_eq!(layer.failed_in_count, 2);
        assert_eq!(layer.failed_out_count, 2);
        assert_eq!(layer.repairs, 0);
    }

    #[test]
    fn failure_repair_equilibrium_matches_two_state_formula() {
        // Each port is an independent up/down chain: long-run failed
        // fraction = fail/(fail+repair).
        let cfg = FaultConfig::from_mtbf_mttr(10.0, 10.0);
        let mut layer = FaultLayer::new(cfg, 8, 8);
        let mut rng = StdRng::seed_from_u64(7);
        // Jump-chain average over many transitions approximates the
        // embedded stationary distribution; with symmetric rates the
        // time-stationary failed fraction is 1/2.
        let mut failed_acc = 0u64;
        let n_steps = 60_000;
        for _ in 0..n_steps {
            layer.sample_transition(&mut rng);
            failed_acc += (layer.failed_in_count + layer.failed_out_count) as u64;
        }
        let mean_failed = failed_acc as f64 / n_steps as f64 / 16.0;
        assert!((mean_failed - 0.5).abs() < 0.05, "{mean_failed}");
    }
}
