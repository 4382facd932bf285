//! Hot-spot (non-uniform output) traffic — the scenario of the authors'
//! companion paper \[28\] ("Modeling and Analysis of Hot Spots in an
//! Asynchronous N×N Crossbar Switch"), which this paper's uniform-traffic
//! model does not cover. Simulation-only.
//!
//! Model: single-connection (`a = 1`) Poisson requests at total rate
//! `N1·N2·λ`; the input is uniform; the output is the designated *hot*
//! output with probability `h + (1−h)/N2` and any particular other output
//! with probability `(1−h)/N2` — i.e. a fraction `h` of all traffic is
//! redirected at the hot spot, the rest stays uniform (the classical
//! hot-spot parameterisation). `h = 0` recovers the uniform model exactly,
//! which is how the simulator is validated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::Calendar;
use crate::service::ServiceDist;
use crate::stats::{BatchMeans, Estimate};

/// Hot-spot simulator configuration.
#[derive(Clone, Copy, Debug)]
pub struct HotspotConfig {
    /// Inputs.
    pub n1: u32,
    /// Outputs.
    pub n2: u32,
    /// Per-(input,output)-pair Poisson arrival rate λ (uniform component).
    pub lambda: f64,
    /// Fraction of traffic redirected to the hot output (`0 ≤ h < 1`).
    pub hot_fraction: f64,
    /// Holding-time distribution.
    pub service: ServiceDist,
}

/// Simulation output for the hot-spot scenario.
#[derive(Clone, Debug)]
pub struct HotspotReport {
    /// Overall call blocking.
    pub blocking: Estimate,
    /// Blocking of requests aimed at the hot output.
    pub hot_blocking: Estimate,
    /// Blocking of requests aimed at other outputs.
    pub cold_blocking: Estimate,
    /// Time-average utilisation of the hot output.
    pub hot_utilisation: f64,
    /// Time-average utilisation over the cold outputs.
    pub cold_utilisation: f64,
}

/// Hot-spot crossbar simulator (`a = 1` only).
pub struct HotspotSim {
    cfg: HotspotConfig,
    rng: StdRng,
}

impl HotspotSim {
    /// Build from a config and seed.
    pub fn new(cfg: HotspotConfig, seed: u64) -> Self {
        assert!(cfg.n1 >= 1 && cfg.n2 >= 1);
        assert!((0.0..1.0).contains(&cfg.hot_fraction));
        assert!(cfg.lambda > 0.0);
        HotspotSim {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Run for `warmup + duration`, measuring after warmup with
    /// `batches` batch means.
    pub fn run(&mut self, warmup: f64, duration: f64, batches: usize) -> HotspotReport {
        let cfg = self.cfg;
        let (n1, n2) = (cfg.n1 as usize, cfg.n2 as usize);
        let hot = 0usize; // output 0 is the hot spot
        let total_rate = cfg.n1 as f64 * cfg.n2 as f64 * cfg.lambda / (1.0 - cfg.hot_fraction);
        // With probability h the output is forced to `hot`; otherwise it is
        // uniform — so each cold output sees rate (1−h)·Λ/N2 = N1·λ, i.e.
        // λ per pair, and the hot output sees that plus the redirected mass.
        let mut busy_in = vec![false; n1];
        let mut busy_out = vec![false; n2];
        // Busy outputs other than `hot`, kept on accept and depart.
        let mut cold_busy = 0usize;
        // A departure carries the (input, output) pair it releases.
        let mut cal: Calendar<Option<(usize, usize)>> = Calendar::new();
        let end_total = warmup + duration;
        let batch_len = duration / batches as f64;

        #[derive(Clone, Copy, Default)]
        struct Counts {
            offered: u64,
            blocked: u64,
            hot_offered: u64,
            hot_blocked: u64,
        }
        let mut per_batch = vec![Counts::default(); batches];
        let mut hot_busy_time = 0.0f64;
        let mut cold_busy_time = 0.0f64;

        while let Some(fired) = cal.step(
            &mut self.rng,
            end_total,
            (total_rate, None),
            (0.0, None),
            |from, to| {
                // Accumulate utilisation time in the measurement window.
                let (lo, hi) = (from.max(warmup), to.max(warmup));
                if hi > lo {
                    let dt = hi - lo;
                    if busy_out[hot] {
                        hot_busy_time += dt;
                    }
                    cold_busy_time += cold_busy as f64 * dt;
                }
            },
        ) {
            if let Some((i, o)) = fired {
                busy_in[i] = false;
                busy_out[o] = false;
                if o != hot {
                    cold_busy -= 1;
                }
                continue;
            }
            let now = cal.now();
            let input = self.rng.gen_range(0..n1);
            let output = if self.rng.gen::<f64>() < cfg.hot_fraction {
                hot
            } else {
                self.rng.gen_range(0..n2)
            };
            let accepted = !busy_in[input] && !busy_out[output];
            if now >= warmup {
                let b = (((now - warmup) / batch_len) as usize).min(batches - 1);
                per_batch[b].offered += 1;
                if output == hot {
                    per_batch[b].hot_offered += 1;
                }
                if !accepted {
                    per_batch[b].blocked += 1;
                    if output == hot {
                        per_batch[b].hot_blocked += 1;
                    }
                }
            }
            if accepted {
                busy_in[input] = true;
                busy_out[output] = true;
                if output != hot {
                    cold_busy += 1;
                }
                let hold = cfg.service.sample(&mut self.rng);
                cal.schedule(hold, Some((input, output)));
            }
        }

        let estimate = |ratio: fn(&Counts) -> (u64, u64)| {
            BatchMeans::from_ratios(per_batch.iter().map(ratio)).estimate()
        };
        let blocking = estimate(|c| (c.blocked, c.offered));
        let hot_blocking = estimate(|c| (c.hot_blocked, c.hot_offered));
        let cold_blocking = estimate(|c| (c.blocked - c.hot_blocked, c.offered - c.hot_offered));

        HotspotReport {
            blocking,
            hot_blocking,
            cold_blocking,
            hot_utilisation: hot_busy_time / duration,
            cold_utilisation: cold_busy_time / (duration * (n2 as f64 - 1.0).max(1.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg(h: f64) -> HotspotConfig {
        HotspotConfig {
            n1: 8,
            n2: 8,
            lambda: 0.02,
            hot_fraction: h,
            service: ServiceDist::Exponential { mean: 1.0 },
        }
    }

    #[test]
    fn hot_output_is_busier_and_blocks_more() {
        let mut sim = HotspotSim::new(base_cfg(0.3), 42);
        let rep = sim.run(100.0, 50_000.0, 10);
        assert!(
            rep.hot_utilisation > 2.0 * rep.cold_utilisation,
            "hot {} vs cold {}",
            rep.hot_utilisation,
            rep.cold_utilisation
        );
        assert!(
            rep.hot_blocking.mean > rep.cold_blocking.mean,
            "hot {} vs cold {}",
            rep.hot_blocking.mean,
            rep.cold_blocking.mean
        );
    }

    #[test]
    fn zero_hotspot_is_symmetric() {
        let mut sim = HotspotSim::new(base_cfg(0.0), 7);
        let rep = sim.run(100.0, 50_000.0, 10);
        // Hot output is just output 0; its utilisation matches the others.
        assert!(
            (rep.hot_utilisation - rep.cold_utilisation).abs() < 0.02,
            "hot {} vs cold {}",
            rep.hot_utilisation,
            rep.cold_utilisation
        );
    }

    #[test]
    fn more_hotspot_more_blocking() {
        let b0 = HotspotSim::new(base_cfg(0.0), 1).run(100.0, 30_000.0, 10);
        let b4 = HotspotSim::new(base_cfg(0.4), 1).run(100.0, 30_000.0, 10);
        assert!(
            b4.blocking.mean > b0.blocking.mean,
            "{} !> {}",
            b4.blocking.mean,
            b0.blocking.mean
        );
    }

    #[test]
    #[should_panic]
    fn rejects_invalid_hot_fraction() {
        let _ = HotspotSim::new(base_cfg(1.0), 0);
    }
}
