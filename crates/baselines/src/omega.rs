//! Omega (shuffle-exchange) multistage interconnection network of `2 × 2`
//! crossbars, operated circuit-switched and asynchronously.
//!
//! This is the `O(N log N)` architecture the paper's introduction positions
//! the optical crossbar against: cheaper in switching elements, but
//! *internally blocking* — two connections with distinct inputs and
//! distinct outputs can still collide on an internal link. The simulator
//! quantifies that penalty against the non-blocking crossbar at matched
//! load.
//!
//! Topology/routing: `N = 2^stages` ports; the path of a connection
//! `(i → j)` is the standard destination-tag route. Tracking the *output
//! link* of each stage as the contended resource: starting from
//! `cur = i`, at stage `s` the route takes
//! `cur = ((cur << 1) | bit_{stages−1−s}(j)) mod N`, claiming link
//! `(s, cur)`. Unique path per `(i, j)` pair; the network is non-blocking
//! for a connection iff all `stages` links on the path are idle.
//!
//! The classical slotted-load thinning approximation
//! `p_{s+1} = 1 − (1 − p_s/2)²` (Patel) is included for cross-reference.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::erlang::erlang_b;
use xbar_sim::events::Calendar;
use xbar_sim::{BatchMeans, Estimate, ServiceDist};

/// Compute the unique Omega-network path of `(input → output)` as the
/// sequence of `(stage, link)` resources.
pub fn omega_path(stages: u32, input: u32, output: u32) -> Vec<(u32, u32)> {
    let n = 1u32 << stages;
    debug_assert!(input < n && output < n);
    let mut cur = input;
    let mut path = Vec::with_capacity(stages as usize);
    for s in 0..stages {
        let bit = (output >> (stages - 1 - s)) & 1;
        cur = ((cur << 1) | bit) & (n - 1);
        path.push((s, cur));
    }
    path
}

/// Patel's per-stage load-thinning recursion for a slotted MIN of `2 × 2`
/// elements: input load `p0`, output load after `stages` stages.
pub fn patel_thinning(p0: f64, stages: u32) -> f64 {
    let mut p = p0;
    for _ in 0..stages {
        p = 1.0 - (1.0 - p / 2.0) * (1.0 - p / 2.0);
    }
    p
}

/// Configuration for the asynchronous circuit-switched Omega simulator.
#[derive(Clone, Copy, Debug)]
pub struct OmegaConfig {
    /// Number of stages; the network has `2^stages` ports.
    pub stages: u32,
    /// Poisson arrival rate per (input, output) pair.
    pub lambda: f64,
    /// Holding-time distribution (mean `1/μ`).
    pub service: ServiceDist,
}

/// Simulation output.
#[derive(Clone, Debug)]
pub struct OmegaReport {
    /// Call blocking probability with CI.
    pub blocking: Estimate,
    /// Offered calls in the measurement window.
    pub offered: u64,
    /// Blocking a *crossbar* would have shown for the same call sequence
    /// (i.e. only end-port conflicts) — the internal-blocking penalty is
    /// `blocking − crossbar_blocking`.
    pub crossbar_blocking: Estimate,
}

/// Asynchronous circuit-switched Omega-network simulator.
pub struct OmegaSim {
    cfg: OmegaConfig,
    rng: StdRng,
}

impl OmegaSim {
    /// Build from config and seed.
    pub fn new(cfg: OmegaConfig, seed: u64) -> Self {
        assert!(cfg.stages >= 1 && cfg.stages <= 16);
        assert!(cfg.lambda > 0.0);
        OmegaSim {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Run `warmup + duration` sim-time with `batches` batch means.
    pub fn run(&mut self, warmup: f64, duration: f64, batches: usize) -> OmegaReport {
        let stages = self.cfg.stages;
        let n = 1usize << stages;
        let total_rate = (n * n) as f64 * self.cfg.lambda;
        let mut busy_link = vec![vec![false; n]; stages as usize];
        let mut busy_in = vec![false; n];
        let mut busy_out = vec![false; n];

        // A departure carries the ports and per-stage links it releases.
        type LiveConn = (usize, usize, Vec<(u32, u32)>);
        let mut cal: Calendar<Option<LiveConn>> = Calendar::new();
        let batch_len = duration / batches as f64;
        let mut b_off = vec![0u64; batches];
        let mut b_blk = vec![0u64; batches];
        let mut b_xblk = vec![0u64; batches];

        let end = warmup + duration;
        while let Some(fired) = cal.step(
            &mut self.rng,
            end,
            (total_rate, None),
            (0.0, None),
            |_, _| {},
        ) {
            if let Some((i, o, path)) = fired {
                busy_in[i] = false;
                busy_out[o] = false;
                for (s, l) in path {
                    busy_link[s as usize][l as usize] = false;
                }
                continue;
            }
            let now = cal.now();
            let input = self.rng.gen_range(0..n);
            let output = self.rng.gen_range(0..n);
            let path = omega_path(stages, input as u32, output as u32);
            let ends_free = !busy_in[input] && !busy_out[output];
            let links_free = path
                .iter()
                .all(|&(s, l)| !busy_link[s as usize][l as usize]);
            let accepted = ends_free && links_free;
            if now >= warmup {
                let b = (((now - warmup) / batch_len) as usize).min(batches - 1);
                b_off[b] += 1;
                if !accepted {
                    b_blk[b] += 1;
                }
                if !ends_free {
                    b_xblk[b] += 1;
                }
            }
            if accepted {
                busy_in[input] = true;
                busy_out[output] = true;
                for &(s, l) in &path {
                    busy_link[s as usize][l as usize] = true;
                }
                let hold = self.cfg.service.sample(&mut self.rng);
                cal.schedule(hold, Some((input, output, path)));
            }
        }

        let ratio = |blk: &[u64], off: &[u64]| {
            BatchMeans::from_ratios(blk.iter().copied().zip(off.iter().copied())).estimate()
        };
        OmegaReport {
            blocking: ratio(&b_blk, &b_off),
            offered: b_off.iter().sum(),
            crossbar_blocking: ratio(&b_xblk, &b_off),
        }
    }

    /// A crude analytic reference: treat each of the `stages·N` internal
    /// links as an independent Erlang-B server offered the thinned load
    /// that traverses it (`N·λ/μ` per link on average). Useful only as an
    /// order-of-magnitude cross-check — link occupancies are correlated.
    pub fn independent_link_approximation(&self) -> f64 {
        let n = 1u64 << self.cfg.stages;
        let per_link_load = n as f64 * self.cfg.lambda * self.cfg.service.mean();
        let p_link = erlang_b(1, per_link_load);
        // Path of `stages` links plus the two end ports.
        let p_end = erlang_b(1, per_link_load);
        1.0 - (1.0 - p_link).powi(self.cfg.stages as i32) * (1.0 - p_end) * (1.0 - p_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omega_paths_are_unique_per_pair_and_reach_destination() {
        let stages = 3u32;
        let n = 1u32 << stages;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in 0..n {
                let path = omega_path(stages, i, j);
                assert_eq!(path.len(), stages as usize);
                // Final link index equals the destination (destination-tag
                // routing lands on output j).
                assert_eq!(path.last().unwrap().1, j);
                assert!(seen.insert((i, j, path)), "duplicate path");
            }
        }
    }

    #[test]
    fn distinct_ports_can_still_collide_internally() {
        // The defining property of a blocking MIN: find two (i,j) pairs
        // with all-distinct endpoints sharing an internal link.
        let stages = 3u32;
        let n = 1u32 << stages;
        let mut found = false;
        'outer: for i1 in 0..n {
            for j1 in 0..n {
                for i2 in 0..n {
                    for j2 in 0..n {
                        if i1 == i2 || j1 == j2 {
                            continue;
                        }
                        let p1 = omega_path(stages, i1, j1);
                        let p2 = omega_path(stages, i2, j2);
                        // Compare non-final links (final link == output).
                        if p1[..p1.len() - 1]
                            .iter()
                            .any(|l| p2[..p2.len() - 1].contains(l))
                        {
                            found = true;
                            break 'outer;
                        }
                    }
                }
            }
        }
        assert!(found, "Omega network should have internal conflicts");
    }

    #[test]
    fn patel_thinning_decreases_load() {
        let p1 = patel_thinning(1.0, 1);
        assert!((p1 - 0.75).abs() < 1e-12);
        assert!(patel_thinning(0.9, 4) < 0.9);
        assert_eq!(patel_thinning(0.0, 5), 0.0);
    }

    #[test]
    fn omega_blocks_more_than_crossbar_at_same_load() {
        let cfg = OmegaConfig {
            stages: 4, // 16 x 16
            lambda: 0.004,
            service: ServiceDist::Exponential { mean: 1.0 },
        };
        let rep = OmegaSim::new(cfg, 21).run(200.0, 20_000.0, 10);
        assert!(rep.offered > 10_000);
        assert!(
            rep.blocking.mean > rep.crossbar_blocking.mean,
            "omega {} !> crossbar {}",
            rep.blocking.mean,
            rep.crossbar_blocking.mean
        );
    }

    #[test]
    fn independent_link_approximation_is_same_ballpark() {
        let cfg = OmegaConfig {
            stages: 4,
            lambda: 0.004,
            service: ServiceDist::Exponential { mean: 1.0 },
        };
        let approx = OmegaSim::new(cfg, 5).independent_link_approximation();
        let rep = OmegaSim::new(cfg, 5).run(200.0, 20_000.0, 10);
        assert!(
            approx > 0.2 * rep.blocking.mean && approx < 5.0 * rep.blocking.mean,
            "approx {approx} vs sim {}",
            rep.blocking.mean
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = OmegaConfig {
            stages: 3,
            lambda: 0.01,
            service: ServiceDist::Exponential { mean: 1.0 },
        };
        let a = OmegaSim::new(cfg, 9).run(10.0, 2_000.0, 5);
        let b = OmegaSim::new(cfg, 9).run(10.0, 2_000.0, 5);
        assert_eq!(a.offered, b.offered);
    }
}

/// Analytic reduced-load (Erlang fixed-point) blocking for the
/// asynchronous circuit-switched Omega network — the paper's second
/// future-work item ("extending this analysis to asynchronous all-optical
/// multi-stage networks"), delivered at mean-field level.
///
/// Resources on a route: the input port, `stages` internal links, the
/// output port. By symmetry every internal link carries the same load, so
/// the fixed point has two unknowns — the port busy-probability `b_p` and
/// the link busy-probability `b_l`:
///
/// The final-stage link of a route *is* its output (destination-tag
/// routing lands there), so it is not an independent resource: a route
/// sees the input port, `S − 1` internal links, and the output port:
///
/// ```text
/// v_p = N·(λ/μ)·(1−b_p)·(1−b_l)^(S−1)        (offered to a port, thinned
/// v_l = N·(λ/μ)·(1−b_p)²·(1−b_l)^(S−2)        by every *other* resource)
/// b_p = v_p/(1+v_p),  b_l = v_l/(1+v_l)       (Erlang-B with one server)
/// B   = 1 − (1−b_p)²·(1−b_l)^(S−1)
/// ```
///
/// Damped iteration; always converges at sane loads. Accuracy is
/// mean-field grade and *pessimistic*: link occupancies along a route are
/// strongly positively correlated in a shuffle network (an input's
/// traffic funnels into just two stage-1 links), which independence
/// ignores — measured +45–65% relative at light load against
/// [`OmegaSim`], tightening as load grows. The `min_analysis` experiment
/// quantifies this.
pub fn omega_reduced_load(stages: u32, lambda: f64, mu: f64) -> f64 {
    let n = (1u64 << stages) as f64;
    let offered = n * lambda / mu;
    let s = stages as i32;
    let mut b_p = 0.0f64;
    let mut b_l = 0.0f64;
    for _ in 0..20_000 {
        let v_p = offered * (1.0 - b_p) * (1.0 - b_l).powi(s - 1);
        let v_l = offered * (1.0 - b_p) * (1.0 - b_p) * (1.0 - b_l).powi(s - 2);
        let nb_p = v_p / (1.0 + v_p);
        let nb_l = v_l / (1.0 + v_l);
        let (pb, lb) = (0.5 * (b_p + nb_p), 0.5 * (b_l + nb_l));
        if (pb - b_p).abs() + (lb - b_l).abs() < 1e-14 {
            b_p = pb;
            b_l = lb;
            break;
        }
        b_p = pb;
        b_l = lb;
    }
    1.0 - (1.0 - b_p) * (1.0 - b_p) * (1.0 - b_l).powi(s - 1)
}

#[cfg(test)]
mod reduced_load_tests {
    use super::*;

    #[test]
    fn zero_load_means_zero_blocking() {
        assert!(omega_reduced_load(4, 1e-12, 1.0) < 1e-9);
    }

    #[test]
    fn monotone_in_load_and_depth() {
        assert!(omega_reduced_load(4, 0.02, 1.0) > omega_reduced_load(4, 0.005, 1.0));
        // More stages, more internal resources to collide on (at the same
        // per-pair load on the respective network sizes the comparison is
        // confounded by N; fix the port count story by comparing directly
        // at equal offered-per-port).
        let shallow = omega_reduced_load(3, 0.4 / 8.0, 1.0);
        let deep = omega_reduced_load(3, 0.4 / 8.0, 1.0); // same-size sanity
        assert!((shallow - deep).abs() < 1e-15);
    }

    #[test]
    fn tracks_simulation_within_mean_field_accuracy() {
        for &(lambda, tol) in &[(0.004f64, 0.65f64), (0.012, 0.55)] {
            let cfg = OmegaConfig {
                stages: 4,
                lambda,
                service: ServiceDist::Exponential { mean: 1.0 },
            };
            let sim = OmegaSim::new(cfg, 13).run(300.0, 30_000.0, 10);
            let analytic = omega_reduced_load(4, lambda, 1.0);
            let rel = (analytic - sim.blocking.mean).abs() / sim.blocking.mean;
            assert!(
                rel < tol,
                "lambda={lambda}: analytic {analytic} vs sim {} (rel {rel})",
                sim.blocking.mean
            );
        }
    }

    #[test]
    fn better_than_the_crude_independent_link_formula() {
        let cfg = OmegaConfig {
            stages: 4,
            lambda: 0.008,
            service: ServiceDist::Exponential { mean: 1.0 },
        };
        let sim = OmegaSim::new(cfg, 29).run(300.0, 30_000.0, 10);
        let fixed_point = omega_reduced_load(4, 0.008, 1.0);
        let crude = OmegaSim::new(cfg, 29).independent_link_approximation();
        let err_fp = (fixed_point - sim.blocking.mean).abs();
        let err_crude = (crude - sim.blocking.mean).abs();
        assert!(
            err_fp < err_crude,
            "fixed point {fixed_point} vs crude {crude}, sim {}",
            sim.blocking.mean
        );
    }
}
