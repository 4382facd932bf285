#![warn(missing_docs)]

//! Shared fixtures for the Criterion benchmarks: canonical models at the
//! paper's operating points, so every bench target measures the same
//! objects the experiments use — plus the machine-readable
//! [`BenchReport`] format the `perf_trajectory` binary writes to
//! `BENCH_N.json`, so the perf story is trackable across PRs without
//! parsing Criterion console output.

use xbar_core::{Dims, Model};
use xbar_traffic::{TildeClass, Workload};

/// One timed benchmark point for the machine-readable trajectory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRecord {
    /// Fully-qualified label, e.g. `alg1-ext/solve/512/t4`.
    pub name: String,
    /// Square switch size `N`.
    pub n: u32,
    /// Backend identifier (`alg1-f64` / `alg1-scaled` / `alg1-ext`).
    pub backend: String,
    /// Wavefront thread count the solve ran with.
    pub threads: usize,
    /// Median wall-clock nanoseconds per solve.
    pub median_ns: u64,
}

/// A full `BENCH_N.json` payload: every record plus enough host context to
/// interpret the numbers (a 1-core host cannot show parallel speedup, and
/// the JSON must say so rather than imply a regression).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchReport {
    /// Which PR produced the report (the `N` in `BENCH_N.json`).
    pub pr: u32,
    /// Auto-detected thread count on the measuring host.
    pub host_threads: usize,
    /// All timed points.
    pub records: Vec<BenchRecord>,
    /// Optional observability snapshot (the [`xbar_obs`] JSON document,
    /// embedded verbatim under an `"obs"` key) captured from one
    /// instrumented reference solve — the timed records themselves always
    /// run with metrics off so medians stay comparable across PRs.
    pub obs_snapshot: Option<String>,
}

/// Minimal JSON string escaping (labels are ASCII identifiers, but be
/// correct anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl BenchReport {
    /// Serialise to pretty-printed JSON (hand-rolled: the build environment
    /// has no serde, and the schema is four scalar fields per record).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"pr\": {},\n", self.pr));
        s.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
        s.push_str("  \"records\": [\n");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"n\": {}, \"backend\": \"{}\", \
                 \"threads\": {}, \"median_ns\": {}}}{comma}\n",
                json_escape(&r.name),
                r.n,
                json_escape(&r.backend),
                r.threads,
                r.median_ns,
            ));
        }
        match &self.obs_snapshot {
            // The snapshot is already a JSON document; embed it raw.
            Some(obs) => {
                s.push_str("  ],\n");
                s.push_str(&format!("  \"obs\": {}\n", obs.trim_end()));
            }
            None => s.push_str("  ]\n"),
        }
        s.push_str("}\n");
        s
    }
}

/// The Table 2 (set 1) model at size `n`: one Poisson class and one Pascal
/// class at `ρ̃ = β̃ = .0012`, `w = (1, 10⁻⁴)`.
pub fn table2_model(n: u32) -> Model {
    let workload = Workload::from_tilde(
        &[
            TildeClass::poisson(0.0012).with_weight(1.0),
            TildeClass::bpp(0.0012, 0.0012, 1.0).with_weight(0.0001),
        ],
        n,
    );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// The Figure 1 model at size `n` and smoothing `β̃ ≤ 0`.
pub fn fig1_model(n: u32, beta_tilde: f64) -> Model {
    let workload = Workload::from_tilde(&[TildeClass::bpp(0.0024, beta_tilde, 1.0)], n);
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// The fig2-flavoured sweep fixture: four classes (Poisson baseline,
/// peaky Pascal, and a two-rate pair at `a = 2`) with `/N`-scaled per-set
/// loads, sized so extended range solves it at any `N`. This is the
/// `R ≥ 4` model the `sweep/fig2-points-per-sec` trajectory records are
/// measured on.
pub fn fig2_sweep_model(n: u32) -> Model {
    let workload = Workload::from_tilde(
        &[
            TildeClass::poisson(0.0024).with_weight(1.0),
            TildeClass::bpp(0.0024, 0.0012, 1.0).with_weight(0.5),
            TildeClass::poisson(0.0012)
                .with_bandwidth(2)
                .with_weight(0.8),
            TildeClass::bpp(0.0012, 0.0006, 1.0)
                .with_bandwidth(2)
                .with_weight(0.2),
        ],
        n,
    );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// The sensitivity-timing fixture: *per-set* (not `/N`-scaled) loads so
/// the finite-difference oracle's curvature-scaled step
/// (`ε^⅓·max(|ρ|, 1) ≈ 6e-6`) stays inside the valid load range at every
/// `N`. On the paper's tilde fixtures the per-set load at `N = 512` is
/// `≈ 2e-6`, so the FD step drives `ρ` negative and the oracle cannot
/// run at all — one more reason the exact sweep-partial gradients exist.
pub fn sensitivity_model(n: u32) -> Model {
    let workload = Workload::new()
        .with(xbar_traffic::TrafficClass::poisson(0.02).with_weight(1.0))
        .with(xbar_traffic::TrafficClass::bpp(0.01, 0.004, 1.0).with_weight(0.1));
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// One member of the heterogeneous fleet fixture: sizes cycle through
/// `24..=39` while the offered load drifts with the index, so every
/// member carries a distinct canonical fingerprint (no two dedupe away
/// inside `solve_fleet`) and a batch of `k` members really is `k`
/// independent lattice solves.
pub fn fleet_member_model(i: usize) -> Model {
    let n = 24 + (i % 16) as u32;
    let alpha = 0.0012 * (1.0 + 0.002 * i as f64);
    let workload = Workload::from_tilde(
        &[
            TildeClass::poisson(alpha).with_weight(1.0),
            TildeClass::bpp(alpha, alpha, 1.0).with_weight(0.0001),
        ],
        n,
    );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

/// The replay hot-loop fixture: `r` traffic classes (alternating
/// Poisson / Pascal, bandwidths 1 and 2) on a 16×16 switch. The
/// `sim/events-per-sec-scalar` trajectory records time the
/// [`RateTable`] replay loop against `replay_legacy` on it at `r = 12`.
///
/// [`RateTable`]: ../xbar_sim/rates/struct.RateTable.html
pub fn replay_hot_model(r: u32) -> Model {
    let mut workload = Workload::new();
    for i in 0..r {
        let alpha = 0.02 + 0.01 * (i % 4) as f64;
        let class = if i % 2 == 0 {
            xbar_traffic::TrafficClass::poisson(alpha)
        } else {
            xbar_traffic::TrafficClass::bpp(alpha, 0.4, 1.0)
        };
        workload = workload.with(class.with_bandwidth(1 + (i % 3 == 2) as u32));
    }
    Model::new(Dims::square(16), workload).expect("valid fixture")
}

/// A heavier mixed multi-rate fixture exercising all recursion paths.
pub fn mixed_model(n: u32) -> Model {
    let workload = Workload::from_tilde(
        &[
            TildeClass::poisson(0.4),
            TildeClass::bpp(0.2, 0.1, 1.0),
            TildeClass::poisson(0.1).with_bandwidth(2),
            TildeClass::bpp(0.05, 0.02, 2.0).with_bandwidth(2),
        ],
        n,
    );
    Model::new(Dims::square(n), workload).expect("valid fixture")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::{solve, Algorithm};

    #[test]
    fn fixtures_are_solvable() {
        assert!(solve(&table2_model(8), Algorithm::Auto).is_ok());
        assert!(solve(&fig1_model(16, -2.0e-6), Algorithm::Auto).is_ok());
        assert!(solve(&mixed_model(8), Algorithm::Auto).is_ok());
        assert!(solve(&fig2_sweep_model(8), Algorithm::Auto).is_ok());
        assert_eq!(fig2_sweep_model(8).num_classes(), 4);
        assert!(solve(&sensitivity_model(8), Algorithm::Auto).is_ok());
        assert!(solve(&replay_hot_model(12), Algorithm::Auto).is_ok());
        assert_eq!(replay_hot_model(12).num_classes(), 12);
    }

    #[test]
    fn fixtures_scale_to_large_sizes() {
        assert!(solve(&table2_model(256), Algorithm::Alg1Ext).is_ok());
    }

    #[test]
    fn fleet_members_are_solvable_and_pairwise_distinct() {
        let models: Vec<_> = (0..100).map(fleet_member_model).collect();
        assert!(solve(&models[0], Algorithm::Auto).is_ok());
        assert!(solve(&models[99], Algorithm::Auto).is_ok());
        // No two members may dedupe inside solve_fleet: every batch of k
        // must cost k real solves for the trajectory numbers to mean
        // anything.
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        {
            let _g = xbar_obs::scope(&reg);
            let results = xbar_core::SolveCache::new(128).solve_fleet(&models, Algorithm::Auto);
            assert!(results.iter().all(|r| r.is_ok()));
        }
        assert_eq!(reg.snapshot().counter("fleet.deduped").unwrap_or(0), 0);
    }

    #[test]
    fn bench_report_serialises_to_well_formed_json() {
        let report = BenchReport {
            pr: 2,
            host_threads: 4,
            records: vec![
                BenchRecord {
                    name: "alg1-ext/solve/512/t1".into(),
                    n: 512,
                    backend: "alg1-ext".into(),
                    threads: 1,
                    median_ns: 28_000_000,
                },
                BenchRecord {
                    name: "alg1-ext/solve/512/t4".into(),
                    n: 512,
                    backend: "alg1-ext".into(),
                    threads: 4,
                    median_ns: 9_000_000,
                },
            ],
            obs_snapshot: None,
        };
        let json = report.to_json();
        assert!(json.contains("\"pr\": 2"));
        assert!(json.contains("\"host_threads\": 4"));
        assert!(json.contains("\"median_ns\": 28000000"));
        // Balanced braces/brackets and exactly one trailing record without
        // a comma — a cheap well-formedness check without a JSON parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"threads\": 4, \"median_ns\": 9000000}\n"));
    }

    #[test]
    fn bench_report_embeds_obs_snapshot_verbatim() {
        let reg = xbar_obs::Registry::new();
        reg.counter("bench.reference_solves").add(1);
        let report = BenchReport {
            pr: 3,
            host_threads: 1,
            records: vec![],
            obs_snapshot: Some(reg.snapshot().to_json()),
        };
        let json = report.to_json();
        assert!(json.contains("\"obs\": {"));
        assert!(json.contains("\"bench.reference_solves\": 1"));
        assert!(json.contains(&format!("\"schema\": {}", xbar_obs::SNAPSHOT_SCHEMA)));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\there"), "tab\\u0009here");
    }
}
