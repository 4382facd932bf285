//! **Figure 2** — blocking probability vs. switch size for *peaky*
//! (Pascal) arrival traffic, with the Poisson curve as the baseline it
//! dramatically exceeds.
//!
//! The paper states the setup (`R2 = 1`, `a = 1`, Poisson curve at
//! `α̃ = .0024, μ = 1, β̃ = 0`) but not the Pascal `β̃` grid. We plot two
//! documented series (see EXPERIMENTS.md):
//!
//! * **fixed-β̃** — `β̃ ∈ {6e−4, 1.2e−3, 2.4e−3}`, bracketing the
//!   `β̃ = α̃/2 … α̃` magnitudes Table 2 uses; the per-pair peakedness
//!   `Z = 1/(1 − β̃/N)` fades as `N` grows, yet the *effect on blocking*
//!   still compounds because the class concurrency grows with `N`.
//! * **fixed-Z** — per-pair peakedness held at `Z ∈ {1.25, 1.5, 2}`
//!   (`β = μ(1 − 1/Z)` per pair, i.e. `β̃ = N·β`), the reading under which
//!   "peaky traffic" stays peaky at every size and the dramatic impact the
//!   paper describes is fully visible.

use xbar_core::{solve, sweep_many, Algorithm, Dims, Model, SweepSolver};
use xbar_traffic::{TildeClass, TrafficClass, Workload};

use crate::fig1::ALPHA_TILDE;
use crate::Table;

/// Fixed-`β̃` series values (0 = the Poisson baseline).
pub const BETA_TILDES: [f64; 4] = [0.0, 6.0e-4, 1.2e-3, 2.4e-3];

/// Fixed per-pair peakedness series values.
pub const Z_FACTORS: [f64; 3] = [1.25, 1.5, 2.0];

/// Largest switch size plotted.
pub const MAX_N: u32 = 128;

/// Which series a row belongs to.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Series {
    /// Fixed aggregated `β̃` (param = `β̃`).
    FixedBetaTilde,
    /// Fixed per-pair peakedness (param = `Z`).
    FixedZ,
}

/// One point of the figure.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Series identity.
    pub series: Series,
    /// Series parameter (`β̃` or `Z`).
    pub param: f64,
    /// Square switch size.
    pub n: u32,
    /// Blocking probability.
    pub blocking: f64,
}

/// The model for the fixed-`β̃` series at one cell.
pub fn model_fixed_beta(n: u32, beta_tilde: f64) -> Model {
    let workload = Workload::from_tilde(&[TildeClass::bpp(ALPHA_TILDE, beta_tilde, 1.0)], n);
    Model::new(Dims::square(n), workload).expect("valid Fig 2 model")
}

/// Blocking for the fixed-`β̃` series at one cell.
pub fn blocking_fixed_beta(n: u32, beta_tilde: f64) -> f64 {
    solve(&model_fixed_beta(n, beta_tilde), Algorithm::Auto)
        .expect("solvable")
        .blocking(0)
}

/// The model for the fixed-`Z` series at one cell: per-pair
/// `β = μ(1 − 1/Z)`, per-pair `α = α̃/N` as in the other series.
pub fn model_fixed_z(n: u32, z: f64) -> Model {
    let beta = 1.0 - 1.0 / z; // mu = 1
    let class = TrafficClass::bpp(ALPHA_TILDE / n as f64, beta, 1.0);
    Model::new(Dims::square(n), Workload::new().with(class)).expect("valid fixed-Z model")
}

/// Blocking for the fixed-`Z` series at one cell.
pub fn blocking_fixed_z(n: u32, z: f64) -> f64 {
    solve(&model_fixed_z(n, z), Algorithm::Auto)
        .expect("solvable")
        .blocking(0)
}

/// All points of both series, every `N ∈ 1..=128`. All seven curves at
/// one size share everything but class 0's BPP parameters, so the whole
/// figure is one [`sweep_many`] precompute (every size built as one
/// batch, sharded over the worker pool) plus seven `O(N)` recombinations
/// per size (the Poisson baseline reuses the cached ray) instead of
/// seven full lattice solves per size; the recombinations fan out over
/// [`crate::par_map`].
pub fn rows() -> Vec<Row> {
    xbar_obs::time("fig2.rows", || {
        let per_n: Vec<Vec<f64>> = xbar_obs::time("solve", || {
            let models: Vec<Model> = (1..=MAX_N).map(|n| model_fixed_beta(n, 0.0)).collect();
            let solvers: Vec<SweepSolver> = sweep_many(&models, Algorithm::Auto)
                .into_iter()
                .collect::<Result<_, _>>()
                .expect("solvable");
            crate::par_map((1..=MAX_N).collect(), |n| {
                let i = (n - 1) as usize;
                let solve_class = |m: Model| {
                    let class = m.workload().classes()[0].clone();
                    solvers[i]
                        .solve_with_class(0, class)
                        .expect("solvable")
                        .blocking(0)
                };
                BETA_TILDES
                    .iter()
                    .map(|&b| solve_class(model_fixed_beta(n, b)))
                    .chain(Z_FACTORS.iter().map(|&z| solve_class(model_fixed_z(n, z))))
                    .collect()
            })
        });
        let mut rows = Vec::new();
        for (bi, &b) in BETA_TILDES.iter().enumerate() {
            for (vals, n) in per_n.iter().zip(1..=MAX_N) {
                rows.push(Row {
                    series: Series::FixedBetaTilde,
                    param: b,
                    n,
                    blocking: vals[bi],
                });
            }
        }
        for (zi, &z) in Z_FACTORS.iter().enumerate() {
            for (vals, n) in per_n.iter().zip(1..=MAX_N) {
                rows.push(Row {
                    series: Series::FixedZ,
                    param: z,
                    n,
                    blocking: vals[BETA_TILDES.len() + zi],
                });
            }
        }
        rows
    })
}

/// Render rows as a table.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(["series", "param", "N", "blocking"]);
    for r in rows {
        let series = match r.series {
            Series::FixedBetaTilde => "fixed-beta",
            Series::FixedZ => "fixed-Z",
        };
        t.push([
            series.to_string(),
            format!("{}", r.param),
            r.n.to_string(),
            format!("{:.8}", r.blocking),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaky_traffic_blocks_more_than_poisson_everywhere() {
        for &n in &[1u32, 4, 16, 64, 128] {
            let poisson = blocking_fixed_beta(n, 0.0);
            for &b in &BETA_TILDES[1..] {
                assert!(
                    blocking_fixed_beta(n, b) >= poisson - 1e-15,
                    "N={n} beta={b}"
                );
            }
            for &z in &Z_FACTORS {
                assert!(blocking_fixed_z(n, z) >= poisson - 1e-15, "N={n} Z={z}");
            }
        }
    }

    #[test]
    fn more_peakedness_more_blocking() {
        for &n in &[4u32, 32, 128] {
            assert!(blocking_fixed_beta(n, 2.4e-3) >= blocking_fixed_beta(n, 6.0e-4) - 1e-15);
            assert!(blocking_fixed_z(n, 2.0) > blocking_fixed_z(n, 1.25));
        }
    }

    #[test]
    fn fixed_z_impact_is_dramatic() {
        // The paper: "peaky arrival traffic has a dramatic impact on
        // blocking probability". Under constant per-pair peakedness Z = 2
        // the blocking is at least double the Poisson baseline at N = 64.
        let poisson = blocking_fixed_beta(64, 0.0);
        let peaky = blocking_fixed_z(64, 2.0);
        assert!(peaky > 2.0 * poisson, "peaky {peaky} vs poisson {poisson}");
    }

    #[test]
    fn fixed_beta_effect_compounds_with_n() {
        // Even though the per-pair β̃/N shrinks, the class concurrency
        // grows ∝ N, so the state-dependent boost β·k compounds and the
        // relative gap to Poisson *grows* with N — the same divergence
        // Table 2's sets 1 vs 2 show.
        let rel_gap = |n: u32| {
            let p = blocking_fixed_beta(n, 0.0);
            (blocking_fixed_beta(n, 2.4e-3) - p) / p
        };
        assert!(
            rel_gap(64) > rel_gap(4),
            "{} vs {}",
            rel_gap(64),
            rel_gap(4)
        );
    }

    #[test]
    fn rows_cover_both_series() {
        let rows = rows();
        let fixed_beta = rows
            .iter()
            .filter(|r| r.series == Series::FixedBetaTilde)
            .count();
        let fixed_z = rows.iter().filter(|r| r.series == Series::FixedZ).count();
        assert_eq!(fixed_beta, BETA_TILDES.len() * MAX_N as usize);
        assert_eq!(fixed_z, Z_FACTORS.len() * MAX_N as usize);
        assert_eq!(table(&rows).len(), rows.len());
    }
}
