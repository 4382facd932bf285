//! **Figure 1** — blocking probability vs. switch size for *smooth*
//! (Bernoulli) arrival traffic, bounded above by the Poisson case.
//!
//! Paper parameters (§7): one class, `a = 1`, `α̃ = .0024`, `μ = 1`,
//! `β̃ ∈ {0, …, −4·10⁻⁶}` with `α̃/β̃` a negative integer so the source
//! population is integral (600 sources at `β̃ = −4·10⁻⁶`), and
//! `S ≥ max(N1,N2) = 128`. The `β̃ = 0` (Poisson) curve is the upper
//! bound; smooth traffic lies below it, by ≈0.1% of the blocking at
//! `N = 128` for the strongest smoothing.

use xbar_core::{solve, sweep_many, Algorithm, Dims, Model, SweepSolver};
use xbar_traffic::{TildeClass, Workload};

use crate::Table;

/// `α̃` used throughout Figures 1–3 (chosen by the paper to put blocking
/// near the 0.5% operating point).
pub const ALPHA_TILDE: f64 = 0.0024;

/// The `β̃` grid: Poisson plus three smoothing strengths (source
/// populations 2400, 1200, 600).
pub const BETA_TILDES: [f64; 4] = [0.0, -1.0e-6, -2.0e-6, -4.0e-6];

/// Largest switch size plotted.
pub const MAX_N: u32 = 128;

/// One point of the figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// Square switch size `N`.
    pub n: u32,
    /// Aggregated smoothing parameter `β̃ ≤ 0`.
    pub beta_tilde: f64,
    /// Blocking probability `1 − B_r`.
    pub blocking: f64,
}

/// The model for one `(N, β̃)` cell at `α̃ = ALPHA_TILDE`.
pub fn model_at(n: u32, beta_tilde: f64) -> Model {
    let workload = Workload::from_tilde(&[TildeClass::bpp(ALPHA_TILDE, beta_tilde, 1.0)], n);
    Model::new(Dims::square(n), workload).expect("valid Fig 1 model")
}

/// Compute the blocking for one `(N, β̃)` cell at `α̃ = ALPHA_TILDE`.
pub fn blocking_at(n: u32, beta_tilde: f64) -> f64 {
    solve(&model_at(n, beta_tilde), Algorithm::Auto)
        .expect("solvable")
        .blocking(0)
}

/// All points: every `N ∈ 1..=128` for each `β̃`. The four series share
/// everything but class 0's smoothing, so the whole figure is one
/// [`sweep_many`] precompute (every size built as one batch, sharded
/// over the worker pool) plus four `O(N)` recombinations per size (the
/// `β̃ = 0` base reuses the cached ray outright) instead of four full
/// lattice solves per size; the recombinations fan out over
/// [`crate::par_map`].
pub fn rows() -> Vec<Row> {
    xbar_obs::time("fig1.rows", || {
        let per_n: Vec<Vec<f64>> = xbar_obs::time("solve", || {
            let models: Vec<Model> = (1..=MAX_N).map(|n| model_at(n, 0.0)).collect();
            let solvers: Vec<SweepSolver> = sweep_many(&models, Algorithm::Auto)
                .into_iter()
                .collect::<Result<_, _>>()
                .expect("solvable");
            crate::par_map((1..=MAX_N).collect(), |n| {
                let i = (n - 1) as usize;
                BETA_TILDES
                    .iter()
                    .map(|&b| {
                        let class = model_at(n, b).workload().classes()[0].clone();
                        solvers[i]
                            .solve_with_class(0, class)
                            .expect("solvable")
                            .blocking(0)
                    })
                    .collect()
            })
        });
        BETA_TILDES
            .iter()
            .enumerate()
            .flat_map(|(bi, &beta_tilde)| {
                per_n.iter().zip(1..=MAX_N).map(move |(vals, n)| Row {
                    n,
                    beta_tilde,
                    blocking: vals[bi],
                })
            })
            .collect()
    })
}

/// Render rows as a table (one line per `(N, β̃)`).
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(["N", "beta_tilde", "blocking"]);
    for r in rows {
        t.push([
            r.n.to_string(),
            format!("{:e}", r.beta_tilde),
            format!("{:.8}", r.blocking),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par_map;

    fn grid() -> Vec<Row> {
        // Sparse grid for test speed.
        let cells: Vec<(u32, f64)> = BETA_TILDES
            .iter()
            .flat_map(|&b| [1u32, 2, 8, 32, 128].map(move |n| (n, b)))
            .collect();
        par_map(cells, |(n, beta_tilde)| Row {
            n,
            beta_tilde,
            blocking: blocking_at(n, beta_tilde),
        })
    }

    #[test]
    fn poisson_is_an_upper_bound_for_smooth_traffic() {
        // The headline claim of Figure 1.
        let rows = grid();
        for &n in &[1u32, 2, 8, 32, 128] {
            let at = |b: f64| {
                rows.iter()
                    .find(|r| r.n == n && r.beta_tilde == b)
                    .unwrap()
                    .blocking
            };
            let poisson = at(0.0);
            for &b in &BETA_TILDES[1..] {
                assert!(
                    at(b) <= poisson + 1e-15,
                    "N={n} beta={b}: {} > poisson {poisson}",
                    at(b)
                );
            }
            // And stronger smoothing blocks (weakly) less.
            assert!(at(-4.0e-6) <= at(-1.0e-6) + 1e-15);
        }
    }

    #[test]
    fn operating_point_is_about_half_a_percent() {
        // §7: parameters "drive the non-blocking probability to ≈99.5%".
        let b = blocking_at(128, 0.0);
        assert!((0.002..0.008).contains(&b), "{b}");
    }

    #[test]
    fn blocking_rises_with_n_toward_asymptote() {
        let b1 = blocking_at(1, 0.0);
        let b16 = blocking_at(16, 0.0);
        let b128 = blocking_at(128, 0.0);
        assert!(b1 < b16 && b16 < b128, "{b1} {b16} {b128}");
        // The N = 1 value is exactly ρ̃/(1 + ρ̃).
        let want = ALPHA_TILDE / (1.0 + ALPHA_TILDE);
        assert!((b1 - want).abs() < 1e-12);
    }

    #[test]
    fn smoothing_effect_magnitude_matches_paper_note() {
        // §7: at N = 128 the gap between β̃ = 0 and β̃ = −4e−6 is "about
        // 0.1%" — read as a tenth of a percent *of the blocking level*
        // (absolute gaps that size would erase the whole curve).
        let gap = blocking_at(128, 0.0) - blocking_at(128, -4.0e-6);
        assert!(gap > 0.0);
        assert!(gap < 0.001, "{gap}");
    }

    #[test]
    fn full_rows_cover_the_grid() {
        let rows = rows();
        assert_eq!(rows.len(), BETA_TILDES.len() * MAX_N as usize);
        let t = table(&rows);
        assert_eq!(t.len(), rows.len());
    }
}
