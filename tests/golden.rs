//! Golden-file regression tests: the CSV artefacts of the batched
//! experiment drivers are snapshotted under `tests/golden/` and must match
//! byte-for-byte. Every solve is deterministic (single-threaded per model,
//! bit-for-bit identical at any pool width) and the simulated sweep runs
//! at a fixed seed, so any diff is a real behaviour change.
//!
//! To refresh after an intentional change:
//! `XBAR_UPDATE_GOLDEN=1 cargo test -p xbar --test golden`.

use std::path::PathBuf;

use xbar_experiments::{fig1, fig2, fig3, fig4, hotspot_sweep, plan_frontier, rectangular, replay};

/// Short, fixed-seed hot-spot sweep (the 100k-duration CLI default would
/// dominate test wall-clock without changing what is being locked down).
const HOTSPOT_DURATION: f64 = 20_000.0;
const HOTSPOT_SEED: u64 = 33;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn check(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("XBAR_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} drifted from its golden snapshot \
         (XBAR_UPDATE_GOLDEN=1 refreshes after an intentional change); \
         expected {} bytes, got {} bytes",
        expected.len(),
        actual.len()
    );
}

#[test]
fn fig1_csv_matches_golden() {
    check("fig1.csv", &fig1::table(&fig1::rows()).to_csv());
}

#[test]
fn fig2_csv_matches_golden() {
    check("fig2.csv", &fig2::table(&fig2::rows()).to_csv());
}

#[test]
fn fig3_csv_matches_golden() {
    check("fig3.csv", &fig3::table(&fig3::rows()).to_csv());
}

#[test]
fn fig4_csv_matches_golden() {
    let rows = fig4::rows();
    check("fig4.csv", &fig4::table(&rows).to_csv());
    check("table1.csv", &fig4::table1(&rows).to_csv());
}

#[test]
fn rectangular_csv_matches_golden() {
    check(
        "rectangular.csv",
        &rectangular::table(&rectangular::rows()).to_csv(),
    );
}

#[test]
fn hotspot_csv_matches_golden() {
    let rows = hotspot_sweep::rows(HOTSPOT_DURATION, HOTSPOT_SEED);
    check("hotspot.csv", &hotspot_sweep::table(&rows).to_csv());
}

/// Admission-replay summary: the event stream is a fixed-seed jump chain
/// and every analytic solve is deterministic, so the per-policy decision
/// split must be byte-identical run to run (and across `XBAR_THREADS`).
#[test]
fn replay_csv_matches_golden() {
    let rows = replay::rows(replay::EVENTS, replay::SEED);
    check("replay.csv", &replay::table(&rows).to_csv());
}

/// Repricing differential: the anchor-once and per-batch-repriced shadow
/// replays of the same fixed-seed stream. Byte-identical run to run and
/// across `XBAR_THREADS` — repricing re-derives thresholds from the same
/// extended-range gradients, so even the decision columns must match the
/// anchor-once rows exactly.
#[test]
fn reprice_csv_matches_golden() {
    let rows = replay::reprice_rows(replay::EVENTS, replay::SEED);
    check("reprice.csv", &replay::reprice_table(&rows).to_csv());
}

/// Capacity-planning artefacts: every cell of the design-space search is
/// an analytic product-form solve and the optimum's tie-break is
/// canonical, so both the Pareto frontier and the full contour must be
/// byte-identical at any `XBAR_THREADS` and on the fleet-warmed path
/// (which is how [`plan_frontier::run`] evaluates).
#[test]
fn plan_frontier_and_contour_csvs_match_golden() {
    let report = plan_frontier::run();
    check(
        "plan_frontier.csv",
        &plan_frontier::frontier_table(&plan_frontier::frontier_rows(&report)).to_csv(),
    );
    check(
        "plan_contour.csv",
        &plan_frontier::contour_table(&plan_frontier::contour_rows(&report)).to_csv(),
    );
}
