//! Golden-file regression tests: the CSV artefacts of the experiment
//! drivers must match their committed copies byte-for-byte. Every solve
//! is deterministic (single-threaded per model, bit-for-bit identical at
//! any pool width) and every simulation runs at a fixed seed, so any
//! diff is a real behaviour change.
//!
//! One output set: a table the `all` driver writes is checked against
//! `out/`, which only `all` regenerates
//! (`cargo run --release -p xbar-experiments --bin all`). Two tables
//! keep a copy under `tests/golden/`: `hotspot.csv`, rendered here over
//! a shorter horizon than `all` runs, and `reprice.csv`, which `all`
//! does not write. To refresh those two after an intentional change:
//! `XBAR_UPDATE_GOLDEN=1 cargo test -p xbar --test golden`.

use std::path::PathBuf;

use xbar_experiments::{
    approximation, fig1, fig2, fig3, fig4, hotspot_sweep, min_analysis, plan_frontier, rectangular,
    replay, reservation, table2, transient_warmup,
};

/// Short, fixed-seed hot-spot sweep (the 100k-duration CLI default would
/// dominate test wall-clock without changing what is being locked down).
const HOTSPOT_DURATION: f64 = 20_000.0;
const HOTSPOT_SEED: u64 = 33;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// The committed `out/` directory the experiment drivers write.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../out")
}

/// `actual` must equal the committed `out/<name>` byte for byte.
fn check_out(name: &str, actual: &str) {
    let path = out_dir().join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing output file {}: {e}", path.display()));
    assert!(
        expected == actual,
        "{name} differs from out/{name} (regenerate out/ with \
         `cargo run --release -p xbar-experiments --bin all` after an intentional change); \
         expected {} bytes, got {} bytes",
        expected.len(),
        actual.len()
    );
}

/// `actual` must equal `tests/golden/<name>`, or replaces it under
/// `XBAR_UPDATE_GOLDEN`.
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
    check_out("fig1.csv", &fig1::table(&fig1::rows()).to_csv());
}

#[test]
fn fig2_csv_matches_golden() {
    check_out("fig2.csv", &fig2::table(&fig2::rows()).to_csv());
}

#[test]
fn fig3_csv_matches_golden() {
    check_out("fig3.csv", &fig3::table(&fig3::rows()).to_csv());
}

#[test]
fn fig4_csv_matches_golden() {
    let rows = fig4::rows();
    check_out("fig4.csv", &fig4::table(&rows).to_csv());
    check_out("table1.csv", &fig4::table1(&rows).to_csv());
}

#[test]
fn rectangular_csv_matches_golden() {
    check_out(
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
    check_out("replay.csv", &replay::table(&rows).to_csv());
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
    check_out(
        "plan_frontier.csv",
        &plan_frontier::frontier_table(&plan_frontier::frontier_rows(&report)).to_csv(),
    );
    check_out(
        "plan_contour.csv",
        &plan_frontier::contour_table(&plan_frontier::contour_rows(&report)).to_csv(),
    );
}

/// Table 2, including the exact `∂W/∂(β2/μ2)` column, as the `all`
/// driver writes it.
#[test]
fn table2_csv_matches_out() {
    check_out("table2.csv", &table2::table(&table2::rows()).to_csv());
}

#[test]
fn min_analysis_csv_matches_out() {
    check_out(
        "min_analysis.csv",
        &min_analysis::table(&min_analysis::rows(17)).to_csv(),
    );
}

#[test]
fn approximation_csv_matches_out() {
    check_out(
        "approximation.csv",
        &approximation::table(&approximation::rows()).to_csv(),
    );
}

#[test]
fn reservation_csv_matches_out() {
    check_out(
        "reservation.csv",
        &reservation::table(&reservation::rows()).to_csv(),
    );
}

#[test]
fn transient_csv_matches_out() {
    check_out(
        "transient.csv",
        &transient_warmup::table(&transient_warmup::rows()).to_csv(),
    );
}
