#![warn(missing_docs)]

//! Reproduction harness for every table and figure in the paper's
//! evaluation (§7), plus three validation experiments of our own.
//!
//! Each module produces *typed rows* via a `rows()` function so the shape
//! claims of §7 are unit-testable, renders them as an aligned text table
//! (`print()`-style methods on [`Table`]) and as CSV. One CLI binary per
//! experiment regenerates the artefact:
//!
//! | paper artefact | module | binary |
//! |---|---|---|
//! | Figure 1 (smooth/Bernoulli vs Poisson) | [`fig1`] | `fig1` |
//! | Figure 2 (peaky/Pascal vs Poisson) | [`fig2`] | `fig2` |
//! | Figure 3 (mixed R1+R2 vs R2 only) | [`fig3`] | `fig3` |
//! | Figure 4 + Table 1 (multi-rate a=1 vs a=2) | [`fig4`] | `fig4`, `table1` |
//! | Table 2 (revenue analysis) | [`table2`] | `table2` |
//! | (ours) analytic vs simulation | [`validate_sim`] | `validate_sim` |
//! | (ours) insensitivity to service law | [`insensitivity`] | `insensitivity` |
//! | (ours) crossbar vs slotted vs Omega MIN | [`compare_baselines`] | `baselines` |
//! | (ours) exact vs reduced-load approximation | [`approximation`] | `approximation` |
//! | (ours) rectangular aspect-ratio sweep | [`rectangular`] | `rectangular` |
//! | (ours) transient warm-up / relaxation | [`transient_warmup`] | `transient` |
//! | (ours) retrial impact on loss | [`retrial_impact`] | `retrial` |
//! | (ours) multistage-network analysis (paper future work) | [`min_analysis`] | `min_analysis` |
//! | (ours) trunk-reservation revenue control | [`reservation`] | `reservation` |
//! | (ours) hot-spot output traffic (companion paper) | [`hotspot_sweep`] | `hotspot` |
//! | (ours) admission-control policy replay | [`replay`] | `replay` |
//! | (ours) capacity-planning frontier/contour | [`plan_frontier`] | `plan_frontier` |
//!
//! Run everything: `cargo run --release -p xbar-experiments --bin all`
//! (CSV lands in `out/`).

pub mod approximation;
pub mod compare_baselines;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod hotspot_sweep;
pub mod insensitivity;
pub mod metrics;
pub mod min_analysis;
pub mod plan_frontier;
pub mod rectangular;
pub mod replay;
pub mod reservation;
pub mod retrial_impact;
pub mod table;
pub mod table2;
pub mod transient_warmup;
pub mod validate_sim;

pub use table::Table;

use crossbeam::thread;

/// Parallel ordered map over owned items using crossbeam scoped threads —
/// the parameter sweeps (N × parameter-set × algorithm) are embarrassingly
/// parallel and dominate regeneration wall-clock.
///
/// The thread count follows [`xbar_core::parallel::effective_threads`]
/// (so the CLI's `--threads` and `XBAR_THREADS` apply here too), workers
/// drain the queue in small batches ([`SegQueue::pop_batch`]) to amortise
/// the shim's lock, and each item runs pinned to one thread — with whole
/// sweep points to hand out, a nested fleet batch inside an item runs
/// inline instead of fanning out over the pool again.
///
/// [`SegQueue::pop_batch`]: crossbeam::queue::SegQueue::pop_batch
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = xbar_core::parallel::effective_threads().min(items.len().max(1));
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let batch = (items.len() / (threads * 4)).clamp(1, 16);
    let work: Vec<(usize, T)> = items.into_iter().enumerate().collect();
    let queue = crossbeam::queue::SegQueue::new();
    for w in work {
        queue.push(w);
    }
    let slot_refs: Vec<_> = slots.iter_mut().map(std::sync::Mutex::new).collect();
    // Re-install the caller's scoped obs registry (if any) in each worker
    // so instrumented solves/sims keep feeding the caller's metrics.
    let obs_scope = xbar_obs::current_scope();
    thread::scope(|s| {
        for _ in 0..threads {
            let obs_scope = obs_scope.clone();
            let queue = &queue;
            let slot_refs = &slot_refs;
            let f = &f;
            s.spawn(move |_| {
                let _obs = obs_scope.enter();
                loop {
                    let taken = queue.pop_batch(batch);
                    if taken.is_empty() {
                        break;
                    }
                    for (i, item) in taken {
                        let out = xbar_core::parallel::with_threads(1, || f(item));
                        **slot_refs[i].lock().unwrap() = Some(out);
                    }
                }
            });
        }
    })
    .expect("worker thread panicked");
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

/// Write CSV content under `out/`, creating the directory. Returns the
/// path written.
pub fn write_csv(name: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, content)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<u64> = (0..500).collect();
        let ys = par_map(xs.clone(), |x| x * x);
        assert_eq!(ys, xs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty_and_single() {
        let ys: Vec<u32> = par_map(Vec::<u32>::new(), |x| x);
        assert!(ys.is_empty());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_heavy_closure_environment() {
        let offset = 10i64;
        let ys = par_map((0..100).collect::<Vec<i64>>(), |x| x + offset);
        assert_eq!(ys[0], 10);
        assert_eq!(ys[99], 109);
    }
}
