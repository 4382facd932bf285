//! Thread-count plumbing and the persistent worker pool behind the
//! fleet sharding in [`crate::fleet`] and the simulator's replication
//! harness. Every single solve is serial; the pool spreads whole models
//! or replications over workers.
//!
//! Resolution order for the effective thread count:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    batch work pools to keep nested batches inline on their worker, and
//!    by tests to pin a pool width);
//! 2. the process-wide setting from [`set_threads`] (the CLI's
//!    `--threads N` lands here; `0` means "auto");
//! 3. the `XBAR_THREADS` environment variable (how CI exercises both code
//!    paths without touching flags);
//! 4. `std::thread::available_parallelism()`.
//!
//! [`run_scoped`] spawns workers once, parks them on channels, and reuses
//! them across calls, so a fleet of thousands of solves pays thread
//! start-up once instead of per call.

use std::cell::Cell;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Process-wide configured thread count; `0` = auto.
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local override; `0` = no override.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Set the process-wide pool thread count. `0` restores auto detection
/// (`available_parallelism`, or `XBAR_THREADS` when set).
pub fn set_threads(n: usize) {
    CONFIGURED.store(n, Ordering::Relaxed);
}

/// The process-wide setting last passed to [`set_threads`] (`0` = auto).
pub fn configured_threads() -> usize {
    CONFIGURED.load(Ordering::Relaxed)
}

/// Resolve the thread count the parallel paths should use right now, per
/// the module-level precedence. Always at least 1.
pub fn effective_threads() -> usize {
    let tls = OVERRIDE.with(Cell::get);
    if tls != 0 {
        return tls;
    }
    let configured = configured_threads();
    if configured != 0 {
        return configured;
    }
    if let Ok(var) = std::env::var("XBAR_THREADS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n != 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f` with the effective thread count pinned to `n` on this thread
/// (restored on exit, panic included). `n = 0` clears any override.
pub fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = OVERRIDE.with(|c| {
        let prev = c.get();
        c.set(n);
        Restore(prev)
    });
    f()
}

// ---------------------------------------------------------------------------
// Persistent worker pool
// ---------------------------------------------------------------------------

/// A unit of work for one pool worker: a lifetime-erased pointer to the
/// caller's closure, the worker index to run it as, and the completion
/// latch to count down when done (panic included).
struct Job {
    /// Borrow of the caller's closure. Valid until the latch it counts
    /// down reaches zero — [`run_scoped`] does not return (or unwind)
    /// before that.
    f: *const (dyn Fn(usize) + Sync),
    worker: usize,
    latch: Arc<Latch>,
}

// SAFETY: the pointee is `Sync` (shared-reference calls from any thread
// are fine) and the `run_scoped` latch protocol keeps it alive for the
// job's whole lifetime, so shipping the pointer to a worker is sound.
unsafe impl Send for Job {}

/// Countdown latch with a sticky panic flag.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *left > 0 {
            left = self.done.wait(left).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Idle-worker free list. Each entry is the sending half of a parked
/// worker's job channel; checking a sender out gives exclusive use of
/// that worker until it is returned.
static IDLE: OnceLock<Mutex<Vec<Sender<Job>>>> = OnceLock::new();

/// Total workers ever spawned (observability + reuse tests).
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

fn idle_list() -> &'static Mutex<Vec<Sender<Job>>> {
    IDLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Workers ever spawned by the pool. Stable across repeated
/// [`run_scoped`] calls at the same width — that is the whole point.
pub fn pool_spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

fn worker_loop(jobs: Receiver<Job>) {
    while let Ok(job) = jobs.recv() {
        // SAFETY: `run_scoped` keeps the closure alive until this job's
        // latch fires; we count down strictly after the call returns.
        let f = unsafe { &*job.f };
        if std::panic::catch_unwind(AssertUnwindSafe(|| f(job.worker))).is_err() {
            job.latch.panicked.store(true, Ordering::Release);
        }
        job.latch.count_down();
    }
}

fn spawn_worker() -> Sender<Job> {
    let (tx, rx) = channel();
    SPAWNED.fetch_add(1, Ordering::Relaxed);
    std::thread::Builder::new()
        .name("xbar-pool".into())
        .spawn(move || worker_loop(rx))
        .expect("spawn xbar pool worker");
    tx
}

/// Run `f(w)` for every worker index `w in 0..threads`, `f(0)` on the
/// calling thread and the rest on persistent pool workers, and return
/// once all have finished. Panics (after all workers finish) if any
/// invocation panicked.
///
/// The pool spawns lazily and reuses parked workers across calls, so
/// repeated batches — a figure grid, a fleet batch, a replication round —
/// pay thread start-up once per process, not once per call. Nested
/// calls are fine: a worker that itself calls `run_scoped` checks out
/// (or spawns) further workers rather than waiting on itself.
pub fn run_scoped(threads: usize, f: impl Fn(usize) + Sync) {
    if threads <= 1 {
        f(0);
        return;
    }
    let extra = threads - 1;
    let mut senders = {
        let mut idle = idle_list().lock().unwrap_or_else(|e| e.into_inner());
        let take = extra.min(idle.len());
        let at = idle.len() - take;
        idle.split_off(at)
    };
    while senders.len() < extra {
        senders.push(spawn_worker());
    }
    let latch = Arc::new(Latch::new(extra));

    /// Waits for the borrowed workers and returns their senders to the
    /// free list even if `f(0)` unwinds on the caller — the workers
    /// borrow the caller's stack, so unwinding past them would be UB.
    struct Checkout {
        senders: Vec<Sender<Job>>,
        latch: Arc<Latch>,
    }
    impl Drop for Checkout {
        fn drop(&mut self) {
            self.latch.wait();
            let mut idle = idle_list().lock().unwrap_or_else(|e| e.into_inner());
            idle.append(&mut self.senders);
        }
    }
    let mut guard = Checkout {
        senders,
        latch: Arc::clone(&latch),
    };

    let local: *const (dyn Fn(usize) + Sync + '_) = &f;
    // SAFETY: lifetime erasure only — the Checkout guard above waits for
    // every job's latch before this frame can unwind, so no worker ever
    // dereferences the pointer after `f` is gone.
    let erased: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync + 'static)>(local) };
    for i in 0..extra {
        let mut job = Job {
            f: erased,
            worker: i + 1,
            latch: Arc::clone(&latch),
        };
        // A send only fails if that worker's thread died; replace it and
        // retry so barrier-style closures always get `threads` live
        // participants.
        while let Err(returned) = guard.senders[i].send(job) {
            guard.senders[i] = spawn_worker();
            job = returned.0;
        }
    }
    f(0);
    drop(guard);
    if latch.panicked.load(Ordering::Acquire) {
        panic!("pool worker panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = effective_threads();
        let inner = with_threads(3, effective_threads);
        assert_eq!(inner, 3);
        assert_eq!(effective_threads(), outer);
        // Nested overrides unwind correctly.
        let (a, b) = with_threads(2, || {
            (effective_threads(), with_threads(5, effective_threads))
        });
        assert_eq!((a, b), (2, 5));
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = OVERRIDE.with(Cell::get);
        let result = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(OVERRIDE.with(Cell::get), before);
    }

    #[test]
    fn effective_is_at_least_one() {
        assert!(effective_threads() >= 1);
    }

    #[test]
    fn run_scoped_runs_every_worker_once() {
        use std::sync::atomic::AtomicU64;
        for threads in [1usize, 2, 4, 7] {
            let hits = AtomicU64::new(0);
            run_scoped(threads, |w| {
                assert!(w < threads);
                hits.fetch_add(1 << (8 * w), Ordering::Relaxed);
            });
            let hits = hits.load(Ordering::Relaxed);
            for w in 0..threads {
                assert_eq!((hits >> (8 * w)) & 0xff, 1, "threads={threads} w={w}");
            }
        }
    }

    #[test]
    fn run_scoped_reuses_pool_workers() {
        run_scoped(4, |_| {});
        let spawned = pool_spawned();
        for _ in 0..32 {
            run_scoped(4, |_| {});
        }
        // Other tests run concurrently and may check workers out, so
        // allow a little growth — but nothing like 32 × 3 fresh spawns.
        assert!(
            pool_spawned() <= spawned + 8,
            "pool respawned per call: {} -> {}",
            spawned,
            pool_spawned()
        );
    }

    #[test]
    fn run_scoped_supports_barriers() {
        use std::sync::Barrier;
        let barrier = Barrier::new(4);
        let stage = std::sync::atomic::AtomicUsize::new(0);
        run_scoped(4, |_| {
            stage.fetch_add(1, Ordering::SeqCst);
            barrier.wait();
            assert_eq!(stage.load(Ordering::SeqCst), 4);
            barrier.wait();
            stage.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(stage.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn run_scoped_propagates_worker_panic() {
        let result = std::panic::catch_unwind(|| {
            run_scoped(3, |w| {
                if w == 2 {
                    panic!("worker blew up");
                }
            });
        });
        assert!(result.is_err());
        // The pool is still serviceable afterwards.
        run_scoped(3, |_| {});
    }

    #[test]
    fn run_scoped_nests() {
        use std::sync::atomic::AtomicU64;
        let total = AtomicU64::new(0);
        run_scoped(2, |_| {
            run_scoped(2, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 4);
    }
}
