//! Host and durability context printed with every run, the process's peak
//! resident set size, and the thread CPU clock set-up is timed with.

use std::path::Path;
use std::time::Duration;

/// Cores the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Type of the filesystem holding `path`: the mount in
/// `/proc/self/mountinfo` whose mount point is the longest prefix of the
/// path (the last such mount when one shadows another).
pub fn filesystem(path: &Path) -> String {
    let (Ok(path), Ok(info)) = (
        std::fs::canonicalize(path),
        std::fs::read_to_string("/proc/self/mountinfo"),
    ) else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            // Field 5 is the mount point; the filesystem type follows the
            // " - " separator.
            let mount = line.split(' ').nth(4)?;
            let fstype = line.split(" - ").nth(1)?.split(' ').next()?;
            Some((mount, fstype))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype.to_string())
}

/// Peak resident set size of this process image so far, in MiB: `VmHWM`
/// from `/proc/self/status`. (`getrusage` would do, but its `ru_maxrss`
/// survives `exec`, so under `cargo run` it reports cargo's own peak.)
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    // `ts` points at a `struct timespec`: seconds, then nanoseconds, each
    // a native long on 64-bit Linux.
    fn clock_gettime(clock: std::os::raw::c_int, ts: *mut i64) -> std::os::raw::c_int;
}

/// CPU time the calling thread has used so far. Set-up is timed with it:
/// a file create can wait tens of milliseconds on the disk journal, which
/// would swamp the set-up work itself.
#[cfg(target_os = "linux")]
pub fn thread_cpu_time() -> Duration {
    /// `CLOCK_THREAD_CPUTIME_ID`.
    const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable, aligned buffer the size of the
    // `struct timespec` the call fills.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, ts.as_mut_ptr()) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts[0].max(0) as u64, ts[1].clamp(0, 999_999_999) as u32)
}

/// CPU time of the calling thread (falls back to zero off Linux).
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_time() -> Duration {
    Duration::ZERO
}

/// One line of run context: cores, solver threads, the `XBAR_THREADS`
/// setting, and the filesystem that holds the daemon's data directory.
pub fn context_line(workload: &str, seed: u64, data_dir: &Path) -> String {
    format!(
        "context: workload={workload} seed={seed} nproc={} solver_threads={} XBAR_THREADS={} \
         data_fs={} wal_sync_every=0",
        nproc(),
        xbar_core::parallel::effective_threads(),
        std::env::var("XBAR_THREADS").unwrap_or_else(|_| "unset".to_string()),
        filesystem(data_dir),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t0 = thread_cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_time() > t0);
    }

    #[test]
    fn peak_rss_is_positive_and_fs_is_named() {
        assert!(peak_rss_mib() > 0.0);
        assert_ne!(filesystem(Path::new(".")), "unknown");
        assert_eq!(filesystem(Path::new("/proc/self")), "proc");
    }
}
