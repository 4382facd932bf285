//! `xbar-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exit code 2 means bad arguments; 1 means the workload
//! could not run.

use std::path::PathBuf;
use std::process::ExitCode;

use xbar_perfbench::{host, plan, serve, sim, Outcome, RunOpts, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbar-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Durable state lives inside the checkout the benchmark runs from, in
    // one directory per workload that later runs reuse (emptied, not
    // removed).
    let work = PathBuf::from(".perfbench-run").join(&args.workload);
    if let Err(e) = serve::empty_dir(&work) {
        eprintln!("xbar-perfbench: cannot prepare {}: {e}", work.display());
        return ExitCode::from(1);
    }
    xbar_core::parallel::set_threads(xbar_perfbench::THREADS);
    println!("{}", host::context_line(&args.workload, args.seed, &work));
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
    };
    let result: Result<Outcome, String> = match (args.workload.as_str(), args.trace) {
        ("serve-fleet", false) => serve::run(&serve::Spec::fleet(), &opts),
        ("serve-fleet", true) => serve::trace(&serve::Spec::fleet(), &opts),
        ("serve-paced", false) => serve::run(&serve::Spec::paced(), &opts),
        ("serve-paced", true) => serve::trace(&serve::Spec::paced(), &opts),
        ("plan-grid", false) => plan::run(&opts),
        ("plan-grid", true) => plan::trace(&opts),
        ("sim-ci", false) => sim::run(&opts),
        ("sim-ci", true) => sim::trace(&opts),
        _ => unreachable!("workload names are validated by parse_args"),
    };
    if let Err(e) = serve::empty_dir(&work) {
        eprintln!("xbar-perfbench: cannot clean {}: {e}", work.display());
    }
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xbar-perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for p in &outcome.problems {
        eprintln!("xbar-perfbench: check failed: {p}");
    }
    if !args.trace {
        outcome.set("peak_rss_mib", host::peak_rss_mib());
    }
    println!(
        "{}",
        outcome.to_json(if args.trace { PER_LAYER } else { END_TO_END })
    );
    ExitCode::SUCCESS
}
