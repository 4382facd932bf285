//! Command-line parsing and execution for the `xbar` binary.
//!
//! Lives in the library (rather than the binary) so the parser can be
//! unit- and property-tested: malformed argument vectors must always come
//! back as [`CliError`] values — never panics — and every failure maps to
//! a documented exit code:
//!
//! | code | meaning                                           |
//! |------|---------------------------------------------------|
//! | 0    | success                                           |
//! | 2    | usage or model error (bad flags, invalid classes) |
//! | 3    | solve failure (backend under/overflow, …)         |
//! | 4    | cross-check failure (two answers disagree)        |
//! | 5    | simulator configuration error                     |
//! | 6    | metrics failure (broken invariant, unwritable)    |
//! | 7    | serve: tenant(s) quarantined after repeated faults|
//! | 8    | plan: SLO set infeasible over the design space     |

use std::time::Duration;

use xbar_admission::{AdmissionEngine, AdmissionError, EngineConfig, PolicySpec};
use xbar_core::{solve, solve_cross_checked, Algorithm, Dims, Model, SolveError, SweepSolver};
use xbar_plan::{DesignSpace, PlanConfig, PlanError, RhoAxis, Slo};
use xbar_sim::{
    replay, run_sim_replications, Confidence, CrossbarSim, FaultConfig, RepConfig, ReplayConfig,
    RunConfig, SimConfig,
};
use xbar_traffic::{TildeClass, TrafficClass, Workload};

/// A CLI failure, carrying the process exit code it maps to.
#[derive(Clone, Debug, PartialEq)]
pub enum CliError {
    /// Bad flags / malformed specs / invalid model (exit 2).
    Usage(String),
    /// The analytic solve failed (exit 3).
    Solve(String),
    /// A cross-check disagreed (exit 4): `solve --cross-check`'s `auto`
    /// solve and its independent checker, or `admit --cross-check`'s
    /// replayed and analytic acceptance.
    CrossCheck(String),
    /// The simulator rejected its configuration (exit 5).
    SimConfig(String),
    /// Metrics emission failed: an obs counter invariant is broken, or the
    /// snapshot could not be written (exit 6).
    Metrics(String),
    /// The serve daemon quarantined one or more tenants after repeated
    /// supervised failures (exit 7). The fleet kept running; the exit code
    /// flags the degradation for the operator.
    Quarantine(String),
    /// The plan search finished cleanly but no evaluated design satisfied
    /// every SLO (exit 8). Deliberately distinct from [`CliError::Solve`]:
    /// the solver worked, the *requirements* are unsatisfiable over the
    /// given space.
    Infeasible(String),
}

impl CliError {
    /// The process exit code for this failure.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Solve(_) => 3,
            CliError::CrossCheck(_) => 4,
            CliError::SimConfig(_) => 5,
            CliError::Metrics(_) => 6,
            CliError::Quarantine(_) => 7,
            CliError::Infeasible(_) => 8,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Solve(m) => write!(f, "solve failed: {m}"),
            CliError::CrossCheck(m) => write!(f, "{m}"),
            CliError::SimConfig(m) => write!(f, "invalid simulation config: {m}"),
            CliError::Metrics(m) => write!(f, "metrics error: {m}"),
            CliError::Quarantine(m) => write!(f, "quarantine: {m}"),
            CliError::Infeasible(m) => write!(f, "infeasible: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

fn usage() -> String {
    "usage:\n  xbar solve --n <N> | --n1 <N1> --n2 <N2> \
     [--algorithm auto|alg1-f64|alg1-scaled|alg1-ext|alg2-mva|alg3-convolution] \
     [--cross-check [--cross-check-tol <tol>]] [--threads <N>] [--metrics <path|->] \
     --class <spec> [--class <spec> ...]\n  \
     xbar sim   --n <N> | --n1 <N1> --n2 <N2> --class <spec> [...] \
     [--duration <t>] [--warmup <t>] [--seed <u64>] [--replications <n>] \
     [--threads <N>] [--metrics <path|->] \
     [--port-mtbf <t> --port-mttr <t>] [--fail-inputs <k>] [--fail-outputs <k>]\n  \
     xbar admit --n <N> | --n1 <N1> --n2 <N2> --class <spec> [...] \
     [--policy cs|trunk:t0,t1,...|shadow[:reserve=N]] [--replay-events <n>] \
     [--reprice-batch <n>] [--trace <path>] [--cross-check] [--seed <u64>] \
     [--metrics <path|->]\n  \
     xbar sweep --n <N> | --n1 <N1> --n2 <N2> --class <spec> [...] \
     --alpha <a0:a1:steps> [--sweep-class <r>] \
     [--algorithm auto|alg1-f64|alg1-scaled|alg1-ext] [--threads <N>] \
     [--metrics <path|->]\n  \
     xbar serve --n <N> | --n1 <N1> --n2 <N2> --class <spec> [...] \
     --data-dir <dir> --file <trace> | --tail <trace> | --socket <path> \
     [--policy <spec>] [--queue-cap <n>] [--snapshot-interval <n>] \
     [--max-failures <n>] [--reanchor-deadline-ms <ms>] [--reprice-batch <n>] \
     [--sync-every <n>] [--idle-timeout-ms <ms>] [--kill-after <n>] \
     [--metrics <path|->]\n  \
     xbar fleet --models <path> \
     [--algorithm auto|alg1-f64|alg1-scaled|alg1-ext|alg2-mva|alg3-convolution] \
     [--threads <N>] [--metrics <path|->]\n  \
     xbar plan  --n <N> | --n1 <N1> --n2 <N2> --class <spec> [...] \
     [--geo <N|N1xN2> ...] [--rho-axis <r:lo:hi:steps> ...] \
     [--slo <r:maxblock> ...] [--strategy exhaustive|gradient] \
     [--objective w] [--frontier-csv <path>] [--contour-csv <path>] \
     [--threads <N>] [--metrics <path|->]\n\n\
     solve --cross-check re-solves the auto answer through an independent \
     recursion (alg3-convolution up to N = 64, alg2-mva above) and exits 4 \
     if any measure differs by more than --cross-check-tol (default 1e-9)\n\
     sweep varies class r's per-set arrival intercept alpha across the grid \
     through one cached SweepSolver precompute (each point is an O(N) \
     recombination, not a fresh solve)\n\
     admit replays synthetic BPP call events (or an 'a <class>'/'d <class>' \
     trace file) through the online admission engine; --cross-check asserts \
     the admitted fraction against the analytic acceptance (CS policy only); \
     --reprice-batch re-derives the policy thresholds from the sensitivity \
     gradients the engine computed at start every <n> events (admit and serve)\n\
     serve runs the fault-tolerant multi-tenant admission daemon over \
     '<tenant> a|d <class> [@t]' lines with a WAL + snapshots under \
     --data-dir; exit 7 means tenant(s) ended quarantined\n\
     fleet batch-solves every model in --models (one per line: \
     '<N>|<N1>x<N2> <class-spec> [<class-spec> ...]', # comments) as one \
     deduped batch sharded over the worker pool\n\
     plan searches the design space (candidate --geo geometries x the \
     --rho-axis offered-load grids) for the revenue-maximal design whose \
     per-class call blocking honours every --slo, prints a multi-analyzer \
     report, and exits 8 when no design is feasible; --strategy gradient \
     uses projected ascent on the exact dW/drho shadow prices instead of \
     exhaustive enumeration\n\
     --threads 0 (default) auto-detects via available_parallelism\n\
     --metrics writes an obs snapshot as JSON to <path> after the run \
     (- prints a text table instead)\n\n\
     class spec: poisson:rho=0.0012[,mu=1][,a=1][,w=1][,tilde]\n                 \
     bpp:alpha=0.001,beta=0.0005[,mu=1][,a=1][,w=1][,tilde]"
        .to_string()
}

/// A parsed class spec, before tilde resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSpec {
    /// Arrival-rate intercept `α` (already multiplied out for `rho=`).
    pub alpha: f64,
    /// Arrival-rate slope `β`.
    pub beta: f64,
    /// Service rate `μ`.
    pub mu: f64,
    /// Bandwidth `a` (ports per connection).
    pub a: u32,
    /// Revenue weight `w`.
    pub w: f64,
    /// Whether the rates are tilde-aggregated (divided by `C(N2, a)`).
    pub tilde: bool,
}

/// Parse one `kind:key=value,...` class spec.
pub fn parse_class(spec: &str) -> Result<ClassSpec, String> {
    let (kind, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("class spec '{spec}' missing ':'"))?;
    let mut alpha = None;
    let mut beta = 0.0f64;
    let mut rho = None;
    let mut mu = 1.0f64;
    let mut a = 1u32;
    let mut w = 1.0f64;
    let mut tilde = false;
    for part in rest.split(',').filter(|p| !p.is_empty()) {
        if part == "tilde" {
            tilde = true;
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad key=value '{part}' in '{spec}'"))?;
        let v: f64 = value
            .parse()
            .map_err(|_| format!("bad number '{value}' in '{spec}'"))?;
        match key {
            "alpha" => alpha = Some(v),
            "beta" => beta = v,
            "rho" => rho = Some(v),
            "mu" => mu = v,
            "a" => {
                if !(v.is_finite() && v >= 0.0 && v <= u32::MAX as f64 && v.fract() == 0.0) {
                    return Err(format!("bandwidth a={value} must be a small integer"));
                }
                a = v as u32;
            }
            "w" => w = v,
            other => return Err(format!("unknown key '{other}' in '{spec}'")),
        }
    }
    let alpha = match kind {
        "poisson" => {
            if beta != 0.0 {
                return Err("poisson class cannot set beta".into());
            }
            rho.ok_or("poisson class needs rho=")? * mu
        }
        "bpp" => alpha.ok_or("bpp class needs alpha=")?,
        other => return Err(format!("unknown class kind '{other}'")),
    };
    Ok(ClassSpec {
        alpha,
        beta,
        mu,
        a,
        w,
        tilde,
    })
}

/// Fully parsed command line.
pub struct Args {
    /// `solve`, `sim` or `admit`.
    pub command: String,
    /// Inputs `N1`.
    pub n1: u32,
    /// Outputs `N2`.
    pub n2: u32,
    /// Analytic algorithm (for plain `solve`).
    pub algorithm: Algorithm,
    /// `solve --cross-check` relative tolerance override.
    pub cross_check_tol: Option<f64>,
    /// Solver thread count (`0` = auto via `available_parallelism`).
    pub threads: usize,
    /// Where to emit the obs metrics snapshot (`-` = text table on stdout,
    /// anything else = JSON file path; `None` = metrics disabled).
    pub metrics: Option<String>,
    /// Parsed class specs.
    pub classes: Vec<ClassSpec>,
    /// Measured simulation time.
    pub duration: f64,
    /// Warmup time discarded before measurement.
    pub warmup: f64,
    /// RNG seed.
    pub seed: u64,
    /// Independent replications for `sim` (`0` = one classic single run).
    /// With `n > 0` the run fans `n` seed-derived replications over the
    /// worker pool and reports merged across-replication statistics that
    /// are bitwise identical for any `--threads`/`XBAR_THREADS`.
    pub replications: u64,
    /// Mean time between failures per working port (`0`/absent = never).
    pub port_mtbf: f64,
    /// Mean time to repair per failed port (`0`/absent = never).
    pub port_mttr: f64,
    /// Input ports statically failed from `t = 0`.
    pub fail_inputs: u32,
    /// Output ports statically failed from `t = 0`.
    pub fail_outputs: u32,
    /// Admission policy spec (for `admit`).
    pub policy: String,
    /// Trace file to replay instead of synthetic events (for `admit`).
    pub trace: Option<String>,
    /// Synthetic events to generate (for `admit` without `--trace`).
    pub replay_events: u64,
    /// `solve`: check the `auto` solve against an independent recursion.
    /// `admit`: assert replay acceptance against the analytic value
    /// (complete-sharing policy only). Exit 4 on disagreement.
    pub cross_check: bool,
    /// Which class the `sweep` command varies.
    pub sweep_class: usize,
    /// The `sweep` command's `α` grid as `(a0, a1, steps)`.
    pub alpha_range: Option<(f64, f64, u32)>,
    /// Durable state directory (for `serve`).
    pub data_dir: Option<String>,
    /// Event source (for `serve`): exactly one of file/tail/socket.
    pub serve_source: Option<ServeSource>,
    /// Per-tenant bounded ingest queue (for `serve`; 0 = unbounded).
    pub queue_cap: usize,
    /// Applied events between durable snapshots (for `serve`).
    pub snapshot_interval: u64,
    /// Consecutive rejected events before quarantine (for `serve`).
    pub max_failures: u32,
    /// Re-anchor latency budget in ms (for `serve`; absent = no deadline).
    pub reanchor_deadline_ms: Option<u64>,
    /// Events per online repricing batch (for `admit` and `serve`;
    /// absent = the thresholds resolved at start stand).
    pub reprice_batch: Option<u64>,
    /// WAL fsync cadence in records (for `serve`; 0 = on snapshot only).
    pub sync_every: u64,
    /// Tail/socket idle shutdown in ms (for `serve`).
    pub idle_timeout_ms: u64,
    /// Chaos hook: abort after exactly this many applied events.
    pub kill_after: Option<u64>,
    /// Model spec file (for `fleet`): one model per line.
    pub models_path: Option<String>,
    /// Candidate geometries (for `plan`; empty = just the base `--n`).
    pub geometries: Vec<Dims>,
    /// Offered-load axes `r:lo:hi:steps` (for `plan`).
    pub rho_axes: Vec<RhoAxis>,
    /// Per-class call-blocking SLOs `r:maxblock` (for `plan`).
    pub slos: Vec<Slo>,
    /// Search strategy (for `plan`): `exhaustive` or `gradient`.
    pub plan_strategy: String,
    /// Where to write the Pareto frontier CSV (for `plan`).
    pub frontier_csv: Option<String>,
    /// Where to write the full contour CSV (for `plan`).
    pub contour_csv: Option<String>,
}

/// Where the `serve` command reads its event stream from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeSource {
    /// Read a trace file once, then shut down cleanly.
    File(String),
    /// Follow a growing file until `!stop` or the idle timeout.
    Tail(String),
    /// Accept line streams on a unix-domain socket until `!stop`.
    Socket(String),
}

/// Parse an `a0:a1:steps` grid spec.
fn parse_alpha_range(s: &str) -> Result<(f64, f64, u32), String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [a0, a1, steps] = parts.as_slice() else {
        return Err(format!("--alpha grid '{s}' must be a0:a1:steps"));
    };
    let a0: f64 = a0.parse().map_err(|_| format!("bad a0 '{a0}' in '{s}'"))?;
    let a1: f64 = a1.parse().map_err(|_| format!("bad a1 '{a1}' in '{s}'"))?;
    let steps: u32 = steps
        .parse()
        .map_err(|_| format!("bad steps '{steps}' in '{s}'"))?;
    if !(a0.is_finite() && a1.is_finite()) {
        return Err(format!("--alpha endpoints must be finite in '{s}'"));
    }
    if steps == 0 {
        return Err("--alpha needs steps >= 1".into());
    }
    Ok((a0, a1, steps))
}

/// Parse a `plan` geometry spec: `N` (square) or `N1xN2`.
fn parse_geo(s: &str) -> Result<Dims, String> {
    let (n1, n2) = match s.split_once('x') {
        Some((a, b)) => (
            a.parse().map_err(|_| format!("bad N1 in --geo '{s}'"))?,
            b.parse().map_err(|_| format!("bad N2 in --geo '{s}'"))?,
        ),
        None => {
            let n: u32 = s.parse().map_err(|_| format!("bad --geo '{s}'"))?;
            (n, n)
        }
    };
    if n1 == 0 || n2 == 0 {
        return Err(format!("--geo '{s}' needs N1, N2 >= 1"));
    }
    Ok(Dims::new(n1, n2))
}

/// Parse a `plan` offered-load axis spec `r:lo:hi:steps`.
fn parse_rho_axis(s: &str) -> Result<RhoAxis, String> {
    let parts: Vec<&str> = s.split(':').collect();
    let [r, lo, hi, steps] = parts.as_slice() else {
        return Err(format!("--rho-axis '{s}' must be r:lo:hi:steps"));
    };
    let class: usize = r.parse().map_err(|_| format!("bad class '{r}' in '{s}'"))?;
    let lo: f64 = lo.parse().map_err(|_| format!("bad lo '{lo}' in '{s}'"))?;
    let hi: f64 = hi.parse().map_err(|_| format!("bad hi '{hi}' in '{s}'"))?;
    let steps: usize = steps
        .parse()
        .map_err(|_| format!("bad steps '{steps}' in '{s}'"))?;
    if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo) {
        return Err(format!("--rho-axis '{s}' needs 0 < lo <= hi, finite"));
    }
    if steps == 0 {
        return Err("--rho-axis needs steps >= 1".into());
    }
    Ok(RhoAxis {
        class,
        lo,
        hi,
        steps,
    })
}

/// Parse a `plan` SLO spec `r:maxblock`.
fn parse_slo(s: &str) -> Result<Slo, String> {
    let Some((r, p)) = s.split_once(':') else {
        return Err(format!("--slo '{s}' must be r:maxblock"));
    };
    let class: usize = r.parse().map_err(|_| format!("bad class '{r}' in '{s}'"))?;
    let max_blocking: f64 = p.parse().map_err(|_| format!("bad bound '{p}' in '{s}'"))?;
    if !(0.0..=1.0).contains(&max_blocking) {
        return Err(format!("--slo bound must be in [0, 1], got {max_blocking}"));
    }
    Ok(Slo {
        class,
        max_blocking,
    })
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Ok(match s {
        "auto" => Algorithm::Auto,
        "alg1-f64" => Algorithm::Alg1F64,
        "alg1-scaled" => Algorithm::Alg1Scaled,
        "alg1-ext" => Algorithm::Alg1Ext,
        "alg2-mva" => Algorithm::Mva,
        "alg3-convolution" => Algorithm::Convolution,
        other => return Err(format!("unknown algorithm '{other}'")),
    })
}

/// Parse an argument vector (without the program name). All failures are
/// `Err` strings — this function never panics, whatever the input.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or_else(usage)?.clone();
    if !["solve", "sim", "admit", "sweep", "serve", "fleet", "plan"].contains(&command.as_str()) {
        return Err(format!("unknown command '{command}'\n{}", usage()));
    }
    let mut n1 = None;
    let mut n2 = None;
    let mut algorithm = Algorithm::Auto;
    let mut cross_check_tol = None;
    let mut threads = 0usize;
    let mut metrics = None;
    let mut classes = Vec::new();
    let mut duration = 100_000.0f64;
    let mut warmup = 1_000.0f64;
    let mut seed = 42u64;
    let mut replications = 0u64;
    let mut port_mtbf = 0.0f64;
    let mut port_mttr = 0.0f64;
    let mut fail_inputs = 0u32;
    let mut fail_outputs = 0u32;
    let mut policy = "cs".to_string();
    let mut trace = None;
    let mut replay_events = 1_000_000u64;
    let mut cross_check = false;
    let mut sweep_class = 0usize;
    let mut alpha_range = None;
    let mut data_dir = None;
    let mut serve_source: Option<ServeSource> = None;
    let mut queue_cap = 0usize;
    let mut snapshot_interval = 4096u64;
    let mut max_failures = 5u32;
    let mut reanchor_deadline_ms = None;
    let mut reprice_batch = None;
    let mut sync_every = 0u64;
    let mut idle_timeout_ms = 2_000u64;
    let mut kill_after = None;
    let mut models_path = None;
    let mut geometries = Vec::new();
    let mut rho_axes = Vec::new();
    let mut slos = Vec::new();
    let mut plan_strategy = "exhaustive".to_string();
    let mut frontier_csv = None;
    let mut contour_csv = None;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--n" => {
                let v: u32 = value()?.parse().map_err(|e| format!("--n: {e}"))?;
                n1 = Some(v);
                n2 = Some(v);
            }
            "--n1" => n1 = Some(value()?.parse().map_err(|e| format!("--n1: {e}"))?),
            "--n2" => n2 = Some(value()?.parse().map_err(|e| format!("--n2: {e}"))?),
            "--algorithm" => algorithm = parse_algorithm(&value()?)?,
            "--cross-check-tol" => {
                let v: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--cross-check-tol: {e}"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("--cross-check-tol must be finite and > 0, got {v}"));
                }
                cross_check_tol = Some(v);
            }
            "--threads" => {
                threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
            }
            "--metrics" => metrics = Some(value()?),
            "--class" => classes.push(parse_class(&value()?)?),
            "--duration" => {
                duration = value()?.parse().map_err(|e| format!("--duration: {e}"))?;
                if !(duration.is_finite() && duration > 0.0) {
                    return Err(format!("--duration must be finite and > 0, got {duration}"));
                }
            }
            "--warmup" => {
                warmup = value()?.parse().map_err(|e| format!("--warmup: {e}"))?;
                if !(warmup.is_finite() && warmup >= 0.0) {
                    return Err(format!("--warmup must be finite and >= 0, got {warmup}"));
                }
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--replications" => {
                replications = value()?
                    .parse()
                    .map_err(|e| format!("--replications: {e}"))?;
            }
            "--port-mtbf" => {
                port_mtbf = value()?.parse().map_err(|e| format!("--port-mtbf: {e}"))?;
                if port_mtbf.is_nan() || port_mtbf < 0.0 {
                    return Err(format!("--port-mtbf must be >= 0, got {port_mtbf}"));
                }
            }
            "--port-mttr" => {
                port_mttr = value()?.parse().map_err(|e| format!("--port-mttr: {e}"))?;
                if port_mttr.is_nan() || port_mttr < 0.0 {
                    return Err(format!("--port-mttr must be >= 0, got {port_mttr}"));
                }
            }
            "--fail-inputs" => {
                fail_inputs = value()?
                    .parse()
                    .map_err(|e| format!("--fail-inputs: {e}"))?
            }
            "--fail-outputs" => {
                fail_outputs = value()?
                    .parse()
                    .map_err(|e| format!("--fail-outputs: {e}"))?
            }
            "--policy" => {
                policy = value()?;
                // Validate eagerly so a typo is a parse-time usage error.
                PolicySpec::parse(&policy)?;
            }
            "--trace" => trace = Some(value()?),
            "--replay-events" => {
                replay_events = value()?
                    .parse()
                    .map_err(|e| format!("--replay-events: {e}"))?;
                if replay_events == 0 {
                    return Err("--replay-events must be > 0".into());
                }
            }
            "--cross-check" => cross_check = true,
            "--sweep-class" => {
                sweep_class = value()?
                    .parse()
                    .map_err(|e| format!("--sweep-class: {e}"))?
            }
            "--alpha" => alpha_range = Some(parse_alpha_range(&value()?)?),
            "--data-dir" => data_dir = Some(value()?),
            "--file" | "--tail" | "--socket" => {
                if serve_source.is_some() {
                    return Err("serve takes exactly one of --file, --tail, --socket".into());
                }
                let path = value()?;
                serve_source = Some(match flag.as_str() {
                    "--file" => ServeSource::File(path),
                    "--tail" => ServeSource::Tail(path),
                    _ => ServeSource::Socket(path),
                });
            }
            "--queue-cap" => {
                queue_cap = value()?.parse().map_err(|e| format!("--queue-cap: {e}"))?;
            }
            "--snapshot-interval" => {
                snapshot_interval = value()?
                    .parse()
                    .map_err(|e| format!("--snapshot-interval: {e}"))?;
            }
            "--max-failures" => {
                max_failures = value()?
                    .parse()
                    .map_err(|e| format!("--max-failures: {e}"))?;
                if max_failures == 0 {
                    return Err("--max-failures must be > 0".into());
                }
            }
            "--reanchor-deadline-ms" => {
                reanchor_deadline_ms = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--reanchor-deadline-ms: {e}"))?,
                );
            }
            "--reprice-batch" => {
                let v: u64 = value()?
                    .parse()
                    .map_err(|e| format!("--reprice-batch: {e}"))?;
                if v == 0 {
                    return Err("--reprice-batch must be > 0".into());
                }
                reprice_batch = Some(v);
            }
            "--sync-every" => {
                sync_every = value()?.parse().map_err(|e| format!("--sync-every: {e}"))?;
            }
            "--idle-timeout-ms" => {
                idle_timeout_ms = value()?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            }
            "--kill-after" => {
                let v: u64 = value()?.parse().map_err(|e| format!("--kill-after: {e}"))?;
                if v == 0 {
                    return Err("--kill-after must be > 0".into());
                }
                kill_after = Some(v);
            }
            "--models" => models_path = Some(value()?),
            "--geo" => geometries.push(parse_geo(&value()?)?),
            "--rho-axis" => rho_axes.push(parse_rho_axis(&value()?)?),
            "--slo" => slos.push(parse_slo(&value()?)?),
            "--strategy" => {
                let v = value()?;
                if !["exhaustive", "gradient"].contains(&v.as_str()) {
                    return Err(format!("--strategy must be exhaustive|gradient, got '{v}'"));
                }
                plan_strategy = v;
            }
            "--objective" => {
                let v = value()?;
                if !["w", "revenue"].contains(&v.as_str()) {
                    return Err(format!("--objective must be w (revenue), got '{v}'"));
                }
            }
            "--frontier-csv" => frontier_csv = Some(value()?),
            "--contour-csv" => contour_csv = Some(value()?),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    // `fleet` takes its geometry and classes from the --models file, so
    // the per-command --n/--class contract does not apply.
    if command == "fleet" {
        if models_path.is_none() {
            return Err("fleet needs --models <path> (one model per line)".into());
        }
        if n1.is_some() || n2.is_some() || !classes.is_empty() {
            return Err("fleet reads models from --models; drop --n/--n1/--n2/--class".into());
        }
    }
    let n1 = match n1 {
        Some(v) => v,
        None if command == "fleet" => 0,
        None => return Err("missing --n or --n1".into()),
    };
    let n2 = match n2 {
        Some(v) => v,
        None if command == "fleet" => 0,
        None => return Err("missing --n or --n2".into()),
    };
    if classes.is_empty() && command != "fleet" {
        return Err("need at least one --class".into());
    }
    if command == "sweep" {
        if alpha_range.is_none() {
            return Err("sweep needs --alpha a0:a1:steps".into());
        }
        if sweep_class >= classes.len() {
            return Err(format!(
                "--sweep-class {sweep_class} out of range: only {} class(es)",
                classes.len()
            ));
        }
    }
    if command == "serve" {
        if data_dir.is_none() {
            return Err("serve needs --data-dir <dir> for its WAL + snapshots".into());
        }
        if serve_source.is_none() {
            return Err("serve needs an event source: --file, --tail, or --socket".into());
        }
    }
    if command == "plan" {
        for a in &rho_axes {
            if a.class >= classes.len() {
                return Err(format!(
                    "--rho-axis class {} out of range: only {} class(es)",
                    a.class,
                    classes.len()
                ));
            }
        }
        for s in &slos {
            if s.class >= classes.len() {
                return Err(format!(
                    "--slo class {} out of range: only {} class(es)",
                    s.class,
                    classes.len()
                ));
            }
        }
    }
    Ok(Args {
        command,
        n1,
        n2,
        algorithm,
        cross_check_tol,
        threads,
        metrics,
        classes,
        duration,
        warmup,
        seed,
        replications,
        port_mtbf,
        port_mttr,
        fail_inputs,
        fail_outputs,
        policy,
        trace,
        replay_events,
        cross_check,
        sweep_class,
        alpha_range,
        data_dir,
        serve_source,
        queue_cap,
        snapshot_interval,
        max_failures,
        reanchor_deadline_ms,
        reprice_batch,
        sync_every,
        idle_timeout_ms,
        kill_after,
        models_path,
        geometries,
        rho_axes,
        slos,
        plan_strategy,
        frontier_csv,
        contour_csv,
    })
}

/// Resolve a parsed class spec against the output-side dimension (tilde
/// rates aggregate over `C(N2, a)` port sets).
fn resolve_class(spec: &ClassSpec, n2: u32) -> TrafficClass {
    if spec.tilde {
        TildeClass {
            alpha_tilde: spec.alpha,
            beta_tilde: spec.beta,
            mu: spec.mu,
            bandwidth: spec.a,
            weight: spec.w,
        }
        .resolve(n2)
    } else {
        TrafficClass {
            alpha: spec.alpha,
            beta: spec.beta,
            mu: spec.mu,
            bandwidth: spec.a,
            weight: spec.w,
        }
    }
}

/// Build the analytic model from parsed args.
pub fn build_model(args: &Args) -> Result<Model, String> {
    let mut workload = Workload::new();
    for spec in &args.classes {
        workload = workload.with(resolve_class(spec, args.n2));
    }
    Model::new(Dims::new(args.n1, args.n2), workload).map_err(|e| e.to_string())
}

/// Parse a fleet model-spec file: one model per non-comment line,
/// `<N>|<N1>x<N2> <class-spec> [<class-spec> ...]` with the same class
/// specs as `--class`; `#` starts a comment.
pub fn parse_fleet_models(text: &str) -> Result<Vec<Model>, String> {
    let mut models = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |m: String| format!("models line {}: {m}", i + 1);
        let mut toks = line.split_whitespace();
        let dims_tok = toks.next().expect("non-empty line has a token");
        let (n1, n2) = match dims_tok.split_once('x') {
            Some((a, b)) => (
                a.parse()
                    .map_err(|e| at(format!("bad N1 '{a}' in '{dims_tok}': {e}")))?,
                b.parse()
                    .map_err(|e| at(format!("bad N2 '{b}' in '{dims_tok}': {e}")))?,
            ),
            None => {
                let n: u32 = dims_tok
                    .parse()
                    .map_err(|e| at(format!("bad dims '{dims_tok}' (want N or N1xN2): {e}")))?;
                (n, n)
            }
        };
        let mut workload = Workload::new();
        let mut any = false;
        for tok in toks {
            workload = workload.with(resolve_class(&parse_class(tok).map_err(at)?, n2));
            any = true;
        }
        if !any {
            return Err(at("needs at least one class spec".into()));
        }
        models.push(Model::new(Dims::new(n1, n2), workload).map_err(|e| at(e.to_string()))?);
    }
    if models.is_empty() {
        return Err("models file has no model lines".into());
    }
    Ok(models)
}

fn print_solution_table(args: &Args, model: &Model, sol: &xbar_core::Solution) {
    println!(
        "solved {}x{} with {} classes (algorithm: {})",
        args.n1,
        args.n2,
        model.num_classes(),
        sol.algorithm()
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "class", "blocking", "B_r", "E_r", "throughput", "acceptance"
    );
    for r in 0..model.num_classes() {
        println!(
            "{r:>6} {:>12.6} {:>12.6} {:>12.4} {:>12.4} {:>12.6}",
            sol.blocking(r),
            sol.nonblocking(r),
            sol.concurrency(r),
            sol.throughput(r),
            sol.call_acceptance(r),
        );
    }
    println!(
        "revenue W = {:.6}   total throughput = {:.4}",
        sol.revenue(),
        sol.total_throughput()
    );
    for r in 0..model.num_classes() {
        println!(
            "class {r}: shadow cost = {:.6}, dW/drho = {:+.4}",
            sol.shadow_cost(r),
            sol.revenue_gradient_rho(r)
        );
    }
}

/// `solve --cross-check`'s tolerance when `--cross-check-tol` is not given.
const DEFAULT_CROSS_CHECK_TOL: f64 = 1e-9;

/// Execute the `solve` command.
pub fn run_solve(args: &Args) -> Result<(), CliError> {
    let model = build_model(args).map_err(CliError::Usage)?;
    if args.cross_check {
        if args.algorithm != Algorithm::Auto {
            return Err(CliError::Usage(
                "--cross-check checks the auto solve; drop --algorithm".into(),
            ));
        }
        let tol = args.cross_check_tol.unwrap_or(DEFAULT_CROSS_CHECK_TOL);
        let (sol, check) = solve_cross_checked(&model, tol).map_err(|e| match &e {
            SolveError::CrossCheckFailed(_) => CliError::CrossCheck(e.to_string()),
            SolveError::Model(_) => CliError::Usage(e.to_string()),
            _ => CliError::Solve(e.to_string()),
        })?;
        println!("{check}");
        print_solution_table(args, &model, &sol);
    } else {
        let sol = solve(&model, args.algorithm).map_err(|e| match &e {
            SolveError::Model(_) => CliError::Usage(e.to_string()),
            _ => CliError::Solve(e.to_string()),
        })?;
        print_solution_table(args, &model, &sol);
    }
    Ok(())
}

/// Execute the `sweep` command: one [`SweepSolver`] precompute, then one
/// `O(N)` recombination per grid point of class `r`'s arrival intercept
/// `α` (analytically continued like [`Model::with_rho`], so smooth
/// Bernoulli grids work too).
pub fn run_sweep(args: &Args) -> Result<(), CliError> {
    let model = build_model(args).map_err(CliError::Usage)?;
    let r = args.sweep_class;
    let (a0, a1, steps) = args.alpha_range.expect("parse_args requires --alpha");
    let sweep = SweepSolver::new(&model, args.algorithm).map_err(|e| match &e {
        SolveError::Model(_) => CliError::Usage(e.to_string()),
        _ => CliError::Solve(e.to_string()),
    })?;
    let mu = model.workload().classes()[r].mu;
    println!(
        "sweeping class {r} alpha over [{a0}, {a1}] in {steps} step(s) on {}x{} \
         (backend: {})",
        args.n1,
        args.n2,
        sweep.algorithm()
    );
    println!(
        "{:>14} {:>12} {:>12} {:>12} {:>12}",
        "alpha", "blocking", "B_r", "revenue", "throughput"
    );
    for i in 0..steps {
        let alpha = if steps == 1 {
            a0
        } else {
            a0 + (a1 - a0) * i as f64 / (steps - 1) as f64
        };
        let point = sweep
            .solve_with_rho(r, alpha / mu)
            .map_err(|e| CliError::Solve(e.to_string()))?;
        println!(
            "{alpha:>14.8} {:>12.6} {:>12.6} {:>12.6} {:>12.4}",
            point.blocking(r),
            point.nonblocking(r),
            point.revenue(),
            point.total_throughput(),
        );
    }
    Ok(())
}

/// Render frontier rows as CSV (one `;`-joined cell for the `ρ` vector,
/// so the row stays one CSV record per design).
fn frontier_to_csv(rows: &[xbar_plan::FrontierRow]) -> String {
    let mut out = String::from("index,n1,n2,rho,objective,worst_blocking,optimal\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.9},{:.9},{}\n",
            plan_index_cell(r.index),
            r.n1,
            r.n2,
            plan_rho_cell(&r.rho),
            r.objective,
            r.worst_blocking,
            r.optimal
        ));
    }
    out
}

/// Render contour rows as CSV.
fn contour_to_csv(rows: &[xbar_plan::ContourRow]) -> String {
    let mut out = String::from("index,n1,n2,rho,objective,worst_blocking,feasible\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.9},{:.9},{}\n",
            plan_index_cell(r.index),
            r.n1,
            r.n2,
            plan_rho_cell(&r.rho),
            r.objective,
            r.worst_blocking,
            r.feasible
        ));
    }
    out
}

fn plan_index_cell(index: u64) -> String {
    if index == xbar_plan::OFF_GRID {
        "-".to_string()
    } else {
        index.to_string()
    }
}

fn plan_rho_cell(rho: &[f64]) -> String {
    rho.iter()
        .map(|x| format!("{x:.6}"))
        .collect::<Vec<_>>()
        .join(";")
}

/// Execute the `plan` command: search the design space for the
/// revenue-maximal SLO-feasible design, print the multi-analyzer report,
/// and optionally dump the Pareto frontier / contour CSVs. An SLO set no
/// evaluated design can satisfy exits 8 ([`CliError::Infeasible`]), with
/// the least-violating candidate in the message — distinct from a solver
/// failure (exit 3).
pub fn run_plan(args: &Args) -> Result<(), CliError> {
    let model = build_model(args).map_err(CliError::Usage)?;
    let mut space = DesignSpace::new(model);
    for g in &args.geometries {
        space = space.with_geometry(*g);
    }
    for a in &args.rho_axes {
        space = space.with_axis(*a);
    }
    for s in &args.slos {
        space = space.with_slo(*s);
    }
    let strategy = match args.plan_strategy.as_str() {
        "gradient" => xbar_plan::Strategy::GradientAscent {
            max_iters: 60,
            step0: 0.25,
            starts: Vec::new(),
        },
        // Pruned and fleet-warmed: scanline tails past the first SLO
        // violation are skipped, shared precomputes build over the worker
        // pool. Bit-identical to the serial path (the crate's proptests
        // hold the exhaustive strategy to that).
        _ => xbar_plan::Strategy::Exhaustive {
            prune: true,
            batch: true,
        },
    };
    let cfg = PlanConfig {
        algorithm: args.algorithm,
        strategy,
        ..PlanConfig::default()
    };
    let report = xbar_plan::plan(&space, &cfg).map_err(|e| match &e {
        PlanError::Space(_) => CliError::Usage(e.to_string()),
        PlanError::Infeasible { closest, .. } => {
            // Surface the least-violating candidate so the operator can
            // see how far the requirement missed.
            let detail = closest
                .as_ref()
                .map(|c| {
                    format!(
                        "; closest: {}x{} rho {} (W = {:.6}, blocking {})",
                        c.candidate.geometry.n1,
                        c.candidate.geometry.n2,
                        plan_rho_cell(&c.candidate.rho),
                        c.objective,
                        plan_rho_cell(&c.call_blocking),
                    )
                })
                .unwrap_or_default();
            CliError::Infeasible(format!("{e}{detail}"))
        }
        PlanError::Solve(_) => CliError::Solve(e.to_string()),
    })?;
    let text = xbar_plan::render_report(&space, &cfg, &report)
        .map_err(|e| CliError::Solve(e.to_string()))?;
    print!("{text}");
    if let Some(path) = &args.frontier_csv {
        let csv = frontier_to_csv(&xbar_plan::frontier(&space, &report));
        std::fs::write(path, csv)
            .map_err(|e| CliError::Usage(format!("cannot write '{path}': {e}")))?;
    }
    if let Some(path) = &args.contour_csv {
        let csv = contour_to_csv(&xbar_plan::contour(&space, &report));
        std::fs::write(path, csv)
            .map_err(|e| CliError::Usage(format!("cannot write '{path}': {e}")))?;
    }
    Ok(())
}

/// Execute the `fleet` command: batch-solve every model in the spec
/// file through [`xbar_core::solve_fleet`] — duplicates dedupe to one
/// solve, distinct models shard over the persistent worker pool — and
/// print one summary row per model. Any failed member exits 3 after the
/// full table is printed.
pub fn run_fleet(args: &Args) -> Result<(), CliError> {
    let path = args
        .models_path
        .as_deref()
        .expect("parse_args requires --models");
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read models file '{path}': {e}")))?;
    let models = parse_fleet_models(&text).map_err(CliError::Usage)?;
    let results = xbar_core::solve_fleet(&models, args.algorithm);
    println!(
        "fleet of {} model(s) (algorithm: {})",
        models.len(),
        args.algorithm
    );
    println!(
        "{:>5} {:>9} {:>7} {:>12} {:>12} {:>12}",
        "model", "dims", "classes", "blocking", "revenue", "throughput"
    );
    let mut failed = 0usize;
    for (i, (model, res)) in models.iter().zip(&results).enumerate() {
        let dims = format!("{}x{}", model.dims().n1, model.dims().n2);
        match res {
            Ok(sol) => println!(
                "{i:>5} {dims:>9} {:>7} {:>12.6} {:>12.6} {:>12.4}",
                model.num_classes(),
                sol.blocking(0),
                sol.revenue(),
                sol.total_throughput(),
            ),
            Err(e) => {
                failed += 1;
                println!("{i:>5} {dims:>9} {:>7} error: {e}", model.num_classes());
            }
        }
    }
    if failed > 0 {
        return Err(CliError::Solve(format!(
            "{failed} of {} fleet member(s) failed",
            models.len()
        )));
    }
    Ok(())
}

/// Execute the `sim` command.
pub fn run_sim(args: &Args) -> Result<(), CliError> {
    let model = build_model(args).map_err(CliError::Usage)?;
    let faults = FaultConfig::from_mtbf_mttr(
        if args.port_mtbf > 0.0 {
            args.port_mtbf
        } else {
            f64::INFINITY
        },
        if args.port_mttr > 0.0 {
            args.port_mttr
        } else {
            f64::INFINITY
        },
    )
    .with_static_failures(args.fail_inputs, args.fail_outputs);
    let mut cfg = SimConfig::new(args.n1, args.n2).with_faults(faults);
    for class in model.workload().classes() {
        cfg = cfg.with_exp_class(class.clone());
    }
    if args.replications > 0 {
        return run_sim_replicated(args, cfg);
    }
    let mut sim =
        CrossbarSim::try_new(cfg, args.seed).map_err(|e| CliError::SimConfig(e.to_string()))?;
    let rep = sim.run(RunConfig {
        warmup: args.warmup,
        duration: args.duration,
        batches: 20,
    });
    println!(
        "simulated {}x{} for t = {} ({} events, seed {})",
        args.n1, args.n2, args.duration, rep.events, args.seed
    );
    println!(
        "{:>6} {:>10} {:>10} {:>22} {:>22}",
        "class", "offered", "blocked", "blocking (95% CI)", "availability (95% CI)"
    );
    for (r, c) in rep.classes.iter().enumerate() {
        println!(
            "{r:>6} {:>10} {:>10} {:>14.6} ±{:.6} {:>14.6} ±{:.6}",
            c.offered,
            c.blocked,
            c.blocking.mean,
            c.blocking.half_width,
            c.availability.mean,
            c.availability.half_width,
        );
    }
    if let Some(faults) = &rep.faults {
        println!(
            "faults: {} failures, {} repairs, {} circuits torn down, {} requests fault-blocked",
            faults.failures, faults.repairs, faults.torn_down, faults.fault_blocked
        );
        println!(
            "mean failed ports: {:.3} inputs, {:.3} outputs",
            faults.mean_failed_inputs, faults.mean_failed_outputs
        );
        for (r, c) in rep.classes.iter().enumerate() {
            println!(
                "class {r}: viable blocking = {:.6} ±{:.6} (degraded-switch congestion only)",
                c.viable_blocking.mean, c.viable_blocking.half_width
            );
        }
    }
    println!("revenue rate = {:.6}", rep.revenue);
    Ok(())
}

/// The `sim --replications <n>` path: fan `n` seed-derived replications
/// over the worker pool (the PR 10 harness) and print merged
/// across-replication statistics. Every number printed here is bitwise
/// identical for any `--threads`/`XBAR_THREADS` — CI diffs the t=1 and
/// t=4 outputs byte for byte.
fn run_sim_replicated(args: &Args, cfg: SimConfig) -> Result<(), CliError> {
    let run = RunConfig {
        warmup: args.warmup,
        duration: args.duration,
        batches: 20,
    };
    let rep_cfg = RepConfig {
        replications: args.replications,
        master_seed: args.seed,
        confidence: Confidence::P99,
    };
    let merged = run_sim_replications(&cfg, &run, &rep_cfg)
        .map_err(|e| CliError::SimConfig(e.to_string()))?;
    println!(
        "simulated {}x{} for t = {} x {} replications ({} events, master seed {})",
        args.n1, args.n2, args.duration, merged.replications, merged.events, args.seed
    );
    println!(
        "{:>6} {:>10} {:>10} {:>22} {:>22}",
        "class", "offered", "blocked", "blocking (99% CI)", "availability (99% CI)"
    );
    for (r, c) in merged.classes.iter().enumerate() {
        println!(
            "{r:>6} {:>10} {:>10} {:>14.6} ±{:.6} {:>14.6} ±{:.6}",
            c.offered,
            c.blocked,
            c.blocking.mean,
            c.blocking.half_width,
            c.availability.mean,
            c.availability.half_width,
        );
    }
    println!(
        "revenue rate = {:.6} ±{:.6}",
        merged.revenue.mean, merged.revenue.half_width
    );
    Ok(())
}

fn admission_err(e: AdmissionError) -> CliError {
    match e {
        AdmissionError::Solve(_) => CliError::Solve(e.to_string()),
        _ => CliError::Usage(e.to_string()),
    }
}

/// Replay a trace file of `a <class>` / `d <class>` lines (with `#`
/// comments) through a fresh engine; errors carry the 1-based line number.
///
/// The file is read as raw bytes and decoded per line, so a stray
/// non-UTF-8 byte is a usage error naming the offending line — not a
/// whole-file refusal and never a panic. An empty file is a valid trace
/// of zero events, and a partial final line (no trailing newline) is
/// replayed like any other.
fn replay_trace(model: &Model, cfg: EngineConfig, path: &str) -> Result<AdmissionEngine, CliError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CliError::Usage(format!("cannot read trace '{path}': {e}")))?;
    let mut engine = AdmissionEngine::new(model, cfg).map_err(admission_err)?;
    for (i, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        let raw = raw.strip_suffix(b"\r").unwrap_or(raw);
        let raw = std::str::from_utf8(raw).map_err(|e| {
            CliError::Usage(format!("{path}:{}: invalid UTF-8 in trace: {e}", i + 1))
        })?;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let at = |m: String| CliError::Usage(format!("{path}:{}: {m}", i + 1));
        let mut parts = line.split_whitespace();
        let op = parts.next().unwrap_or("");
        let class: usize = parts
            .next()
            .ok_or_else(|| at(format!("expected 'a <class>' or 'd <class>', got '{line}'")))?
            .parse()
            .map_err(|e| at(format!("bad class index: {e}")))?;
        if parts.next().is_some() {
            return Err(at(format!("trailing tokens in '{line}'")));
        }
        let step = match op {
            "a" => engine.offer(class).map(|_| ()),
            "d" => engine.depart(class),
            other => return Err(at(format!("unknown op '{other}' (expected 'a' or 'd')"))),
        };
        step.map(|_| ()).map_err(|e| at(e.to_string()))?;
    }
    Ok(engine)
}

/// Execute the `admit` command: replay a trace file or a synthetic BPP
/// event stream through the online admission engine.
pub fn run_admit(args: &Args) -> Result<(), CliError> {
    let model = build_model(args).map_err(CliError::Usage)?;
    let policy = PolicySpec::parse(&args.policy).map_err(CliError::Usage)?;
    if args.cross_check && policy != PolicySpec::CompleteSharing {
        return Err(CliError::Usage(
            "--cross-check compares against the paper's complete-sharing analytics; \
             it requires --policy cs"
                .into(),
        ));
    }
    let engine_cfg = EngineConfig {
        policy: policy.clone(),
        algorithm: args.algorithm,
        reprice_batch: args.reprice_batch,
        ..EngineConfig::default()
    };

    if let Some(path) = &args.trace {
        let engine = replay_trace(&model, engine_cfg, path)?;
        let stats = engine.stats();
        println!(
            "replayed trace '{path}' on {}x{} (policy {policy}): {} events, {} re-anchors",
            args.n1, args.n2, stats.events, stats.re_anchors
        );
        println!(
            "{:>6} {:>10} {:>10} {:>12} {:>12}",
            "class", "offered", "admitted", "deny(cap)", "deny(policy)"
        );
        for (r, c) in stats.per_class.iter().enumerate() {
            println!(
                "{r:>6} {:>10} {:>10} {:>12} {:>12}",
                c.offered, c.admitted, c.denied_capacity, c.denied_policy
            );
        }
        println!("final occupancy k = {:?}", engine.state());
        engine.flush_obs();
        return Ok(());
    }

    let rep = replay(
        &model,
        &ReplayConfig {
            events: args.replay_events,
            seed: args.seed,
            batches: 20,
            engine: engine_cfg,
        },
    )
    .map_err(admission_err)?;
    println!(
        "replayed {} synthetic events on {}x{} (policy {policy}, seed {}): \
         {} arrivals, {} departures, {} re-anchors",
        rep.events, args.n1, args.n2, args.seed, rep.arrivals, rep.departures, rep.re_anchors
    );
    if let Some(batch) = args.reprice_batch {
        println!(
            "repricing: every {batch} events, {} pass(es), {} threshold update(s)",
            rep.reprice_batches, rep.reprice_updates
        );
    }
    println!(
        "{:>6} {:>10} {:>10} {:>12} {:>12} {:>22} {:>10}",
        "class",
        "offered",
        "admitted",
        "deny(cap)",
        "deny(policy)",
        "acceptance (99% CI)",
        "analytic"
    );
    for (r, c) in rep.classes.iter().enumerate() {
        println!(
            "{r:>6} {:>10} {:>10} {:>12} {:>12} {:>14.6} ±{:.6} {:>10.6}",
            c.offered,
            c.admitted,
            c.denied_capacity,
            c.denied_policy,
            c.acceptance.mean,
            c.acceptance.half_width,
            c.analytic_acceptance,
        );
    }
    if args.cross_check {
        for (r, c) in rep.classes.iter().enumerate() {
            if !c.acceptance.covers(c.analytic_acceptance) {
                return Err(CliError::CrossCheck(format!(
                    "replay acceptance for class {r} ({:.6} ± {:.6}) excludes the analytic \
                     value {:.6}",
                    c.acceptance.mean, c.acceptance.half_width, c.analytic_acceptance
                )));
            }
        }
        println!("cross-check: replay acceptance covers the analytic value for every class");
    }
    Ok(())
}

fn serve_err(e: xbar_serve::ServeError) -> CliError {
    match &e {
        xbar_serve::ServeError::Config(_) => CliError::Usage(e.to_string()),
        xbar_serve::ServeError::Admission(_) => CliError::Solve(e.to_string()),
        _ => CliError::Metrics(e.to_string()),
    }
}

/// Execute the `serve` command: run the fault-tolerant multi-tenant
/// admission daemon over a file, tailed file, or unix-socket event
/// stream, with durable WAL + snapshot state under `--data-dir`.
///
/// The process exits 0 on a clean run and 7 ([`CliError::Quarantine`])
/// when one or more tenants ended the run quarantined: the fleet kept
/// serving, but an operator needs to look at the quarantined WALs.
pub fn run_serve(args: &Args) -> Result<(), CliError> {
    let model = build_model(args).map_err(CliError::Usage)?;
    let policy = PolicySpec::parse(&args.policy).map_err(CliError::Usage)?;
    let data_dir = args
        .data_dir
        .as_deref()
        .ok_or_else(|| CliError::Usage("serve needs --data-dir".into()))?;
    let source = match args
        .serve_source
        .as_ref()
        .ok_or_else(|| CliError::Usage("serve needs --file, --tail, or --socket".into()))?
    {
        ServeSource::File(p) => xbar_serve::Source::File(p.into()),
        ServeSource::Tail(p) => xbar_serve::Source::Tail(p.into()),
        ServeSource::Socket(p) => xbar_serve::Source::Socket(p.into()),
    };
    let cfg = xbar_serve::DaemonConfig {
        tenant: xbar_serve::TenantConfig {
            policy,
            algorithm: args.algorithm,
            snapshot_interval: args.snapshot_interval,
            max_failures: args.max_failures,
            reanchor_deadline: args.reanchor_deadline_ms.map(Duration::from_millis),
            reprice_batch: args.reprice_batch,
            sync_every: args.sync_every,
            ..xbar_serve::TenantConfig::default()
        },
        queue_cap: args.queue_cap,
        kill_after: args.kill_after,
        ..xbar_serve::DaemonConfig::default()
    };
    let (mut daemon, reports) =
        xbar_serve::Daemon::open(std::path::Path::new(data_dir), &model, cfg).map_err(serve_err)?;
    for (name, report) in &reports {
        println!(
            "recovered tenant '{name}': snapshot={} replayed={} wal_damaged={} durable_seq={}",
            report.snapshot_used, report.replayed, report.wal_damaged, report.durable_seq
        );
    }
    let run = xbar_serve::run_source(
        &mut daemon,
        &source,
        Duration::from_millis(args.idle_timeout_ms),
    )
    .map_err(serve_err)?;
    let acc = daemon.accounting();
    let counters = daemon.serve_counters();
    println!(
        "served {} line(s), {} event(s) applied{} ({} tenant(s))",
        run.lines,
        run.applied,
        if run.stopped { " [stopped]" } else { "" },
        daemon.tenants().count()
    );
    println!(
        "offers {} = admitted {} + denied(cap) {} + denied(policy) {} + shed {}; \
         departures {}, rejected {}, duplicates {}",
        acc.offers,
        acc.admitted,
        acc.denied_capacity,
        acc.denied_policy,
        acc.shed,
        acc.departures,
        acc.rejected,
        daemon.counters().duplicates,
    );
    if counters.restarts > 0 || counters.stale_reanchors > 0 {
        println!(
            "supervision: {} restart(s), {} stale re-anchor(s)",
            counters.restarts, counters.stale_reanchors
        );
    }
    daemon.flush_obs();
    let quarantined = daemon.quarantined_tenants();
    if quarantined > 0 {
        let names: Vec<&str> = daemon
            .tenants()
            .filter(|(_, t)| t.quarantined())
            .map(|(n, _)| n.as_str())
            .collect();
        return Err(CliError::Quarantine(format!(
            "{quarantined} tenant(s) quarantined after repeated failures: {}",
            names.join(", ")
        )));
    }
    Ok(())
}

/// Check the cross-cutting obs counter invariants a healthy run must
/// satisfy: the simulator's offer accounting
/// (`offers = admitted + capacity-blocked + fault-blocked`) and the
/// admission engine's decision split
/// (`offers = admitted + capacity-denied + policy-denied`), each checked
/// only when the corresponding run actually happened.
pub fn verify_metrics_invariants(snap: &xbar_obs::Snapshot) -> Result<(), CliError> {
    if let Some(offers) = snap.counter("sim.offers") {
        let admitted = snap.counter("sim.admitted").unwrap_or(0);
        let capacity = snap.counter("sim.blocked.capacity").unwrap_or(0);
        let fault = snap.counter("sim.blocked.fault").unwrap_or(0);
        if offers != admitted + capacity + fault {
            return Err(CliError::Metrics(format!(
                "sim accounting invariant broken: offers ({offers}) != admitted ({admitted}) \
                 + capacity-blocked ({capacity}) + fault-blocked ({fault})"
            )));
        }
    }
    if let Some(offers) = snap.counter("admission.offers") {
        let admitted = snap.counter("admission.admitted").unwrap_or(0);
        let capacity = snap.counter("admission.denied.capacity").unwrap_or(0);
        let policy = snap.counter("admission.denied.policy").unwrap_or(0);
        if offers != admitted + capacity + policy {
            return Err(CliError::Metrics(format!(
                "admission accounting invariant broken: offers ({offers}) != admitted \
                 ({admitted}) + capacity-denied ({capacity}) + policy-denied ({policy})"
            )));
        }
    }
    if let Some(offers) = snap.counter("serve.offers") {
        let admitted = snap.counter("serve.admitted").unwrap_or(0);
        let capacity = snap.counter("serve.denied.capacity").unwrap_or(0);
        let policy = snap.counter("serve.denied.policy").unwrap_or(0);
        let shed = snap.counter("serve.shed.total").unwrap_or(0);
        if offers != admitted + capacity + policy + shed {
            return Err(CliError::Metrics(format!(
                "serve accounting invariant broken: offers ({offers}) != admitted \
                 ({admitted}) + capacity-denied ({capacity}) + policy-denied ({policy}) \
                 + shed ({shed})"
            )));
        }
    }
    if let Some(batches) = snap.counter("admission.reprice.batches") {
        let updates = snap.counter("admission.reprice.updates").unwrap_or(0);
        if updates > batches {
            return Err(CliError::Metrics(format!(
                "repricing invariant broken: updates ({updates}) > batches ({batches}) — \
                 a threshold can only change in a repricing pass"
            )));
        }
    }
    if let Some(candidates) = snap.counter("plan.candidates") {
        let evaluated = snap.counter("plan.evaluated").unwrap_or(0);
        let pruned = snap.counter("plan.pruned").unwrap_or(0);
        if candidates != evaluated + pruned {
            return Err(CliError::Metrics(format!(
                "plan accounting invariant broken: candidates ({candidates}) != evaluated \
                 ({evaluated}) + pruned ({pruned})"
            )));
        }
        let feasible = snap.counter("plan.feasible").unwrap_or(0);
        let infeasible = snap.counter("plan.infeasible").unwrap_or(0);
        if evaluated != feasible + infeasible {
            return Err(CliError::Metrics(format!(
                "plan SLO-verdict invariant broken: evaluated ({evaluated}) != feasible \
                 ({feasible}) + infeasible ({infeasible})"
            )));
        }
    }
    if let Some(batched) = snap.counter("serve.reanchor.batched") {
        let batches = snap.counter("serve.reanchor.batches").unwrap_or(0);
        if batches > batched {
            return Err(CliError::Metrics(format!(
                "serve re-anchor invariant broken: batches ({batches}) > batched \
                 re-anchors ({batched}) — every batch must complete at least one"
            )));
        }
    }
    Ok(())
}

/// Snapshot the global obs registry, verify invariants, and emit: `-`
/// prints the human-readable table, anything else writes the JSON snapshot.
fn emit_metrics(target: &str) -> Result<(), CliError> {
    let snap = xbar_obs::global().snapshot();
    verify_metrics_invariants(&snap)?;
    if target == "-" {
        print!("{}", snap.to_text());
    } else {
        std::fs::write(target, snap.to_json())
            .map_err(|e| CliError::Metrics(format!("cannot write '{target}': {e}")))?;
    }
    Ok(())
}

/// Parse and execute; the returned error carries its exit code.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv).map_err(CliError::Usage)?;
    // 0 = auto (available_parallelism / XBAR_THREADS); fleet solves and
    // replicated simulations read this process-wide setting.
    xbar_core::parallel::set_threads(args.threads);
    if args.metrics.is_some() {
        xbar_obs::set_global_enabled(true);
    }
    let result = match args.command.as_str() {
        "solve" => run_solve(&args),
        "sim" => run_sim(&args),
        "admit" => run_admit(&args),
        "sweep" => run_sweep(&args),
        "serve" => run_serve(&args),
        "fleet" => run_fleet(&args),
        "plan" => run_plan(&args),
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    if let Some(target) = &args.metrics {
        // A quarantine exit is a *degraded* run, not an aborted one: the
        // daemon finished serving and its counters are the evidence an
        // operator needs, so the snapshot is still emitted (and its
        // invariants still enforced — a broken ledger outranks a
        // quarantine flag).
        // Likewise an infeasible plan: the search *completed* — its
        // counters (how many candidates, how close the nearest miss) are
        // exactly what the operator wants next.
        match &result {
            Ok(()) | Err(CliError::Quarantine(_)) | Err(CliError::Infeasible(_)) => {
                emit_metrics(target)?
            }
            Err(_) => {}
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_poisson_class() {
        let c = parse_class("poisson:rho=0.5,mu=2,a=2,w=0.3").unwrap();
        assert_eq!(c.alpha, 1.0); // alpha = rho·mu
        assert_eq!(c.beta, 0.0);
        assert_eq!(c.a, 2);
        assert_eq!(c.w, 0.3);
        assert!(!c.tilde);
    }

    #[test]
    fn parses_bpp_class_with_tilde() {
        let c = parse_class("bpp:alpha=0.0012,beta=0.0012,tilde,w=0.0001").unwrap();
        assert_eq!(c.alpha, 0.0012);
        assert_eq!(c.beta, 0.0012);
        assert!(c.tilde);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(parse_class("nope:rho=1").is_err());
        assert!(parse_class("poisson:").is_err());
        assert!(parse_class("poisson:rho=x").is_err());
        assert!(parse_class("poisson:rho=1,beta=2").is_err());
        assert!(parse_class("bpp:beta=0.1").is_err());
        assert!(parse_class("poisson:rho=1,bogus=2").is_err());
        assert!(parse_class("poisson").is_err());
        assert!(parse_class("poisson:rho=1,a=1.5").is_err());
        assert!(parse_class("poisson:rho=1,a=-2").is_err());
        assert!(parse_class("poisson:rho=1,a=inf").is_err());
    }

    #[test]
    fn parses_full_solve_command() {
        let a = parse_args(&argv(
            "solve --n 16 --algorithm alg2-mva --class poisson:rho=0.01",
        ))
        .unwrap();
        assert_eq!(a.command, "solve");
        assert_eq!((a.n1, a.n2), (16, 16));
        assert_eq!(a.algorithm, Algorithm::Mva);
        assert_eq!(a.classes.len(), 1);
        assert!(!a.cross_check);
    }

    #[test]
    fn parses_resilient_flags() {
        let a = parse_args(&argv(
            "solve --n 200 --cross-check --cross-check-tol 1e-9 --class poisson:rho=1e-5",
        ))
        .unwrap();
        assert!(a.cross_check);
        assert_eq!(a.cross_check_tol, Some(1e-9));
    }

    #[test]
    fn parses_threads_flag() {
        let a = parse_args(&argv("solve --n 16 --threads 4 --class poisson:rho=0.01")).unwrap();
        assert_eq!(a.threads, 4);
        // Default is 0 = auto.
        let d = parse_args(&argv("solve --n 16 --class poisson:rho=0.01")).unwrap();
        assert_eq!(d.threads, 0);
        // Malformed values are usage errors, not panics.
        assert!(parse_args(&argv("solve --n 16 --threads x --class poisson:rho=0.01")).is_err());
        assert!(parse_args(&argv("solve --n 16 --threads --class poisson:rho=0.01")).is_err());
    }

    #[test]
    fn parses_fault_flags() {
        let a = parse_args(&argv(
            "sim --n 8 --class poisson:rho=0.1 --port-mtbf 100 --port-mttr 10 \
             --fail-inputs 2 --fail-outputs 1",
        ))
        .unwrap();
        assert_eq!(a.port_mtbf, 100.0);
        assert_eq!(a.port_mttr, 10.0);
        assert_eq!((a.fail_inputs, a.fail_outputs), (2, 1));
    }

    #[test]
    fn parses_rectangular_sim_command() {
        let a = parse_args(&argv(
            "sim --n1 8 --n2 12 --class poisson:rho=0.01 --duration 500 --warmup 10 --seed 9",
        ))
        .unwrap();
        assert_eq!((a.n1, a.n2), (8, 12));
        assert_eq!(a.duration, 500.0);
        assert_eq!(a.seed, 9);
        // Default: the classic single-run path.
        assert_eq!(a.replications, 0);
    }

    #[test]
    fn parses_and_runs_replicated_sim() {
        let a = parse_args(&argv(
            "sim --n 4 --class poisson:rho=0.1 --duration 200 --warmup 10 \
             --seed 5 --replications 3",
        ))
        .unwrap();
        assert_eq!(a.replications, 3);
        assert!(run_sim(&a).is_ok());
        assert!(parse_args(&argv("sim --n 4 --class poisson:rho=1 --replications -1")).is_err());
        assert!(parse_args(&argv("sim --n 4 --class poisson:rho=1 --replications")).is_err());
    }

    #[test]
    fn rejects_malformed_commands() {
        assert!(parse_args(&argv("bogus --n 4")).is_err());
        assert!(parse_args(&argv("solve --n 4")).is_err()); // no class
        assert!(parse_args(&argv("solve --class poisson:rho=1")).is_err()); // no size
        assert!(parse_args(&argv("solve --n 4 --algorithm nope --class poisson:rho=1")).is_err());
        assert!(parse_args(&argv("solve --n")).is_err());
        assert!(parse_args(&argv("sim --n 4 --class poisson:rho=1 --duration 0")).is_err());
        assert!(parse_args(&argv("sim --n 4 --class poisson:rho=1 --duration nan")).is_err());
        assert!(parse_args(&argv("sim --n 4 --class poisson:rho=1 --warmup -5")).is_err());
        assert!(parse_args(&argv("sim --n 4 --class poisson:rho=1 --port-mtbf -1")).is_err());
        assert!(parse_args(&argv(
            "solve --n 4 --cross-check-tol 0 --class poisson:rho=1"
        ))
        .is_err());
    }

    #[test]
    fn solve_round_trip_matches_library() {
        let a = parse_args(&argv(
            "solve --n 8 --class poisson:rho=0.0024,tilde --class bpp:alpha=0.0012,beta=0.0012,tilde",
        ))
        .unwrap();
        let model = build_model(&a).unwrap();
        // Tilde resolution happened: per-set rho = 0.0024/8.
        let c0 = &model.workload().classes()[0];
        assert!((c0.alpha - 0.0003).abs() < 1e-12);
        let sol = solve(&model, Algorithm::Auto).unwrap();
        assert!(sol.blocking(0) > 0.0 && sol.blocking(0) < 0.01);
    }

    #[test]
    fn resilient_solve_runs_end_to_end() {
        // N = 200 is checked against MVA; the two agree (exit path: Ok).
        let a = parse_args(&argv(
            "solve --n 200 --cross-check --cross-check-tol 1e-9 --class poisson:rho=1e-5",
        ))
        .unwrap();
        assert!(run_solve(&a).is_ok());
    }

    #[test]
    fn cross_check_disagreement_exits_4() {
        // No two floating-point recursions agree to 1e-18.
        let a = parse_args(&argv(
            "solve --n 12 --cross-check --cross-check-tol 1e-18 \
             --class poisson:rho=0.3 --class bpp:alpha=0.2,beta=0.08",
        ))
        .unwrap();
        let err = run_solve(&a).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("auto") && msg.contains("alg3-convolution"),
            "{msg}"
        );
        // The check is of the auto solve; an explicit algorithm is a usage
        // error rather than silently ignored.
        let b = parse_args(&argv(
            "solve --n 12 --cross-check --algorithm alg1-ext --class poisson:rho=0.3",
        ))
        .unwrap();
        assert_eq!(run_solve(&b).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn sim_config_errors_map_to_exit_5() {
        let a = parse_args(&argv(
            "sim --n 4 --class poisson:rho=0.1 --fail-inputs 9 --duration 10",
        ))
        .unwrap();
        let err = run_sim(&a).unwrap_err();
        assert_eq!(err.exit_code(), 5);
    }

    #[test]
    fn usage_errors_map_to_exit_2() {
        let err = run(&argv("solve --n 4")).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn parses_metrics_flag() {
        let a = parse_args(&argv(
            "sim --n 4 --class poisson:rho=0.1 --metrics out.json",
        ))
        .unwrap();
        assert_eq!(a.metrics.as_deref(), Some("out.json"));
        let a = parse_args(&argv("solve --n 4 --class poisson:rho=0.1 --metrics -")).unwrap();
        assert_eq!(a.metrics.as_deref(), Some("-"));
        // Value required.
        assert!(parse_args(&argv("solve --n 4 --class poisson:rho=0.1 --metrics")).is_err());
    }

    #[test]
    fn parses_admit_command() {
        let a = parse_args(&argv(
            "admit --n 8 --class poisson:rho=0.1 --policy trunk:2 \
             --replay-events 5000 --seed 3 --cross-check",
        ))
        .unwrap();
        assert_eq!(a.command, "admit");
        assert_eq!(a.policy, "trunk:2");
        assert_eq!(a.replay_events, 5000);
        assert!(a.cross_check);
        assert_eq!(a.trace, None);
        // Defaults.
        let d = parse_args(&argv("admit --n 8 --class poisson:rho=0.1")).unwrap();
        assert_eq!(d.policy, "cs");
        assert_eq!(d.replay_events, 1_000_000);
        assert!(!d.cross_check);
    }

    #[test]
    fn rejects_malformed_admit_flags() {
        assert!(parse_args(&argv("admit --n 8 --class poisson:rho=0.1 --policy nope")).is_err());
        assert!(parse_args(&argv(
            "admit --n 8 --class poisson:rho=0.1 --replay-events 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "admit --n 8 --class poisson:rho=0.1 --replay-events x"
        ))
        .is_err());
    }

    #[test]
    fn admit_cross_check_needs_complete_sharing() {
        let a = parse_args(&argv(
            "admit --n 6 --class poisson:rho=0.1 --policy trunk:1 --cross-check",
        ))
        .unwrap();
        let err = run_admit(&a).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn admit_replay_cross_check_passes_end_to_end() {
        let a = parse_args(&argv(
            "admit --n 6 --class poisson:rho=0.1 --replay-events 200000 --seed 11 --cross-check",
        ))
        .unwrap();
        run_admit(&a).unwrap();
    }

    #[test]
    fn admit_trace_file_round_trip_and_errors() {
        let dir = std::env::temp_dir();
        let good = dir.join("xbar_cli_trace_good.txt");
        std::fs::write(&good, "# demo trace\na 0\na 0\nd 0\na 0 # inline\n").unwrap();
        let a = parse_args(&argv(&format!(
            "admit --n 6 --class poisson:rho=0.1 --trace {}",
            good.display()
        )))
        .unwrap();
        run_admit(&a).unwrap();

        // A departure with nothing in progress is a usage error carrying
        // the line number.
        let bad = dir.join("xbar_cli_trace_bad.txt");
        std::fs::write(&bad, "d 0\n").unwrap();
        let a = parse_args(&argv(&format!(
            "admit --n 6 --class poisson:rho=0.1 --trace {}",
            bad.display()
        )))
        .unwrap();
        let err = run_admit(&a).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains(":1:"), "{err}");

        // Missing file is a usage error, not a panic.
        let a = parse_args(&argv(
            "admit --n 6 --class poisson:rho=0.1 --trace /nonexistent/trace.txt",
        ))
        .unwrap();
        assert_eq!(run_admit(&a).unwrap_err().exit_code(), 2);
    }

    #[test]
    fn admit_trace_handles_empty_and_partial_and_non_utf8_files() {
        let dir = std::env::temp_dir();

        // An empty file is a valid trace of zero events.
        let empty = dir.join("xbar_cli_trace_empty.txt");
        std::fs::write(&empty, "").unwrap();
        let a = parse_args(&argv(&format!(
            "admit --n 6 --class poisson:rho=0.1 --trace {}",
            empty.display()
        )))
        .unwrap();
        run_admit(&a).unwrap();

        // A partial final line (no trailing newline) is still replayed.
        let partial = dir.join("xbar_cli_trace_partial.txt");
        std::fs::write(&partial, "a 0\na 0").unwrap();
        let a = parse_args(&argv(&format!(
            "admit --n 6 --class poisson:rho=0.1 --trace {}",
            partial.display()
        )))
        .unwrap();
        run_admit(&a).unwrap();

        // CRLF line endings are tolerated.
        let crlf = dir.join("xbar_cli_trace_crlf.txt");
        std::fs::write(&crlf, "a 0\r\nd 0\r\n").unwrap();
        let a = parse_args(&argv(&format!(
            "admit --n 6 --class poisson:rho=0.1 --trace {}",
            crlf.display()
        )))
        .unwrap();
        run_admit(&a).unwrap();

        // A non-UTF-8 byte is a typed usage error naming the line — never
        // a panic, and valid lines before it still parse.
        let binary = dir.join("xbar_cli_trace_binary.txt");
        std::fs::write(&binary, b"a 0\n\xFF\xFE garbage\n").unwrap();
        let a = parse_args(&argv(&format!(
            "admit --n 6 --class poisson:rho=0.1 --trace {}",
            binary.display()
        )))
        .unwrap();
        let err = run_admit(&a).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains(":2:"), "{err}");
        assert!(err.to_string().contains("UTF-8"), "{err}");
    }

    #[test]
    fn parses_serve_command() {
        let a = parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir /tmp/xd --file trace.txt \
             --queue-cap 64 --snapshot-interval 512 --max-failures 3 \
             --reanchor-deadline-ms 5 --reprice-batch 256 --sync-every 16 \
             --idle-timeout-ms 100 --kill-after 1000",
        ))
        .unwrap();
        assert_eq!(a.command, "serve");
        assert_eq!(a.data_dir.as_deref(), Some("/tmp/xd"));
        assert_eq!(a.serve_source, Some(ServeSource::File("trace.txt".into())));
        assert_eq!(a.queue_cap, 64);
        assert_eq!(a.snapshot_interval, 512);
        assert_eq!(a.max_failures, 3);
        assert_eq!(a.reanchor_deadline_ms, Some(5));
        assert_eq!(a.reprice_batch, Some(256));
        assert_eq!(a.sync_every, 16);
        assert_eq!(a.idle_timeout_ms, 100);
        assert_eq!(a.kill_after, Some(1000));
        // Tail and socket sources parse too.
        let t = parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --tail t.txt",
        ))
        .unwrap();
        assert_eq!(t.serve_source, Some(ServeSource::Tail("t.txt".into())));
        let s = parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --socket s.sock",
        ))
        .unwrap();
        assert_eq!(s.serve_source, Some(ServeSource::Socket("s.sock".into())));
    }

    #[test]
    fn rejects_malformed_serve_flags() {
        // Missing data dir / source.
        assert!(parse_args(&argv("serve --n 8 --class poisson:rho=0.1 --file t")).is_err());
        assert!(parse_args(&argv("serve --n 8 --class poisson:rho=0.1 --data-dir d")).is_err());
        // Two sources.
        assert!(parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --file a --tail b"
        ))
        .is_err());
        // Bad numbers.
        assert!(parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --file t --kill-after 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --file t --max-failures 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --file t --queue-cap x"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --file t --reprice-batch 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "serve --n 8 --class poisson:rho=0.1 --data-dir d --file t --reprice-batch x"
        ))
        .is_err());
    }

    #[test]
    fn serve_file_source_runs_and_recovers_end_to_end() {
        let base = std::env::temp_dir().join(format!("xbar_cli_serve_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let trace = base.join("trace.txt");
        std::fs::write(&trace, "t0 a 0\nt0 a 0\nt0 d 0\nt1 a 0\n# comment\n").unwrap();
        let data = base.join("data");
        let cmd = format!(
            "serve --n 8 --class poisson:rho=0.1 --data-dir {} --file {}",
            data.display(),
            trace.display()
        );
        let a = parse_args(&argv(&cmd)).unwrap();
        run_serve(&a).unwrap();
        // Run the same trace again against the surviving state: every
        // event deduplicates against the WAL, still exit 0.
        let a = parse_args(&argv(&cmd)).unwrap();
        run_serve(&a).unwrap();
    }

    #[test]
    fn serve_quarantine_maps_to_exit_7() {
        let base = std::env::temp_dir().join(format!("xbar_cli_serve_q_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let trace = base.join("trace.txt");
        // Departures with nothing in flight, past the failure threshold.
        std::fs::write(&trace, "t0 d 0\n".repeat(6)).unwrap();
        let a = parse_args(&argv(&format!(
            "serve --n 8 --class poisson:rho=0.1 --data-dir {} --file {} --max-failures 3",
            base.join("data").display(),
            trace.display()
        )))
        .unwrap();
        let err = run_serve(&a).unwrap_err();
        assert_eq!(err.exit_code(), 7);
        assert!(err.to_string().contains("t0"), "{err}");
    }

    #[test]
    fn serve_metrics_invariant_accepts_balanced_and_rejects_broken_accounting() {
        let reg = xbar_obs::Registry::new();
        reg.counter("serve.offers").add(100);
        reg.counter("serve.admitted").add(80);
        reg.counter("serve.denied.capacity").add(9);
        reg.counter("serve.denied.policy").add(1);
        reg.counter("serve.shed.total").add(10);
        // Coalesced re-anchor accounting: 3 batched completions across 2
        // fleet batches is consistent.
        reg.counter("serve.reanchor.batched").add(3);
        reg.counter("serve.reanchor.batches").add(2);
        assert!(verify_metrics_invariants(&reg.snapshot()).is_ok());

        let broken = xbar_obs::Registry::new();
        broken.counter("serve.offers").add(100);
        broken.counter("serve.admitted").add(80);
        let err = verify_metrics_invariants(&broken.snapshot()).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("serve"));

        // More batches than batched re-anchors is impossible (every batch
        // completes at least one) and must fail the metrics gate.
        let phantom = xbar_obs::Registry::new();
        phantom.counter("serve.reanchor.batched").add(1);
        phantom.counter("serve.reanchor.batches").add(2);
        let err = verify_metrics_invariants(&phantom.snapshot()).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("re-anchor"));
    }

    #[test]
    fn reprice_metrics_invariant_requires_updates_le_batches() {
        let ok = xbar_obs::Registry::new();
        ok.counter("admission.reprice.batches").add(10);
        ok.counter("admission.reprice.updates").add(3);
        assert!(verify_metrics_invariants(&ok.snapshot()).is_ok());
        // Zero batches with zero updates (repricing off) is fine too.
        let off = xbar_obs::Registry::new();
        off.counter("admission.reprice.batches").add(0);
        assert!(verify_metrics_invariants(&off.snapshot()).is_ok());
        // A threshold can only change inside a repricing pass: more
        // updates than batches must fail the metrics gate (exit 6).
        let broken = xbar_obs::Registry::new();
        broken.counter("admission.reprice.batches").add(2);
        broken.counter("admission.reprice.updates").add(3);
        let err = verify_metrics_invariants(&broken.snapshot()).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("repricing"), "{err}");
    }

    #[test]
    fn admit_reprice_batch_runs_end_to_end() {
        let a = parse_args(&argv(
            "admit --n 6 --class poisson:rho=0.25,w=1 --class poisson:rho=0.5,w=0.01 \
             --policy shadow:reserve=2 --replay-events 2000 --reprice-batch 100",
        ))
        .unwrap();
        assert_eq!(a.reprice_batch, Some(100));
        run_admit(&a).unwrap();
    }

    #[test]
    fn parses_fleet_command() {
        let a = parse_args(&argv("fleet --models specs.txt --threads 4")).unwrap();
        assert_eq!(a.command, "fleet");
        assert_eq!(a.models_path.as_deref(), Some("specs.txt"));
        assert_eq!(a.threads, 4);
        // --models is mandatory; the per-command geometry flags are not
        // meaningful and must be rejected rather than silently ignored.
        assert!(parse_args(&argv("fleet")).is_err());
        assert!(parse_args(&argv("fleet --models m.txt --n 8")).is_err());
        assert!(parse_args(&argv("fleet --models m.txt --class poisson:rho=0.1")).is_err());
        // There is one recombination kernel, so the former kernel
        // flag is an unknown flag like any other.
        let flag = ["--", "simd"].concat();
        match parse_args(&argv(&format!("fleet --models m.txt {flag} strict"))) {
            Err(e) => assert!(e.contains(&format!("unknown flag '{flag}'")), "{e}"),
            Ok(_) => panic!("{flag} must be rejected"),
        }
    }

    #[test]
    fn parses_fleet_model_specs_and_rejects_garbage() {
        let text = "# a comment\n\
                    8 poisson:rho=0.01\n\
                    \n\
                    6x10 bpp:alpha=0.005,beta=0.002 poisson:rho=0.02  # trailing comment\n";
        let models = parse_fleet_models(text).unwrap();
        assert_eq!(models.len(), 2);
        assert_eq!(models[0].dims(), Dims::square(8));
        assert_eq!(models[0].num_classes(), 1);
        assert_eq!(models[1].dims(), Dims::new(6, 10));
        assert_eq!(models[1].num_classes(), 2);
        for bad in [
            "",
            "# only comments\n",
            "8\n",                   // no class specs
            "8 nope:rho=1\n",        // bad class kind
            "8x poisson:rho=0.1\n",  // malformed dims
            "0x4 poisson:rho=0.1\n", // invalid model (zero inputs)
        ] {
            assert!(parse_fleet_models(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn fleet_results_match_independent_solves() {
        let dir = std::env::temp_dir().join(format!("xbar_cli_fleet_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("models.txt");
        let text = "6 poisson:rho=0.02\n\
                    8 bpp:alpha=0.004,beta=0.002\n\
                    6 poisson:rho=0.02\n"; // duplicate of line 1
        std::fs::write(&path, text).unwrap();
        let models = parse_fleet_models(text).unwrap();
        let results = xbar_core::solve_fleet(&models, Algorithm::Auto);
        assert_eq!(results.len(), 3);
        for (model, res) in models.iter().zip(&results) {
            let fleet_sol = res.as_ref().unwrap();
            let solo = solve(model, Algorithm::Auto).unwrap();
            for r in 0..model.num_classes() {
                assert_eq!(
                    fleet_sol.blocking(r).to_bits(),
                    solo.blocking(r).to_bits(),
                    "fleet and independent solves must agree bitwise"
                );
            }
        }
        // And the command end-to-end: exit clean on a good file.
        let a = parse_args(&argv(&format!("fleet --models {}", path.display()))).unwrap();
        run_fleet(&a).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_sweep_command() {
        let a = parse_args(&argv(
            "sweep --n 12 --class poisson:rho=0.01 --class bpp:alpha=0.005,beta=0.002 \
             --sweep-class 1 --alpha 0.001:0.01:10",
        ))
        .unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.sweep_class, 1);
        assert_eq!(a.alpha_range, Some((0.001, 0.01, 10)));
        // Defaults to class 0.
        let d = parse_args(&argv(
            "sweep --n 8 --class poisson:rho=0.01 --alpha 0:0.1:5",
        ))
        .unwrap();
        assert_eq!(d.sweep_class, 0);
    }

    #[test]
    fn rejects_malformed_sweep_flags() {
        // Missing --alpha.
        assert!(parse_args(&argv("sweep --n 8 --class poisson:rho=0.01")).is_err());
        // Bad grid specs.
        assert!(parse_args(&argv("sweep --n 8 --class poisson:rho=0.01 --alpha 1:2")).is_err());
        assert!(parse_args(&argv("sweep --n 8 --class poisson:rho=0.01 --alpha 1:2:0")).is_err());
        assert!(parse_args(&argv("sweep --n 8 --class poisson:rho=0.01 --alpha x:2:3")).is_err());
        assert!(parse_args(&argv(
            "sweep --n 8 --class poisson:rho=0.01 --alpha 1:inf:3"
        ))
        .is_err());
        // Sweep class out of range.
        assert!(parse_args(&argv(
            "sweep --n 8 --class poisson:rho=0.01 --sweep-class 1 --alpha 0:1:3"
        ))
        .is_err());
    }

    #[test]
    fn sweep_points_match_fresh_solves() {
        let a = parse_args(&argv(
            "sweep --n 10 --class poisson:rho=0.02 --class bpp:alpha=0.01,beta=0.004 \
             --sweep-class 1 --alpha 0.002:0.02:7",
        ))
        .unwrap();
        assert!(run_sweep(&a).is_ok());
        // Cross-check one interior grid point against a fresh full solve.
        let model = build_model(&a).unwrap();
        let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let alpha = 0.002 + (0.02 - 0.002) * 3.0 / 6.0;
        let point = sweep.solve_with_rho(1, alpha).unwrap();
        let full = solve(&model.with_rho(1, alpha).unwrap(), Algorithm::Auto).unwrap();
        assert!((point.blocking(1) - full.blocking(1)).abs() < 1e-9);
    }

    #[test]
    fn metrics_invariant_accepts_balanced_and_rejects_broken_accounting() {
        // Balanced: offers = admitted + capacity + fault.
        let reg = xbar_obs::Registry::new();
        reg.counter("sim.offers").add(100);
        reg.counter("sim.admitted").add(90);
        reg.counter("sim.blocked.capacity").add(7);
        reg.counter("sim.blocked.fault").add(3);
        assert!(verify_metrics_invariants(&reg.snapshot()).is_ok());

        // No sim counters at all (solve-only run): trivially fine.
        assert!(verify_metrics_invariants(&xbar_obs::Registry::new().snapshot()).is_ok());

        // Broken accounting maps to the metrics exit code (6).
        let broken = xbar_obs::Registry::new();
        broken.counter("sim.offers").add(100);
        broken.counter("sim.admitted").add(90);
        let err = verify_metrics_invariants(&broken.snapshot()).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("invariant"));

        // Admission accounting: balanced passes, broken maps to exit 6.
        let adm = xbar_obs::Registry::new();
        adm.counter("admission.offers").add(50);
        adm.counter("admission.admitted").add(40);
        adm.counter("admission.denied.capacity").add(6);
        adm.counter("admission.denied.policy").add(4);
        assert!(verify_metrics_invariants(&adm.snapshot()).is_ok());
        let broken = xbar_obs::Registry::new();
        broken.counter("admission.offers").add(50);
        broken.counter("admission.admitted").add(49);
        let err = verify_metrics_invariants(&broken.snapshot()).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("admission"));
    }

    #[test]
    fn parses_plan_command() {
        let a = parse_args(&argv(
            "plan --n 8 --class poisson:rho=0.02 --class bpp:alpha=0.008,beta=0.004,w=2 \
             --geo 6 --geo 8x8 --rho-axis 0:0.002:0.08:7 --slo 1:0.4 \
             --strategy gradient --objective w",
        ))
        .unwrap();
        assert_eq!(a.command, "plan");
        assert_eq!(a.geometries, vec![Dims::new(6, 6), Dims::new(8, 8)]);
        assert_eq!(
            a.rho_axes,
            vec![RhoAxis {
                class: 0,
                lo: 0.002,
                hi: 0.08,
                steps: 7
            }]
        );
        assert_eq!(
            a.slos,
            vec![Slo {
                class: 1,
                max_blocking: 0.4
            }]
        );
        assert_eq!(a.plan_strategy, "gradient");
        // Defaults.
        let d = parse_args(&argv("plan --n 8 --class poisson:rho=0.02")).unwrap();
        assert_eq!(d.plan_strategy, "exhaustive");
        assert!(d.geometries.is_empty() && d.rho_axes.is_empty() && d.slos.is_empty());
    }

    #[test]
    fn rejects_malformed_plan_flags() {
        let base = "plan --n 8 --class poisson:rho=0.02";
        for bad in [
            "--geo 0",
            "--geo 4x0",
            "--geo x",
            "--rho-axis 0:0.01:0.1",
            "--rho-axis 0:0:0.1:5",
            "--rho-axis 0:0.1:0.01:5",
            "--rho-axis 0:0.01:0.1:0",
            "--rho-axis 0:a:0.1:5",
            "--slo 0",
            "--slo 0:1.5",
            "--slo 0:-0.1",
            "--slo x:0.5",
            "--strategy newton",
            "--objective throughput",
            // Class indices out of range for a 1-class model.
            "--rho-axis 1:0.01:0.1:5",
            "--slo 1:0.5",
        ] {
            let cmd = format!("{base} {bad}");
            assert!(parse_args(&argv(&cmd)).is_err(), "accepted: {cmd}");
        }
    }

    #[test]
    fn plan_end_to_end_writes_frontier_and_contour_csvs() {
        let base = std::env::temp_dir().join(format!("xbar_cli_plan_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let frontier = base.join("frontier.csv");
        let contour = base.join("contour.csv");
        let cmd = format!(
            "plan --n 8 --class poisson:rho=0.02 --class bpp:alpha=0.008,beta=0.004,w=2 \
             --geo 6 --geo 8 --rho-axis 0:0.002:0.08:7 --slo 1:0.4 \
             --frontier-csv {} --contour-csv {}",
            frontier.display(),
            contour.display()
        );
        let a = parse_args(&argv(&cmd)).unwrap();
        run_plan(&a).unwrap();
        let f = std::fs::read_to_string(&frontier).unwrap();
        assert!(f.starts_with("index,n1,n2,rho,objective,worst_blocking,optimal\n"));
        assert_eq!(
            f.lines().filter(|l| l.ends_with(",true")).count(),
            1,
            "exactly one optimal frontier row:\n{f}"
        );
        let c = std::fs::read_to_string(&contour).unwrap();
        assert!(c.starts_with("index,n1,n2,rho,objective,worst_blocking,feasible\n"));
        // The contour covers every evaluated cell; pruning keeps it below
        // the full 2 * 7 grid but the feasible band must be present.
        assert!(c.lines().count() > 2);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn plan_infeasible_slo_maps_to_exit_8() {
        // Minimum achievable class-1 blocking over this space is ~0.14;
        // an SLO of 0.01 is unsatisfiable but perfectly solvable.
        let a = parse_args(&argv(
            "plan --n 8 --class poisson:rho=0.02 --class bpp:alpha=0.008,beta=0.004,w=2 \
             --geo 6 --geo 8 --rho-axis 0:0.002:0.08:7 --slo 1:0.01",
        ))
        .unwrap();
        let err = run_plan(&a).unwrap_err();
        assert_eq!(err.exit_code(), 8, "got {err:?}");
        // The diagnostic names the closest miss so the operator can see
        // how far off the requirement is.
        assert!(err.to_string().contains("closest"), "{err}");
    }

    #[test]
    fn plan_gradient_strategy_runs_and_respects_the_slo() {
        let a = parse_args(&argv(
            "plan --n 8 --class poisson:rho=0.02 --class bpp:alpha=0.008,beta=0.004,w=2 \
             --rho-axis 0:0.002:0.08:7 --slo 1:0.4 --strategy gradient",
        ))
        .unwrap();
        assert!(run_plan(&a).is_ok());
    }

    #[test]
    fn plan_metrics_invariants_accept_balanced_and_reject_broken_accounting() {
        // Balanced ledger: candidates = evaluated + pruned, and every
        // evaluation got exactly one SLO verdict.
        let ok = xbar_obs::Registry::new();
        ok.counter("plan.candidates").add(14);
        ok.counter("plan.evaluated").add(10);
        ok.counter("plan.pruned").add(4);
        ok.counter("plan.feasible").add(7);
        ok.counter("plan.infeasible").add(3);
        assert!(verify_metrics_invariants(&ok.snapshot()).is_ok());

        // A candidate that was neither evaluated nor pruned.
        let lost = xbar_obs::Registry::new();
        lost.counter("plan.candidates").add(14);
        lost.counter("plan.evaluated").add(10);
        lost.counter("plan.pruned").add(3);
        let err = verify_metrics_invariants(&lost.snapshot()).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("plan accounting"));

        // An evaluation with no SLO verdict.
        let verdictless = xbar_obs::Registry::new();
        verdictless.counter("plan.candidates").add(10);
        verdictless.counter("plan.evaluated").add(10);
        verdictless.counter("plan.feasible").add(9);
        let err = verify_metrics_invariants(&verdictless.snapshot()).unwrap_err();
        assert_eq!(err.exit_code(), 6);
        assert!(err.to_string().contains("SLO-verdict"));
    }

    #[test]
    fn plan_run_emits_counters_that_satisfy_the_invariants() {
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _scope = xbar_obs::scope(&reg);
        let a = parse_args(&argv(
            "plan --n 8 --class poisson:rho=0.02 --class bpp:alpha=0.008,beta=0.004,w=2 \
             --geo 6 --geo 8 --rho-axis 0:0.002:0.08:7 --slo 1:0.4",
        ))
        .unwrap();
        run_plan(&a).unwrap();
        let snap = reg.snapshot();
        assert!(snap.counter("plan.candidates").unwrap_or(0) > 0);
        assert!(snap.counter("plan.pruned").unwrap_or(0) > 0);
        assert!(verify_metrics_invariants(&snap).is_ok());
    }
}
