//! `serve-fleet` and `serve-paced`: the admission daemon fed protocol
//! lines the way `run_source` feeds a file — `Daemon::ingest_line` then
//! `Daemon::pump(pump_budget())` per line.
//!
//! Streams are valid by construction: each tenant's events come from a
//! jump chain over that tenant's own occupancy, advanced through a mirror
//! `AdmissionEngine` with the tenant's engine configuration, so a
//! departure only ever names a class the tenant holds a call of. After a
//! run the daemon must have rejected and shed nothing, quarantined no
//! tenant, kept the offers identity, and made exactly the per-class
//! admit/deny decisions recorded for the seed (see [`RECORDED`]).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use xbar_admission::{AdmissionEngine, ClassStats, EngineConfig, Event, PolicySpec};
use xbar_core::{Algorithm, Dims, Model, SweepSolver};
use xbar_serve::daemon::parse_line;
use xbar_serve::snapshot::{self, TenantSnapshot};
use xbar_serve::{
    model_fingerprint, Daemon, DaemonConfig, RecordKind, ServeCounters, Tenant, TenantConfig, Wal,
    WalRecord,
};
use xbar_traffic::{TrafficClass, Workload};

use crate::host::thread_cpu_time;
use crate::reference::Reference;
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Outcome, Recorder, RunOpts};

/// Set-ups timed at each end of a run (`setup_s` is their median).
const SETUPS_EACH_END: usize = 10;

/// Closed loop: timed lines between two reference passes (about a tenth
/// of a second). A pass evicts the caches the lines run from, so the
/// lines right after it are slower; this keeps them well under a
/// hundredth of the lines.
const REFERENCE_EVERY_LINES: usize = 50_000;

/// Open loop: schedule time between two reference passes. A pass is made
/// only while no line is due, and the schedule waits for it.
const REFERENCE_EVERY: Duration = Duration::from_millis(50);

/// Spans of each name kept for the written trace.
const SPANS_KEPT: usize = 20_000;

/// How the client offers load.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// One client sends each line after the previous one completes;
    /// every tenant gets exactly `events_per_tenant` events.
    Closed {
        /// Events per tenant, first contact included.
        events_per_tenant: usize,
    },
    /// Lines fall due on a fixed, seeded schedule whatever the daemon
    /// does: Poisson single lines plus Poisson bursts of `BURST_LINES`
    /// lines due at once, `BURST_SHARE` of the lines in bursts.
    Open {
        /// Mean offered rate, lines per second.
        mean_rate: f64,
    },
}

/// Share of open-loop lines that arrive in bursts (open loop).
const BURST_SHARE: f64 = 0.3;
/// Lines in one burst, all due at the same instant (open loop).
const BURST_LINES: usize = 256;

/// A serve workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Tenants `t0..t{tenants-1}`, all serving `model`.
    pub tenants: usize,
    /// Every tenant's traffic model.
    pub model: Model,
    /// Per-tenant configuration handed to the daemon.
    pub cfg: TenantConfig,
    /// Closed or open loop.
    pub pacing: Pacing,
}

/// A class whose jump-chain rate, scaled by the tuple count as the
/// simulator's replay does, offers `erlangs` of load with peakedness
/// `1 / (1 - peak)` (`peak = 0` is Poisson, `peak > 0` Pascal).
fn class_with_load(dims: Dims, a: u32, erlangs: f64, peak: f64) -> TrafficClass {
    let tuples = tuple_count(dims, a);
    TrafficClass::bpp(erlangs * (1.0 - peak) / tuples, peak / tuples, 1.0).with_bandwidth(a)
}

fn tuple_count(dims: Dims, a: u32) -> f64 {
    let perm = |n: u32| (0..a).map(|i| (n - i) as f64).product::<f64>();
    perm(dims.n1) * perm(dims.n2)
}

impl Spec {
    /// 100 light tenants on a 16×16 switch with a Poisson and a Pascal
    /// class, complete sharing, page-cache WAL, a snapshot every 4096
    /// events; every tenant crosses the snapshot cadence four times.
    pub fn fleet() -> Spec {
        let dims = Dims::square(16);
        let model = Model::new(
            dims,
            Workload::new()
                .with(class_with_load(dims, 1, 5.0, 0.0))
                .with(class_with_load(dims, 1, 3.0, 0.4).with_weight(2.0)),
        )
        .expect("serve-fleet model is valid");
        Spec {
            name: "serve-fleet",
            tenants: 100,
            model,
            cfg: TenantConfig {
                sync_every: 0,
                snapshot_interval: 4096,
                ..TenantConfig::default()
            },
            pacing: Pacing::Closed {
                events_per_tenant: 4 * 4096 + 16,
            },
        }
    }

    /// 8 tenants on a 64×64 multi-rate switch with four classes (two at
    /// `a = 2`, Poisson and peaky Pascal), shadow-price reservation with a
    /// repricing pass every 256 events, offered on a bursty open-loop
    /// schedule at 40,000 lines/s. Snapshots are rare (one per tenant
    /// per 25 s run): this host's disk makes their fsync stalls anywhere
    /// from 1 ms to a quarter of a second long.
    pub fn paced() -> Spec {
        let dims = Dims::square(64);
        let model = Model::new(
            dims,
            Workload::new()
                .with(class_with_load(dims, 1, 22.0, 0.0))
                .with(class_with_load(dims, 1, 12.0, 0.4).with_weight(1.5))
                .with(class_with_load(dims, 2, 7.0, 0.0).with_weight(2.5))
                .with(class_with_load(dims, 2, 4.0, 0.4).with_weight(3.0)),
        )
        .expect("serve-paced model is valid");
        Spec {
            name: "serve-paced",
            tenants: 8,
            model,
            cfg: TenantConfig {
                policy: PolicySpec::ShadowPrice { reserve: 2 },
                reprice_batch: Some(256),
                sync_every: 0,
                snapshot_interval: 65536,
                ..TenantConfig::default()
            },
            pacing: Pacing::Open {
                mean_rate: 40_000.0,
            },
        }
    }

    fn daemon_cfg(&self) -> DaemonConfig {
        DaemonConfig {
            tenant: self.cfg.clone(),
            ..DaemonConfig::default()
        }
    }

    /// The engine configuration a daemon tenant runs (the serve layer
    /// drives drift checks itself, so the engine's own check is off).
    pub fn engine_cfg(&self) -> EngineConfig {
        EngineConfig {
            policy: self.cfg.policy.clone(),
            algorithm: self.cfg.algorithm,
            check_interval: 0,
            drift_tol: self.cfg.drift_tol,
            reprice_batch: self.cfg.reprice_batch,
            price_deadline: self.cfg.reanchor_deadline,
        }
    }
}

/// One generated event: which tenant, which class, arrival or departure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ev {
    /// Tenant index.
    pub tenant: u32,
    /// Class index.
    pub class: u16,
    /// Arrival (`true`) or departure.
    pub arrival: bool,
}

impl Ev {
    fn event(self) -> Event {
        let class = self.class as usize;
        if self.arrival {
            Event::Arrival { class }
        } else {
            Event::Departure { class }
        }
    }

    fn record_kind(self) -> RecordKind {
        if self.arrival {
            RecordKind::Arrival
        } else {
            RecordKind::Departure
        }
    }
}

/// A generated protocol stream: the first `first_contact` lines open every
/// tenant during set-up, the rest are timed.
pub struct Stream {
    text: String,
    ends: Vec<usize>,
    /// The event each line carries.
    pub events: Vec<Ev>,
    /// Lines fed during set-up (one per tenant).
    pub first_contact: usize,
    /// Due time of each timed line, ns after the timed phase starts
    /// (open loop only).
    pub due_ns: Vec<u64>,
    /// The decisions the generator's own engines made on the whole
    /// stream.
    pub decisions: Decisions,
}

impl Stream {
    /// Line `i`.
    pub fn line(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Number of lines.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the stream has no lines.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn push(&mut self, ev: Ev, t: f64) {
        use std::fmt::Write;
        let op = if ev.arrival { 'a' } else { 'd' };
        let _ = write!(self.text, "t{} {op} {} @{t:.6}", ev.tenant, ev.class);
        self.ends.push(self.text.len());
        self.events.push(ev);
    }
}

/// One tenant's event source: a jump chain over its occupancy whose
/// state is a mirror engine with the tenant's configuration.
struct Chain {
    engine: AdmissionEngine,
    rng: Rng,
    clock: f64,
    classes: Vec<TrafficClass>,
    tuples: Vec<f64>,
    rates: Vec<f64>,
}

impl Chain {
    fn new(spec: &Spec, seed: u64, tenant: usize) -> Result<Chain, String> {
        let classes = spec.model.workload().classes().to_vec();
        let dims = spec.model.dims();
        Ok(Chain {
            engine: AdmissionEngine::new(&spec.model, spec.engine_cfg())
                .map_err(|e| format!("mirror engine: {e}"))?,
            rng: Rng::new(seed, 1_000 + tenant as u64),
            clock: 0.0,
            tuples: classes
                .iter()
                .map(|c| tuple_count(dims, c.bandwidth))
                .collect(),
            rates: vec![0.0; 2 * classes.len()],
            classes,
        })
    }

    /// Draw the tenant's next event and advance the mirror engine.
    fn next(&mut self, tenant: u32) -> Result<Ev, String> {
        let k = self.engine.state();
        let mut total = 0.0;
        for (r, c) in self.classes.iter().enumerate() {
            self.rates[2 * r] = self.tuples[r] * c.lambda(k[r] as u64);
            self.rates[2 * r + 1] = k[r] as f64 * c.mu;
            total += self.rates[2 * r] + self.rates[2 * r + 1];
        }
        let mut pick = self.rng.uniform() * total;
        let mut chosen = self.rates.len() - 1;
        for (j, &rate) in self.rates.iter().enumerate() {
            if pick < rate {
                chosen = j;
                break;
            }
            pick -= rate;
        }
        // A zero-rate slot can only be reached through rounding at the
        // very end of the scan; fall back to the last positive slot.
        while self.rates[chosen] == 0.0 {
            chosen -= 1;
        }
        self.clock += self.rng.exp(total);
        let ev = Ev {
            tenant,
            class: (chosen / 2) as u16,
            arrival: chosen.is_multiple_of(2),
        };
        self.engine
            .apply(ev.event())
            .map_err(|e| format!("generated an invalid event {ev:?}: {e}"))?;
        Ok(ev)
    }
}

/// Generate the stream a run of `spec` with `seed` feeds. Open-loop
/// schedules cover `seconds` of offered load.
pub fn generate(spec: &Spec, seed: u64, seconds: f64) -> Result<Stream, String> {
    let mut chains: Vec<Chain> = (0..spec.tenants)
        .map(|t| Chain::new(spec, seed, t))
        .collect::<Result<_, _>>()?;
    let mut stream = Stream {
        text: String::new(),
        ends: Vec::new(),
        events: Vec::new(),
        first_contact: spec.tenants,
        due_ns: Vec::new(),
        decisions: Decisions::default(),
    };
    let order: Vec<u32> = match spec.pacing {
        Pacing::Closed { events_per_tenant } => {
            let mut order: Vec<u32> = (0..spec.tenants as u32)
                .flat_map(|t| std::iter::repeat_n(t, events_per_tenant - 1))
                .collect();
            Rng::new(seed, 1).shuffle(&mut order);
            order
        }
        Pacing::Open { mean_rate } => {
            let due = schedule(seed, mean_rate, seconds);
            let mut pick = Rng::new(seed, 3);
            let order = due
                .iter()
                .map(|_| pick.below(spec.tenants as u64) as u32)
                .collect();
            stream.due_ns = due;
            order
        }
    };
    let total = spec.tenants + order.len();
    stream.ends.reserve(total);
    stream.events.reserve(total);
    stream.text.reserve(total * 24);
    for (t, chain) in chains.iter_mut().enumerate() {
        let ev = chain.next(t as u32)?;
        let stamp = if stream.due_ns.is_empty() {
            chain.clock
        } else {
            0.0
        };
        stream.push(ev, stamp);
    }
    for (i, &t) in order.iter().enumerate() {
        let chain = &mut chains[t as usize];
        let ev = chain.next(t)?;
        let stamp = match stream.due_ns.get(i) {
            Some(&ns) => ns as f64 * 1e-9,
            None => chain.clock,
        };
        stream.push(ev, stamp);
    }
    stream.decisions = Decisions::of(chains.iter().map(|c| &c.engine.stats().per_class[..]));
    Ok(stream)
}

/// What a daemon decided over a whole stream: per class, the arrivals
/// admitted and denied summed over tenants, and an FNV-1a hash of every
/// tenant's per-class counts, tenant by tenant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Decisions {
    /// Arrivals admitted, per class.
    pub admitted: Vec<u64>,
    /// Arrivals denied (for capacity or by the policy), per class.
    pub denied: Vec<u64>,
    /// Hash of every tenant's offered, admitted, capacity-denied and
    /// policy-denied counts per class.
    pub tenants: u64,
}

impl Decisions {
    /// The decisions of tenants whose per-class counts are `per_tenant`,
    /// in tenant order.
    pub fn of<'a>(per_tenant: impl IntoIterator<Item = &'a [ClassStats]>) -> Decisions {
        let mut d = Decisions {
            tenants: FNV_OFFSET,
            ..Decisions::default()
        };
        for classes in per_tenant {
            let n = classes.len().max(d.admitted.len());
            d.admitted.resize(n, 0);
            d.denied.resize(n, 0);
            for (r, c) in classes.iter().enumerate() {
                d.admitted[r] += c.admitted;
                d.denied[r] += c.denied_capacity + c.denied_policy;
                for v in [c.offered, c.admitted, c.denied_capacity, c.denied_policy] {
                    d.tenants = fnv1a(d.tenants, &v.to_le_bytes());
                }
            }
        }
        d
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Decisions recorded for the whole stream of one seed, with the FNV-1a
/// hash of the stream's text (the generator follows the engine's
/// occupancy, so a changed engine changes the stream too).
pub struct Recorded {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// FNV-1a of the stream's text.
    pub stream: u64,
    /// Arrivals admitted, per class.
    pub admitted: &'static [u64],
    /// Arrivals denied, per class.
    pub denied: &'static [u64],
    /// [`Decisions::tenants`].
    pub tenants: u64,
}

/// Open-loop streams span the run, so their decisions are recorded for
/// runs of this many seconds (the `run_seconds` of `BENCHMARK.json`).
pub const RECORDED_SECONDS: f64 = 25.0;

/// Decisions recorded for seeds 1 to 10 (print them with
/// `cargo test --release -- --ignored --nocapture print_recorded`).
pub const RECORDED: &[Recorded] = &[
    Recorded {
        workload: "serve-fleet",
        seed: 1,
        stream: 0x9cfe8682e87e57bc,
        admitted: &[512585, 303774],
        denied: &[4138, 3977],
        tenants: 0xae51db7cc930db3d,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 2,
        stream: 0x5aee6dbd7d3d0ee7,
        admitted: &[512484, 303854],
        denied: &[4136, 4049],
        tenants: 0x9f00db8f0cfeea08,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 3,
        stream: 0x47a6022c10159ecf,
        admitted: &[512963, 303500],
        denied: &[3989, 3965],
        tenants: 0xdf79656b4321bc38,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 4,
        stream: 0x2567d1b20cc92db8,
        admitted: &[513705, 302627],
        denied: &[4160, 4032],
        tenants: 0xd9727ac02f793091,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 5,
        stream: 0xa91db7cc726a73b5,
        admitted: &[513068, 303305],
        denied: &[4077, 3997],
        tenants: 0xd8edcf7ed19af1e1,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 6,
        stream: 0x19a28ed6ae2459a7,
        admitted: &[513617, 302729],
        denied: &[4134, 4032],
        tenants: 0x3ab85d74d36a7438,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 7,
        stream: 0xb03be64ced9a3092,
        admitted: &[513217, 303103],
        denied: &[4181, 4018],
        tenants: 0xf4600a81c99da87d,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 8,
        stream: 0x98c7529fb4c87508,
        admitted: &[513232, 303131],
        denied: &[4096, 4062],
        tenants: 0xa230a4770dcc3fd1,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 9,
        stream: 0xf13dcf2f134bc436,
        admitted: &[511712, 304538],
        denied: &[4200, 4138],
        tenants: 0xea288835a384992c,
    },
    Recorded {
        workload: "serve-fleet",
        seed: 10,
        stream: 0xcca466bb0bf79b98,
        admitted: &[511879, 304208],
        denied: &[4392, 4310],
        tenants: 0xf2c1d1ed9ad7f5d8,
    },
    Recorded {
        workload: "serve-paced",
        seed: 1,
        stream: 0x312b43cde59d9604,
        admitted: &[244224, 129578, 74776, 40124],
        denied: &[8429, 5039, 5605, 3547],
        tenants: 0xa494ff18732f939a,
    },
    Recorded {
        workload: "serve-paced",
        seed: 2,
        stream: 0xc70cadb7a86e2166,
        admitted: &[244186, 129262, 74476, 40572],
        denied: &[8800, 5008, 5750, 3544],
        tenants: 0x02fc7590634dc108,
    },
    Recorded {
        workload: "serve-paced",
        seed: 3,
        stream: 0x74d7d441902623dd,
        admitted: &[245049, 129503, 74703, 40456],
        denied: &[8251, 4693, 5543, 3344],
        tenants: 0x9f1bd37c8f7f305d,
    },
    Recorded {
        workload: "serve-paced",
        seed: 4,
        stream: 0xb0a219e2147ed0da,
        admitted: &[244368, 129756, 74913, 39656],
        denied: &[8294, 4844, 5507, 3452],
        tenants: 0x1af4dfee1f402ec2,
    },
    Recorded {
        workload: "serve-paced",
        seed: 5,
        stream: 0x6e9be4ee8634de3d,
        admitted: &[244090, 130553, 74538, 39971],
        denied: &[8534, 4908, 5633, 3394],
        tenants: 0xb585a56b93e23a03,
    },
    Recorded {
        workload: "serve-paced",
        seed: 6,
        stream: 0x389bf9d5c3b41df0,
        admitted: &[244848, 129291, 74797, 40753],
        denied: &[8590, 4849, 5553, 3519],
        tenants: 0x2e7df27d15cde125,
    },
    Recorded {
        workload: "serve-paced",
        seed: 7,
        stream: 0x50f3f1930f707f30,
        admitted: &[244217, 130286, 74790, 40334],
        denied: &[8162, 4866, 5419, 3464],
        tenants: 0x5442a6155ef81639,
    },
    Recorded {
        workload: "serve-paced",
        seed: 8,
        stream: 0x529176c7542bfe50,
        admitted: &[244665, 130276, 74579, 40230],
        denied: &[8151, 4702, 5625, 3422],
        tenants: 0xa45787a27d1e9ee5,
    },
    Recorded {
        workload: "serve-paced",
        seed: 9,
        stream: 0x1252855def3f0cdf,
        admitted: &[244395, 129455, 75149, 40376],
        denied: &[8138, 4676, 5705, 3425],
        tenants: 0x5f81d6f286e18c7b,
    },
    Recorded {
        workload: "serve-paced",
        seed: 10,
        stream: 0x8f4006d8c5e462ac,
        admitted: &[244485, 129433, 75088, 40591],
        denied: &[7942, 4678, 5400, 3295],
        tenants: 0x2c4bb8a5f7fad83d,
    },
];

/// The decisions a whole pass over `stream` must make: the recorded ones
/// when the run's seed has a record (a stream other than the recorded one
/// is a failed check), else those of the generator's own engines.
pub fn expected(spec: &Spec, stream: &Stream, opts: &RunOpts, out: &mut Outcome) -> Decisions {
    let open = matches!(spec.pacing, Pacing::Open { .. });
    let recorded = RECORDED.iter().find(|r| {
        r.workload == spec.name
            && r.seed == opts.seed
            && (!open || opts.seconds == RECORDED_SECONDS)
    });
    let Some(r) = recorded else {
        return stream.decisions.clone();
    };
    let hash = fnv1a(FNV_OFFSET, stream.text.as_bytes());
    if hash != r.stream {
        out.problem(format!(
            "{}: seed {} generated stream {hash:#x}, not the recorded {:#x}",
            spec.name, opts.seed, r.stream
        ));
    }
    Decisions {
        admitted: r.admitted.to_vec(),
        denied: r.denied.to_vec(),
        tenants: r.tenants,
    }
}

/// Due times (ns, ascending) over `seconds` at mean rate `mean_rate`:
/// single lines as a Poisson process, merged with bursts of
/// `BURST_LINES` lines due at once. Burst epochs sit one mean gap apart,
/// each moved by a seeded jitter of up to a quarter gap, so bursts never
/// pile onto each other and every run of a seed drains the same ones.
pub fn schedule(seed: u64, mean_rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 2);
    let mut due = Vec::with_capacity((mean_rate * seconds * 1.1) as usize);
    let single_rate = (1.0 - BURST_SHARE) * mean_rate;
    let mut t = rng.exp(single_rate);
    while t < seconds {
        due.push((t * 1e9) as u64);
        t += rng.exp(single_rate);
    }
    let gap = BURST_LINES as f64 / (BURST_SHARE * mean_rate);
    for k in 0.. {
        let t = (k as f64 + 0.5 + 0.5 * (rng.uniform() - 0.5)) * gap;
        if t >= seconds {
            break;
        }
        due.extend(std::iter::repeat_n((t * 1e9) as u64, BURST_LINES));
    }
    due.sort_unstable();
    due
}

/// Create `dir` if needed and delete everything in it. Runs reuse one
/// directory rather than making new ones, so every set-up creates its
/// files in the same place and nothing piles up in the checkout.
pub fn empty_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let removed = if path.is_dir() {
            std::fs::remove_dir_all(&path)
        } else {
            std::fs::remove_file(&path)
        };
        removed.map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Open a daemon over a fresh `dir` holding every tenant's empty WAL file,
/// and make first contact with every tenant. Returns the daemon and the
/// set-up's CPU time in seconds.
fn set_up(spec: &Spec, stream: &Stream, dir: &Path) -> Result<(Daemon, f64), String> {
    empty_dir(dir)?;
    // Every set-up starts cold, as a restarted daemon does, so first
    // contact makes the anchor solve.
    xbar_core::solver::cache::global_cache().clear();
    // The tenants' WAL files exist, empty, as after a restart: creating
    // them cost this host's kernel 27 to 100 µs of CPU a file from one
    // run to the next, so the creates are measured per layer
    // (`tenant.open_ms`) instead.
    for t in 0..spec.tenants {
        let path = Tenant::wal_path(dir, &format!("t{t}"));
        std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let start = thread_cpu_time();
    let (mut daemon, _) =
        Daemon::open(dir, &spec.model, spec.daemon_cfg()).map_err(|e| e.to_string())?;
    let budget = daemon.pump_budget();
    for i in 0..stream.first_contact {
        daemon
            .ingest_line(stream.line(i))
            .and_then(|()| daemon.pump(budget))
            .map_err(|e| format!("first contact: {e}"))?;
    }
    Ok((daemon, (thread_cpu_time() - start).as_secs_f64()))
}

/// `SETUPS_EACH_END` set-up samples: each set-up's CPU time, normalised by
/// a reference pass just before it.
fn time_setups(
    spec: &Spec,
    stream: &Stream,
    dir: &Path,
    reference: &mut Reference,
    setups: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..SETUPS_EACH_END {
        reference.sample();
        let cpu_s = set_up(spec, stream, dir)?.1;
        setups.push(cpu_s * reference.scale());
    }
    Ok(())
}

/// Per-line latencies of a pass: service time (closed loop) or completion
/// minus due time (open loop), and how late each line started (open loop).
/// The open loop's p99 is the median over one-second windows (at the mean
/// rate) of each window's p99: this host stalls a run for a quarter of a
/// second or more now and then, which delays a hundredth of its lines: in
/// six runs of forty that moved the p99 over every line from about 0.4 ms
/// to between 0.56 and 8.5 ms.
struct Latencies {
    lat: Recorder,
    late: Recorder,
}

impl Latencies {
    fn new(spec: &Spec) -> Self {
        let lat = match spec.pacing {
            Pacing::Closed { .. } => Recorder::new(),
            Pacing::Open { mean_rate } => Recorder::windowed(mean_rate as usize),
        };
        Latencies {
            lat,
            late: Recorder::new(),
        }
    }
}

/// What one pass over the timed lines measured.
#[derive(Default)]
struct Pass {
    /// Timed lines completed.
    done: usize,
    /// Sum of service times (ingest + pump), ns.
    service_ns: u64,
    /// Open loop: most lines overdue at once.
    backlog_max: usize,
    /// First line's start to last line's completion, ns.
    wall_ns: u64,
    /// Open loop: time the schedule waited for reference passes, ns.
    paused_ns: u64,
    /// Lines whose ingest or pump returned an error.
    errors: u64,
}

/// Span names of the traced pass.
struct LineSpans {
    line: crate::trace::Name,
    ingest: crate::trace::Name,
    pump: crate::trace::Name,
}

/// Feed one line, optionally inside `line`/`ingest`/`pump` spans. Returns
/// whether both calls succeeded.
fn feed(
    daemon: &mut Daemon,
    line: &str,
    budget: u64,
    tracer: &mut Option<(&mut Tracer, LineSpans)>,
) -> bool {
    match tracer {
        None => daemon
            .ingest_line(line)
            .and_then(|()| daemon.pump(budget))
            .is_ok(),
        Some((t, names)) => {
            let outer = t.begin(names.line, None);
            let parent = Some(outer.id());
            let ingested = t.call(names.ingest, parent, || daemon.ingest_line(line));
            let pumped = t.call(names.pump, parent, || daemon.pump(budget));
            t.end(outer);
            ingested.is_ok() && pumped.is_ok()
        }
    }
}

/// Feed the timed lines, closed or open loop, until the stream ends or
/// `deadline` passes (closed loop; the open loop's schedule has its own
/// length). With a `reference`, every recorded latency is normalised by
/// the last reference pass before it (see [`crate::reference`]).
fn run_pass(
    spec: &Spec,
    stream: &Stream,
    daemon: &mut Daemon,
    deadline: Option<Instant>,
    tracer: Option<&mut Tracer>,
    mut reference: Option<&mut Reference>,
    lat: &mut Latencies,
) -> Pass {
    let mut tracer = tracer.map(|t| {
        let names = LineSpans {
            line: t.name("daemon.line"),
            ingest: t.name("daemon.ingest"),
            pump: t.name("daemon.pump"),
        };
        (t, names)
    });
    let budget = daemon.pump_budget();
    let timed = stream.first_contact..stream.len();
    let mut pass = Pass::default();
    let mut scale = reference.as_ref().map_or(1.0, |r| r.scale());
    let start = Instant::now();
    match spec.pacing {
        Pacing::Closed { .. } => {
            let mut prev = start;
            for (k, i) in timed.enumerate() {
                if let Some(r) = reference.as_deref_mut() {
                    if k % REFERENCE_EVERY_LINES == 0 {
                        r.sample();
                        scale = r.scale();
                        prev = Instant::now();
                    }
                }
                if deadline.is_some_and(|d| prev >= d) {
                    break;
                }
                let ok = feed(daemon, stream.line(i), budget, &mut tracer);
                let now = Instant::now();
                let ns = now.duration_since(prev).as_nanos() as u64;
                prev = now;
                lat.lat.record(ns as f64 * scale);
                pass.service_ns += ns;
                pass.errors += u64::from(!ok);
                pass.done += 1;
            }
            pass.wall_ns = prev.duration_since(start).as_nanos() as u64;
        }
        Pacing::Open { .. } => {
            // Due times count from `origin`, which each reference pass
            // moves on by its own length, so the schedule waits for it.
            let mut origin = start;
            let mut next_reference = Duration::ZERO;
            // A daemon far slower than the schedule would otherwise run
            // for many times the budget; give up at three times the
            // schedule's length.
            let give_up = Duration::from_nanos(stream.due_ns.last().copied().unwrap_or(0) * 3)
                + Duration::from_secs(1);
            let mut overdue = 0usize;
            let mut end = start;
            for (j, i) in timed.enumerate() {
                let due_at = Duration::from_nanos(stream.due_ns[j]);
                if let Some(r) = reference.as_deref_mut() {
                    // Only while no line is due: every earlier line is
                    // done, and line j is not due yet.
                    if due_at >= next_reference && Instant::now() < origin + due_at {
                        let t = Instant::now();
                        r.sample();
                        scale = r.scale();
                        let spent = t.elapsed();
                        origin += spent;
                        pass.paused_ns += spent.as_nanos() as u64;
                        next_reference = due_at + REFERENCE_EVERY;
                    }
                }
                let due = origin + due_at;
                wait_until(due);
                let begin = Instant::now();
                if begin >= origin + give_up {
                    break;
                }
                let now_ns = begin.duration_since(origin).as_nanos() as u64;
                while overdue < stream.due_ns.len() && stream.due_ns[overdue] <= now_ns {
                    overdue += 1;
                }
                pass.backlog_max = pass.backlog_max.max(overdue - j);
                let ok = feed(daemon, stream.line(i), budget, &mut tracer);
                end = Instant::now();
                lat.late.record(begin.duration_since(due).as_nanos() as f64);
                lat.lat
                    .record(end.duration_since(due).as_nanos() as f64 * scale);
                pass.service_ns += end.duration_since(begin).as_nanos() as u64;
                pass.errors += u64::from(!ok);
                pass.done += 1;
            }
            pass.wall_ns = end.duration_since(start).as_nanos() as u64;
        }
    }
    pass
}

/// Spin until `due`: lines fall due microseconds apart, far below what a
/// sleep can resolve. The loop has no pause hint: on a virtual machine a
/// pause loop can make the hypervisor take the core away.
fn wait_until(due: Instant) {
    while Instant::now() < due {}
}

/// Feed lines `from..` untimed, so a pass cut short by its deadline still
/// ends on the whole stream. Returns how many lines returned an error.
fn feed_rest(daemon: &mut Daemon, stream: &Stream, from: usize) -> u64 {
    let budget = daemon.pump_budget();
    (from..stream.len())
        .filter(|&i| {
            daemon
                .ingest_line(stream.line(i))
                .and_then(|()| daemon.pump(budget))
                .is_err()
        })
        .count() as u64
}

/// Check the daemon after it was fed the whole stream and had to make
/// the decisions `want`. Returns the number of failed ops; problems are
/// recorded on `out`.
fn check(
    spec: &Spec,
    stream: &Stream,
    daemon: &Daemon,
    want: &Decisions,
    out: &mut Outcome,
) -> u64 {
    let acc = daemon.accounting();
    if !acc.holds() {
        out.problem(format!("{}: offers identity broken: {acc:?}", spec.name));
    }
    if acc.rejected != 0 || acc.shed != 0 {
        out.problem(format!(
            "{}: {} rejected, {} shed",
            spec.name, acc.rejected, acc.shed
        ));
    }
    let c = daemon.counters();
    if c.malformed != 0 || c.duplicates != 0 || c.lines != stream.len() as u64 {
        out.problem(format!(
            "{}: daemon counters {c:?} after {} lines",
            spec.name,
            stream.len()
        ));
    }
    let mut failed = acc.rejected + acc.shed;
    let mut per_tenant = Vec::with_capacity(spec.tenants);
    for t in 0..spec.tenants {
        let name = format!("t{t}");
        let Some(tenant) = daemon.tenant(&name) else {
            out.problem(format!("{}: tenant {name} never opened", spec.name));
            continue;
        };
        if tenant.quarantined() {
            out.problem(format!("{}: tenant {name} quarantined", spec.name));
            failed += stream
                .events
                .iter()
                .filter(|e| e.tenant == t as u32)
                .count() as u64;
        }
        per_tenant.push(&tenant.engine().stats().per_class[..]);
    }
    let got = Decisions::of(per_tenant);
    if &got != want {
        out.problem(format!(
            "{}: decisions {got:?} differ from the expected {want:?}",
            spec.name
        ));
    }
    failed
}

/// The end-to-end run: timed passes over fresh daemons until the budget
/// is spent (the open loop's schedule already spans it).
pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    let stream = generate(spec, opts.seed, opts.seconds)?;
    let mut out = Outcome::new();
    let want = expected(spec, &stream, opts, &mut out);
    let dir = opts.work.join("data");
    let mut reference = Reference::new();
    let mut setups = Vec::new();
    time_setups(spec, &stream, &dir, &mut reference, &mut setups)?;
    let mut lat = Latencies::new(spec);
    let mut backlog_max = 0;
    let mut done = 0u64;
    let mut wall_ns = 0u64;
    let mut paused_ns = 0u64;
    let budget = Duration::from_secs_f64(opts.seconds);
    loop {
        let (mut daemon, _) = set_up(spec, &stream, &dir)?;
        let remaining = budget.saturating_sub(Duration::from_nanos(wall_ns));
        let deadline = Instant::now() + remaining;
        let pass = run_pass(
            spec,
            &stream,
            &mut daemon,
            Some(deadline),
            None,
            Some(&mut reference),
            &mut lat,
        );
        let untimed_errors = feed_rest(&mut daemon, &stream, stream.first_contact + pass.done);
        if untimed_errors > 0 {
            out.problem(format!(
                "{}: {untimed_errors} untimed lines returned an error",
                spec.name
            ));
        }
        out.failed += pass.errors + check(spec, &stream, &daemon, &want, &mut out);
        drop(daemon);
        done += pass.done as u64;
        wall_ns += pass.wall_ns;
        paused_ns += pass.paused_ns;
        backlog_max = backlog_max.max(pass.backlog_max);
        let spent = Duration::from_nanos(wall_ns) >= budget;
        if matches!(spec.pacing, Pacing::Open { .. }) || spent || pass.done == 0 {
            break;
        }
    }
    time_setups(spec, &stream, &dir, &mut reference, &mut setups)?;
    out.attempted = done;
    let closed_rate = lat.lat.report(&mut out);
    // Closed loop: lines over their normalised service times. Open loop:
    // lines over the schedule's wall time less its reference pauses (the
    // offered rate while the daemon keeps up).
    let rate = match spec.pacing {
        Pacing::Closed { .. } => closed_rate,
        Pacing::Open { .. } => done as f64 / (wall_ns.saturating_sub(paused_ns) as f64 * 1e-9),
    };
    out.set("ops_per_s", rate);
    out.set("setup_s", crate::setup_s(&setups));
    if let Pacing::Open { .. } = spec.pacing {
        eprintln!(
            "{}: generator late p99 {:.1} us, backlog max {backlog_max}",
            spec.name,
            lat.late.finish().p99_ns / 1e3
        );
    }
    Ok(out)
}

/// The traced run: one untraced and one traced pass over the whole
/// stream, then layer replays of the same events.
pub fn trace(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    let stream = generate(spec, opts.seed, opts.seconds)?;
    let mut out = Outcome::new();
    let want = expected(spec, &stream, opts, &mut out);
    let n = stream.len();

    let dir = opts.work.join("data");
    let (mut daemon, _) = set_up(spec, &stream, &dir)?;
    let mut base_lat = Latencies::new(spec);
    let base = run_pass(spec, &stream, &mut daemon, None, None, None, &mut base_lat);
    out.failed += base.errors + check(spec, &stream, &daemon, &want, &mut out);
    drop(daemon);

    // Set-up clears the solve cache, so the traced pass's anchor-solve and
    // cache-hit counts are the daemon's own.
    let mut tracer = Tracer::new(SPANS_KEPT);
    let reg = Arc::new(xbar_obs::Registry::new());
    let traced = {
        let _scope = xbar_obs::scope(&reg);
        let (mut daemon, _) = set_up(spec, &stream, &dir)?;
        let pass = run_pass(
            spec,
            &stream,
            &mut daemon,
            None,
            Some(&mut tracer),
            None,
            &mut Latencies::new(spec),
        );
        out.failed += pass.errors + check(spec, &stream, &daemon, &want, &mut out);
        daemon.flush_obs();
        drop(daemon);
        pass
    };
    let snap = reg.snapshot();
    out.attempted = (base.done + traced.done) as u64;
    if base.done + stream.first_contact != n || traced.done + stream.first_contact != n {
        out.problem(format!("{}: a traced-run pass stopped early", spec.name));
    }

    replay_parse(&stream, &mut tracer, &mut out);
    replay_tenants(spec, &stream, &dir, &mut tracer)?;
    let bytes = replay_layers(spec, &stream, &dir, &mut tracer)?;
    replay_core(spec, &mut tracer)?;

    // Per-line accounting (ns per line).
    let lines = n as f64;
    let per_line = |names: &[&str]| names.iter().map(|s| tracer.total_ns(s)).sum::<f64>() / lines;
    let parse = tracer.mean_ns("daemon.parse_line");
    let tenant = tracer.mean_ns("tenant.apply");
    let engine = per_line(&["engine.apply", "engine.reprice", "engine.drift_check"]);
    let wal = per_line(&["wal.append", "wal.sync"]);
    let snapshot = per_line(&["snapshot.write"]);
    let ingest = tracer.mean_ns("daemon.ingest");
    let pump = tracer.mean_ns("daemon.pump");
    let untraced = base.service_ns as f64 / base.done.max(1) as f64;
    let daemon_self = (ingest - parse) + (pump - tenant);
    let tenant_self = tenant - engine - wal - snapshot;
    let accounted = parse + daemon_self + tenant_self + engine + wal + snapshot;
    out.set("daemon.parse_ns", parse);
    out.set("daemon.self_ns", daemon_self);
    out.set("tenant.self_ns", tenant_self);
    out.set("trace.unaccounted_share", (untraced - accounted) / untraced);
    out.set(
        "trace.overhead_share",
        traced.service_ns as f64 / base.service_ns as f64 - 1.0,
    );
    eprintln!(
        "{}: per line (ns): untraced {untraced:.0} = parse {parse:.0} + daemon.self \
         {daemon_self:.0} + tenant.self {tenant_self:.0} + engine {engine:.0} + wal {wal:.0} \
         + snapshot {snapshot:.0} + unaccounted {:.0}",
        spec.name,
        untraced - accounted
    );

    out.set("tenant.open_ms", tracer.mean_ns("tenant.open") / 1e6);
    out.set("tenant.opens", counter(&snap, "serve.tenants"));
    out.set("wal.append_ns", tracer.mean_ns("wal.append"));
    out.set("wal.appends", tracer.count("wal.append") as f64);
    out.set("wal.bytes_per_op", bytes.wal as f64 / n as f64);
    out.set("wal.sync_us", tracer.mean_ns("wal.sync") / 1e3);
    out.set("wal.syncs", tracer.count("wal.sync") as f64);
    out.set("snapshot.write_us", tracer.mean_ns("snapshot.write") / 1e3);
    out.set("snapshot.writes", counter(&snap, "serve.snapshots"));
    out.set(
        "snapshot.bytes",
        bytes.snapshot as f64 / tracer.count("snapshot.write").max(1) as f64,
    );
    out.set("engine.apply_ns", tracer.mean_ns("engine.apply"));
    out.set("engine.reprice_ns", tracer.mean_ns("engine.reprice"));
    out.set(
        "engine.reprice_passes",
        counter(&snap, "admission.reprice.batches"),
    );
    out.set(
        "engine.drift_check_us",
        tracer.mean_ns("engine.drift_check") / 1e3,
    );
    out.set(
        "engine.drift_checks",
        tracer.count("engine.drift_check") as f64,
    );
    out.set("engine.reanchors", counter(&snap, "admission.reanchors"));
    out.set(
        "engine.admit_ratio",
        counter(&snap, "admission.admitted") / counter(&snap, "admission.offers").max(1.0),
    );
    out.set(
        "core.anchor_solve_us",
        tracer.mean_ns("core.anchor_solve") / 1e3,
    );
    out.set(
        "core.sweep_build_us",
        tracer.mean_ns("core.sweep_build") / 1e3,
    );
    set_core_counts(&mut out, &snap);
    if let Pacing::Open { .. } = spec.pacing {
        out.set("loadgen.late_p99_us", base_lat.late.finish().p99_ns / 1e3);
        out.set("loadgen.backlog_max", base.backlog_max as f64);
    }
    write_trace(&tracer, opts, spec.name);
    Ok(out)
}

/// Counter `name` of a registry snapshot (0 when absent).
pub fn counter(snap: &xbar_obs::Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

/// The `xbar-core` counts every workload reports from its scoped
/// registry.
pub fn set_core_counts(out: &mut Outcome, snap: &xbar_obs::Snapshot) {
    out.set("core.anchor_solves", counter(snap, "cache.misses"));
    out.set("core.cache_hits", counter(snap, "cache.hits"));
    let builds: u64 = snap
        .histograms
        .iter()
        .filter(|(n, _)| n.ends_with("sweep.precompute"))
        .map(|(_, h)| h.count)
        .sum();
    out.set("core.sweep_builds", builds as f64);
    out.set("core.recombines", counter(snap, "sweep.recombine"));
    out.set(
        "core.escalations",
        counter(snap, "sweep.escalate") + counter(snap, "solver.escalations"),
    );
    out.set("core.lattice_cells", counter(snap, "alg1.cells"));
}

/// Write the kept spans next to the run's scratch directory.
pub fn write_trace(tracer: &Tracer, opts: &RunOpts, workload: &str) {
    let dir = opts.work.parent().unwrap_or(Path::new("."));
    let path = dir.join(format!("trace-{workload}.tsv"));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("{workload}: could not write {}: {e}", path.display());
    }
}

/// `daemon::parse_line` over every line.
fn replay_parse(stream: &Stream, tracer: &mut Tracer, out: &mut Outcome) {
    let root_name = tracer.name("replay.parse");
    let name = tracer.name("daemon.parse_line");
    let root = tracer.begin(root_name, None);
    let parent = Some(root.id());
    let mut bad = 0;
    for i in 0..stream.len() {
        let line = stream.line(i);
        let parsed = tracer.call(name, parent, || parse_line(line));
        bad += usize::from(!matches!(parsed, Ok(Some(_))));
    }
    tracer.end(root);
    if bad > 0 {
        out.problem(format!("{bad} lines failed to parse"));
    }
}

/// `Tenant::open` for every tenant, then `Tenant::apply` for every event
/// in stream order, completing deferred re-anchors as the daemon does.
fn replay_tenants(
    spec: &Spec,
    stream: &Stream,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(), String> {
    empty_dir(dir)?;
    let root_name = tracer.name("replay.tenant");
    let open_name = tracer.name("tenant.open");
    let apply_name = tracer.name("tenant.apply");
    let root = tracer.begin(root_name, None);
    let parent = Some(root.id());
    let cfg = TenantConfig {
        coalesce_reanchors: true,
        ..spec.cfg.clone()
    };
    let mut tenants = Vec::with_capacity(spec.tenants);
    for t in 0..spec.tenants {
        let name = format!("t{t}");
        let (tenant, _) = tracer
            .call(open_name, parent, || {
                Tenant::open(&name, dir, &spec.model, cfg.clone())
            })
            .map_err(|e| e.to_string())?;
        tenants.push(tenant);
    }
    for (i, ev) in stream.events.iter().enumerate() {
        let tenant = &mut tenants[ev.tenant as usize];
        tracer
            .call(apply_name, parent, || {
                tenant.apply(i as u64 + 1, ev.event(), false)?;
                tenant.complete_pending_reanchor()
            })
            .map_err(|e| e.to_string())?;
    }
    tracer.end(root);
    Ok(())
}

/// Bytes the layer replay wrote.
struct Bytes {
    wal: u64,
    snapshot: u64,
}

/// The engine, WAL and snapshot layers on their own, in stream order and
/// at the tenant's cadences: `AdmissionEngine::apply` per event,
/// `reprice_now` every repricing batch, a drift check every check
/// interval, `Wal::append` per event, and at every snapshot the
/// `Wal::sync` plus `snapshot::write` that `Tenant::write_snapshot` makes.
fn replay_layers(
    spec: &Spec,
    stream: &Stream,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Bytes, String> {
    empty_dir(dir)?;
    let root_name = tracer.name("replay.layers");
    let apply_name = tracer.name("engine.apply");
    let reprice_name = tracer.name("engine.reprice");
    let drift_name = tracer.name("engine.drift_check");
    let append_name = tracer.name("wal.append");
    let sync_name = tracer.name("wal.sync");
    let write_name = tracer.name("snapshot.write");
    let root = tracer.begin(root_name, None);
    let parent = Some(root.id());
    let cfg = &spec.cfg;
    // Keep the pricing state but never reprice on the engine's own
    // cadence: the replay calls `reprice_now` itself, inside its own span.
    let engine_cfg = EngineConfig {
        reprice_batch: cfg.reprice_batch.map(|_| u64::MAX),
        ..spec.engine_cfg()
    };
    let reprice_every = cfg.reprice_batch.unwrap_or(0);
    let fp = model_fingerprint(&spec.model, &cfg.policy, cfg.algorithm);
    let mut engines = Vec::with_capacity(spec.tenants);
    let mut wals = Vec::with_capacity(spec.tenants);
    for t in 0..spec.tenants {
        engines.push(
            AdmissionEngine::new(&spec.model, engine_cfg.clone()).map_err(|e| e.to_string())?,
        );
        let (wal, _) =
            Wal::open(&dir.join(format!("t{t}.wal")), cfg.sync_every).map_err(|e| e.to_string())?;
        wals.push(wal);
    }
    let mut applied = vec![0u64; spec.tenants];
    let mut bytes = Bytes {
        wal: 0,
        snapshot: 0,
    };
    for (i, ev) in stream.events.iter().enumerate() {
        let t = ev.tenant as usize;
        let engine = &mut engines[t];
        tracer
            .call(apply_name, parent, || engine.apply(ev.event()))
            .map_err(|e| e.to_string())?;
        applied[t] += 1;
        if reprice_every > 0 && applied[t].is_multiple_of(reprice_every) {
            tracer
                .call(reprice_name, parent, || engine.reprice_now())
                .map_err(|e| e.to_string())?;
        }
        let wal = &mut wals[t];
        let rec = WalRecord {
            seq: i as u64 + 1,
            kind: ev.record_kind(),
            class: ev.class,
            skewed: false,
        };
        let before = wal.len();
        tracer
            .call(append_name, parent, || wal.append(&rec))
            .map_err(|e| e.to_string())?;
        bytes.wal += wal.len() - before;
        if cfg.check_interval > 0 && applied[t].is_multiple_of(cfg.check_interval) {
            tracer
                .call(drift_name, parent, || {
                    let exact = engine.exact_log_weight();
                    let drift = (engine.log_weight() - exact).abs();
                    if drift <= cfg.drift_tol * exact.abs().max(1.0) {
                        Ok(())
                    } else {
                        engine.re_anchor()
                    }
                })
                .map_err(|e| e.to_string())?;
        }
        if cfg.snapshot_interval > 0 && applied[t].is_multiple_of(cfg.snapshot_interval) {
            tracer
                .call(sync_name, parent, || wal.sync())
                .map_err(|e| e.to_string())?;
            let snap = TenantSnapshot {
                seq: i as u64 + 1,
                wal_records: wal.records(),
                model_fp: fp,
                engine: engine.export_state(),
                counters: ServeCounters::default(),
                quarantined: false,
            };
            let path = dir.join(format!("t{t}.snap"));
            tracer
                .call(write_name, parent, || snapshot::write(&path, &snap))
                .map_err(|e| e.to_string())?;
            bytes.snapshot += snapshot::encode(&snap).len() as u64;
        }
    }
    tracer.end(root);
    Ok(bytes)
}

/// Fresh anchor solves (and, with repricing on, the pricing sweep
/// precompute) of the tenant model, timed outside the solve cache.
fn replay_core(spec: &Spec, tracer: &mut Tracer) -> Result<(), String> {
    let solve_name = tracer.name("core.anchor_solve");
    let build_name = tracer.name("core.sweep_build");
    let algorithm: Algorithm = spec.cfg.algorithm;
    for _ in 0..5 {
        tracer
            .call(solve_name, None, || {
                xbar_core::solve(&spec.model, algorithm)
            })
            .map_err(|e| e.to_string())?;
        if spec.cfg.reprice_batch.is_some() && spec.cfg.policy.needs_sensitivity() {
            tracer
                .call(build_name, None, || {
                    SweepSolver::new(&spec.model, algorithm)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(pacing: Pacing) -> Spec {
        let mut spec = match pacing {
            Pacing::Closed { .. } => Spec::fleet(),
            Pacing::Open { .. } => Spec::paced(),
        };
        spec.tenants = 3;
        spec.pacing = pacing;
        spec.cfg.snapshot_interval = 64;
        spec
    }

    #[test]
    fn generator_is_identical_for_the_same_seed() {
        for pacing in [
            Pacing::Closed {
                events_per_tenant: 400,
            },
            Pacing::Open { mean_rate: 2_000.0 },
        ] {
            let spec = small(pacing);
            let a = generate(&spec, 7, 0.5).unwrap();
            let b = generate(&spec, 7, 0.5).unwrap();
            let c = generate(&spec, 8, 0.5).unwrap();
            assert_eq!(a.text, b.text);
            assert_eq!(a.due_ns, b.due_ns);
            assert_ne!(a.text, c.text);
            assert!(a.len() > spec.tenants);
        }
    }

    #[test]
    fn generator_never_departs_a_call_the_tenant_does_not_hold() {
        for pacing in [
            Pacing::Closed {
                events_per_tenant: 2_000,
            },
            Pacing::Open { mean_rate: 4_000.0 },
        ] {
            let spec = small(pacing);
            let stream = generate(&spec, 11, 1.0).unwrap();
            // Track holdings from the daemon's own engines, line by line.
            let dir = std::env::temp_dir().join(format!(
                "perfbench-gen-{}-{}",
                spec.name,
                std::process::id()
            ));
            let (mut daemon, _) = set_up(&spec, &stream, &dir).unwrap();
            let mut departures = 0;
            for i in stream.first_contact..stream.len() {
                let ev = stream.events[i];
                if !ev.arrival {
                    departures += 1;
                    let held = daemon
                        .tenant(&format!("t{}", ev.tenant))
                        .unwrap()
                        .engine()
                        .state()[ev.class as usize];
                    assert!(
                        held > 0,
                        "line {i} departs class {} with none held",
                        ev.class
                    );
                }
                daemon.ingest_line(stream.line(i)).unwrap();
                daemon.pump(u64::MAX).unwrap();
            }
            assert!(departures > 0);
            let mut out = Outcome::new();
            assert_eq!(
                check(&spec, &stream, &daemon, &stream.decisions, &mut out),
                0
            );
            assert!(out.correct, "{:?}", out.problems);
            assert!(daemon.serve_counters().snapshots > 0);
            drop(daemon);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn check_rejects_a_perturbed_engine_decision() {
        let spec = small(Pacing::Closed {
            events_per_tenant: 300,
        });
        let stream = generate(&spec, 3, 1.0).unwrap();
        // A daemon whose engine reserves two slots against class 1 denies
        // arrivals the recorded engine admitted.
        let mut perturbed = spec.clone();
        perturbed.cfg.policy = PolicySpec::TrunkReservation(vec![0, 2]);
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        let (mut daemon, _) = set_up(&perturbed, &stream, &dir).unwrap();
        feed_rest(&mut daemon, &stream, stream.first_contact);
        let mut out = Outcome::new();
        check(&spec, &stream, &daemon, &stream.decisions, &mut out);
        assert!(!out.correct);
        assert!(
            out.problems.iter().any(|p| p.contains("decisions")),
            "{:?}",
            out.problems
        );
        // The same stream through the right engine passes.
        let (mut daemon, _) = set_up(&spec, &stream, &dir).unwrap();
        feed_rest(&mut daemon, &stream, stream.first_contact);
        let mut out = Outcome::new();
        assert_eq!(
            check(&spec, &stream, &daemon, &stream.decisions, &mut out),
            0
        );
        assert!(out.correct, "{:?}", out.problems);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn recorded_line(spec: &Spec, seed: u64) -> String {
        let stream = generate(spec, seed, RECORDED_SECONDS).unwrap();
        let d = &stream.decisions;
        format!(
            "    Recorded {{ workload: {:?}, seed: {seed}, stream: {:#018x}, admitted: &{:?}, \
             denied: &{:?}, tenants: {:#018x} }},",
            spec.name,
            fnv1a(FNV_OFFSET, stream.text.as_bytes()),
            d.admitted,
            d.denied,
            d.tenants
        )
    }

    #[test]
    fn recorded_decisions_match_the_generator() {
        for spec in [Spec::fleet(), Spec::paced()] {
            let stream = generate(&spec, 1, RECORDED_SECONDS).unwrap();
            let opts = RunOpts {
                seed: 1,
                seconds: RECORDED_SECONDS,
                work: std::env::temp_dir(),
            };
            let mut out = Outcome::new();
            assert_eq!(expected(&spec, &stream, &opts, &mut out), stream.decisions);
            assert!(out.correct, "{:?}", out.problems);
            assert!(stream.decisions.denied.iter().sum::<u64>() > 0);
            // Another seed's stream is not the recorded one.
            let other = generate(&spec, 2, RECORDED_SECONDS).unwrap();
            expected(&spec, &other, &opts, &mut out);
            assert!(!out.correct);
        }
    }

    #[test]
    #[ignore = "prints the RECORDED table"]
    fn print_recorded() {
        for spec in [Spec::fleet(), Spec::paced()] {
            for seed in 1..=10 {
                println!("{}", recorded_line(&spec, seed));
            }
        }
    }

    #[test]
    fn schedule_keeps_its_mean_rate_and_bursts_above_it() {
        let due = schedule(5, 10_000.0, 20.0);
        let rate = due.len() as f64 / 20.0;
        assert!((rate / 10_000.0 - 1.0).abs() < 0.05, "rate {rate}");
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // Bursts put BURST_LINES lines on one instant.
        let same = due.windows(2).filter(|w| w[0] == w[1]).count();
        let expected = BURST_SHARE * due.len() as f64 * (1.0 - 1.0 / BURST_LINES as f64);
        assert!(
            (same as f64 / expected - 1.0).abs() < 0.2,
            "{same} vs {expected}"
        );
    }
}
