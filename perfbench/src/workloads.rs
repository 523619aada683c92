//! The four workloads: their inputs, generated from the benchmark seed,
//! and one untimed or traced pass over each input. Every pass drives the
//! library through its public API only.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtx_core::Cca;
use rtx_rtdb::runner::{run_seeds_checked, ReplicationOptions, ReplicationTimer};
use rtx_rtdb::{
    run_replications_checked, ArrivalGenerator, BatchSummary, Completion, CompletionKind, Policy,
    RunError, RunSummary, SimConfig, StepEngine, Transaction, TxnId, TypeTable,
};
use rtx_serve::{Outcome, ServeConfig, Server, TraceSpec, TxnRequest};
use rtx_sim::rng::StreamSeeder;

use crate::spans::{self, Digest, Kind, Trace};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// MPL-1024 write-only CCA burst.
    CcaBurst,
    /// The same burst with half the accesses reads.
    SharedBurst,
    /// The disk-resident base configuration at 4 tps, many seeds through
    /// the hardened replication runner.
    DiskSteady,
    /// A compressed trading day replayed through the virtual-clock server.
    ServeDay,
}

impl Which {
    pub const ALL: [Which; 4] = [
        Which::CcaBurst,
        Which::SharedBurst,
        Which::DiskSteady,
        Which::ServeDay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Which::CcaBurst => "cca_burst",
            Which::SharedBurst => "shared_burst",
            Which::DiskSteady => "disk_steady",
            Which::ServeDay => "serve_day",
        }
    }

    pub fn parse(s: &str) -> Option<Which> {
        Which::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Average arrival rate of the trading-day trace: the day is compressed
/// so the 4x open and close bursts overload the ~62 tps CPU capacity of
/// the trading mix, while the midday lull drains it.
const SERVE_RATE_TPS: f64 = 40.0;

/// Inputs per cycle and transactions per input. `tiny` is the
/// self-test's size.
fn shape(which: Which, tiny: bool) -> (usize, usize) {
    match (which, tiny) {
        (Which::CcaBurst | Which::SharedBurst, false) => (8, 1024),
        (Which::CcaBurst | Which::SharedBurst, true) => (1, 64),
        // Replication seeds, transactions per seed, run as batches of
        // `DISK_BATCH`. Misses are rare at 4 tps, so the miss percent needs
        // this many seeds to move by only about 5% (quartile spread) from
        // one benchmark seed to the next.
        (Which::DiskSteady, false) => (384, 1200),
        (Which::DiskSteady, true) => (4, 60),
        (Which::ServeDay, false) => (3, 10_000),
        (Which::ServeDay, true) => (1, 500),
    }
}

/// Seeds per `run_replications_checked` batch: each batch is one timed
/// pass, about half a second long, with its own calibration sample.
const DISK_BATCH: usize = 64;

/// The seed of input (or replication) `unit` under benchmark seed `seed`.
fn unit_seed(seed: u64, unit: usize) -> u64 {
    (seed << 16).wrapping_add(unit as u64)
}

fn base_cfg(which: Which, txns: usize) -> SimConfig {
    let mut cfg = match which {
        Which::CcaBurst | Which::SharedBurst => {
            let mut cfg = SimConfig::mm_base();
            cfg.run.arrival_rate_tps = 2_000.0;
            cfg
        }
        Which::DiskSteady => SimConfig::disk_base(),
        Which::ServeDay => {
            // The serving experiments' engine, without admission control,
            // so no request is refused.
            let mut cfg = SimConfig::mm_base();
            cfg.workload.db_size = 10_000;
            cfg.system.abort_cost_ms = 2.0;
            cfg
        }
    };
    if which == Which::SharedBurst {
        cfg.workload.read_probability = 0.5;
    }
    cfg.run.num_transactions = txns;
    cfg
}

/// Everything a workload runs on, generated before any timing.
pub(crate) struct Inputs {
    pub(crate) which: Which,
    /// One configuration per unit: a burst input, a replication seed, or
    /// a serving trace. A disk batch hands its first seed's configuration
    /// to the replication runner, which derives the batch's later seeds
    /// as `cfgs` does.
    pub(crate) cfgs: Vec<SimConfig>,
    /// Each unit's transactions in arrival order. The replication
    /// runner generates its own, so `disk_steady` keeps only seed 0's, for
    /// the oracle check and the set-up time of one replication.
    pub(crate) txns: Vec<Vec<Transaction>>,
    /// `serve_day` only: each trace's requests.
    pub(crate) requests: Vec<Vec<TxnRequest>>,
}

impl Inputs {
    /// Replication seeds per disk batch.
    fn batch(&self) -> usize {
        DISK_BATCH.min(self.cfgs.len())
    }

    /// Units whose passes are timed one by one: a burst, a trace, or a
    /// batch of replication seeds.
    pub(crate) fn timed_units(&self) -> usize {
        match self.which {
            Which::DiskSteady => self.cfgs.len() / self.batch(),
            _ => self.cfgs.len(),
        }
    }

    /// The units (seeds) timed unit `i` runs.
    pub(crate) fn units_of(&self, i: usize) -> std::ops::Range<usize> {
        match self.which {
            Which::DiskSteady => i * self.batch()..(i + 1) * self.batch(),
            _ => i..i + 1,
        }
    }

    /// Transactions unit `u` runs.
    pub(crate) fn unit_txns(&self, u: usize) -> usize {
        self.cfgs[u].run.num_transactions
    }

    /// Operations one pass over timed unit `i` attempts: transactions,
    /// requests, or (disk) replication seeds.
    pub(crate) fn attempted(&self, i: usize) -> u64 {
        match self.which {
            Which::DiskSteady => self.batch() as u64,
            _ => self.unit_txns(i) as u64,
        }
    }

    /// Transactions one pass over timed unit `i` terminates.
    pub(crate) fn txn_count(&self, i: usize) -> u64 {
        self.units_of(i).map(|u| self.unit_txns(u) as u64).sum()
    }

    /// Threads a pass keeps busy.
    pub(crate) fn workers(&self) -> usize {
        match self.which {
            Which::DiskSteady => ReplicationOptions::auto().parallelism.workers(self.batch()),
            _ => 1,
        }
    }
}

/// The paper's workload for one seed: a type table and its arrivals.
pub(crate) fn generate(cfg: &SimConfig) -> Vec<Transaction> {
    let seeder = StreamSeeder::new(cfg.run.seed);
    let table = TypeTable::generate(cfg, &seeder);
    let mut gen = ArrivalGenerator::new(cfg, &table, &seeder);
    std::iter::from_fn(|| gen.next_transaction()).collect()
}

/// Generate a workload's inputs. Returns them with the time spent
/// generating.
pub(crate) fn generate_inputs(which: Which, seed: u64, tiny: bool) -> (Inputs, Duration) {
    let t0 = Instant::now();
    let (units, txns) = shape(which, tiny);
    let base = base_cfg(which, txns);
    let mut inputs = Inputs {
        which,
        cfgs: Vec::with_capacity(units),
        txns: Vec::with_capacity(units),
        requests: Vec::new(),
    };
    for unit in 0..units {
        let mut cfg = base.clone();
        if which == Which::ServeDay {
            let mut spec = TraceSpec::trading_day(txns, unit_seed(seed, unit));
            spec.day_secs = txns as f64 / SERVE_RATE_TPS;
            let requests: Vec<TxnRequest> = spec.stream().collect();
            inputs.txns.push(
                requests
                    .iter()
                    .enumerate()
                    .map(|(i, r)| r.clone().into_transaction(TxnId(i as u32), r.arrival))
                    .collect(),
            );
            inputs.requests.push(requests);
        } else {
            cfg.run.seed = unit_seed(seed, unit);
            if which != Which::DiskSteady || unit == 0 {
                inputs.txns.push(generate(&cfg));
            }
        }
        inputs.cfgs.push(cfg);
    }
    (inputs, t0.elapsed())
}

/// Build what a pass is handed besides its inputs: a loaded
/// `StepEngine` per generated unit and, for `serve_day`, a started
/// server. Returns
/// the time taken. Each is torn down, untimed, before the next is built,
/// so set-up holds one engine at a time as a pass does.
pub(crate) fn construct(inputs: &Inputs, policy: &Cca) -> Duration {
    let mut elapsed = Duration::ZERO;
    for (cfg, txns) in inputs.cfgs.iter().zip(&inputs.txns) {
        let t0 = Instant::now();
        let eng = loaded_engine(cfg, policy, txns.iter().cloned());
        elapsed += t0.elapsed();
        drop(eng);
    }
    if inputs.which == Which::ServeDay {
        let t0 = Instant::now();
        let server = start_server(inputs, policy);
        elapsed += t0.elapsed();
        server.shutdown();
    }
    elapsed
}

fn loaded_engine<'p>(
    cfg: &'p SimConfig,
    policy: &'p dyn Policy,
    txns: impl IntoIterator<Item = Transaction>,
) -> StepEngine<'p> {
    let mut eng = StepEngine::new(cfg, policy).expect("workload configurations are valid");
    for t in txns {
        eng.submit(t);
    }
    eng
}

fn start_server(inputs: &Inputs, policy: &Cca) -> Server {
    Server::start(
        ServeConfig::virtual_mode(),
        Arc::new(inputs.cfgs[0].clone()),
        Arc::new(policy.clone()),
    )
    .expect("serving configuration is valid")
}

/// One `StepEngine` run over a unit's transactions.
pub(crate) struct StepRun {
    /// Host time of the stepping loop, drains and `finish`.
    pub(crate) elapsed: Duration,
    pub(crate) summary: RunSummary,
    pub(crate) completions: Vec<Completion>,
}

/// Step a loaded engine to the end, untraced.
pub(crate) fn step_untimed(cfg: &SimConfig, policy: &dyn Policy, txns: &[Transaction]) -> StepRun {
    let mut eng = loaded_engine(cfg, policy, txns.iter().cloned());
    let t0 = Instant::now();
    while eng.step() {}
    let completions = eng.drain_completions();
    let summary = eng.finish();
    StepRun {
        elapsed: t0.elapsed(),
        summary,
        completions,
    }
}

/// Step a loaded engine to the end with a span around every step, each
/// classified from outside as an arrival, commit or other step.
fn step_spans(mut eng: StepEngine<'_>, expected: usize) -> (RunSummary, Vec<Completion>) {
    let mut completions = Vec::with_capacity(expected);
    loop {
        let fired = eng.arrivals_fired();
        let id = spans::enter(Kind::OtherStep);
        let more = eng.step();
        spans::exit(id);
        if !more {
            break;
        }
        let done = eng.drain_completions();
        if eng.arrivals_fired() > fired {
            spans::relabel(id, Kind::ArrivalStep);
        } else if !done.is_empty() {
            spans::relabel(id, Kind::CommitStep);
        }
        completions.extend(done);
    }
    (eng.finish(), completions)
}

/// As [`step_untimed`], traced; returns this pass's spans too.
pub(crate) fn step_traced(
    cfg: &SimConfig,
    policy: &dyn Policy,
    txns: &[Transaction],
) -> (StepRun, Trace) {
    spans::take();
    let eng = loaded_engine(cfg, policy, txns.iter().cloned());
    let t0 = Instant::now();
    let pass = spans::enter(Kind::Pass);
    let (summary, completions) = step_spans(eng, txns.len());
    spans::exit(pass);
    let run = StepRun {
        elapsed: t0.elapsed(),
        summary,
        completions,
    };
    (run, spans::take())
}

/// One replication batch through the hardened runner.
pub(crate) struct BatchRun {
    pub(crate) elapsed: Duration,
    pub(crate) batch: BatchSummary,
    /// Summed per-replication worker time, when a timer was attached.
    pub(crate) busy: Option<Duration>,
    pub(crate) workers: usize,
}

/// Batch `b` of the disk seeds through the hardened runner.
pub(crate) fn disk_untimed(
    inputs: &Inputs,
    b: usize,
    policy: &Cca,
    timed_runner: bool,
) -> BatchRun {
    let seeds = inputs.units_of(b);
    let reps = seeds.len();
    let timer = Arc::new(ReplicationTimer::new());
    let mut opts = ReplicationOptions::auto();
    if timed_runner {
        opts = opts.with_timer(Arc::clone(&timer));
    }
    let t0 = Instant::now();
    let batch = run_replications_checked(&inputs.cfgs[seeds.start], policy, reps, &opts);
    BatchRun {
        elapsed: t0.elapsed(),
        batch,
        busy: timed_runner.then(|| timer.busy()),
        workers: opts.parallelism.workers(reps),
    }
}

/// One traced replication, digested on its worker so the batch never
/// holds every seed's spans at once.
pub(crate) struct TracedRep {
    pub(crate) summary: RunSummary,
    /// The resolve-once check's result.
    pub(crate) resolved: Result<u64, String>,
    pub(crate) digest: Digest,
    /// Seed 0's spans, for the span file.
    pub(crate) trace: Option<Trace>,
    /// Worker time spent digesting, which is tracing cost, not the
    /// pass's.
    digest_time: Duration,
}

/// The traced counterpart of [`disk_untimed`]: the same seeds fanned out
/// by the same runner, each generated and stepped under spans on its
/// worker thread. The time returned is the batch's wall time less the
/// digesting, spread over the workers.
pub(crate) fn disk_traced(
    inputs: &Inputs,
    b: usize,
    policy: &dyn Policy,
) -> (Duration, Vec<Result<TracedRep, RunError>>) {
    let seeds = inputs.units_of(b);
    let opts = ReplicationOptions::auto();
    let t0 = Instant::now();
    let out = run_seeds_checked(seeds.len(), &opts, |rep| {
        spans::take();
        let seed = seeds.start + rep;
        let cfg = &inputs.cfgs[seed];
        let pass = spans::enter(Kind::Pass);
        let gen = spans::enter(Kind::Gen);
        let txns = generate(cfg);
        spans::exit(gen);
        let n = txns.len();
        let (summary, completions) = step_spans(loaded_engine(cfg, policy, txns), n);
        spans::exit(pass);
        let trace = spans::take();
        let t = Instant::now();
        let digest = Digest::of(&trace);
        Ok(TracedRep {
            summary,
            resolved: resolved_once(&completions, n),
            digest,
            trace: (seed == 0).then_some(trace),
            digest_time: t.elapsed(),
        })
    });
    let digesting: Duration = out.iter().flatten().map(|r| r.digest_time).sum();
    let workers = opts.parallelism.workers(seeds.len()) as u32;
    (t0.elapsed().saturating_sub(digesting / workers), out)
}

/// One trace replayed through a virtual-clock server by a single
/// closed-loop submitter.
pub(crate) struct ServeRun {
    /// Host time from the first submit to the end of `shutdown`.
    pub(crate) elapsed: Duration,
    pub(crate) summary: RunSummary,
    pub(crate) outcomes: Vec<Option<Outcome>>,
    /// Traced runs only.
    pub(crate) trace: Option<Trace>,
}

pub(crate) fn serve_pass(inputs: &Inputs, unit: usize, policy: &Cca, traced: bool) -> ServeRun {
    let enter = |kind| traced.then(|| spans::enter(kind));
    spans::take();
    let server = start_server(inputs, policy);
    let requests = inputs.requests[unit].clone();
    let mut tickets = Vec::with_capacity(requests.len());
    let t0 = Instant::now();
    let pass = enter(Kind::Pass);
    for req in requests {
        let submit = enter(Kind::Submit);
        tickets.push(server.submit(req).expect("server is open until shutdown"));
        submit.into_iter().for_each(spans::exit);
    }
    let shutdown = enter(Kind::Shutdown);
    let report = server.shutdown();
    shutdown.into_iter().chain(pass).for_each(spans::exit);
    let elapsed = t0.elapsed();
    ServeRun {
        elapsed,
        summary: report.summary,
        outcomes: tickets.iter().map(|t| t.try_get()).collect(),
        trace: traced.then(spans::take),
    }
}

/// Check that every one of `n` transactions terminated exactly once and
/// return how many were refused.
pub(crate) fn resolved_once(completions: &[Completion], n: usize) -> Result<u64, String> {
    let mut seen = vec![false; n];
    let mut rejected = 0;
    for c in completions {
        let i = c.id.0 as usize;
        if i >= n || std::mem::replace(&mut seen[i], true) {
            return Err(format!(
                "transaction {i} terminated twice or was never submitted"
            ));
        }
        if c.kind == CompletionKind::Rejected {
            rejected += 1;
        }
    }
    match seen.iter().position(|s| !s) {
        Some(i) => Err(format!("transaction {i} never terminated")),
        None => Ok(rejected),
    }
}

/// Check that every request's ticket resolved, each engine completion
/// once; return how many were rejected, shed or poisoned.
pub(crate) fn tickets_resolved(outcomes: &[Option<Outcome>]) -> Result<u64, String> {
    let mut finished = Vec::with_capacity(outcomes.len());
    let mut failed = 0;
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            None => return Err(format!("request {i} was never resolved")),
            Some(Outcome::Finished { completion, .. }) => finished.push(*completion),
            Some(Outcome::Shed { .. } | Outcome::Poisoned) => failed += 1,
        }
    }
    // Shed and poisoned requests never reach the engine's id space.
    let engine_ids = finished.len();
    Ok(failed + resolved_once(&finished, engine_ids)?)
}
