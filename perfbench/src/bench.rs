//! One benchmark run: set-up, a warm-up cycle that fixes the reference
//! results, the output checks, the timed cycles and the metrics.
//!
//! A *cycle* runs one pass over every input of the workload. The
//! untimed run times each pass; the traced run alternates an untimed
//! cycle with a traced one, so `trace.overhead_pct` compares the two
//! under the same conditions. Every timed pass is preceded by a
//! host-speed calibration sample (see [`calib`]).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use rtx_core::Cca;
use rtx_rtdb::{
    run_simulation_from, run_simulation_from_mode, CacheMode, ReplaySource, RunSummary,
};

use crate::calib;
use crate::metrics;
use crate::spans::{self, Digest, Kind, Totals, Trace, Traced};
use crate::workloads::{self, Inputs, Which};

/// What one invocation measures.
pub struct Config {
    pub which: Which,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The self-test's inputs: a few dozen transactions per unit.
    pub tiny: bool,
    /// Where the traced run writes its last pass's spans.
    pub spans_out: PathBuf,
}

/// The result of a run that passed every output check.
pub struct Report {
    /// Every metric of the mode, in table order: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub cycles: usize,
}

/// Set-ups measured per run, the median reported: at least
/// `MIN_SETUPS`, more while they have taken under `SETUP_BUDGET_S`, so a
/// set-up of a few milliseconds is sampled dozens of times.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 64;
const SETUP_BUDGET_S: f64 = 0.5;
/// Timed cycles run however short `--seconds` is.
const MIN_CYCLES: usize = 2;

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn same(what: &str, got: &RunSummary, want: &RunSummary) -> Result<(), String> {
    if got.sans_sched_stats() == want.sans_sched_stats() {
        Ok(())
    } else {
        Err(format!(
            "{what}: run summary differs from the reference run"
        ))
    }
}

/// Per-unit pass times over the timed cycles, with the calibration
/// samples taken before them.
#[derive(Default)]
struct Times {
    passes: Vec<Vec<f64>>,
    calib: Vec<f64>,
}

impl Times {
    fn push(&mut self, unit: usize, d: Duration) {
        if self.passes.len() <= unit {
            self.passes.resize_with(unit + 1, Vec::new);
        }
        self.passes[unit].push(d.as_secs_f64());
    }

    /// Sum over units of each unit's median pass time.
    fn median_cycle_s(&self) -> f64 {
        self.passes.iter().map(|t| median(t)).sum()
    }

    /// Throughput in host seconds.
    fn raw_tps(&self, txns_per_cycle: u64) -> f64 {
        ratio(txns_per_cycle as f64, self.median_cycle_s())
    }

    /// Throughput rescaled to the reference host speed.
    fn tps(&self, txns_per_cycle: u64) -> f64 {
        self.raw_tps(txns_per_cycle) * median(&self.calib) / calib::REFERENCE_S
    }
}

/// What the traced cycles recorded.
#[derive(Default)]
struct Layers {
    /// Per traced cycle: span totals over all of the cycle's passes.
    cycles: Vec<Totals>,
    /// Everything, pooled over the traced cycles.
    pooled: Digest,
    /// Per untimed cycle (disk only): runner busy time and efficiency.
    runner_busy_s: Vec<f64>,
    runner_eff: Vec<f64>,
    /// The last traced cycle's spans of unit 0, written out at the end.
    keep: Vec<Trace>,
}

impl Layers {
    fn absorb(&mut self, cycle: &mut Totals, digest: &Digest) {
        cycle.add(&digest.totals);
        self.pooled.merge(digest);
    }
}

/// Everything the timed cycles collected.
struct Run<'a> {
    inputs: &'a Inputs,
    policy: Cca,
    traced_policy: Traced<Cca>,
    /// Reference summary per unit (per seed for the disk batch), from
    /// the warm-up cycle; `None` for a failed seed.
    reference: Vec<Option<RunSummary>>,
    untimed: Times,
    traced: Times,
    /// `serve_day` in traced runs: the untimed batch engine on each trace.
    batch: Times,
    attempted: u64,
    failed: u64,
    layers: Layers,
}

impl<'a> Run<'a> {
    fn check(&self, what: &str, unit: usize, got: &RunSummary) -> Result<(), String> {
        match &self.reference[unit] {
            Some(want) => same(&format!("{what} {unit}"), got, want),
            None => Ok(()),
        }
    }

    /// One untimed pass over every unit. In the warm-up cycle the
    /// results become the reference; afterwards they are checked
    /// against it and timed.
    fn untimed_cycle(&mut self, warmup: bool, trace_mode: bool) -> Result<(), String> {
        let inputs = self.inputs;
        match inputs.which {
            Which::CcaBurst | Which::SharedBurst => {
                for u in 0..inputs.cfgs.len() {
                    self.calibrate(warmup, false);
                    let run =
                        workloads::step_untimed(&inputs.cfgs[u], &self.policy, &inputs.txns[u]);
                    let failed = workloads::resolved_once(&run.completions, inputs.txns[u].len())?;
                    self.record(warmup, u, run.elapsed, failed, run.summary)?;
                }
            }
            Which::DiskSteady => {
                let (mut busy, mut wall) = (Duration::ZERO, Duration::ZERO);
                for b in 0..inputs.timed_units() {
                    self.calibrate(warmup, false);
                    let run = workloads::disk_untimed(inputs, b, &self.policy, trace_mode);
                    let outcomes = run.batch.outcomes.iter().map(|o| o.as_ref().ok());
                    if warmup {
                        self.reference
                            .extend(outcomes.map(Option::<&RunSummary>::cloned));
                        continue;
                    }
                    for (seed, o) in inputs.units_of(b).zip(outcomes) {
                        if let Some(s) = o {
                            self.check("replication", seed, s)?;
                        }
                    }
                    self.tally(b, run.elapsed, run.batch.errors().count() as u64);
                    busy += run.busy.unwrap_or_default();
                    wall += run.elapsed * run.workers as u32;
                }
                if trace_mode && !warmup {
                    self.layers.runner_busy_s.push(busy.as_secs_f64());
                    self.layers
                        .runner_eff
                        .push(ratio(busy.as_secs_f64(), wall.as_secs_f64()));
                }
            }
            Which::ServeDay => {
                for u in 0..inputs.cfgs.len() {
                    self.calibrate(warmup, false);
                    let run = workloads::serve_pass(inputs, u, &self.policy, false);
                    let failed = workloads::tickets_resolved(&run.outcomes)?;
                    if warmup {
                        // The served run must equal the batch simulator
                        // over the same trace, bit for bit.
                        let n = inputs.txns[u].len();
                        let mut source = ReplaySource::new(inputs.txns[u].clone());
                        let batch =
                            run_simulation_from(&inputs.cfgs[u], &self.policy, &mut source, n);
                        if run.summary != batch {
                            return Err(format!(
                                "serve trace {u}: served summary differs from run_simulation_from"
                            ));
                        }
                    }
                    self.record(warmup, u, run.elapsed, failed, run.summary)?;
                    if trace_mode && !warmup {
                        let b =
                            workloads::step_untimed(&inputs.cfgs[u], &self.policy, &inputs.txns[u]);
                        self.check("batch replay of trace", u, &b.summary)?;
                        self.batch.push(u, b.elapsed);
                    }
                }
            }
        }
        Ok(())
    }

    /// Take a calibration sample before a timed pass.
    fn calibrate(&mut self, warmup: bool, traced: bool) {
        if warmup {
            return;
        }
        let sample = calib::sample(self.inputs.workers());
        if traced {
            self.traced.calib.push(sample);
        } else {
            self.untimed.calib.push(sample);
        }
    }

    fn record(
        &mut self,
        warmup: bool,
        unit: usize,
        elapsed: Duration,
        failed: u64,
        summary: RunSummary,
    ) -> Result<(), String> {
        if warmup {
            self.reference.push(Some(summary));
            return Ok(());
        }
        // Deterministic: every pass over an input must repeat the
        // reference exactly, scheduler counters included.
        if self.reference[unit].as_ref() != Some(&summary) {
            return Err(format!(
                "input {unit}: pass did not repeat the reference run"
            ));
        }
        self.tally(unit, elapsed, failed);
        Ok(())
    }

    fn tally(&mut self, unit: usize, elapsed: Duration, failed: u64) {
        self.untimed.push(unit, elapsed);
        self.attempted += self.inputs.attempted(unit);
        self.failed += failed;
    }

    /// One traced pass over every unit.
    fn traced_cycle(&mut self) -> Result<(), String> {
        let inputs = self.inputs;
        let mut cycle = Totals::default();
        let mut keep = Vec::new();
        match inputs.which {
            Which::CcaBurst | Which::SharedBurst | Which::ServeDay => {
                for u in 0..inputs.cfgs.len() {
                    self.calibrate(false, true);
                    if inputs.which == Which::ServeDay {
                        let run = workloads::serve_pass(inputs, u, &self.policy, true);
                        workloads::tickets_resolved(&run.outcomes)?;
                        self.check("traced serve trace", u, &run.summary)?;
                        self.traced.push(u, run.elapsed);
                        let trace = run.trace.expect("traced serve pass records spans");
                        self.layers.absorb(&mut cycle, &Digest::of(&trace));
                        if u == 0 {
                            keep.push(trace);
                        }
                    }
                    let (run, trace) = workloads::step_traced(
                        &inputs.cfgs[u],
                        &self.traced_policy,
                        &inputs.txns[u],
                    );
                    workloads::resolved_once(&run.completions, inputs.unit_txns(u))?;
                    self.check("traced input", u, &run.summary)?;
                    if inputs.which != Which::ServeDay {
                        self.traced.push(u, run.elapsed);
                    }
                    self.layers.absorb(&mut cycle, &Digest::of(&trace));
                    if u == 0 {
                        keep.push(trace);
                    }
                }
            }
            Which::DiskSteady => {
                for b in 0..inputs.timed_units() {
                    self.calibrate(false, true);
                    let (elapsed, reps) = workloads::disk_traced(inputs, b, &self.traced_policy);
                    for (seed, out) in inputs.units_of(b).zip(reps) {
                        // A seed that failed untimed fails here too; only
                        // survivors are compared.
                        let Ok(r) = out else { continue };
                        r.resolved?;
                        self.check("traced replication", seed, &r.summary)?;
                        self.layers.absorb(&mut cycle, &r.digest);
                        keep.extend(r.trace);
                    }
                    self.traced.push(b, elapsed);
                }
            }
        }
        self.layers.cycles.push(cycle);
        self.layers.keep = keep;
        Ok(())
    }
}

/// The oracle check: one input replayed through `run_simulation_from`
/// with every cache bypassed must agree with the reference run.
fn oracle_check(run: &Run<'_>) -> Result<(), String> {
    let inputs = run.inputs;
    let Some(want) = &run.reference[0] else {
        return Ok(());
    };
    let n = inputs.txns[0].len();
    let mut source = ReplaySource::new(inputs.txns[0].clone());
    let got = run_simulation_from_mode(
        &inputs.cfgs[0],
        &run.policy,
        &mut source,
        n,
        CacheMode::AlwaysRecompute,
    );
    same("always-recompute oracle on input 0", &got, want)
}

/// Set up repeatedly (see `MIN_SETUPS`), each time after a calibration
/// sample; keep the last inputs. Returns them with the median set-up time
/// rescaled to the reference host speed, and the median generation time.
fn setup(cfg: &Config, policy: &Cca) -> (Inputs, f64, f64) {
    let (mut setup_s, mut gen_s, mut calib_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let inputs = loop {
        calib_s.push(calib::sample(1));
        let (inputs, gen) = workloads::generate_inputs(cfg.which, cfg.seed, cfg.tiny);
        let build = workloads::construct(&inputs, policy);
        gen_s.push(gen.as_secs_f64());
        setup_s.push((gen + build).as_secs_f64());
        let reps = setup_s.len();
        let enough = reps >= MIN_SETUPS && start.elapsed().as_secs_f64() >= SETUP_BUDGET_S;
        if cfg.tiny || enough || reps == MAX_SETUPS {
            break inputs;
        }
    };
    let scaled = median(&setup_s) * calib::REFERENCE_S / median(&calib_s);
    (inputs, scaled, median(&gen_s))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let policy = Cca::base();
    let (inputs, setup_s, gen_s) = setup(cfg, &policy);

    let mut run = Run {
        inputs: &inputs,
        policy: policy.clone(),
        traced_policy: Traced(policy),
        reference: Vec::new(),
        untimed: Times::default(),
        traced: Times::default(),
        batch: Times::default(),
        attempted: 0,
        failed: 0,
        layers: Layers::default(),
    };
    run.untimed_cycle(true, cfg.trace)?;
    oracle_check(&run)?;

    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut cycles = 0;
    while cycles < MIN_CYCLES || start.elapsed() < budget {
        run.untimed_cycle(false, cfg.trace)?;
        if cfg.trace {
            run.traced_cycle()?;
        }
        cycles += 1;
    }

    let txns_per_cycle: u64 = (0..inputs.timed_units()).map(|u| inputs.txn_count(u)).sum();
    let txn_per_s = run.untimed.tps(txns_per_cycle);
    eprintln!(
        "# host: calibration kernel {:.2} ms (reference {:.0} ms), {:.1} txn/s in host seconds",
        1e3 * median(&run.untimed.calib),
        1e3 * calib::REFERENCE_S,
        run.untimed.raw_tps(txns_per_cycle)
    );
    let fail_pct = 100.0 * ratio(run.failed as f64, run.attempted as f64);

    let values: Vec<f64> = if cfg.trace {
        per_layer(&run, txn_per_s, txns_per_cycle, gen_s, fail_pct)
    } else {
        let survivors: Vec<&RunSummary> = run.reference.iter().flatten().collect();
        let committed: u64 = survivors.iter().map(|s| s.committed).sum();
        let missed: f64 = survivors
            .iter()
            .map(|s| s.miss_percent * s.committed as f64)
            .sum();
        vec![
            txn_per_s,
            setup_s,
            ratio(missed, committed as f64),
            100.0 - fail_pct,
            peak_rss_mb()?,
        ]
    };

    if cfg.trace {
        let kept: Vec<&Trace> = run.layers.keep.iter().collect();
        let path = &cfg.spans_out;
        spans::write_csv(path, &kept).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }

    let table = metrics::for_mode(cfg.trace);
    assert_eq!(table.len(), values.len(), "one value per metric");
    Ok(Report {
        metrics: table
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
        attempted: run.attempted,
        failed: run.failed,
        cycles,
    })
}

/// The per-layer values, in `metrics::PER_LAYER` order.
fn per_layer(
    run: &Run<'_>,
    txn_per_s: f64,
    txns_per_cycle: u64,
    gen_s: f64,
    fail_pct: f64,
) -> Vec<f64> {
    let l = &run.layers;
    let per_cycle =
        |f: &dyn Fn(&Totals) -> f64| -> f64 { median(&l.cycles.iter().map(f).collect::<Vec<_>>()) };
    let steps = |t: &Totals| t.total_s(Kind::is_step);
    let last = l.cycles.last().cloned().unwrap_or_default();

    let mut sched = rtx_rtdb::SchedStats::default();
    let (mut committed, mut restarts, mut lock_waits, mut noncontrib) = (0u64, 0u64, 0u64, 0u64);
    for s in run.reference.iter().flatten() {
        let c = &s.sched;
        sched.clear_repair_visits += c.clear_repair_visits;
        sched.pair_checks += c.pair_checks;
        sched.pair_cache_hits += c.pair_cache_hits;
        sched.priority_evals += c.priority_evals;
        sched.priority_cache_hits += c.priority_cache_hits;
        sched.heap_stale_pops += c.heap_stale_pops;
        sched.index_migrations += c.index_migrations;
        sched.pair_cache_evictions += c.pair_cache_evictions;
        committed += s.committed;
        restarts += s.restarts_total;
        lock_waits += s.lock_waits;
        noncontrib += s.noncontributing_aborts;
    }
    let traced_tps = run.traced.tps(txns_per_cycle);
    let serve_day = run.inputs.which == Which::ServeDay;
    let overhead_share = if serve_day {
        1.0 - ratio(run.batch.median_cycle_s(), run.untimed.median_cycle_s())
    } else {
        0.0
    };
    let cycles = l.cycles.len().max(1) as u64;
    let p = &l.pooled;

    vec![
        last.count(Kind::is_step) as f64,
        per_cycle(&|t| t.self_s(Kind::is_step)),
        per_cycle(&|t| ratio(t.total_s(|k| k == Kind::CommitStep), steps(t))),
        p.commit.quantile_us(0.50),
        p.commit.quantile_us(0.99),
        p.arrival.quantile_us(0.50),
        p.arrival.quantile_us(0.99),
        p.other.quantile_us(0.50),
        p.other.quantile_us(0.99),
        sched.clear_repair_visits as f64,
        sched.pair_checks as f64,
        ratio(sched.pair_cache_hits as f64, sched.pair_checks as f64),
        sched.priority_evals as f64,
        ratio(
            sched.priority_cache_hits as f64,
            (sched.priority_evals + sched.priority_cache_hits) as f64,
        ),
        sched.heap_stale_pops as f64,
        sched.index_migrations as f64,
        sched.pair_cache_evictions as f64,
        (last.count(Kind::is_policy) + p.time_key_calls / cycles) as f64,
        per_cycle(&|t| t.self_s(Kind::is_policy)),
        per_cycle(&|t| ratio(t.total_s(Kind::is_policy), steps(t))),
        ratio(restarts as f64, committed as f64),
        lock_waits as f64,
        noncontrib as f64,
        gen_s,
        p.submit.quantile_us(0.50),
        p.submit.quantile_us(0.99),
        overhead_share,
        per_cycle(&|t| t.total_s(|k| k == Kind::Shutdown)),
        median(&l.runner_busy_s),
        median(&l.runner_eff),
        100.0 * ratio(txn_per_s - traced_tps, txn_per_s),
        1e3 * median(&run.untimed.calib),
        run.untimed.raw_tps(txns_per_cycle),
        fail_pct,
    ]
}
