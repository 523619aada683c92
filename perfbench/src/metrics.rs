//! The metrics the benchmark reports, with the layer each belongs to and
//! the end-to-end metric and workloads it is expected to move. The bounds
//! live in `BENCHMARK.json`; the self-test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The layer whose boundary the value is measured at.
    pub layer: &'static str,
    /// The end-to-end metric a change to this layer should move.
    pub moves: &'static str,
    /// The workloads it should move it on.
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        layer,
        moves,
        on,
    }
}

use Better::{Higher, Lower};

const ALL: &str = "cca_burst shared_burst disk_steady serve_day";
const BURSTS: &str = "cca_burst shared_burst";

/// Printed by the untimed run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("txn_per_s", "txn/s", Higher, "end_to_end", "txn_per_s", ALL),
    m("setup_s", "s", Lower, "end_to_end", "setup_s", ALL),
    m("miss_pct", "%", Lower, "end_to_end", "miss_pct", ALL),
    m("ok_pct", "%", Higher, "end_to_end", "ok_pct", ALL),
    m("peak_rss_mb", "MB", Lower, "end_to_end", "peak_rss_mb", ALL),
];

/// Printed by the traced run (`--trace 1`). A layer a workload does not
/// use reads 0 there (`serve.*` off `serve_day`, `runner.*` off
/// `disk_steady`).
pub const PER_LAYER: &[Metric] = &[
    m("engine.steps", "count", Lower, "engine", "txn_per_s", ALL),
    m("engine.self_s", "s", Lower, "engine", "txn_per_s", ALL),
    m(
        "engine.commit_share",
        "ratio",
        Lower,
        "engine",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "engine.commit_step_us.p50",
        "us",
        Lower,
        "engine",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "engine.commit_step_us.p99",
        "us",
        Lower,
        "engine",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "engine.arrival_step_us.p50",
        "us",
        Lower,
        "engine",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "engine.arrival_step_us.p99",
        "us",
        Lower,
        "engine",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "engine.other_step_us.p50",
        "us",
        Lower,
        "engine",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "engine.other_step_us.p99",
        "us",
        Lower,
        "engine",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "sched.clear_repair_visits",
        "count",
        Lower,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "sched.pair_checks",
        "count",
        Lower,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "sched.pair_cache_hit_ratio",
        "ratio",
        Higher,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "sched.priority_evals",
        "count",
        Lower,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "sched.priority_cache_hit_ratio",
        "ratio",
        Higher,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "sched.heap_stale_pops",
        "count",
        Lower,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "sched.index_migrations",
        "count",
        Lower,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "sched.pair_cache_evictions",
        "count",
        Lower,
        "sched",
        "txn_per_s",
        BURSTS,
    ),
    m(
        "policy.calls",
        "count",
        Lower,
        "policy",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "policy.self_s",
        "s",
        Lower,
        "policy",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "policy.share",
        "ratio",
        Lower,
        "policy",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "locks.restarts_per_txn",
        "restart/txn",
        Lower,
        "locks",
        "miss_pct",
        ALL,
    ),
    m("locks.lock_waits", "count", Lower, "locks", "miss_pct", ALL),
    m(
        "locks.noncontributing_aborts",
        "count",
        Lower,
        "locks",
        "miss_pct",
        ALL,
    ),
    m("workload.gen_s", "s", Lower, "workload", "setup_s", ALL),
    m(
        "serve.submit_block_us.p50",
        "us",
        Lower,
        "serve",
        "txn_per_s",
        "serve_day",
    ),
    m(
        "serve.submit_block_us.p99",
        "us",
        Lower,
        "serve",
        "txn_per_s",
        "serve_day",
    ),
    m(
        "serve.overhead_share",
        "ratio",
        Lower,
        "serve",
        "txn_per_s",
        "serve_day",
    ),
    m(
        "serve.shutdown_s",
        "s",
        Lower,
        "serve",
        "txn_per_s",
        "serve_day",
    ),
    m(
        "runner.busy_s",
        "s",
        Lower,
        "runner",
        "txn_per_s",
        "disk_steady",
    ),
    m(
        "runner.parallel_eff",
        "ratio",
        Higher,
        "runner",
        "txn_per_s",
        "disk_steady",
    ),
    m("trace.overhead_pct", "%", Lower, "trace", "none", ALL),
    m("host.calib_ms", "ms", Lower, "host", "none", ALL),
    m(
        "host.raw_txn_per_s",
        "txn/s",
        Higher,
        "host",
        "txn_per_s",
        ALL,
    ),
    m("fail_pct", "%", Lower, "end_to_end", "ok_pct", ALL),
];

/// The metric table for one mode.
pub fn for_mode(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
