//! Outside-in tracing: spans the benchmark records around its own calls
//! into the library, never inside it.
//!
//! Each thread keeps its spans in memory (a `Vec`, one entry per span,
//! the span id being its 1-based index) and hands them over with
//! [`take`] once a pass is over. A span's parent is the span open on the
//! same thread when it began, so a policy call made during a
//! `StepEngine::step` is that step's child, and a step is the child of
//! its pass. Self time is derived afterwards from the parent links
//! ([`Totals::of`]).

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use rtx_rtdb::{Policy, Priority, PriorityDeps, SystemView, Transaction};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// One input run end to end (root span).
    Pass,
    /// Input generation for one seed (disk-resident passes generate
    /// inside the pass, as the replication runner does).
    Gen,
    /// A `StepEngine::step` whose `arrivals_fired` advanced.
    ArrivalStep,
    /// A step that terminated at least one transaction
    /// (`drain_completions` non-empty) and fired no arrival.
    CommitStep,
    /// Any other step: CPU/IO completions, retries.
    OtherStep,
    /// `Policy::priority`.
    Priority,
    /// `Policy::conflict_clear_raise`.
    ClearRaise,
    /// `Server::submit`, including any wait on a full queue.
    Submit,
    /// `Server::shutdown`: drain and join.
    Shutdown,
}

impl Kind {
    const ALL: [Kind; 9] = [
        Kind::Pass,
        Kind::Gen,
        Kind::ArrivalStep,
        Kind::CommitStep,
        Kind::OtherStep,
        Kind::Priority,
        Kind::ClearRaise,
        Kind::Submit,
        Kind::Shutdown,
    ];

    /// The span name written to the span file.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kind::Pass => "pass",
            Kind::Gen => "workload.gen",
            Kind::ArrivalStep => "engine.step.arrival",
            Kind::CommitStep => "engine.step.commit",
            Kind::OtherStep => "engine.step.other",
            Kind::Priority => "policy.priority",
            Kind::ClearRaise => "policy.conflict_clear_raise",
            Kind::Submit => "serve.submit",
            Kind::Shutdown => "serve.shutdown",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    pub(crate) fn is_step(self) -> bool {
        matches!(self, Kind::ArrivalStep | Kind::CommitStep | Kind::OtherStep)
    }

    pub(crate) fn is_policy(self) -> bool {
        matches!(self, Kind::Priority | Kind::ClearRaise)
    }
}

/// One recorded span. Times are nanoseconds since the process's first
/// span; `parent` is the parent's id (0 for a root).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) kind: Kind,
    pub(crate) parent: u32,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

impl Span {
    pub(crate) fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Everything one thread recorded since its last [`take`].
#[derive(Debug, Default)]
pub(crate) struct Trace {
    pub(crate) spans: Vec<Span>,
    /// `Policy::time_invariant_key` calls (counted, not timed).
    pub(crate) time_key_calls: u64,
}

#[derive(Default)]
struct Recorder {
    trace: Trace,
    /// Id of the innermost open span (0 = none).
    open: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open a span on this thread and return its id.
pub(crate) fn enter(kind: Kind) -> u32 {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open;
        r.trace.spans.push(Span {
            kind,
            parent,
            start_ns: now_ns(),
            end_ns: 0,
        });
        let id = r.trace.spans.len() as u32;
        r.open = id;
        id
    })
}

/// Close span `id` (the innermost open one).
pub(crate) fn exit(id: u32) {
    let end = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let span = &mut r.trace.spans[id as usize - 1];
        span.end_ns = end;
        r.open = span.parent;
    })
}

/// Re-label a closed span (steps are classified after they return).
pub(crate) fn relabel(id: u32, kind: Kind) {
    REC.with(|r| r.borrow_mut().trace.spans[id as usize - 1].kind = kind)
}

/// Hand over and clear everything this thread recorded.
pub(crate) fn take() -> Trace {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.open = 0;
        std::mem::take(&mut r.trace)
    })
}

fn count_time_key() {
    REC.with(|r| r.borrow_mut().trace.time_key_calls += 1)
}

/// Per-kind span count, total duration and self time (duration minus
/// the part covered by child spans).
#[derive(Debug, Default, Clone)]
pub(crate) struct Totals {
    count: [u64; Kind::ALL.len()],
    total_ns: [u64; Kind::ALL.len()],
    self_ns: [u64; Kind::ALL.len()],
}

impl Totals {
    pub(crate) fn of(spans: &[Span]) -> Totals {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.dur_ns();
            }
        }
        let mut t = Totals::default();
        for (s, child) in spans.iter().zip(&child_ns) {
            let k = s.kind.index();
            t.count[k] += 1;
            t.total_ns[k] += s.dur_ns();
            t.self_ns[k] += s.dur_ns().saturating_sub(*child);
        }
        t
    }

    pub(crate) fn add(&mut self, other: &Totals) {
        for k in 0..Kind::ALL.len() {
            self.count[k] += other.count[k];
            self.total_ns[k] += other.total_ns[k];
            self.self_ns[k] += other.self_ns[k];
        }
    }

    fn sum(&self, pick: impl Fn(Kind) -> bool, field: &[u64]) -> u64 {
        Kind::ALL
            .iter()
            .filter(|k| pick(**k))
            .map(|k| field[k.index()])
            .sum()
    }

    pub(crate) fn count(&self, pick: impl Fn(Kind) -> bool) -> u64 {
        self.sum(pick, &self.count)
    }

    pub(crate) fn total_s(&self, pick: impl Fn(Kind) -> bool) -> f64 {
        self.sum(pick, &self.total_ns) as f64 * 1e-9
    }

    pub(crate) fn self_s(&self, pick: impl Fn(Kind) -> bool) -> f64 {
        self.sum(pick, &self.self_ns) as f64 * 1e-9
    }
}

/// Log-bucketed duration histogram, 32 buckets per doubling (each
/// about 2% wide), so a run of millions of steps keeps percentiles in a
/// few kB.
#[derive(Debug, Clone, Default)]
pub(crate) struct Hist {
    counts: Vec<u64>,
    n: u64,
}

const PER_OCTAVE: f64 = 32.0;

impl Hist {
    pub(crate) fn record(&mut self, ns: u64) {
        let b = ((ns.max(1) as f64).log2() * PER_OCTAVE) as usize;
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.n += 1;
    }

    pub(crate) fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank quantile (`p` in 0..=1) in microseconds, read at the
    /// bucket's midpoint; 0 when empty.
    pub(crate) fn quantile_us(&self, p: f64) -> f64 {
        let rank = ((p * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 2f64.powf((b as f64 + 0.5) / PER_OCTAVE) * 1e-3;
            }
        }
        0.0
    }
}

/// What one trace contributes to the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub(crate) struct Digest {
    pub(crate) totals: Totals,
    pub(crate) time_key_calls: u64,
    pub(crate) arrival: Hist,
    pub(crate) commit: Hist,
    pub(crate) other: Hist,
    pub(crate) submit: Hist,
}

impl Digest {
    pub(crate) fn of(trace: &Trace) -> Digest {
        let mut d = Digest {
            totals: Totals::of(&trace.spans),
            time_key_calls: trace.time_key_calls,
            ..Digest::default()
        };
        for s in &trace.spans {
            let hist = match s.kind {
                Kind::ArrivalStep => &mut d.arrival,
                Kind::CommitStep => &mut d.commit,
                Kind::OtherStep => &mut d.other,
                Kind::Submit => &mut d.submit,
                _ => continue,
            };
            hist.record(s.dur_ns());
        }
        d
    }

    pub(crate) fn merge(&mut self, other: &Digest) {
        self.totals.add(&other.totals);
        self.time_key_calls += other.time_key_calls;
        self.arrival.merge(&other.arrival);
        self.commit.merge(&other.commit);
        self.other.merge(&other.other);
        self.submit.merge(&other.submit);
    }
}

/// Write traces as CSV, one row per span
/// (`trace,id,parent,name,start_ns,end_ns`; ids are per trace).
pub(crate) fn write_csv(path: &Path, traces: &[&Trace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "trace,id,parent,name,start_ns,end_ns")?;
    for (t, trace) in traces.iter().enumerate() {
        for (i, s) in trace.spans.iter().enumerate() {
            writeln!(
                out,
                "{t},{},{},{},{},{}",
                i + 1,
                s.parent,
                s.kind.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}

/// A delegating [`Policy`] that records a span around every
/// `priority` and `conflict_clear_raise` call and counts
/// `time_invariant_key` calls. Every answer is the inner policy's, so a
/// traced run schedules exactly like an untraced one.
pub(crate) struct Traced<P>(pub P);

impl<P: Policy> Policy for Traced<P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn priority(&self, txn: &Transaction, view: &SystemView<'_>) -> Priority {
        let id = enter(Kind::Priority);
        let p = self.0.priority(txn, view);
        exit(id);
        p
    }

    fn iowait_restrict(&self) -> bool {
        self.0.iowait_restrict()
    }

    fn depends_on(&self) -> PriorityDeps {
        self.0.depends_on()
    }

    fn conflict_clear_raise(&self, cleared: &Transaction, view: &SystemView<'_>) -> f64 {
        let id = enter(Kind::ClearRaise);
        let raise = self.0.conflict_clear_raise(cleared, view);
        exit(id);
        raise
    }

    fn time_invariant_key(&self, txn: &Transaction) -> Option<f64> {
        count_time_key();
        self.0.time_invariant_key(txn)
    }
}
