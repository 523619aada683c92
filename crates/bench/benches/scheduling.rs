//! Micro-benchmarks of the scheduling hot path: priority evaluation.
//!
//! §3.3 argues CCA's overhead is acceptable because the P-list stays
//! short (1–2 entries); these benches quantify the cost of one priority
//! evaluation as the P-list grows, for each policy.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rtx_core::{Cca, EdfHp, EdfWait, Lsf};
use rtx_preanalysis::sets::DataSet;
use rtx_preanalysis::table::TypeId;
use rtx_preanalysis::ItemId;
use rtx_rtdb::policy::{Policy, SystemView};
use rtx_rtdb::txn::{Stage, Transaction, TxnId, TxnState};
use rtx_sim::time::{SimDuration, SimTime};

fn mk_txn(id: u32, items: &[u32], accessed: &[u32], service_ms: f64) -> Transaction {
    Transaction {
        id: TxnId(id),
        ty: TypeId(0),
        arrival: SimTime::from_ms(id as f64),
        deadline: SimTime::from_ms(1000.0 + id as f64 * 10.0),
        resource_time: SimDuration::from_ms(80.0),
        items: items.iter().map(|&i| ItemId(i)).collect(),
        io_pattern: vec![],
        modes: Vec::new(),
        update_time: SimDuration::from_ms(4.0),
        might_access: items.iter().map(|&i| ItemId(i)).collect(),
        state: TxnState::Ready,
        progress: 0,
        stage: Stage::Lock,
        cpu_left: SimDuration::ZERO,
        burst_start: SimTime::ZERO,
        accessed: accessed.iter().map(|&i| ItemId(i)).collect(),
        written: DataSet::new(),
        service: SimDuration::from_ms(service_ms),
        restarts: 0,
        waiting_for: None,
        decision: None,
        criticality: 0,
        doomed: false,
        doomed_at: SimTime::ZERO,
        io_retries: 0,
        retry_token: 0,
        finish: None,
    }
}

/// A system with `plist` partially executed transactions plus the
/// candidate, all conflicting on a 30-item database.
fn system(plist: usize) -> Vec<Transaction> {
    let mut txns: Vec<Transaction> = (0..plist as u32)
        .map(|i| {
            let items: Vec<u32> = (0..20).map(|k| (i * 3 + k) % 30).collect();
            let accessed: Vec<u32> = items[..10].to_vec();
            mk_txn(i, &items, &accessed, 40.0)
        })
        .collect();
    let cand_items: Vec<u32> = (0..20).collect();
    txns.push(mk_txn(plist as u32, &cand_items, &[], 0.0));
    txns
}

fn bench_priority_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("priority_eval");
    let policies: Vec<(&str, Box<dyn Policy>)> = vec![
        ("edf_hp", Box::new(EdfHp)),
        ("lsf", Box::new(Lsf)),
        ("edf_wait", Box::new(EdfWait)),
        ("cca", Box::new(Cca::base())),
    ];
    for &plist in &[1usize, 2, 8, 32] {
        let txns = system(plist);
        let view = SystemView::new(SimTime::from_ms(500.0), &txns, SimDuration::from_ms(4.0));
        let candidate = &txns[plist];
        for (name, policy) in &policies {
            group.bench_with_input(BenchmarkId::new(*name, plist), &plist, |b, _| {
                b.iter(|| black_box(policy.priority(candidate, &view)));
            });
        }
    }
    group.finish();
}

fn bench_penalty(c: &mut Criterion) {
    let mut group = c.benchmark_group("penalty_of_conflict");
    for &plist in &[1usize, 2, 8, 32] {
        let txns = system(plist);
        let view = SystemView::new(SimTime::from_ms(500.0), &txns, SimDuration::from_ms(4.0));
        let candidate = &txns[plist];
        group.bench_with_input(BenchmarkId::from_parameter(plist), &plist, |b, _| {
            b.iter(|| black_box(rtx_core::penalty_of_conflict(candidate, &view)));
        });
    }
    group.finish();
}

fn bench_lock_table(c: &mut Criterion) {
    use rtx_rtdb::locks::{LockMode, LockTable};
    let mut group = c.benchmark_group("lock_table");
    group.bench_function("request_release_cycle", |b| {
        let mut lt = LockTable::new(30);
        b.iter(|| {
            for i in 0..20u32 {
                lt.request(TxnId(1), ItemId(i % 30), LockMode::Exclusive);
            }
            black_box(lt.release_all(TxnId(1)))
        });
    });
    group.bench_function("held_by_scan", |b| {
        let mut lt = LockTable::new(1000);
        for i in (0..1000u32).step_by(7) {
            lt.request(TxnId(1), ItemId(i), LockMode::Exclusive);
        }
        b.iter(|| black_box(lt.held_by(TxnId(1)).len()));
    });
    group.finish();
}

/// One scheduling decision over a frozen n-deep system: the lazy-heap
/// pick path ([`CacheMode::Incremental`]) against the verbatim full
/// scan ([`CacheMode::AlwaysRecompute`]), for both ConflictState
/// policies. `warm` measures the steady state (index keys already
/// tightened by earlier picks — the amortized O(log n) claim).
fn bench_best_by_priority(c: &mut Criterion) {
    use rtx_rtdb::engine::PickHarness;
    use rtx_rtdb::{CacheMode, SimConfig};
    let mut group = c.benchmark_group("best_by_priority");
    let policies: Vec<(&str, Box<dyn Policy>)> = vec![
        ("cca", Box::new(Cca::base())),
        ("edf_wait", Box::new(EdfWait)),
    ];
    for &mpl in &[16usize, 64, 256] {
        // Half the system partially executed (P-list members), half
        // fresh candidates — a contended mid-burst snapshot.
        let txns: Vec<Transaction> = (0..mpl as u32)
            .map(|i| {
                let items: Vec<u32> = (0..8).map(|k| (i * 3 + k) % 30).collect();
                if i % 2 == 0 {
                    mk_txn(i, &items, &items[..4], 40.0)
                } else {
                    mk_txn(i, &items, &[], 0.0)
                }
            })
            .collect();
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = mpl;
        for (name, policy) in &policies {
            let heap_warm =
                PickHarness::new(&cfg, policy.as_ref(), txns.clone(), CacheMode::Incremental);
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_heap_warm"), mpl),
                &mpl,
                |b, _| b.iter(|| black_box(heap_warm.pick())),
            );
            let scan = PickHarness::new(
                &cfg,
                policy.as_ref(),
                txns.clone(),
                CacheMode::AlwaysRecompute,
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_scan"), mpl),
                &mpl,
                |b, _| b.iter(|| black_box(scan.pick())),
            );
        }
    }
    group.finish();
}

/// Whole-run scheduling cost at high multiprogramming levels: a burst
/// arrival pattern keeps ~all `n` transactions simultaneously active, so
/// every reschedule pass walks an `n`-deep system. `cached` is the
/// production incremental engine; `cold` is the always-recompute oracle
/// (the pre-incremental hot loop, preserved as [`CacheMode::AlwaysRecompute`]).
fn bench_high_mpl(c: &mut Criterion) {
    use rtx_rtdb::{run_simulation_with_mode, CacheMode, SimConfig};
    let mut group = c.benchmark_group("high_mpl_run");
    group.sample_size(10);
    for &mpl in &[64usize, 256] {
        let mut cfg = SimConfig::mm_base();
        cfg.run.num_transactions = mpl;
        // Arrivals far faster than service: the active set ramps to ~mpl.
        cfg.run.arrival_rate_tps = 2_000.0;
        for (name, mode) in [
            ("cca_cached", CacheMode::Incremental),
            ("cca_cold", CacheMode::AlwaysRecompute),
        ] {
            group.bench_with_input(BenchmarkId::new(name, mpl), &mpl, |b, _| {
                b.iter(|| black_box(run_simulation_with_mode(&cfg, &Cca::base(), mode)));
            });
        }
    }
    group.finish();
}

fn bench_unused(_: &mut Criterion) {
    // Keep DataSet in scope for the doc reference above.
    let _ = DataSet::new();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_priority_eval, bench_penalty, bench_lock_table, bench_best_by_priority, bench_high_mpl, bench_unused
}
criterion_main!(benches);
