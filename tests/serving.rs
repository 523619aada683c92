//! Serving front-end guarantees: the submission queue and admission
//! path behave under concurrency, shutdown drains everything in flight,
//! and virtual-clock serving is *bit-identical* to the batch runner.

use std::sync::Arc;

use rtx::policies::{Cca, EdfHp, Lsf};
use rtx::preanalysis::{ItemId, TypeId};
use rtx::rtdb::{
    run_simulation_from, AdmissionConfig, Policy, ReplaySource, SimConfig, Transaction, TxnId,
};
use rtx::serve::{ServeConfig, Server, TraceSpec, TxnRequest};
use rtx::sim::{SimDuration, SimTime};

/// The configuration the serving experiments run on (mirrors
/// `crates/bench/src/experiments/serve.rs`): main-memory resource model
/// over the trace generator's 10 000-record table, lenient admission.
fn serve_cfg() -> SimConfig {
    let mut cfg = SimConfig::mm_base();
    cfg.workload.db_size = 10_000;
    cfg.system.abort_cost_ms = 2.0;
    cfg.system.admission = Some(AdmissionConfig::lenient());
    cfg
}

/// A compressed trading-day trace: `txns` arrivals at `rate_tps` on
/// average.
fn trace(txns: usize, rate_tps: f64, seed: u64) -> TraceSpec {
    let mut spec = TraceSpec::trading_day(txns, seed);
    spec.day_secs = txns as f64 / rate_tps;
    spec
}

/// Serving a recorded trace under the virtual clock must reproduce the
/// batch runner's aggregates **bit for bit**: same commits, same misses,
/// same restarts, same time-weighted queue lengths — the serving loop is
/// the same engine driven through [`rtx::rtdb::StepEngine`], and its
/// event order is pinned to the batch calendar's.
#[test]
fn virtual_serving_reproduces_batch_aggregates_bit_for_bit() {
    let policies: [(&str, Arc<dyn Policy + Send + Sync>); 3] = [
        ("EDF-HP", Arc::new(EdfHp)),
        ("CCA", Arc::new(Cca::base())),
        ("LSF", Arc::new(Lsf)),
    ];
    let cfg = serve_cfg();
    for (name, policy) in policies {
        let spec = trace(2_000, 60.0, 7);
        let requests: Vec<TxnRequest> = spec.stream().collect();

        // Batch path: materialize the trace and drive it through the
        // one-shot runner.
        let txns: Vec<Transaction> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| r.clone().into_transaction(TxnId(i as u32), r.arrival))
            .collect();
        let n = txns.len();
        let batch = run_simulation_from(&cfg, &*policy, &mut ReplaySource::new(txns), n);

        // Serving path: same requests through the front door.
        let server = Server::start(
            ServeConfig::virtual_mode(),
            Arc::new(cfg.clone()),
            Arc::clone(&policy),
        )
        .expect("config is valid");
        for req in requests {
            server.submit(req).expect("server open");
        }
        let report = server.shutdown();

        assert_eq!(
            report.summary, batch,
            "virtual serving diverged from the batch runner under {name}"
        );
    }
}

/// Concurrent submitters racing on the same hot records each get exactly
/// one terminal outcome, the outcomes tally with the engine's own
/// accept/reject counts, and overload actually produces both classes.
#[test]
fn concurrent_submitters_see_consistent_outcomes() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 40;

    let server = Server::start(
        ServeConfig::virtual_mode(),
        Arc::new(serve_cfg()),
        Arc::new(EdfHp),
    )
    .expect("config is valid");

    // A long "plug" transaction holds the hot range [0, 20) for its whole
    // 100 ms run (20 updates x 5 ms, generous slack).
    let plug = server
        .submit(TxnRequest {
            ty: TypeId(0),
            items: (0..20).map(ItemId).collect(),
            update_time: SimDuration::from_ms(5.0),
            slack: 10.0,
            arrival: SimTime::ZERO,
            io_pattern: vec![],
        })
        .expect("server open");

    // Flood requests conflict with the plug and carry only 20% slack
    // (5 ms of work, a 6 ms window): one conflicting partially-executed
    // transaction already makes the admission estimate 5 + 2 = 7 ms >
    // 6 ms, so anything arriving during the plug's run is rejected at
    // the door, while arrivals after it commits are admitted again.
    let flood = |k: usize| TxnRequest {
        ty: TypeId(1),
        items: (0..5).map(ItemId).collect(),
        update_time: SimDuration::from_ms(1.0),
        slack: 0.2,
        arrival: SimTime::ZERO + SimDuration::from_ms(10.0 + 5.0 * k as f64),
        io_pattern: vec![],
    };

    let tickets: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..PER_THREAD)
                        .map(|k| server.submit(flood(k)).expect("server open"))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let report = server.shutdown();

    assert!(plug.wait().accepted(), "uncontended plug must be admitted");
    let mut accepted = 1u64; // the plug
    let mut rejected = 0u64;
    for ticket in &tickets {
        // Every ticket has resolved by shutdown, and resolves to exactly
        // one stable outcome.
        let outcome = ticket.try_get().expect("ticket resolved at shutdown");
        assert_eq!(ticket.wait(), outcome, "outcome must be stable");
        if outcome.accepted() {
            accepted += 1;
        } else {
            rejected += 1;
        }
    }
    assert_eq!(accepted + rejected, (THREADS * PER_THREAD + 1) as u64);
    assert_eq!(accepted, report.summary.committed, "ticket/engine tally");
    assert_eq!(rejected, report.summary.rejected, "ticket/engine tally");
    assert!(accepted > 1, "post-plug arrivals must be admitted");
    assert!(
        rejected > 0,
        "arrivals conflicting with the running plug must be rejected"
    );
}

/// Shutdown is graceful: every transaction still queued or in flight is
/// driven to a terminal outcome before the report is produced — nothing
/// is dropped, and the final metrics show an empty system.
#[test]
fn graceful_shutdown_drains_in_flight_transactions() {
    let server = Server::start(
        ServeConfig::virtual_mode(),
        Arc::new(serve_cfg()),
        Arc::new(EdfHp),
    )
    .expect("config is valid");

    // Submit a whole trace without ever waiting on a ticket, then shut
    // down immediately: the trailing arrivals are still queued (their
    // arrival stamps are in the engine's future) when close is signalled.
    let n = 500;
    let tickets: Vec<_> = trace(n, 80.0, 3)
        .stream()
        .map(|req| server.submit(req).expect("server open"))
        .collect();
    let report = server.shutdown();

    for ticket in &tickets {
        assert!(
            ticket.try_get().is_some(),
            "every in-flight transaction must reach a terminal outcome"
        );
    }
    assert_eq!(
        report.summary.committed + report.summary.rejected,
        n as u64,
        "shutdown must account for every submission"
    );
    assert_eq!(report.metrics.in_flight, 0, "nothing may remain in flight");
    assert_eq!(report.metrics.submitted, n as u64);
}

/// An engine panic mid-run must not strand a single submitter: the
/// supervisor resolves every outstanding ticket (poisoning the ones the
/// crashed engine held), records the crash, and — within the restart
/// budget — a fresh engine picks the queue back up and finishes the
/// trace.
#[test]
fn engine_panic_resolves_every_ticket_and_restarts() {
    let mut serve = ServeConfig::virtual_mode();
    serve.panic_at_arrival = Some(50);
    serve.max_restarts = 2;
    let server =
        Server::start(serve, Arc::new(serve_cfg()), Arc::new(EdfHp)).expect("config is valid");

    let n = 500;
    let mut tickets = Vec::with_capacity(n);
    for (i, req) in trace(n, 80.0, 3).stream().enumerate() {
        tickets.push(
            server
                .submit(req)
                .expect("queue never closes: restart budget covers the one injected panic"),
        );
        if i == 60 {
            // Virtual mode hands the whole submission queue to the
            // engine, so a fast submitter could land every request in
            // the incarnation that crashes. Hold the rest back until the
            // crash has happened: request 49 is the 50th arrival, the
            // one that triggers the panic, so it dies with the engine.
            let outcome = tickets[49]
                .wait_timeout(std::time::Duration::from_secs(30))
                .expect("the crash must resolve the triggering request");
            assert!(outcome.poisoned(), "the crashed engine held request 49");
        }
    }
    let report = server.shutdown();

    assert_eq!(report.crashes, 1, "exactly the injected panic");
    let mut poisoned = 0u64;
    let mut finished = 0u64;
    for ticket in &tickets {
        // A bounded wait, so a supervisor bug shows up as a test failure
        // rather than a hang.
        let outcome = ticket
            .wait_timeout(std::time::Duration::from_secs(30))
            .expect("every ticket must resolve after a crash");
        if outcome.poisoned() {
            poisoned += 1;
        } else {
            finished += 1;
        }
    }
    assert!(poisoned > 0, "the crash held transactions in flight");
    assert!(finished > 0, "the restarted engine must drain the queue");
    assert_eq!(poisoned, report.metrics.poisoned, "ticket/metrics tally");
    assert_eq!(
        report.metrics.committed + report.metrics.rejected + report.metrics.poisoned,
        n as u64,
        "every submission reaches exactly one terminal outcome"
    );
}

/// Past the restart budget the server fails closed: all outstanding and
/// queued tickets poison, and further submissions are refused rather
/// than silently dropped.
#[test]
fn crash_past_restart_budget_closes_the_server() {
    let mut serve = ServeConfig::virtual_mode();
    serve.panic_at_arrival = Some(10);
    serve.max_restarts = 0;
    let server =
        Server::start(serve, Arc::new(serve_cfg()), Arc::new(EdfHp)).expect("config is valid");

    let n = 300;
    let mut tickets = Vec::new();
    let mut refused = 0u64;
    for req in trace(n, 80.0, 3).stream() {
        match server.submit(req) {
            Ok(t) => tickets.push(t),
            Err(rtx::serve::SubmitError::Closed(_)) => refused += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let report = server.shutdown();

    assert_eq!(report.crashes, 1);
    let mut resolved = 0u64;
    for ticket in &tickets {
        assert!(
            ticket
                .wait_timeout(std::time::Duration::from_secs(30))
                .is_some(),
            "no ticket may hang on a dead server"
        );
        resolved += 1;
    }
    assert_eq!(resolved + refused, n as u64);
    assert!(
        report.metrics.poisoned > 0,
        "in-flight work at the terminal crash must be poisoned"
    );
}

/// `Ticket::wait_timeout` times out (returning `None`) while the
/// transaction is genuinely still pending, and the same ticket still
/// resolves later.
#[test]
fn ticket_wait_timeout_expires_then_resolves() {
    let server = Server::start(
        ServeConfig::virtual_mode(),
        Arc::new(serve_cfg()),
        Arc::new(EdfHp),
    )
    .expect("config is valid");

    // Virtual replay holds an arrival until its successor shows up or
    // the stream closes, so a lone submission stays pending.
    let ticket = server
        .submit(TxnRequest {
            ty: TypeId(0),
            items: vec![ItemId(1), ItemId(2)],
            update_time: SimDuration::from_ms(1.0),
            slack: 2.0,
            arrival: SimTime::ZERO,
            io_pattern: vec![],
        })
        .expect("server open");
    assert_eq!(
        ticket.wait_timeout(std::time::Duration::from_millis(50)),
        None,
        "pending ticket must time out, not resolve"
    );
    let report = server.shutdown();
    assert!(ticket
        .wait_timeout(std::time::Duration::from_secs(30))
        .expect("shutdown resolves the ticket")
        .accepted());
    assert_eq!(report.summary.committed, 1);
}

/// Malformed serving configurations are rejected at `Server::start`
/// instead of panicking inside the engine thread.
#[test]
fn bad_serve_configs_are_rejected_at_start() {
    let cases: Vec<(&str, ServeConfig)> = vec![
        ("zero queue", {
            let mut c = ServeConfig::virtual_mode();
            c.queue_capacity = 0;
            c
        }),
        ("zero engine cap", {
            let mut c = ServeConfig::wall(100.0);
            c.max_in_engine = 0;
            c
        }),
        ("zero window", {
            let mut c = ServeConfig::virtual_mode();
            c.window_secs = 0.0;
            c
        }),
        ("NaN window", {
            let mut c = ServeConfig::virtual_mode();
            c.window_secs = f64::NAN;
            c
        }),
        ("zero wall scale", ServeConfig::wall(0.0)),
        ("infinite wall scale", ServeConfig::wall(f64::INFINITY)),
    ];
    for (what, serve) in cases {
        assert!(
            Server::start(serve, Arc::new(serve_cfg()), Arc::new(EdfHp)).is_err(),
            "{what} must be rejected"
        );
    }
}
