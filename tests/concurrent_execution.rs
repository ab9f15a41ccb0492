//! Cross-query isolation on the shared worker pool: with many sessions
//! executing concurrently on one server-wide pool, every JOB query must
//! stay tuple-identical to its sequential answer (rows *and* per-operator
//! cardinality tables), and a point query must keep completing while a
//! pathological join saturates every pool worker.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qob_core::{BenchmarkContext, SchedulerConfig, ServerContext, SessionOptions};
use qob_datagen::Scale;
use qob_storage::IndexConfig;

/// Small morsels force every tiny-scale table into many morsels, so the
/// shared pool genuinely interleaves work from different queries.
const TINY_MORSEL: usize = 64;

/// Concurrent sessions in flight during the differential pass.
const SESSIONS: usize = 4;

fn scheduled_server() -> ServerContext {
    ServerContext::with_scheduler(
        BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap(),
        SessionOptions::default(),
        SchedulerConfig { workers: 4, max_concurrent: SESSIONS, max_queued: 64 },
    )
}

/// The comparable core of one executed query: result rows plus the
/// per-operator true-cardinality table, in execution order.
fn answer_of(report: &qob_core::QueryReport) -> (u64, Vec<(String, u64)>) {
    let exec = report.execution.as_ref().expect("query executed");
    (exec.rows, exec.operators.iter().map(|op| (op.relations.clone(), op.true_rows)).collect())
}

#[test]
fn concurrent_sessions_on_the_shared_pool_match_sequential_on_all_113_job_queries() {
    let server = scheduled_server();
    assert_eq!(server.context().queries().len(), 113);

    // Ground truth: a strictly sequential session (threads=1 never touches
    // the pool) answers every query once.
    let mut sequential = server.session();
    sequential.options.threads = 1;
    sequential.options.morsel_size = TINY_MORSEL;
    let truth: Vec<(u64, Vec<(String, u64)>)> = server
        .context()
        .queries()
        .iter()
        .map(|q| answer_of(&sequential.run_query(q).expect("sequential run")))
        .collect();

    // Concurrent pass: striped across sessions so the pool always holds
    // morsels from several different queries at once.  Every session's
    // every answer must equal the sequential one.
    let server = Arc::new(server);
    let mismatches = Arc::new(AtomicUsize::new(0));
    let truth = Arc::new(truth);
    let workers: Vec<_> = (0..SESSIONS)
        .map(|stripe| {
            let server = Arc::clone(&server);
            let truth = Arc::clone(&truth);
            let mismatches = Arc::clone(&mismatches);
            std::thread::spawn(move || {
                let mut session = server.session();
                session.options.threads = 4;
                session.options.morsel_size = TINY_MORSEL;
                let queries = server.context().queries();
                for index in (stripe..queries.len()).step_by(SESSIONS) {
                    let query = &queries[index];
                    let report = session
                        .run_query(query)
                        .unwrap_or_else(|e| panic!("{}: concurrent run failed: {e}", query.name));
                    if answer_of(&report) != truth[index] {
                        eprintln!("{}: diverged from sequential answer", query.name);
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("no session panicked");
    }
    assert_eq!(mismatches.load(Ordering::SeqCst), 0, "shared-pool answers must be identical");
    let (_, busy, queued) = server.pool_gauges();
    assert_eq!((busy, queued), (0, 0), "the pool drained");
}

#[test]
fn point_queries_complete_while_a_pathological_join_saturates_the_pool() {
    // Two workers only: a single greedy join is enough to keep both busy.
    let server = Arc::new(ServerContext::with_scheduler(
        BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap(),
        SessionOptions::default(),
        SchedulerConfig { workers: 2, max_concurrent: 8, max_queued: 64 },
    ));
    const HEAVY: &str = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, \
                         movie_keyword mk, keyword k \
                         WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                           AND mk.movie_id = t.id AND mk.keyword_id = k.id \
                           AND cn.country_code = '[us]'";
    const POINT: &str = "SELECT COUNT(*) FROM title t, movie_companies mc \
                         WHERE mc.movie_id = t.id AND t.production_year > 2005";

    let stop = Arc::new(AtomicBool::new(false));
    let started = Arc::new(AtomicBool::new(false));
    let saturator = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        let started = Arc::clone(&started);
        std::thread::spawn(move || {
            let mut session = server.session();
            session.options.threads = 2;
            session.options.morsel_size = 16; // many morsels per pipeline
            let mut rounds = 0u32;
            while !stop.load(Ordering::SeqCst) {
                started.store(true, Ordering::SeqCst);
                session.run_script(HEAVY).expect("heavy join keeps succeeding");
                rounds += 1;
            }
            rounds
        })
    };

    // Only start the clock once the heavy join is genuinely in flight.
    let waited = Instant::now();
    while !started.load(Ordering::SeqCst) {
        assert!(waited.elapsed() < Duration::from_secs(10), "saturator never started");
        std::thread::yield_now();
    }

    // While the join hammers the two pool workers, point queries on a
    // *different* session must keep completing: the submitting thread
    // always participates in its own query, so a full pool can delay it
    // but never park it indefinitely.
    let mut session = server.session();
    session.options.threads = 2;
    let mut expected = None;
    for _ in 0..10 {
        let started = Instant::now();
        let outcome = session.run_script(POINT).expect("point query succeeds under load");
        let rows = outcome[0].as_query().unwrap().execution.as_ref().unwrap().rows;
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "point query starved by the saturated pool"
        );
        match expected {
            None => expected = Some(rows),
            Some(e) => assert_eq!(rows, e, "answers must not drift under load"),
        }
    }

    stop.store(true, Ordering::SeqCst);
    let rounds = saturator.join().expect("saturator finished cleanly");
    assert!(rounds > 0, "the heavy join actually ran while point queries were measured");
}
