//! Observability neutrality across the full JOB workload: tracing and the
//! always-on query history must never change what a query answers — same
//! rows, same per-operator cardinality table — because the timing counters
//! are collected on the same always-on path as the cardinality counters;
//! tracing only gates whether they are *exposed*, and the history records
//! them *after the fact*.  The traced run additionally obeys the wall
//! clock: at one worker thread, per-operator busy time can never sum past
//! the query's total elapsed time.

use std::time::Duration;

use qob_core::{BenchmarkContext, QueryReport, ServerContext};
use qob_datagen::Scale;
use qob_plan::QuerySpec;
use qob_storage::IndexConfig;

#[test]
fn tracing_is_tuple_neutral_across_the_full_workload() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let queries = ctx.queries().to_vec();
    assert_eq!(queries.len(), qob_workload::JOB_QUERY_COUNT);
    let server = ServerContext::new(ctx);

    let mut plain = server.session();
    plain.options.threads = 1;
    let mut traced = server.session();
    traced.options.threads = 1;
    traced.options.tracing = true;

    for query in &queries {
        let p = plain.run_query(query).unwrap_or_else(|e| panic!("{} plain: {e}", query.name));
        let t = traced.run_query(query).unwrap_or_else(|e| panic!("{} traced: {e}", query.name));
        assert!(p.trace.is_none(), "{}: untraced report must carry no spans", query.name);
        let trace = t.trace.unwrap_or_else(|| panic!("{}: traced report lacks spans", query.name));

        let pe = p.execution.as_ref().expect("plain executes");
        let te = t.execution.as_ref().expect("traced executes");
        assert_eq!(pe.rows, te.rows, "{}: tracing changed the answer", query.name);
        assert_eq!(
            pe.operators.len(),
            te.operators.len(),
            "{}: tracing changed the operator count",
            query.name
        );
        for (po, to) in pe.operators.iter().zip(&te.operators) {
            assert_eq!(po.relations, to.relations, "{}: operator order moved", query.name);
            assert_eq!(
                po.true_rows, to.true_rows,
                "{}: tracing changed {} cardinality",
                query.name, po.relations
            );
            assert_eq!(po.estimated, to.estimated, "{}: estimate moved", query.name);
            assert_eq!(po.q_error, to.q_error, "{}: q-error moved", query.name);
            assert!(po.time_us.is_none() && po.morsels.is_none());
            assert!(to.time_us.is_some() && to.morsels.is_some());
        }

        // Busy time is nested inside the execution interval and, at one
        // thread, never overlaps itself — so the operator times sum to at
        // most the elapsed wall clock (floor-of-sum >= sum-of-floors keeps
        // the microsecond truncation on the safe side).
        let busy_us: u64 = te.operators.iter().filter_map(|op| op.time_us).sum();
        let elapsed_us = u64::try_from(te.elapsed.as_micros()).unwrap();
        assert!(
            busy_us <= elapsed_us,
            "{}: operators claim {busy_us}us of a {elapsed_us}us query",
            query.name
        );
        assert!(
            trace.execute_us >= elapsed_us,
            "{}: the execute span ({}us) must cover the executor's own clock ({elapsed_us}us)",
            query.name,
            trace.execute_us
        );
    }
}

#[test]
fn history_is_tuple_neutral_across_the_full_workload() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let queries = ctx.queries().to_vec();
    assert_eq!(queries.len(), qob_workload::JOB_QUERY_COUNT);
    let server = ServerContext::new(ctx);
    let mut session = server.session();
    session.options.threads = 1;
    let pass = || -> Vec<QueryReport> {
        let run = |query: &QuerySpec| {
            let mut report =
                session.run_query(query).unwrap_or_else(|e| panic!("{}: {e}", query.name));
            report.execution.as_mut().expect("the session executes").elapsed = Duration::ZERO;
            report
        };
        queries.iter().map(run).collect()
    };

    // The first pass fills the history; the second runs against it.
    let first = pass();
    assert_eq!(server.history().recorded(), queries.len() as u64);
    // No family fills both detector windows in one pass, so nothing can
    // regress yet.  The second pass may: a six-variant family then holds
    // BASELINE_WINDOW + RECENT_WINDOW samples, and timing noise decides.
    assert!(server.history().snapshot().regressions.is_empty());
    let second = pass();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a, b, "{}: a recorded history changed the report", a.name);
    }

    // One sample per execution.  Fingerprints are literal-invariant, so a
    // JOB family's variants (`1a`..`1d` differ only in constants) fold
    // into one fingerprint — fewer series than queries, but every sample
    // accounted for.
    assert_eq!(server.history().recorded(), 2 * queries.len() as u64);
    let snap = server.history().snapshot();
    assert!(
        snap.fingerprints.len() < queries.len(),
        "variant families share a structural fingerprint"
    );
    let samples: u64 = snap.fingerprints.iter().map(|f| f.count).sum();
    assert_eq!(samples, 2 * queries.len() as u64, "every execution recorded exactly one sample");
}
