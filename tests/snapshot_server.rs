//! The serve-path acceptance suite: snapshot persistence reconstructs the
//! benchmark context exactly, and the warm `qob serve` server answers
//! concurrent clients tuple-identically to one-shot runs — without ever
//! touching the data generator again.

use std::time::Duration;

use qob_core::{BenchmarkContext, QueryReport, ServerContext};
use qob_datagen::Scale;
use qob_server::{serve, Client, Json, Request, ServerConfig};
use qob_sql::emit_query;
use qob_storage::IndexConfig;

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qob-it-{tag}-{}.qob", std::process::id()))
}

/// A spread of 10 JOB queries covering small and large join counts.
const SAMPLE: [&str; 10] = ["1a", "2a", "3c", "4a", "6a", "8a", "13d", "16b", "17a", "32a"];

#[test]
fn snapshot_roundtrip_preserves_rows_stats_and_qerrors_on_job_sample() {
    let original = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let path = temp_path("roundtrip");
    original.save_snapshot(&path).unwrap();
    let loaded = BenchmarkContext::load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Identical catalog: row counts per table.
    assert_eq!(loaded.db().table_count(), original.db().table_count());
    for (tid, table) in original.db().tables() {
        assert_eq!(
            loaded.db().table(tid).row_count(),
            table.row_count(),
            "table `{}` row count drifted through the snapshot",
            table.name()
        );
    }

    // Identical statistics: the ANALYZE pass is deterministic over identical
    // data, so every estimate matches.
    assert_eq!(loaded.stats().table_count(), original.stats().table_count());

    // Identical q-errors on the sample: same estimates, same truths, same
    // executed cardinalities.
    let server_a = ServerContext::new(original);
    let server_b = ServerContext::new(loaded);
    let (session_a, session_b) = (server_a.session(), server_b.session());
    for name in SAMPLE {
        let qa = server_a.context().query(name).unwrap();
        let qb = server_b.context().query(name).unwrap();
        let ra = session_a.run_query(&qa).unwrap();
        let rb = session_b.run_query(&qb).unwrap();
        assert_eq!(strip_timing(ra), strip_timing(rb), "query {name} drifted");
    }
}

fn strip_timing(mut report: QueryReport) -> QueryReport {
    if let Some(exec) = &mut report.execution {
        exec.elapsed = Duration::ZERO;
    }
    report
}

/// The acceptance scenario: a snapshot-backed server answers the JOB
/// workload from concurrent clients tuple-identically to one-shot runs, and
/// no warm query ever triggers data generation.
#[test]
fn warm_server_matches_oneshot_for_concurrent_clients_without_datagen() {
    // Generate once, snapshot, and reload — the server runs on the loaded
    // copy, exactly like `qob serve --snapshot db.qob`.
    let path = temp_path("server");
    BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly)
        .unwrap()
        .save_snapshot(&path)
        .unwrap();
    let ctx = BenchmarkContext::load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // One-shot baseline: answer the sample directly.
    let server_ctx = ServerContext::new(ctx);
    let baseline_session = server_ctx.session();
    let mut baseline = Vec::new();
    let mut sql = Vec::new();
    for name in SAMPLE {
        let query = server_ctx.context().query(name).unwrap();
        baseline.push(strip_timing(baseline_session.run_query(&query).unwrap()));
        sql.push(emit_query(server_ctx.context().db(), &query));
    }

    let handle =
        serve(server_ctx, ServerConfig { addr: "127.0.0.1:0".into(), snapshot_loaded: true })
            .unwrap();
    let addr = handle.local_addr().to_string();

    // Four concurrent clients sweep the whole sample over the wire.
    let workers: Vec<_> = (0..4)
        .map(|worker| {
            let addr = addr.clone();
            let sql = sql.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr)
                    .unwrap_or_else(|e| panic!("worker {worker}: cannot connect: {e}"));
                sql.iter()
                    .map(|statement| {
                        let response = client.query(statement).unwrap();
                        assert_eq!(
                            response.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "worker {worker}: {response}"
                        );
                        response.get("results").unwrap().as_array().unwrap()[0].clone()
                    })
                    .collect::<Vec<Json>>()
            })
        })
        .collect();
    let answers: Vec<Vec<Json>> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // Every client, every query: tuple-identical to the one-shot baseline.
    for (worker, results) in answers.iter().enumerate() {
        for (i, result) in results.iter().enumerate() {
            let expected = &baseline[i];
            let exec = expected.execution.as_ref().unwrap();
            assert_eq!(
                result.get("rows").and_then(Json::as_u64),
                Some(exec.rows),
                "worker {worker} query {}: row count drifted",
                SAMPLE[i]
            );
            assert_eq!(
                result.get("plan").and_then(Json::as_str),
                Some(expected.plan.as_str()),
                "worker {worker} query {}: plan drifted",
                SAMPLE[i]
            );
            let operators = result.get("operators").unwrap().as_array().unwrap();
            assert_eq!(operators.len(), exec.operators.len());
            for (op_json, op) in operators.iter().zip(&exec.operators) {
                assert_eq!(
                    op_json.get("relations").and_then(Json::as_str),
                    Some(op.relations.as_str())
                );
                assert_eq!(op_json.get("true").and_then(Json::as_u64), Some(op.true_rows));
                assert_eq!(op_json.get("estimated").and_then(Json::as_f64), Some(op.estimated));
            }
        }
    }

    // The server knows it is snapshot-backed, and no generation ever built
    // or touched *its* context — whatever sibling tests generate meanwhile.
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats.get("snapshot_loaded").and_then(Json::as_bool), Some(true));
    assert_eq!(
        stats.get("datagen_runs").and_then(Json::as_u64),
        Some(0),
        "a snapshot-backed server reports no data generation"
    );
    assert!(stats.get("queries_served").and_then(Json::as_u64).unwrap() >= 40);

    handle.shutdown();
    handle.join();
}

/// `stats.datagen_runs` of the server `client` talks to.
fn datagen_runs(client: &mut Client) -> u64 {
    client.request(&Request::Stats).unwrap().get("datagen_runs").and_then(Json::as_u64).unwrap()
}

/// Per-session estimator choices change plans without perturbing other
/// connections, and explain never executes — over the real wire.
#[test]
fn wire_sessions_are_independent_and_explain_is_side_effect_free() {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let handle = serve(
        ServerContext::new(ctx),
        ServerConfig { addr: "127.0.0.1:0".into(), snapshot_loaded: false },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let sql = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
               WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                 AND cn.country_code = '[us]'";

    let mut tuned = Client::connect(&addr).unwrap();
    tuned.request(&Request::Set { option: "estimator".into(), value: "dbms-b".into() }).unwrap();
    let served = datagen_runs(&mut tuned);
    assert_eq!(served, 1, "this server's context was generated exactly once");
    let tuned_result = tuned.query(sql).unwrap();
    let tuned_estimator = tuned_result.get("results").unwrap().as_array().unwrap()[0]
        .get("estimator")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(tuned_estimator, "DBMS B");

    let mut vanilla = Client::connect(&addr).unwrap();
    let explain = vanilla.request(&Request::Explain { sql: sql.into() }).unwrap();
    let explained = &explain.get("results").unwrap().as_array().unwrap()[0];
    assert_eq!(
        explained.get("estimator").unwrap().as_str(),
        Some("PostgreSQL"),
        "new sessions start from the defaults"
    );
    assert!(explained.get("rows").is_none(), "explain must not execute");

    assert_eq!(datagen_runs(&mut vanilla), served, "warm requests must not regenerate");
    handle.shutdown();
    handle.join();
}
