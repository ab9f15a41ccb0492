//! End-to-end tests of the TCP server loop: one warm context, real
//! sockets, the full request catalogue, and cooperative shutdown.

use qob_core::{BenchmarkContext, SchedulerConfig, ServerContext, SessionOptions};
use qob_datagen::Scale;
use qob_server::{serve, Client, Request, ServerConfig};
use qob_storage::IndexConfig;

const THREE_WAY: &str = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
                         WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                           AND cn.country_code = '[us]'";

fn start_server() -> (qob_server::ServerHandle, String) {
    start_scheduled(SchedulerConfig::default())
}

fn start_scheduled(scheduler: SchedulerConfig) -> (qob_server::ServerHandle, String) {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let handle = serve(
        ServerContext::with_scheduler(ctx, SessionOptions::default(), scheduler),
        ServerConfig { addr: "127.0.0.1:0".into(), snapshot_loaded: false },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    (handle, addr)
}

#[test]
fn full_request_catalogue_over_one_connection() {
    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();

    // ping
    let pong = client.request(&Request::Ping).unwrap();
    assert_eq!(pong.get("type").unwrap().as_str(), Some("pong"));

    // query
    let result = client.query(THREE_WAY).unwrap();
    assert_eq!(result.get("ok").unwrap().as_bool(), Some(true), "{result}");
    let results = result.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 1);
    let first = &results[0];
    assert!(first.get("rows").unwrap().as_u64().is_some());
    assert!(first.get("plan").unwrap().as_str().unwrap().contains("Scan"));
    assert!(!first.get("operators").unwrap().as_array().unwrap().is_empty());

    // explain: plans but never executes
    let explain = client.request(&Request::Explain { sql: THREE_WAY.into() }).unwrap();
    let explained = &explain.get("results").unwrap().as_array().unwrap()[0];
    assert!(explained.get("rows").is_none(), "explain must not execute");
    assert!(explained.get("cost").unwrap().as_f64().unwrap() > 0.0);

    // set: accepted and rejected options
    let ack = client
        .request(&Request::Set { option: "estimator".into(), value: "hyper".into() })
        .unwrap();
    assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));
    let after = client.query(THREE_WAY).unwrap();
    let estimator = after.get("results").unwrap().as_array().unwrap()[0]
        .get("estimator")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(estimator, "HyPer", "session option must stick");
    let rejected =
        client.request(&Request::Set { option: "threads".into(), value: "lots".into() }).unwrap();
    assert_eq!(rejected.get("ok").unwrap().as_bool(), Some(false));
    assert_eq!(
        rejected.get("error").unwrap().get("code").unwrap().as_str(),
        Some("invalid_option")
    );

    // errors: SQL and protocol
    let sql_err = client.query("SELECT * FROM nowhere").unwrap();
    assert_eq!(sql_err.get("error").unwrap().get("code").unwrap().as_str(), Some("sql_error"));
    let proto_err = client.request_raw("{\"no\":\"type\"}").unwrap();
    assert_eq!(
        proto_err.get("error").unwrap().get("code").unwrap().as_str(),
        Some("invalid_request")
    );
    let not_json = client.request_raw("hello").unwrap();
    assert_eq!(not_json.get("ok").unwrap().as_bool(), Some(false));

    // stats
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats.get("tables").unwrap().as_u64(), Some(21));
    assert_eq!(stats.get("workload_queries").unwrap().as_u64(), Some(113));
    assert!(stats.get("queries_served").unwrap().as_u64().unwrap() >= 3);
    assert_eq!(stats.get("snapshot_loaded").unwrap().as_bool(), Some(false));
    assert_eq!(stats.get("active_connections").unwrap().as_u64(), Some(1));
    // Compression gauges: auto encoding beats the plain layout.
    let encoded = stats.get("storage_encoded_bytes").unwrap().as_u64().unwrap();
    let plain = stats.get("storage_plain_bytes").unwrap().as_u64().unwrap();
    assert!(encoded > 0 && encoded < plain, "encoded {encoded} vs plain {plain}");
    assert!(stats.get("storage_compression_ratio").unwrap().as_f64().unwrap() > 1.0);
    let tables = stats.get("storage_tables").unwrap().as_array().unwrap();
    assert_eq!(tables.len(), 21);
    let title = tables
        .iter()
        .find(|t| t.get("table").and_then(|n| n.as_str()) == Some("title"))
        .expect("title table in storage stats");
    let columns = title.get("columns").unwrap().as_array().unwrap();
    assert_eq!(columns.len(), 7, "per-column breakdown present");

    // shutdown: acknowledged, then the server exits
    let bye = client.request(&Request::Shutdown).unwrap();
    assert_eq!(bye.get("type").unwrap().as_str(), Some("shutdown"));
    handle.join();
}

#[test]
fn prepared_statements_and_plan_cache_over_the_wire() {
    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();

    // Enable the plan cache for this session.
    let ack = client
        .request(&Request::Set { option: "plan_cache".into(), value: "true".into() })
        .unwrap();
    assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));

    // prepare → acknowledged with the parameter count.
    let prepared = client
        .request(&Request::Prepare {
            name: "by_country".into(),
            sql: THREE_WAY.replace("'[us]'", "?"),
        })
        .unwrap();
    assert_eq!(prepared.get("type").unwrap().as_str(), Some("prepared"), "{prepared}");
    assert_eq!(prepared.get("params").unwrap().as_u64(), Some(1));

    // execute: a first run misses, an identical repeat hits — and both
    // answer exactly like the inline statement.
    let run = |client: &mut Client, country: &str| {
        let response = client
            .request(&Request::Execute {
                name: "by_country".into(),
                params: vec![qob_sql::ParamValue::Str(country.into())],
            })
            .unwrap();
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true), "{response}");
        let result = response.get("results").unwrap().as_array().unwrap()[0].clone();
        (
            result.get("rows").unwrap().as_u64().unwrap(),
            result.get("plan_cache").unwrap().as_str().unwrap().to_owned(),
        )
    };
    let (rows_first, status_first) = run(&mut client, "[us]");
    let (rows_again, status_again) = run(&mut client, "[us]");
    assert_eq!(status_first, "miss");
    assert_eq!(status_again, "hit");
    assert_eq!(rows_first, rows_again);
    let inline = client.query(THREE_WAY).unwrap();
    let inline_rows =
        inline.get("results").unwrap().as_array().unwrap()[0].get("rows").unwrap().as_u64();
    assert_eq!(inline_rows, Some(rows_first));

    // stats expose the cache counters this session just produced (the
    // inline query was the same fingerprint with identical estimates, so
    // it hit as well).
    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats.get("plan_cache_misses").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("plan_cache_hits").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("plan_cache_installs").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("plan_cache_size").unwrap().as_u64(), Some(1));
    assert!(stats.get("plan_cache_capacity").unwrap().as_u64().unwrap() >= 1);

    // Scripts can drive the same machinery through `query`.
    let script = "PREPARE by_year AS SELECT COUNT(*) FROM title t, movie_companies mc \
                  WHERE mc.movie_id = t.id AND t.production_year > $1; \
                  EXECUTE by_year(2000); DEALLOCATE by_year";
    let scripted = client.query(script).unwrap();
    let results = scripted.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3, "{scripted}");
    assert_eq!(results[0].get("prepared").unwrap().as_str(), Some("by_year"));
    assert!(results[1].get("rows").unwrap().as_u64().is_some());
    assert_eq!(results[2].get("deallocated").unwrap().as_str(), Some("by_year"));

    // deallocate; unknown names and re-executes fail with sql_error.
    let gone = client.request(&Request::Deallocate { name: "by_country".into() }).unwrap();
    assert_eq!(gone.get("type").unwrap().as_str(), Some("deallocated"));
    let err =
        client.request(&Request::Execute { name: "by_country".into(), params: vec![] }).unwrap();
    assert_eq!(err.get("error").unwrap().get("code").unwrap().as_str(), Some("sql_error"));
    let err = client.request(&Request::Deallocate { name: "by_country".into() }).unwrap();
    assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));

    // Prepared statements are per-session: a second connection sees none.
    let mut other = Client::connect(&addr).unwrap();
    let err = other
        .request(&Request::Execute {
            name: "by_country".into(),
            params: vec![qob_sql::ParamValue::Str("[us]".into())],
        })
        .unwrap();
    assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));

    client.request(&Request::Shutdown).unwrap();
    handle.join();
}

#[test]
fn wire_sessions_can_match_every_cli_execution_option() {
    // The year filter makes DBMS C's magic constants misestimate `t`, so
    // the adaptive divergence check reliably fires at a 1.5x threshold.
    const FILTERED: &str = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
                            WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                              AND cn.country_code = '[us]' AND t.production_year > 2000";
    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();

    // Every execution option the CLI exposes is settable over the wire,
    // including morsel_size (historically missing) and adaptivity.
    for (option, value) in [
        ("threads", "1"),
        ("morsel_size", "64"),
        ("adaptive", "true"),
        ("adaptive_threshold", "1.5"),
        ("max_replans", "2"),
        ("estimator", "dbms-c"),
    ] {
        let ack =
            client.request(&Request::Set { option: option.into(), value: value.into() }).unwrap();
        assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true), "set {option}={value}");
    }
    let rejected = client
        .request(&Request::Set { option: "morsel_size".into(), value: "tiny".into() })
        .unwrap();
    assert_eq!(rejected.get("ok").unwrap().as_bool(), Some(false));

    // An adaptive query reports its re-plan rounds; the stats gauge counts
    // them server-wide.
    let response = client.query(FILTERED).unwrap();
    assert_eq!(response.get("ok").unwrap().as_bool(), Some(true), "{response}");
    let result = &response.get("results").unwrap().as_array().unwrap()[0];
    let replan_count = result.get("replan_count").unwrap().as_u64().unwrap();
    assert!(replan_count >= 1, "dbms-c at a 1.5x threshold must diverge");
    let replans = result.get("replans").unwrap().as_array().unwrap();
    assert_eq!(replans.len() as u64, replan_count);
    assert!(replans[0].get("factor").unwrap().as_f64().unwrap() > 1.5);
    assert!(replans[0].get("after").unwrap().as_str().unwrap().starts_with('{'));

    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats.get("replans_total").unwrap().as_u64(), Some(replan_count));

    // A non-adaptive session answers with the same rows and no rounds.
    let mut plain = Client::connect(&addr).unwrap();
    plain.request(&Request::Set { option: "threads".into(), value: "1".into() }).unwrap();
    let plain_response = plain.query(FILTERED).unwrap();
    let plain_result = &plain_response.get("results").unwrap().as_array().unwrap()[0];
    assert_eq!(plain_result.get("replan_count").unwrap().as_u64(), Some(0));
    assert!(plain_result.get("replans").is_none());
    assert_eq!(
        plain_result.get("rows").unwrap().as_u64(),
        result.get("rows").unwrap().as_u64(),
        "adaptivity must not change wire answers"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn metrics_scrape_and_traces_over_the_wire() {
    let (handle, addr) = start_server();
    let mut client = Client::connect(&addr).unwrap();

    // Default sessions carry no trace: the wire format is unchanged.
    let plain = client.query(THREE_WAY).unwrap();
    let plain_result = &plain.get("results").unwrap().as_array().unwrap()[0];
    assert!(plain_result.get("trace").is_none());
    let ops = plain_result.get("operators").unwrap().as_array().unwrap();
    assert!(ops.iter().all(|op| op.get("time_us").is_none()));

    // With tracing on, phase spans and per-operator times appear.
    client.request(&Request::Set { option: "tracing".into(), value: "true".into() }).unwrap();
    let traced = client.query(THREE_WAY).unwrap();
    let traced_result = &traced.get("results").unwrap().as_array().unwrap()[0];
    assert_eq!(
        traced_result.get("rows").unwrap().as_u64(),
        plain_result.get("rows").unwrap().as_u64(),
        "tracing must not change answers"
    );
    let trace = traced_result.get("trace").unwrap();
    for phase in ["parse_us", "bind_us", "optimize_us", "queue_us", "execute_us"] {
        assert!(trace.get(phase).unwrap().as_u64().is_some(), "missing {phase}");
    }
    let ops = traced_result.get("operators").unwrap().as_array().unwrap();
    assert!(ops.iter().all(|op| op.get("time_us").unwrap().as_u64().is_some()));
    assert!(ops.iter().all(|op| op.get("morsels").unwrap().as_u64().is_some()));

    // EXPLAIN ANALYZE annotates the plan tree even with tracing off again.
    client.request(&Request::Set { option: "tracing".into(), value: "false".into() }).unwrap();
    let analyzed = client.query(&format!("EXPLAIN ANALYZE {THREE_WAY}")).unwrap();
    let analyzed_result = &analyzed.get("results").unwrap().as_array().unwrap()[0];
    assert!(analyzed_result.get("rows").unwrap().as_u64().is_some(), "analyze executes");
    let plan = analyzed_result.get("plan").unwrap().as_str().unwrap();
    for needle in ["est=", "true=", "q=", "time=", "morsels="] {
        assert!(plan.contains(needle), "annotated plan missing {needle}: {plan}");
    }

    // The metrics scrape exposes a valid Prometheus body whose counters
    // agree with the queries this test just ran.
    let metrics = client.request(&Request::Metrics).unwrap();
    assert_eq!(metrics.get("type").unwrap().as_str(), Some("metrics"));
    let body = metrics.get("body").unwrap().as_str().unwrap();
    let series = qob_obs::validate_exposition(body).expect("exposition must parse");
    assert!(series > 10, "expected a full catalogue, got {series} series");
    assert!(body.contains("qob_queries_total 3"), "three queries ran:\n{body}");
    assert!(body.contains("qob_query_errors_total 0"));
    assert!(body.contains("qob_execute_seconds_count 3"));
    let summary = metrics.get("summary").unwrap();
    assert_eq!(summary.get("queries_total").unwrap().as_u64(), Some(3));
    assert!(summary.get("query_p50_us").unwrap().as_u64().unwrap() > 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn sessions_are_isolated_across_connections() {
    let (handle, addr) = start_server();
    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    a.request(&Request::Set { option: "estimator".into(), value: "dbms-c".into() }).unwrap();

    let report_b = b.query(THREE_WAY).unwrap();
    let estimator_b = report_b.get("results").unwrap().as_array().unwrap()[0]
        .get("estimator")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned();
    assert_eq!(estimator_b, "PostgreSQL", "b must not see a's session options");

    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    use std::io::{BufRead, BufReader, Write};
    let (handle, addr) = start_server();
    // Raw TCP: the Client type is strictly sequential, and this test is
    // about batched writes.
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // One write carries four requests; four responses must come back, in
    // request order, without any further input from us.
    let query_line = Request::Query { sql: THREE_WAY.into() }.to_json().to_string();
    let batch =
        format!("{{\"type\":\"ping\"}}\n{query_line}\n{{\"type\":\"stats\"}}\n{query_line}\n");
    writer.write_all(batch.as_bytes()).unwrap();
    writer.flush().unwrap();

    let mut read_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        qob_server::Json::parse(&line).unwrap()
    };
    let first = read_response();
    assert_eq!(first.get("type").unwrap().as_str(), Some("pong"), "{first}");
    let second = read_response();
    assert_eq!(second.get("type").unwrap().as_str(), Some("result"), "{second}");
    let rows = second.get("results").unwrap().as_array().unwrap()[0].get("rows").unwrap().as_u64();
    assert!(rows.is_some());
    let third = read_response();
    assert_eq!(third.get("type").unwrap().as_str(), Some("stats"), "{third}");
    let fourth = read_response();
    assert_eq!(fourth.get("type").unwrap().as_str(), Some("result"), "{fourth}");
    let rows_again =
        fourth.get("results").unwrap().as_array().unwrap()[0].get("rows").unwrap().as_u64();
    assert_eq!(rows_again, rows, "pipelined repeats answer identically");

    // The connection is still healthy for sequential use afterwards.
    writer.write_all(b"{\"type\":\"ping\"}\n").unwrap();
    assert_eq!(read_response().get("type").unwrap().as_str(), Some("pong"));

    handle.shutdown();
    handle.join();
}

#[test]
fn scheduled_server_exposes_pool_and_admission_over_the_wire() {
    let (handle, addr) =
        start_scheduled(SchedulerConfig { workers: 2, max_concurrent: 2, max_queued: 4 });
    let mut client = Client::connect(&addr).unwrap();

    client.request(&Request::Set { option: "tracing".into(), value: "true".into() }).unwrap();
    let response = client.query(THREE_WAY).unwrap();
    let result = &response.get("results").unwrap().as_array().unwrap()[0];
    assert!(result.get("rows").unwrap().as_u64().is_some());
    assert!(result.get("trace").unwrap().get("queue_us").unwrap().as_u64().is_some());

    let stats = client.request(&Request::Stats).unwrap();
    assert_eq!(stats.get("pool_workers").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("admitted").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("rejected").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("admission_executing").unwrap().as_u64(), Some(0));

    let metrics = client.request(&Request::Metrics).unwrap();
    let body = metrics.get("body").unwrap().as_str().unwrap();
    qob_obs::validate_exposition(body).expect("exposition must parse");
    assert!(body.contains("qob_pool_workers 2"), "{body}");
    assert!(body.contains("qob_queue_wait_seconds_count 1"), "{body}");
    let summary = metrics.get("summary").unwrap();
    assert_eq!(summary.get("admitted_total").unwrap().as_u64(), Some(1));
    assert_eq!(summary.get("rejected_total").unwrap().as_u64(), Some(0));

    handle.shutdown();
    handle.join();
}

#[test]
fn history_and_trace_export_over_the_wire() {
    const TWO_WAY: &str =
        "SELECT COUNT(*) FROM title t, movie_companies mc WHERE mc.movie_id = t.id";
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    let handle = serve(
        ServerContext::with_scheduler(
            ctx,
            qob_core::SessionOptions::default(),
            qob_core::SchedulerConfig { workers: 2, max_concurrent: 2, max_queued: 4 },
        ),
        ServerConfig { addr: "127.0.0.1:0".into(), snapshot_loaded: false },
    )
    .unwrap();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Small morsels force multi-participant pipelines on the shared pool so
    // worker spans (not just submitter spans) land in the trace ring.
    for (option, value) in [("morsel_size", "32"), ("threads", "2")] {
        let ack =
            client.request(&Request::Set { option: option.into(), value: value.into() }).unwrap();
        assert_eq!(ack.get("ok").unwrap().as_bool(), Some(true));
    }

    // A statement mix: the three-way join three times, the two-way once.
    for sql in [THREE_WAY, THREE_WAY, THREE_WAY, TWO_WAY] {
        let response = client.query(sql).unwrap();
        assert_eq!(response.get("ok").unwrap().as_bool(), Some(true), "{response}");
    }

    // history: per-fingerprint counts mirror the statement mix.
    let history = client.request(&Request::History { top: None }).unwrap();
    assert_eq!(history.get("type").unwrap().as_str(), Some("history"), "{history}");
    assert_eq!(history.get("recorded").unwrap().as_u64(), Some(4));
    let fingerprints = history.get("fingerprints").unwrap().as_array().unwrap();
    assert_eq!(fingerprints.len(), 2, "two distinct structures ran");
    let counts: Vec<u64> =
        fingerprints.iter().map(|f| f.get("count").unwrap().as_u64().unwrap()).collect();
    assert_eq!(counts, vec![3, 1], "hottest first, counts match the mix");
    for entry in fingerprints {
        let hex = entry.get("fingerprint").unwrap().as_str().unwrap();
        assert_eq!(hex.len(), 16, "fingerprints travel as 16-hex-digit strings: {hex}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert!(entry.get("p50_us").unwrap().as_u64().unwrap() > 0);
        assert!(entry.get("p99_us").unwrap().as_u64().is_some());
        assert!(entry.get("last_rows").unwrap().as_u64().is_some());
    }
    assert!(history.get("regressions").unwrap().as_array().unwrap().is_empty());

    // top caps the fingerprint list without touching the totals.
    let capped = client.request(&Request::History { top: Some(1) }).unwrap();
    assert_eq!(capped.get("fingerprints").unwrap().as_array().unwrap().len(), 1);
    assert_eq!(capped.get("recorded").unwrap().as_u64(), Some(4));

    // stats: the per-worker timeline array rides along.
    let stats = client.request(&Request::Stats).unwrap();
    let workers = stats.get("workers").unwrap().as_array().unwrap();
    assert_eq!(workers.len(), 2);
    for worker in workers {
        assert!(worker.get("busy_nanos").unwrap().as_u64().is_some());
        assert!(worker.get("idle_nanos").unwrap().as_u64().is_some());
        assert!(worker.get("steals").unwrap().as_u64().is_some());
        let utilization = worker.get("utilization").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&utilization));
    }

    // trace_export: Chrome trace events, every one structurally complete.
    let trace = client.request(&Request::TraceExport).unwrap();
    assert_eq!(trace.get("type").unwrap().as_str(), Some("trace"), "{trace}");
    let events = trace.get("events").unwrap().as_array().unwrap();
    assert!(!events.is_empty());
    for event in events {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(event.get(field).is_some(), "event missing {field}: {event}");
        }
    }
    let names: Vec<&str> =
        events.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
    assert!(names.contains(&"thread_name"), "worker metadata present");
    let spans: Vec<_> =
        events.iter().filter(|e| e.get("ph").unwrap().as_str() == Some("X")).collect();
    assert!(!spans.is_empty(), "pipeline spans exported");
    assert_eq!(trace.get("span_count").unwrap().as_u64(), Some(spans.len() as u64));
    for span in &spans {
        assert!(span.get("dur").unwrap().as_u64().is_some());
        assert!(span.get("args").is_some());
    }

    // Exporting drains nothing: a second export answers at least as much.
    let again = client.request(&Request::TraceExport).unwrap();
    assert!(
        again.get("span_count").unwrap().as_u64().unwrap() >= spans.len() as u64,
        "trace export must be idempotent"
    );

    handle.shutdown();
    handle.join();
}

/// `(rows, worst_q_error)` of [`THREE_WAY`] over `client`.
fn three_way_answer(client: &mut Client) -> (u64, f64) {
    let response = client.query(THREE_WAY).unwrap();
    let results = response.get("results").unwrap().as_array().unwrap();
    (
        results[0].get("rows").unwrap().as_u64().unwrap(),
        results[0].get("worst_q_error").unwrap().as_f64().unwrap(),
    )
}

#[test]
fn concurrent_clients_get_identical_answers() {
    // A context built from session defaults, then a scheduled server with
    // eight times more connections than admission slots: the surplus must
    // queue (never be rejected), and every answer must equal the
    // sequential one.
    for (scheduler, clients, requests) in [
        (SchedulerConfig::default(), 4, 1),
        (SchedulerConfig { workers: 2, max_concurrent: 2, max_queued: 256 }, 16, 4),
    ] {
        let (handle, addr) = start_scheduled(scheduler);
        let mut control = Client::connect(&addr).unwrap();
        let baseline = three_way_answer(&mut control);

        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    (0..requests).map(|_| three_way_answer(&mut client)).collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for answer in worker.join().unwrap() {
                assert_eq!(answer, baseline, "all clients must agree ({scheduler:?})");
            }
        }

        // Every statement has answered, and a pipeline returns only once
        // its helpers are back and its tickets are off the queue, so every
        // gauge is exactly idle.
        let gauge = |stats: &qob_server::Json, name: &str| stats.get(name).unwrap().as_u64();
        let stats = control.request(&Request::Stats).unwrap();
        for name in
            ["rejected", "admission_executing", "admission_queued", "pool_busy", "pool_queue_depth"]
        {
            assert_eq!(gauge(&stats, name), Some(0), "{name} ({scheduler:?}): {stats}");
        }

        handle.shutdown();
        handle.join();
    }
}
