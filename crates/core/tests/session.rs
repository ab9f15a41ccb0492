//! The serve path through its public API: sessions over one shared
//! [`ServerContext`], their options, reports, prepared statements, plan
//! cache, metrics, event log and query history.

use std::collections::{BTreeSet, HashSet};
use std::time::Duration;

use qob_cache::PlanCache;
use qob_core::{
    BenchmarkContext, CacheOutcome, EstimatorKind, QueryReport, SchedulerConfig, ScriptOutcome,
    ServerContext, Session, SessionOptions, DEFAULT_CACHE_FENCE, DEFAULT_REGRESSION_RATIO,
};
use qob_cost::SimpleCostModel;
use qob_datagen::Scale;
use qob_enumerate::{Planner, PlannerConfig};
use qob_sql::ParamValue;
use qob_storage::IndexConfig;
use qob_workload::parse_script;

fn server() -> ServerContext {
    server_with(SessionOptions::default())
}

fn server_with(defaults: SessionOptions) -> ServerContext {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
    ServerContext::with_defaults(ctx, defaults)
}

/// A server whose default `slow_query_ms` is positive, so its event log is
/// on; `capture` buffers the lines for the test to drain.
fn logging_server() -> ServerContext {
    let server = server_with(SessionOptions { slow_query_ms: 60_000, ..SessionOptions::default() });
    server.events().capture();
    server
}

const THREE_WAY: &str = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
                         WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                           AND cn.country_code = '[us]'";

/// A 5-way join: 3-way plans have no mid-plan breaker, so adaptive
/// divergence (and thus replans) can only fire with more relations.
const FIVE_WAY: &str = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, \
                        movie_keyword mk, keyword k \
                        WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                          AND mk.movie_id = t.id AND mk.keyword_id = k.id \
                          AND cn.country_code = '[us]'";

fn query_reports(outcomes: Vec<ScriptOutcome>) -> Vec<QueryReport> {
    outcomes.into_iter().filter_map(ScriptOutcome::into_query).collect()
}

fn strip_elapsed(mut r: QueryReport) -> QueryReport {
    if let Some(exec) = &mut r.execution {
        exec.elapsed = Duration::ZERO;
    }
    r
}

#[test]
fn sessions_share_one_context_and_count_queries() {
    let server = server();
    let mut a = server.session();
    let mut b = server.session();
    assert!(std::ptr::eq(a.context(), b.context()), "both sessions see one context");

    let ra: Vec<QueryReport> =
        query_reports(a.run_script(THREE_WAY).unwrap()).into_iter().map(strip_elapsed).collect();
    let rb: Vec<QueryReport> =
        query_reports(b.run_script(THREE_WAY).unwrap()).into_iter().map(strip_elapsed).collect();
    assert_eq!(ra, rb, "reports differ only in timing");
    assert_eq!(server.queries_served(), 2);
    // The shared truth cache is visible (and fillable) from any session.
    let q = server.context().queries()[0].clone();
    server.context().true_cardinalities(&q);
    assert_eq!(server.context().truth_cache_len(), 1);
}

/// `SessionOptions::set` end to end: every accepted value changes exactly
/// the field its row names, every rejection leaves the options untouched,
/// the documented option table lists exactly the accepted names, and a
/// `SET` on one session changes nothing another session can see.
#[test]
fn set_changes_one_field_of_one_session() {
    // One `SessionOptions` runs through the rows in order and every row must
    // change it, so resets (`0`, `false`) start from a field that was set;
    // no machine has 4096 cores, so `threads 0` restores a different value.
    type Accepted = (&'static str, &'static str, fn(&mut SessionOptions));
    let accepted: [Accepted; 26] = [
        ("threads", "4096", |o| o.threads = 4096),
        ("threads", "0", |o| o.threads = qob_exec::default_threads()),
        ("timeout_ms", "1500", |o| o.timeout = Some(Duration::from_millis(1500))),
        ("timeout_ms", "0", |o| o.timeout = None),
        ("estimator", "hyper", |o| o.estimator = EstimatorKind::HyPer),
        ("estimator", "dbms-c", |o| o.estimator = EstimatorKind::DbmsC),
        ("execute", "false", |o| o.execute = false),
        ("execute", "true", |o| o.execute = true),
        ("morsel_size", "128", |o| o.morsel_size = 128),
        ("morsel_size", "0", |o| o.morsel_size = qob_exec::DEFAULT_MORSEL_SIZE),
        ("adaptive", "true", |o| o.adaptive.enabled = true),
        ("adaptive", "false", |o| o.adaptive.enabled = false),
        ("adaptive_threshold", "2.5", |o| o.adaptive.divergence_threshold = 2.5),
        ("max_replans", "7", |o| o.adaptive.max_replans = 7),
        ("plan_cache", "true", |o| o.plan_cache = true),
        ("plan_cache", "false", |o| o.plan_cache = false),
        ("cache_fence", "2.5", |o| o.cache_fence = 2.5),
        ("tracing", "true", |o| o.tracing = true),
        ("tracing", "false", |o| o.tracing = false),
        ("slow_query_ms", "250", |o| o.slow_query_ms = 250),
        ("slow_query_ms", "0", |o| o.slow_query_ms = 0),
        ("mem_budget", "5000", |o| o.mem_budget = 5000),
        ("mem_budget", "0", |o| o.mem_budget = 0),
        ("regression_ratio", "1.5", |o| o.regression_ratio = 1.5),
        ("regression_ratio", "0", |o| o.regression_ratio = 0.0),
        ("regression_ratio", "0.01", |o| o.regression_ratio = 0.01),
    ];
    let mut set = SessionOptions::default();
    let mut expected = SessionOptions::default();
    for (name, value, change) in accepted {
        let previous = set.clone();
        set.set(name, value).unwrap_or_else(|e| panic!("set {name} {value}: {e}"));
        change(&mut expected);
        assert_ne!(set, previous, "set {name} {value} changed nothing");
        assert_eq!(set, expected, "set {name} {value}");
    }

    let rejected = "threads=four estimator=oracle execute=maybe morsel_size=lots adaptive=maybe \
                    adaptive_threshold=0.5 adaptive_threshold=NaN max_replans=-1 \
                    plan_cache=maybe cache_fence=1.0 cache_fence=NaN cache_fence=wide \
                    tracing=maybe slow_query_ms=fast mem_budget=infinite regression_ratio=-1 \
                    regression_ratio=NaN regression_ratio=steep";
    for (name, value) in rejected.split_whitespace().map(|row| row.split_once('=').unwrap()) {
        let mut options = SessionOptions::default();
        assert!(options.set(name, value).is_err(), "set {name} {value} is rejected");
        assert_eq!(options, SessionOptions::default(), "a rejected set {name} {value} changed");
    }
    for (name, value) in [("bogus", "1"), ("cache_capacity", "8"), ("history", "false")] {
        let unknown = SessionOptions::default().set(name, value);
        assert_eq!(unknown, Err(format!("unknown option `{name}`")));
    }

    let names: BTreeSet<&str> = accepted.iter().map(|row| row.0).collect();
    assert_eq!(names.len(), 14);
    let protocol = include_str!("../../../docs/PROTOCOL.md");
    let section = &protocol[protocol.find("## `set`").expect("PROTOCOL.md has a set section")..];
    let documented: BTreeSet<&str> = section
        .lines()
        .skip_while(|line| !line.starts_with("| `"))
        .take_while(|line| line.starts_with("| `"))
        .map(|line| line[3..].split('`').next().unwrap())
        .collect();
    assert_eq!(documented, names, "PROTOCOL.md's set table lists exactly what set accepts");

    // Servers with the event log off and on: no SET moves the shared cache
    // or the log, or what a fresh session starts from.
    for server in [server(), logging_server()] {
        let defaults = server.session().options;
        let logging = server.events().is_enabled();
        for (name, value, _) in accepted {
            let mut a = server.session();
            a.options.set(name, value).unwrap();
            let fresh = server.session();
            assert_eq!(fresh.options, defaults, "set {name} {value} leaked into a new session");
            assert_eq!(server.plan_cache_capacity(), PlanCache::DEFAULT_CAPACITY, "set {name}");
            assert_eq!(server.events().is_enabled(), logging, "set {name} {value}");
        }
    }
}

#[test]
fn execution_options_follow_the_session_options() {
    let mut options = SessionOptions::default();
    assert!(!options.adaptive.enabled && !options.plan_cache && !options.tracing);
    assert_eq!(options.cache_fence, DEFAULT_CACHE_FENCE);
    assert_eq!(options.regression_ratio, DEFAULT_REGRESSION_RATIO);
    assert_eq!((options.slow_query_ms, options.mem_budget), (0, 0));
    let engine_budget = options.execution_options().max_intermediate_slots;

    for (name, value) in
        [("threads", "3"), ("timeout_ms", "0"), ("morsel_size", "128"), ("mem_budget", "5000")]
    {
        options.set(name, value).unwrap();
    }
    let exec = options.execution_options();
    assert_eq!((exec.threads, exec.timeout, exec.morsel_size), (3, None, 128));
    assert_eq!(exec.max_intermediate_slots, 5000);
    options.set("mem_budget", "0").unwrap();
    assert_eq!(options.execution_options().max_intermediate_slots, engine_budget);
}

#[test]
fn adaptive_session_reports_replans_and_matches_plain_rows() {
    let server = server();
    let mut plain = server.session();
    plain.options.threads = 1;
    let mut adaptive = server.session();
    adaptive.options.threads = 1;
    adaptive.options.set("adaptive", "true").unwrap();
    adaptive.options.set("adaptive_threshold", "1.5").unwrap();
    // DBMS C's magic constants misestimate almost everything, so the
    // runtime divergence check reliably fires.
    adaptive.options.set("estimator", "dbms-c").unwrap();
    plain.options.set("estimator", "dbms-c").unwrap();

    let a = query_reports(plain.run_script(FIVE_WAY).unwrap());
    let b = query_reports(adaptive.run_script(FIVE_WAY).unwrap());
    let (pa, pb) = (a[0].execution.as_ref().unwrap(), b[0].execution.as_ref().unwrap());
    assert_eq!(pa.rows, pb.rows, "adaptivity must not change results");
    assert!(pa.replans.is_empty());
    assert!(!pb.replans.is_empty(), "dbms-c misestimates enough to replan a 5-way join");
    assert_eq!(server.replans_total(), pb.replans.len() as u64);
    for replan in &pb.replans {
        assert!(replan.factor > 1.5);
        assert!(replan.after.starts_with('{'));
        assert!(!replan.resumed_plan.is_empty());
    }
}

#[test]
fn explain_only_sessions_skip_execution() {
    let server = server();
    let mut session = server.session();
    session.options.execute = false;
    let reports = query_reports(session.run_script(THREE_WAY).unwrap());
    assert_eq!(reports.len(), 1);
    assert!(reports[0].execution.is_none());
    assert!(reports[0].plan.contains("Scan"));
    assert!(reports[0].cost > 0.0);
    assert_eq!(reports[0].plan_cache, CacheOutcome::Off, "caching defaults off");
}

#[test]
fn session_errors_carry_stage_codes() {
    let server = server();
    let mut session = server.session();
    let err = session.run_script("SELECT * FROM no_such_table").unwrap_err();
    assert_eq!(err.code(), "sql_error");
    assert!(err.to_string().contains("no_such_table"));
    let err = session.run_script("   ").unwrap_err();
    assert_eq!(err.code(), "sql_error");
    // Both scripts parsed, so both record a parse time.
    assert_eq!(server.metrics().parse_latency.snapshot().count, 2);

    let mut strict = server.session();
    strict.options.timeout = Some(Duration::from_nanos(1));
    let queries = qob_workload::load_sql_str(server.context().db(), THREE_WAY).unwrap();
    let err = strict.run_query(&queries[0]).unwrap_err();
    assert_eq!(err.code(), "execute_error");
}

#[test]
fn mem_budget_aborts_an_oversized_statement() {
    let server = server();
    let mut session = server.session();
    session.options.set("mem_budget", "3").unwrap();
    let queries = qob_workload::load_sql_str(server.context().db(), THREE_WAY).unwrap();
    let err = session.run_query(&queries[0]).unwrap_err();
    assert_eq!(err.code(), "execute_error");
    assert!(err.to_string().contains("too large"), "{err}");
}

#[test]
fn scheduler_context_executes_identically_and_reports_gauges() {
    let plain = server();
    let scheduled = ServerContext::with_scheduler(
        BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap(),
        SessionOptions::default(),
        SchedulerConfig { workers: 3, max_concurrent: 2, max_queued: 8 },
    );
    let threads = SessionOptions::default().threads;
    assert_eq!(plain.pool_gauges(), (threads - 1, 0, 0), "defaults size the pool from threads");
    assert_eq!(scheduled.pool_gauges(), (3, 0, 0));

    let a = query_reports(plain.session().run_script(THREE_WAY).unwrap());
    let b = query_reports(scheduled.session().run_script(THREE_WAY).unwrap());
    assert_eq!(
        a[0].execution.as_ref().unwrap().rows,
        b[0].execution.as_ref().unwrap().rows,
        "shared-pool execution is answer-identical"
    );
    let ops_a: Vec<_> = a[0].execution.as_ref().unwrap().operators.clone();
    let ops_b: Vec<_> = b[0].execution.as_ref().unwrap().operators.clone();
    assert_eq!(ops_a.len(), ops_b.len());
    assert_eq!(scheduled.metrics().admitted_total.get(), 1);
    assert_eq!(scheduled.metrics().rejected_total.get(), 0);
    assert_eq!(scheduled.metrics().queue_wait_latency.snapshot().count, 1);
    let body = scheduled.metrics_exposition();
    assert!(body.contains("qob_pool_workers 3"), "{body}");
    assert!(body.contains("qob_admission_executing 0"), "{body}");
    qob_obs::validate_exposition(&body).expect("exposition still validates");
}

#[test]
fn default_context_statements_run_on_its_pool_and_leave_telemetry() {
    let server = server_with(SessionOptions { threads: 2, ..SessionOptions::default() });
    assert_eq!(server.pool_gauges(), (1, 0, 0));
    assert!(server.pipeline_spans().is_empty());
    let reports = query_reports(server.session().run_script(THREE_WAY).unwrap());
    let spans = server.pipeline_spans();
    assert!(!spans.is_empty(), "every pipeline records at least one span");
    assert!(spans.iter().all(|s| s.name == reports[0].name), "{spans:?}");
    assert_eq!(server.worker_timelines().len(), 1);
    assert_eq!(server.pool_gauges(), (1, 0, 0), "the statement left nothing running or queued");
}

#[test]
fn plan_cache_hits_repeat_queries_and_reports_match() {
    let server = server();
    let mut cold = server.session();
    cold.options.threads = 1;
    let mut cached = server.session();
    cached.options.threads = 1;
    cached.options.set("plan_cache", "true").unwrap();

    let baseline = strip_elapsed(query_reports(cold.run_script(THREE_WAY).unwrap()).remove(0));
    let first = strip_elapsed(query_reports(cached.run_script(THREE_WAY).unwrap()).remove(0));
    let second = strip_elapsed(query_reports(cached.run_script(THREE_WAY).unwrap()).remove(0));
    assert_eq!(first.plan_cache, CacheOutcome::Miss);
    assert_eq!(second.plan_cache, CacheOutcome::Hit);
    // Everything but the cache annotation is identical to a cold run.
    let strip = |mut r: QueryReport| {
        r.plan_cache = CacheOutcome::Off;
        r
    };
    assert_eq!(strip(first), strip(baseline.clone()));
    assert_eq!(strip(second), strip(baseline));

    let counters = server.plan_cache_counters();
    assert_eq!(counters.hits, 1);
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.installs, 1);
    assert_eq!(server.plan_cache_len(), 1);

    // A different literal under the same structure reuses the same
    // fingerprint (automatic parameterization) — whether it hits or
    // fences depends on how far the estimates move, but it never
    // misses.
    let shifted = THREE_WAY.replace("'[us]'", "'[gb]'");
    let report = query_reports(cached.run_script(&shifted).unwrap()).remove(0);
    assert_ne!(report.plan_cache, CacheOutcome::Miss);
    // A different estimator profile keys separately.
    cached.options.set("estimator", "hyper").unwrap();
    let other = query_reports(cached.run_script(THREE_WAY).unwrap()).remove(0);
    assert_eq!(other.plan_cache, CacheOutcome::Miss);
}

#[test]
fn explain_statements_report_plans_and_annotations() {
    let server = server();
    let mut session = server.session();
    session.options.threads = 1;
    let plain =
        query_reports(session.run_script(&format!("EXPLAIN {THREE_WAY}")).unwrap()).remove(0);
    assert!(plain.execution.is_none(), "EXPLAIN stops after planning");
    assert!(plain.plan.contains("Scan"), "{}", plain.plan);

    let analyzed =
        query_reports(session.run_script(&format!("EXPLAIN ANALYZE {THREE_WAY}")).unwrap())
            .remove(0);
    let exec = analyzed.execution.as_ref().expect("EXPLAIN ANALYZE executes");
    assert!(analyzed.trace.is_some(), "EXPLAIN ANALYZE forces tracing for itself");
    for needle in ["est=", "true=", "q=", "time=", "morsels="] {
        assert!(analyzed.plan.contains(needle), "`{needle}` in:\n{}", analyzed.plan);
    }

    let direct = query_reports(session.run_script(THREE_WAY).unwrap()).remove(0);
    assert_eq!(exec.rows, direct.execution.as_ref().unwrap().rows);
    assert!(direct.trace.is_none(), "forced tracing is statement-scoped");
}

/// Under adaptive execution `EXPLAIN ANALYZE` annotates the plan that ran:
/// wherever a re-plan changed the plan, every join line carries its true
/// count, because the annotated tree is the final, spliced plan.
#[test]
fn adaptive_explain_analyze_annotates_the_plan_that_ran() {
    let server = server();
    let mut session = server.session();
    for (name, value) in [("threads", "1"), ("adaptive", "true"), ("adaptive_threshold", "1.5")] {
        session.options.set(name, value).unwrap();
    }
    let job = include_str!("../../workload/sql/job.sql");
    let script = job.replace("\nSELECT", "\nEXPLAIN ANALYZE SELECT");
    let mut changed = 0;
    for report in query_reports(session.run_script(&script).unwrap()) {
        let exec = report.execution.as_ref().expect("EXPLAIN ANALYZE executes");
        if !exec.replans.iter().any(|e| e.changed) {
            continue;
        }
        changed += 1;
        for line in report.plan.lines().filter(|l| !l.trim_start().starts_with("Scan")) {
            assert!(line.contains("true="), "{}: `{line}` in\n{}", report.name, report.plan);
        }
    }
    assert!(changed > 0, "a 1.5x threshold changes some JOB plan");
}

/// The report prices the plan execution finished on next to the chosen
/// one, on the same basis: JOB 13a re-plans at a 1.5x threshold, its
/// `final_cost` differs from `cost`, and re-costing the chosen plan the same
/// way reproduces `cost`.  Without a changed re-plan there is no
/// `final_cost`.
#[test]
fn adaptive_reports_price_the_final_plan_like_the_chosen_one() {
    let server = server();
    let mut session = server.session();
    for (name, value) in [("threads", "1"), ("adaptive", "true"), ("adaptive_threshold", "1.5")] {
        session.options.set(name, value).unwrap();
    }
    let ctx = server.context();
    let query = ctx.query("13a").unwrap();
    let report = session.run_query(&query).unwrap();
    let exec = report.execution.as_ref().unwrap();
    assert!(exec.replans.iter().any(|e| e.changed), "13a re-plans at a 1.5x threshold");
    let final_cost = exec.final_cost.expect("a changed re-plan reports the final plan's cost");
    assert!(final_cost > 0.0 && final_cost != report.cost, "{final_cost} vs {}", report.cost);

    let estimator = ctx.estimator(EstimatorKind::Postgres);
    let chosen = ctx.optimize(&query, estimator.as_ref(), PlannerConfig::default()).unwrap();
    let model = SimpleCostModel::new();
    let planner =
        Planner::new(ctx.db(), &query, &model, estimator.as_ref(), PlannerConfig::default());
    let recosted = planner.cost_of(&chosen.plan);
    assert_eq!(chosen.cost, report.cost, "the session plans like the context");
    assert_eq!(recosted.to_bits(), report.cost.to_bits(), "{recosted} vs {}", report.cost);

    session.options.set("adaptive_threshold", "1000000").unwrap();
    let calm = session.run_query(&query).unwrap();
    assert_eq!(calm.execution.unwrap().final_cost, None, "no changed re-plan, no final cost");
}

#[test]
fn metrics_expose_counters_that_match_reports() {
    let server = server();
    let mut session = server.session();
    session.run_script(THREE_WAY).unwrap();
    session.run_script(THREE_WAY).unwrap();
    assert!(session.run_script("SELECT * FROM no_such_table").is_err());

    let m = server.metrics();
    assert_eq!(m.queries_total.get(), 2, "bind errors never reach the runner");
    assert_eq!(m.query_errors_total.get(), 1);
    assert_eq!(m.query_latency.snapshot().count, 2);
    assert_eq!(m.execute_latency.snapshot().count, 2);

    let body = server.metrics_exposition();
    qob_obs::validate_exposition(&body).expect("exposition parses");
    assert!(body.contains("qob_queries_total 2"), "{body}");
    assert!(body.contains("qob_query_errors_total 1"), "{body}");
    assert!(body.contains("qob_execute_seconds_count 2"), "{body}");
    assert!(body.contains("qob_plan_cache_entries 0"), "{body}");
}

#[test]
fn every_failed_statement_counts_exactly_once() {
    let server = server();
    let mut session = server.session();
    session.options.execute = false;
    let errors = || {
        let body = server.metrics_exposition();
        let line = body.lines().find(|l| l.starts_with("qob_query_errors_total ")).unwrap();
        line["qob_query_errors_total ".len()..].parse::<u64>().unwrap()
    };
    session.prepare("p", "SELECT COUNT(*) FROM title t WHERE t.production_year > ?").unwrap();
    // Parses (PREPARE never binds), fails to bind at EXECUTE.
    session.prepare("unbindable", "SELECT COUNT(*) FROM nope n WHERE n.a = ?").unwrap();
    type Failure = (&'static str, fn(&mut Session) -> bool);
    let failures: [Failure; 14] = [
        ("script: no statements", |s| s.run_script("   ").is_err()),
        ("script: EXECUTE of an unknown name", |s| s.run_script("EXECUTE nope(1)").is_err()),
        ("script: wrong arity", |s| s.run_script("EXECUTE p(1, 2)").is_err()),
        ("script: bad argument", |s| s.run_script("EXECUTE p($1)").is_err()),
        ("script: bind error at EXECUTE", |s| s.run_script("EXECUTE unbindable(1)").is_err()),
        ("script: duplicate PREPARE", |s| {
            s.run_script("PREPARE p AS SELECT COUNT(*) FROM title t").is_err()
        }),
        ("script: DEALLOCATE of an unknown name", |s| s.run_script("DEALLOCATE nope").is_err()),
        ("script: SELECT that fails to bind", |s| {
            s.run_script("SELECT COUNT(*) FROM no_such_table x").is_err()
        }),
        ("script: SELECT that fails to parse", |s| s.run_script("SELECT COUNT(* FROM").is_err()),
        ("wire: EXECUTE of an unknown name", |s| s.execute_prepared("nope", &[]).is_err()),
        ("wire: wrong arity", |s| s.execute_prepared("p", &[]).is_err()),
        ("wire: bind error at EXECUTE", |s| {
            s.execute_prepared("unbindable", &[ParamValue::Int(1)]).is_err()
        }),
        ("wire: duplicate PREPARE", |s| s.prepare("p", THREE_WAY).is_err()),
        ("wire: DEALLOCATE of an unknown name", |s| s.deallocate("nope").is_err()),
    ];
    for (label, fails) in failures {
        let before = errors();
        assert!(fails(&mut session), "{label} fails");
        assert_eq!(errors(), before + 1, "{label} counts exactly once");
    }
    // Successes count nothing.
    let before = errors();
    session.run_script("EXECUTE p(2000); DEALLOCATE p;").unwrap();
    assert_eq!(errors(), before);
}

#[test]
fn event_log_follows_the_server_default_and_records_replans_and_evictions() {
    // DBMS C's magic constants misestimate enough to replan FIVE_WAY.
    let adaptive = |session: &mut Session| {
        session.options.threads = 1;
        for (name, value) in
            [("adaptive", "true"), ("adaptive_threshold", "1.5"), ("estimator", "dbms-c")]
        {
            session.options.set(name, value).unwrap();
        }
    };

    // Log off at the server: replans fire but nothing is written, and a
    // session's own slow_query_ms only moves its threshold.
    let quiet = server();
    quiet.events().capture();
    let mut session = quiet.session();
    adaptive(&mut session);
    session.options.set("slow_query_ms", "60000").unwrap();
    let r = query_reports(session.run_script(FIVE_WAY).unwrap()).remove(0);
    assert!(!r.execution.unwrap().replans.is_empty(), "dbms-c reliably replans");
    assert!(!quiet.events().is_enabled(), "a session's SET never switches the log on");
    assert!(quiet.events().drain().is_empty(), "disabled log writes nothing");

    // A positive server default switches the log on for every session.
    let server = logging_server();
    let mut session = server.session();
    adaptive(&mut session);
    session.options.set("slow_query_ms", "0").unwrap();
    assert!(server.events().is_enabled(), "a session's zero never switches the log off");
    session.run_script(FIVE_WAY).unwrap();
    let lines = server.events().drain();
    assert!(lines.iter().all(|l| l.starts_with("{\"event\":")), "{lines:?}");
    assert!(lines.iter().any(|l| l.contains("\"event\":\"replan\"")), "{lines:?}");

    // Evictions without a capacity knob: planning JOB under three
    // estimator profiles installs more keys than the shared cache holds.
    // Each pass installs keys the earlier passes never touch again, so
    // every key past the capacity evicts exactly one first-pass key.
    let mut planner = server.session();
    planner.options.execute = false;
    planner.options.plan_cache = true;
    let queries = server.context().queries().to_vec();
    let fingerprints: HashSet<_> = queries.iter().map(qob_cache::fingerprint_query).collect();
    let keys = 3 * fingerprints.len();
    assert!(keys > PlanCache::DEFAULT_CAPACITY, "{keys} keys must overflow the cache");
    for estimator in ["postgres", "hyper", "dbms-a"] {
        planner.options.set("estimator", estimator).unwrap();
        for query in &queries {
            planner.run_query(query).unwrap_or_else(|e| panic!("{}: {e}", query.name));
        }
    }
    let evicted = (keys - PlanCache::DEFAULT_CAPACITY) as u64;
    assert_eq!(server.plan_cache_counters().evictions, evicted);
    assert_eq!(server.plan_cache_len(), PlanCache::DEFAULT_CAPACITY);
    let lines = server.events().drain();
    let evictions: Vec<&String> =
        lines.iter().filter(|l| l.contains("\"event\":\"eviction\"")).collect();
    assert_eq!(evictions.len() as u64, evicted, "one event per evicting install");
    assert!(evictions.iter().all(|l| l.contains("\"evicted\":1,")), "{evictions:?}");
}

#[test]
fn executed_statements_record_per_fingerprint_history() {
    let server = server();
    let mut session = server.session();
    session.options.threads = 1;
    session.run_script(THREE_WAY).unwrap();
    session.run_script(THREE_WAY).unwrap();
    session.run_script(FIVE_WAY).unwrap();
    assert_eq!(server.history().recorded(), 3);
    let snap = server.history().snapshot();
    assert_eq!(snap.fingerprints.len(), 2, "two distinct statement structures");
    let hottest = &snap.fingerprints[0];
    assert_eq!(hottest.count, 2, "the repeated statement is hottest");
    assert!(hottest.p50_us > 0.0 && hottest.p50_us <= hottest.p99_us);
    assert!(hottest.last_rows > 0 || hottest.last_seq > 0);
    assert!(snap.regressions.is_empty(), "nothing regressed at the default ratio");

    // Explain-only statements never reach the history.
    let mut explain = server.session();
    explain.options.execute = false;
    explain.run_script(THREE_WAY).unwrap();
    assert_eq!(server.history().recorded(), 3);
}

#[test]
fn forced_regression_fires_the_event_and_counter_once() {
    let server = logging_server();
    let mut session = server.session();
    session.options.threads = 1;
    // A sub-1 ratio makes any flat latency series count as a
    // regression the moment both windows are full — the CI forcing
    // path.
    session.options.set("regression_ratio", "0.01").unwrap();
    let windows = qob_obs::BASELINE_WINDOW + qob_obs::RECENT_WINDOW;
    for _ in 0..windows + 2 {
        session.run_script(THREE_WAY).unwrap();
    }
    assert_eq!(
        server.metrics().regressions_total.get(),
        1,
        "the detector latches: one crossing, one regression"
    );
    let snap = server.history().snapshot();
    assert_eq!(snap.regressions.len(), 1);
    assert_eq!(snap.fingerprints[0].regressions, 1);
    let lines = server.events().drain();
    let regression: Vec<&String> =
        lines.iter().filter(|l| l.contains("\"event\":\"regression\"")).collect();
    assert_eq!(regression.len(), 1, "{lines:?}");
    for field in ["\"query\":", "\"baseline_us\":", "\"recent_us\":", "\"factor\":", "\"seq\":"] {
        assert!(regression[0].contains(field), "`{field}` in {}", regression[0]);
    }
    let body = server.metrics_exposition();
    assert!(body.contains("qob_regressions_total 1"), "{body}");
}

#[test]
fn storage_gauges_are_labelled_per_table() {
    let server = server();
    let body = server.metrics_exposition();
    qob_obs::validate_exposition(&body).expect("labelled exposition validates");
    assert!(body.contains("qob_storage_encoded_bytes{table=\"title\"}"), "{body}");
    assert!(body.contains("qob_storage_plain_bytes{table=\"movie_companies\"}"), "{body}");
    assert_eq!(
        body.matches("# TYPE qob_storage_encoded_bytes gauge").count(),
        1,
        "one family header however many tables"
    );
    assert!(body.contains("qob_storage_compression_ratio_x100"), "{body}");
}

#[test]
fn prepared_statements_roundtrip_through_the_session() {
    let server = server();
    let mut session = server.session();
    session.options.threads = 1;
    let params = session
        .prepare(
            "by_country",
            "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
             WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
               AND cn.country_code = ?",
        )
        .unwrap();
    assert_eq!(params, 1);

    let report = session.execute_prepared("by_country", &[ParamValue::Str("[us]".into())]).unwrap();
    let direct = query_reports(session.run_script(THREE_WAY).unwrap()).remove(0);
    assert_eq!(
        report.execution.as_ref().unwrap().rows,
        direct.execution.as_ref().unwrap().rows,
        "prepared execution answers exactly like the inline statement"
    );
    assert_eq!(report.name, "by_country");

    // Wrong arity and unknown names are session errors.
    assert!(session.execute_prepared("by_country", &[]).is_err());
    assert!(session.execute_prepared("nope", &[]).is_err());
    // Duplicate names are rejected until deallocated.
    assert!(session.prepare("by_country", THREE_WAY).is_err());
    session.deallocate("by_country").unwrap();
    assert!(session.deallocate("by_country").is_err());
    let gone = session.execute_prepared("by_country", &[ParamValue::Str("[us]".into())]);
    assert!(gone.unwrap_err().to_string().contains("no prepared statement named `by_country`"));
}

#[test]
fn scripts_drive_prepare_execute_deallocate() {
    let server = server();
    let mut session = server.session();
    session.options.threads = 1;
    let script = "\
        PREPARE by_year AS SELECT COUNT(*) FROM title t, movie_companies mc \
        WHERE mc.movie_id = t.id AND t.production_year > $1;\n\
        EXECUTE by_year(2000);\n\
        EXECUTE by_year(1990);\n\
        DEALLOCATE by_year;";
    let outcomes = session.run_script(script).unwrap();
    assert_eq!(outcomes.len(), 4);
    assert_eq!(outcomes[0], ScriptOutcome::Prepared { name: "by_year".into(), params: 1 });
    let r1 = outcomes[1].as_query().unwrap();
    let r2 = outcomes[2].as_query().unwrap();
    assert_eq!(r1.name, "by_year");
    assert!(
        r1.execution.as_ref().unwrap().rows <= r2.execution.as_ref().unwrap().rows,
        "`> 2000` is at least as selective as `> 1990`"
    );
    assert_eq!(outcomes[3], ScriptOutcome::Deallocated { name: "by_year".into() });
    // The prepared name is gone afterwards.
    assert!(session.run_script("EXECUTE by_year(1950)").is_err());
}

#[test]
fn sessions_prepared_statements_are_private() {
    let server = server();
    let mut a = server.session();
    let mut b = server.session();
    a.options.execute = false;
    a.prepare("mine", "SELECT COUNT(*) FROM title t WHERE t.production_year > ?").unwrap();
    assert!(a.execute_prepared("mine", &[ParamValue::Int(2000)]).is_ok());
    let err = b.execute_prepared("mine", &[ParamValue::Int(2000)]).unwrap_err();
    assert!(err.to_string().contains("no prepared statement named `mine`"), "{err}");
    // b may register the same name without clashing with a's.
    b.prepare("mine", "SELECT COUNT(*) FROM title t WHERE t.production_year < ?").unwrap();
}

#[test]
fn run_statement_attributes_the_given_parse_time() {
    let server = server();
    let mut session = server.session();
    session.options.tracing = true;
    let parsed = parse_script(THREE_WAY).unwrap();
    let parse_elapsed = Duration::from_micros(1_234);
    let outcome = session.run_statement(&parsed[0], parse_elapsed).unwrap();
    let trace = outcome.as_query().unwrap().trace.expect("traced report");
    assert_eq!(u128::from(trace.parse_us), parse_elapsed.as_micros());
    assert!(trace.optimize_us > 0, "optimization takes measurable time");
}

/// Every number a session reports for the 113 JOB statements under all six
/// estimator profiles, with adaptive re-planning and the plan cache on,
/// folded into one digest: the chosen plan, its cost and cache outcome,
/// each operator's estimate, true count and q-error (as bits), and every
/// field of every re-plan event.  A change to how the serve path asks for
/// estimates must leave it unchanged.
#[test]
fn job_reports_under_every_profile_are_pinned() {
    use std::fmt::Write as _;
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let server = ServerContext::new(ctx);
    let mut out = String::new();
    let (mut statements, mut replans) = (0, 0);
    for profile in ["postgres", "true-distinct", "hyper", "dbms-a", "dbms-b", "dbms-c"] {
        let mut session = server.session();
        for (name, value) in [
            ("estimator", profile),
            ("threads", "1"),
            ("adaptive", "true"),
            ("adaptive_threshold", "2.0"),
            ("plan_cache", "true"),
        ] {
            session.options.set(name, value).unwrap();
        }
        for query in server.context().queries() {
            let r = session.run_query(query).unwrap();
            let exec = r.execution.as_ref().expect("the session executes");
            let _ = writeln!(
                out,
                "{} {} {:x} {:?}",
                r.name,
                r.estimator,
                r.cost.to_bits(),
                r.plan_cache
            );
            let _ = writeln!(
                out,
                "{}{} rows, worst {:x}",
                r.plan,
                exec.rows,
                exec.worst_q_error.to_bits()
            );
            for op in &exec.operators {
                let (est, q) = (op.estimated.to_bits(), op.q_error.to_bits());
                let _ = writeln!(out, "{} {est:x} {} {q:x}", op.relations, op.true_rows);
            }
            for e in &exec.replans {
                let (est, factor) = (e.estimated.to_bits(), e.factor.to_bits());
                let _ =
                    writeln!(out, "{} {est:x} {} {factor:x} {}", e.after, e.observed, e.changed);
                out.push_str(&e.resumed_plan);
            }
            statements += 1;
            replans += exec.replans.len();
        }
    }
    assert_eq!(statements, 6 * 113);
    assert!(replans > 0, "a 2x threshold re-plans somewhere in JOB");
    let digest = qob_storage::encoding::fnv1a64(out.as_bytes());
    assert_eq!(digest, 0xcf3f_c7bd_18e8_5578, "digest {digest:#018x} over {replans} re-plans");
}
