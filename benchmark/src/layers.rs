//! The traced pass: per-layer metrics, measured from outside.
//!
//! Each op of one pass is replayed as the explicit chain of public calls the
//! session makes on its behalf — `qob_sql::compile` → `fingerprint_query` +
//! `PlanCache::lookup` → `BenchmarkContext::optimize` (through a timing and
//! counting `CardinalityEstimator` decorator) → `BenchmarkContext::execute` —
//! with one span per call.  The same ops then go through an in-process
//! `Session` (what does the session add on top of its children?) and, for
//! `wire_hot`, through a `Client` (what does the wire add on top of the
//! session?).  Storage is probed directly: standalone ingest, ANALYZE, a lazy
//! point read, and page decoding over the two largest tables.
//!
//! End-to-end numbers never come from here; they come from the untraced run.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use qob_cache::{fingerprint_query, CachedVariant, Lookup, PlanCache};
use qob_cardest::CardinalityEstimator;
use qob_core::{BenchmarkContext, EstimatorKind, DEFAULT_CACHE_FENCE};
use qob_enumerate::PlannerConfig;
use qob_exec::ExecutionOptions;
use qob_plan::{QuerySpec, RelSet};
use qob_server::{Json, Request};
use qob_sql::{ParamValue, SelectStatement};
use qob_storage::encoding::{CodeEncoding, IntEncoding};
use qob_storage::{ColumnId, DataType, EncodingPolicy};

use crate::ops::{op_list, Domain, Op, Statement};
use crate::stats::Samples;
use crate::trace::{chrome_trace, layer_totals, Recorder, Span};
use crate::workload::{verify, wire_outcome, wire_request, Env, Outcome, Target};

/// Where the Chrome trace of a workload's traced pass is written.
fn trace_path(workload_name: &str) -> std::path::PathBuf {
    std::path::Path::new("benchmark/out").join(format!("trace-{workload_name}.json"))
}

/// Times and counts every call into the wrapped estimator.
struct TimedEstimator<'a> {
    inner: &'a dyn CardinalityEstimator,
    nanos: Cell<u64>,
    calls: Cell<u64>,
}

impl CardinalityEstimator for TimedEstimator<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
        let started = Instant::now();
        let estimate = self.inner.estimate(query, set);
        self.nanos.set(self.nanos.get() + started.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        estimate
    }
}

/// Fixed-work counts of a chain pass; they repeat exactly for a given seed.
#[derive(Default)]
struct Counts {
    estimate_calls: u64,
    tuples_out: u64,
    lookups: u64,
    hits: u64,
    fence_rejects: u64,
}

/// Everything the chain needs besides the op.
struct Chain<'a> {
    ctx: &'a BenchmarkContext,
    estimator: Box<dyn CardinalityEstimator + 'a>,
    /// The chain's own plan cache (`None` for the cache-off workloads).
    cache: Option<PlanCache>,
    executes: bool,
    exec_options: ExecutionOptions,
    /// Parsed bodies of the parameterized statements — what `PREPARE` keeps.
    prepared: Vec<Option<SelectStatement>>,
    counts: Counts,
}

impl Chain<'_> {
    /// Replays one op call by call, one span per call under one `op` span.
    fn replay(
        &mut self,
        rec: &mut Recorder,
        id: u64,
        statement: &Statement,
        op: Op,
    ) -> Result<Outcome, String> {
        let Chain { ctx, estimator, cache, executes, exec_options, prepared, counts } = self;
        let ctx: &BenchmarkContext = ctx;
        let estimator: &dyn CardinalityEstimator = estimator.as_ref();
        rec.labelled_span("op", id, &statement.key, |rec| {
            let query = rec
                .span("sql.compile", id, |_| match &prepared[op.statement] {
                    None => qob_sql::compile(ctx.db(), &statement.sql, statement.key.as_str()),
                    Some(body) => {
                        let values: Vec<ParamValue> = statement.params[op.variant]
                            .iter()
                            .map(|v| ParamValue::Int(*v))
                            .collect();
                        qob_sql::substitute_params(body, &values).and_then(|filled| {
                            qob_sql::bind(ctx.db(), &filled, statement.key.as_str())
                        })
                    }
                })
                .map_err(|e| e.to_string())?;

            let optimize = |rec: &mut Recorder, counts: &mut Counts| {
                rec.span("enumerate.optimize", id, |rec| {
                    if !rec.is_enabled() {
                        return ctx
                            .optimize(&query, estimator, PlannerConfig::default())
                            .map_err(|e| e.to_string());
                    }
                    let timed = TimedEstimator {
                        inner: estimator,
                        nanos: Cell::new(0),
                        calls: Cell::new(0),
                    };
                    let optimized = ctx.optimize(&query, &timed, PlannerConfig::default());
                    rec.aggregate_child("cardest.estimate", id, timed.nanos.get());
                    counts.estimate_calls += timed.calls.get();
                    optimized.map_err(|e| e.to_string())
                })
            };
            let (plan, cost) = match cache {
                None => {
                    let optimized = optimize(rec, counts)?;
                    (optimized.plan, optimized.cost)
                }
                Some(cache) => {
                    // As the session does: the estimator profile is part of
                    // the key, and fresh estimates are memoized per probe.
                    let memo = RefCell::new(HashMap::<RelSet, f64>::new());
                    let estimate = |set: RelSet| {
                        *memo
                            .borrow_mut()
                            .entry(set)
                            .or_insert_with(|| estimator.estimate(&query, set))
                    };
                    let (key, probe) = rec.span("cache.lookup", id, |_| {
                        let key = fingerprint_query(&query).mix(EstimatorKind::Postgres as u64);
                        (key, cache.lookup(key, DEFAULT_CACHE_FENCE, &estimate))
                    });
                    counts.lookups += 1;
                    match probe {
                        Lookup::Hit { variant, .. } => {
                            counts.hits += 1;
                            (variant.plan, variant.cost)
                        }
                        miss => {
                            if matches!(miss, Lookup::FenceRejected { .. }) {
                                counts.fence_rejects += 1;
                            }
                            let optimized = optimize(rec, counts)?;
                            rec.span("cache.install", id, |_| {
                                let variant = CachedVariant::capture(
                                    &optimized.plan,
                                    optimized.cost,
                                    &estimate,
                                );
                                cache.install(key, variant);
                            });
                            (optimized.plan, optimized.cost)
                        }
                    }
                }
            };

            if !*executes {
                return Ok(Outcome { answer: query.rel_count() as u64, cost });
            }
            let result = rec
                .span("exec.execute", id, |_| ctx.execute(&query, &plan, estimator, exec_options))
                .map_err(|e| e.to_string())?;
            // Tuples every operator produced: the join outputs, or the scan's
            // output for a plan without joins.
            counts.tuples_out += if result.operator_cardinalities.is_empty() {
                result.rows
            } else {
                result.operator_cardinalities.iter().map(|(_, rows)| rows).sum()
            };
            Ok(Outcome { answer: result.rows, cost })
        })
    }
}

/// Mean microseconds per op of the spans named `names`.
fn per_op_us(totals: &BTreeMap<&'static str, (u64, u64)>, names: &[&str], ops: usize) -> f64 {
    let ns: u64 = names.iter().filter_map(|n| totals.get(n)).map(|(self_ns, _)| self_ns).sum();
    ns as f64 / 1e3 / ops as f64
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Replays one pass traced, probes the storage layer, writes the Chrome
/// trace, and returns every per-layer metric by name.
pub fn traced_pass(
    env: &Env,
    target: &mut Target,
    domain: &Domain,
    queue_wait_us: f64,
    totals: &mut Samples,
) -> Result<Vec<(String, Json)>, String> {
    let Target { server, session, wire } = target;
    let ctx = server.context();
    let ops = op_list(env.workload, domain, env.seed, 0);
    let mut chain = Chain {
        ctx,
        estimator: ctx.estimator(EstimatorKind::Postgres),
        cache: env.workload.plan_cache().then(|| PlanCache::new(PlanCache::DEFAULT_CAPACITY)),
        executes: env.workload.executes(),
        // `wire_hot` statements execute on a shared pool, as on the server;
        // the rest scope their own threads per statement, as their sessions do.
        exec_options: ExecutionOptions::with_threads(env.threads).with_pool(
            wire.is_some().then(|| std::sync::Arc::new(qob_exec::WorkerPool::new(env.threads))),
        ),
        prepared: domain
            .statements
            .iter()
            .map(|s| match s.params.is_empty() {
                true => Ok(None),
                false => qob_sql::parse_statement(&s.sql).map(Some).map_err(|e| e.to_string()),
            })
            .collect::<Result<_, _>>()?,
        counts: Counts::default(),
    };

    // 1. The chain, twice: first with the recorder off — the baseline of the
    // tracing overhead, and the pass that warms the chain's own plan cache,
    // which like the session's is measured warm — then traced.
    let mut chain_pass = |rec: &mut Recorder, totals: &mut Samples| {
        chain.counts = Counts::default();
        let started = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            let statement = &domain.statements[op.statement];
            let outcome = chain.replay(rec, i as u64, statement, *op);
            totals.record(
                outcome.and_then(|o| verify(statement, op.variant, &o)).map(|()| Duration::ZERO),
            );
        }
        started.elapsed()
    };
    let untraced = chain_pass(&mut Recorder::disabled(), totals);
    let mut rec = Recorder::new();
    let traced = chain_pass(&mut rec, totals);
    let counts = std::mem::take(&mut chain.counts);
    drop(chain);
    let mut threads: Vec<Vec<Span>> = vec![rec.into_spans()];
    let chain_totals = layer_totals(&threads[0]);
    let op_ns: u64 =
        threads[0].iter().filter(|s| s.name == "op").map(|s| s.end_ns - s.start_ns).sum();
    let exec_ns = chain_totals.get("exec.execute").map_or(0, |t| t.0);

    // 2. The same ops through the in-process session: what it adds on top of
    // the phases it times itself.
    session.options.tracing = true;
    let mut rec = Recorder::new();
    let mut session_walls = Vec::with_capacity(ops.len());
    let mut session_self_us = 0.0;
    for (i, op) in ops.iter().enumerate() {
        let statement = &domain.statements[op.statement];
        let started = Instant::now();
        let report =
            rec.labelled_span("core.session", i as u64, &statement.key, |_| {
                match statement.params.get(op.variant) {
                    None => session
                        .run_script(&statement.sql)
                        .map(|mut outcomes| outcomes.swap_remove(0).into_query()),
                    Some(tuple) => {
                        let values: Vec<ParamValue> =
                            tuple.iter().map(|v| ParamValue::Int(*v)).collect();
                        session.execute_prepared(&statement.key, &values).map(Some)
                    }
                }
            });
        let wall = started.elapsed();
        session_walls.push(wall);
        let report = report
            .map_err(|e| e.to_string())
            .and_then(|r| r.ok_or_else(|| "no query report".to_owned()));
        let phases = report
            .as_ref()
            .ok()
            .and_then(|r| r.trace.as_ref())
            .map_or(0, |t| t.parse_us + t.bind_us + t.optimize_us + t.queue_us + t.execute_us);
        session_self_us += (micros(wall) - phases as f64).max(0.0);
        totals.record(report.and_then(|r| {
            let answer = r.execution.as_ref().map_or(r.relations as u64, |e| e.rows);
            verify(statement, op.variant, &Outcome { answer, cost: r.cost }).map(|()| wall)
        }));
    }
    session.options.tracing = false;
    threads.push(rec.into_spans());

    // 3. `wire_hot`: the same ops over one connection, bare pings, and a few
    // round trips through the library's own client.
    let (mut wire_self_us, mut ping_us, mut response_bytes, mut client_lib_us) =
        (0.0, 0.0, 0.0, 0.0);
    if let Some((handle, clients)) = wire {
        let client = &mut clients[0];
        let mut rec = Recorder::new();
        for (i, op) in ops.iter().enumerate() {
            let statement = &domain.statements[op.statement];
            let started = Instant::now();
            let response = rec.labelled_span("server.wire", i as u64, &statement.key, |_| {
                wire_request(client, statement, op.variant)
            });
            let round_trip = started.elapsed();
            wire_self_us += micros(round_trip) - micros(session_walls[i]);
            let outcome = response.and_then(|r| {
                response_bytes += (r.to_string().len() + 1) as f64;
                wire_outcome(&r)
            });
            totals.record(
                outcome.and_then(|o| verify(statement, op.variant, &o)).map(|()| round_trip),
            );
        }
        threads.push(rec.into_spans());
        const PINGS: u32 = 200;
        let started = Instant::now();
        for _ in 0..PINGS {
            client.request(&Request::Ping).map_err(|e| format!("ping: {e}"))?;
        }
        ping_us = micros(started.elapsed()) / f64::from(PINGS);

        const LIB_ROUND_TRIPS: usize = 25;
        let mut lib = qob_server::Client::connect(&handle.local_addr().to_string())
            .map_err(|e| format!("library client: {e}"))?;
        let started = Instant::now();
        for _ in 0..LIB_ROUND_TRIPS {
            lib.request(&Request::Ping).map_err(|e| format!("library client ping: {e}"))?;
        }
        client_lib_us = micros(started.elapsed()) / LIB_ROUND_TRIPS as f64;
        wire_self_us /= ops.len() as f64;
        response_bytes /= ops.len() as f64;
    }

    let path = trace_path(env.workload.name());
    std::fs::write(&path, chrome_trace(&threads))
        .map_err(|e| format!("`{}`: {e}", path.display()))?;

    let n = ops.len();
    let mut metrics: Vec<(String, Json)> = [
        ("sql.compile_us", per_op_us(&chain_totals, &["sql.compile"], n)),
        ("cardest.estimate_us", per_op_us(&chain_totals, &["cardest.estimate"], n)),
        ("cardest.estimate_calls", counts.estimate_calls as f64),
        ("enumerate.optimize_self_us", per_op_us(&chain_totals, &["enumerate.optimize"], n)),
        ("cache.lookup_us", per_op_us(&chain_totals, &["cache.lookup", "cache.install"], n)),
        (
            "cache.hit_ratio",
            if counts.lookups == 0 { 0.0 } else { counts.hits as f64 / counts.lookups as f64 },
        ),
        ("cache.fence_rejects", counts.fence_rejects as f64),
        ("exec.execute_us", per_op_us(&chain_totals, &["exec.execute"], n)),
        ("exec.tuples_out", counts.tuples_out as f64),
        (
            "exec.tuples_per_s",
            if exec_ns == 0 { 0.0 } else { counts.tuples_out as f64 / (exec_ns as f64 / 1e9) },
        ),
        ("bench.chain_self_us", per_op_us(&chain_totals, &["op"], n)),
        ("bench.traced_op_us", op_ns as f64 / 1e3 / n as f64),
        ("core.session_self_us", session_self_us / n as f64),
        ("core.queue_wait_us", queue_wait_us),
        ("server.wire_self_us", wire_self_us),
        ("server.ping_us", ping_us),
        ("server.response_bytes", response_bytes),
        ("server.client_lib_us", client_lib_us),
        // 1 − traced ÷ untraced statements per second of the same chain on
        // the same ops: what the spans and the timing decorator cost.
        ("obs.trace_overhead_share", 1.0 - untraced.as_secs_f64() / traced.as_secs_f64()),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_owned(), Json::Num(value)))
    .collect();
    metrics.extend(
        storage_probes(env, ctx)?
            .into_iter()
            .map(|(name, value)| (name.to_owned(), Json::Num(value))),
    );
    Ok(metrics)
}

/// Storage measured on its own: the write side (`ingest`, ANALYZE) that
/// `setup_s` pays, and the read side (page decode, lazy faulting) that
/// `scan_filter` and `peak_rss_mb` pay.
fn storage_probes(env: &Env, ctx: &BenchmarkContext) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();

    let started = Instant::now();
    let (tables, report) = qob_storage::ingest_csv_dir(
        env.csv_dir(),
        &qob_datagen::imdb_schema(),
        EncodingPolicy::Auto,
        env.threads,
    )
    .map_err(|e| format!("storage ingest: {e}"))?;
    out.push((
        "storage.ingest_rows_per_s",
        report.total_rows() as f64 / started.elapsed().as_secs_f64(),
    ));
    drop(tables);

    let started = Instant::now();
    black_box(qob_stats::analyze_database(ctx.db(), &qob_stats::AnalyzeOptions::default()));
    out.push(("stats.build_s", started.elapsed().as_secs_f64()));

    // A lazily opened snapshot answering one point query: bytes faulted in,
    // as a share of the file.
    let file_bytes = std::fs::metadata(env.snapshot()).map_err(|e| e.to_string())?.len();
    let (lazy, _meta, store) =
        qob_storage::snapshot::open_lazy(env.snapshot()).map_err(|e| format!("open_lazy: {e}"))?;
    let title = lazy.table_by_name("title").ok_or("snapshot lacks `title`")?;
    let id = title.column_id("id").ok_or("`title` lacks `id`")?;
    let point = qob_storage::Predicate::IntCmp {
        column: id,
        op: qob_storage::CmpOp::Eq,
        value: (title.row_count() / 2) as i64,
    };
    black_box(point.filter(title));
    out.push(("storage.lazy_read_share", store.bytes_read() as f64 / file_bytes as f64));
    drop(lazy);

    // Decode every page of the two largest tables, by encoding.
    let mut tables: Vec<_> = ctx.db().tables().map(|(_, t)| t).collect();
    tables.sort_by_key(|t| std::cmp::Reverse(t.row_count()));
    let mut ints: Vec<i64> = Vec::new();
    let mut codes: Vec<u32> = Vec::new();
    // (rows, ns) for plain, packed (FOR / bit-packed codes), RLE.
    let mut by_encoding = [(0u64, 0u64); 3];
    let (mut pages, mut skipped) = (0u64, 0u64);
    const DECODE_ROUNDS: usize = 5;
    for table in tables.iter().take(2) {
        for c in 0..table.column_count() {
            let column = table.column(ColumnId(c as u32));
            for p in 0..column.page_count() {
                let (slot, rows) = match column.data_type() {
                    DataType::Int => {
                        let page = column.int_page(p);
                        // A narrow range in the middle of the column's
                        // domain: how many pages does min/max rule out?
                        if let Some((min, max)) = column.int_min_max() {
                            let mid = min + (max - min) / 2;
                            pages += 1;
                            skipped += u64::from(page.disjoint_with(mid, mid));
                        }
                        let slot = match page.encoding() {
                            IntEncoding::Plain(_) => 0,
                            IntEncoding::For { .. } => 1,
                            IntEncoding::Rle { .. } => 2,
                        };
                        let started = Instant::now();
                        for _ in 0..DECODE_ROUNDS {
                            ints.clear();
                            page.decode_into(&mut ints);
                            black_box(&ints);
                        }
                        by_encoding[slot].1 += started.elapsed().as_nanos() as u64;
                        (slot, page.len())
                    }
                    DataType::Str => {
                        let page = column.code_page(p);
                        let slot = match page.encoding() {
                            CodeEncoding::Plain(_) => 0,
                            CodeEncoding::Packed { .. } => 1,
                            CodeEncoding::Rle { .. } => 2,
                        };
                        let started = Instant::now();
                        for _ in 0..DECODE_ROUNDS {
                            codes.clear();
                            page.decode_into(&mut codes);
                            black_box(&codes);
                        }
                        by_encoding[slot].1 += started.elapsed().as_nanos() as u64;
                        (slot, page.len())
                    }
                };
                by_encoding[slot].0 += (rows * DECODE_ROUNDS) as u64;
            }
        }
    }
    let rate = |(rows, ns): (u64, u64)| if ns == 0 { 0.0 } else { rows as f64 / (ns as f64 / 1e9) };
    let all = by_encoding.iter().fold((0, 0), |acc, e| (acc.0 + e.0, acc.1 + e.1));
    out.push(("storage.scan_rows_per_s", rate(all)));
    out.push(("storage.scan_rows_per_s.plain", rate(by_encoding[0])));
    out.push(("storage.scan_rows_per_s.packed", rate(by_encoding[1])));
    out.push(("storage.scan_rows_per_s.rle", rate(by_encoding[2])));
    out.push((
        "storage.page_skip_share",
        if pages == 0 { 0.0 } else { skipped as f64 / pages as f64 },
    ));
    Ok(out)
}
