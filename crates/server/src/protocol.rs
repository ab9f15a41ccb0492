//! The wire protocol: typed requests and response builders.
//!
//! Transport is **JSON lines**: one request object per line from the
//! client, one response object per line from the server, UTF-8, `\n`
//! terminated.  The full message catalogue with examples lives in
//! `docs/PROTOCOL.md`; this module is its executable form — every request
//! the server accepts parses into a [`Request`], and every response the
//! server emits is built here.

use std::time::Duration;

use qob_core::{CacheOutcome, QueryReport, ScriptOutcome, ServerContext, SessionError};
use qob_sql::ParamValue;

use crate::json::Json;

/// A parsed client request (the `"type"` field selects the variant).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"type":"query","sql":"..."}` — plan and execute a `;`-separated
    /// script, one result per statement.
    Query {
        /// The SQL text (may hold several `;`-separated statements).
        sql: String,
    },
    /// `{"type":"explain","sql":"..."}` — plan only, never execute.
    Explain {
        /// The SQL text.
        sql: String,
    },
    /// `{"type":"set","option":"threads","value":"4"}` — update one
    /// per-session option.
    Set {
        /// Option name (`threads`, `timeout_ms`, `estimator`, `execute`).
        option: String,
        /// New value, as a string (numbers are accepted and stringified).
        value: String,
    },
    /// `{"type":"prepare","name":"q","sql":"SELECT ... ?"}` — register a
    /// parameterized statement under a session-private name.
    Prepare {
        /// The statement name.
        name: String,
        /// The (possibly parameterized) statement body.
        sql: String,
    },
    /// `{"type":"execute","name":"q","params":[2000,"x",null]}` — run a
    /// prepared statement with concrete parameter values.
    Execute {
        /// The prepared statement's name.
        name: String,
        /// Parameter values, in slot order (JSON numbers, strings, null).
        params: Vec<ParamValue>,
    },
    /// `{"type":"deallocate","name":"q"}` — drop a prepared statement.
    Deallocate {
        /// The prepared statement's name.
        name: String,
    },
    /// `{"type":"stats"}` — server-wide counters and warm-state info.
    Stats,
    /// `{"type":"metrics"}` — the Prometheus text exposition plus a JSON
    /// summary (latency percentiles, counters).
    Metrics,
    /// `{"type":"history","top":10}` — the per-fingerprint query history:
    /// counts, per-phase latency percentiles and recent regressions.  The
    /// optional `top` caps the fingerprint list to the hottest N by count.
    History {
        /// Cap on returned fingerprints (`None` = all, hottest first).
        top: Option<u64>,
    },
    /// `{"type":"trace_export"}` — the shared pool's retained pipeline
    /// spans as a Chrome trace-event JSON array (loadable in
    /// `about://tracing`).
    TraceExport,
    /// `{"type":"ping"}` — liveness probe.
    Ping,
    /// `{"type":"shutdown"}` — stop accepting connections and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.  Errors are human-readable and become
    /// `invalid_request` protocol errors.
    pub fn parse(line: &str) -> Result<Request, String> {
        let value = Json::parse(line).map_err(|e| e.to_string())?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| "request needs a string `type` field".to_owned())?;
        let sql_field = |value: &Json| -> Result<String, String> {
            value
                .get("sql")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("`{kind}` needs a string `sql` field"))
        };
        let name_field = |value: &Json| -> Result<String, String> {
            value
                .get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("`{kind}` needs a string `name` field"))
        };
        match kind {
            "query" => Ok(Request::Query { sql: sql_field(&value)? }),
            "explain" => Ok(Request::Explain { sql: sql_field(&value)? }),
            "prepare" => {
                Ok(Request::Prepare { name: name_field(&value)?, sql: sql_field(&value)? })
            }
            "execute" => {
                let name = name_field(&value)?;
                let params = match value.get("params") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => {
                        items.iter().map(param_value).collect::<Result<Vec<_>, _>>()?
                    }
                    Some(_) => return Err("`execute` needs an array `params` field".to_owned()),
                };
                Ok(Request::Execute { name, params })
            }
            "deallocate" => Ok(Request::Deallocate { name: name_field(&value)? }),
            "set" => {
                let option = value
                    .get("option")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "`set` needs a string `option` field".to_owned())?
                    .to_owned();
                let value = match value.get("value") {
                    Some(Json::Str(s)) => s.clone(),
                    Some(Json::Num(n)) => Json::Num(*n).to_string(),
                    Some(Json::Bool(b)) => b.to_string(),
                    _ => return Err("`set` needs a string, number or bool `value`".to_owned()),
                };
                Ok(Request::Set { option, value })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "history" => {
                let top = match value.get("top") {
                    None => None,
                    Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 => Some(*n as u64),
                    Some(_) => {
                        return Err("`history` needs a non-negative integer `top`".to_owned())
                    }
                };
                Ok(Request::History { top })
            }
            "trace_export" => Ok(Request::TraceExport),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type `{other}`")),
        }
    }

    /// Serialises the request as one protocol line (without the newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Query { sql } => {
                Json::obj(vec![("type", Json::str("query")), ("sql", Json::str(sql.clone()))])
            }
            Request::Explain { sql } => {
                Json::obj(vec![("type", Json::str("explain")), ("sql", Json::str(sql.clone()))])
            }
            Request::Prepare { name, sql } => Json::obj(vec![
                ("type", Json::str("prepare")),
                ("name", Json::str(name.clone())),
                ("sql", Json::str(sql.clone())),
            ]),
            Request::Execute { name, params } => Json::obj(vec![
                ("type", Json::str("execute")),
                ("name", Json::str(name.clone())),
                (
                    "params",
                    Json::Arr(
                        params
                            .iter()
                            .map(|p| match p {
                                ParamValue::Int(v) => Json::Num(*v as f64),
                                ParamValue::Str(s) => Json::str(s.clone()),
                                ParamValue::Null => Json::Null,
                            })
                            .collect(),
                    ),
                ),
            ]),
            Request::Deallocate { name } => Json::obj(vec![
                ("type", Json::str("deallocate")),
                ("name", Json::str(name.clone())),
            ]),
            Request::Set { option, value } => Json::obj(vec![
                ("type", Json::str("set")),
                ("option", Json::str(option.clone())),
                ("value", Json::str(value.clone())),
            ]),
            Request::Stats => Json::obj(vec![("type", Json::str("stats"))]),
            Request::Metrics => Json::obj(vec![("type", Json::str("metrics"))]),
            Request::History { top } => {
                let mut pairs = vec![("type", Json::str("history"))];
                if let Some(top) = top {
                    pairs.push(("top", Json::Num(*top as f64)));
                }
                Json::obj(pairs)
            }
            Request::TraceExport => Json::obj(vec![("type", Json::str("trace_export"))]),
            Request::Ping => Json::obj(vec![("type", Json::str("ping"))]),
            Request::Shutdown => Json::obj(vec![("type", Json::str("shutdown"))]),
        }
    }
}

/// The largest integer magnitude a JSON number (an IEEE-754 double)
/// represents exactly.  Integer parameters beyond it would have been
/// silently rounded somewhere in transit, so they are rejected rather
/// than bound as a corrupted literal.
const MAX_EXACT_JSON_INT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Parses one `execute` parameter value (integer, string or null).
fn param_value(value: &Json) -> Result<ParamValue, String> {
    match value {
        Json::Null => Ok(ParamValue::Null),
        Json::Str(s) => Ok(ParamValue::Str(s.clone())),
        Json::Num(n) if n.fract() == 0.0 && n.abs() <= MAX_EXACT_JSON_INT => {
            Ok(ParamValue::Int(*n as i64))
        }
        Json::Num(n) if n.fract() == 0.0 => Err(format!(
            "integer parameter {n} exceeds ±2^53 and cannot travel exactly as a JSON number"
        )),
        other => Err(format!("parameter values must be integers, strings or null, got `{other}`")),
    }
}

/// Builds the error response shape shared by every failure:
/// `{"ok":false,"error":{"code":...,"message":...}}`.
pub fn error_response(code: &str, message: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::obj(vec![("code", Json::str(code)), ("message", Json::str(message))])),
    ])
}

/// Maps a [`SessionError`] to its protocol error response.
pub fn session_error_response(error: &SessionError) -> Json {
    error_response(error.code(), &error.to_string())
}

fn duration_us(d: Duration) -> Json {
    Json::Num(d.as_micros() as f64)
}

/// Renders one per-statement result object inside a `result` response.
pub fn report_to_json(report: &QueryReport) -> Json {
    let mut pairs = vec![
        ("query", Json::str(report.name.clone())),
        ("relations", Json::Num(report.relations as f64)),
        ("join_predicates", Json::Num(report.join_predicates as f64)),
        ("selections", Json::Num(report.selections as f64)),
        ("estimator", Json::str(report.estimator.clone())),
        ("cost", Json::Num(report.cost)),
        ("threads", Json::Num(report.threads as f64)),
        ("plan", Json::str(report.plan.clone())),
    ];
    if report.plan_cache != CacheOutcome::Off {
        pairs.push(("plan_cache", Json::str(report.plan_cache.label())));
    }
    if let Some(trace) = &report.trace {
        pairs.push((
            "trace",
            Json::obj(vec![
                ("parse_us", Json::Num(trace.parse_us as f64)),
                ("bind_us", Json::Num(trace.bind_us as f64)),
                ("optimize_us", Json::Num(trace.optimize_us as f64)),
                ("queue_us", Json::Num(trace.queue_us as f64)),
                ("execute_us", Json::Num(trace.execute_us as f64)),
            ]),
        ));
    }
    if let Some(exec) = &report.execution {
        pairs.push(("rows", Json::Num(exec.rows as f64)));
        pairs.push(("elapsed_us", duration_us(exec.elapsed)));
        pairs.push(("worst_q_error", Json::Num(exec.worst_q_error)));
        let operators = exec
            .operators
            .iter()
            .map(|op| {
                let mut fields = vec![
                    ("relations", Json::str(op.relations.clone())),
                    ("estimated", Json::Num(op.estimated)),
                    ("true", Json::Num(op.true_rows as f64)),
                    ("q_error", Json::Num(op.q_error)),
                ];
                if let Some(time_us) = op.time_us {
                    fields.push(("time_us", Json::Num(time_us as f64)));
                }
                if let Some(morsels) = op.morsels {
                    fields.push(("morsels", Json::Num(morsels as f64)));
                }
                Json::obj(fields)
            })
            .collect();
        pairs.push(("operators", Json::Arr(operators)));
        pairs.push(("replan_count", Json::Num(exec.replans.len() as f64)));
        if !exec.replans.is_empty() {
            let replans = exec
                .replans
                .iter()
                .map(|r| {
                    Json::obj(vec![
                        ("after", Json::str(r.after.clone())),
                        ("estimated", Json::Num(r.estimated)),
                        ("observed", Json::Num(r.observed as f64)),
                        ("factor", Json::Num(r.factor)),
                        ("changed", Json::Bool(r.changed)),
                        ("resumed_plan", Json::str(r.resumed_plan.clone())),
                    ])
                })
                .collect();
            pairs.push(("replans", Json::Arr(replans)));
        }
        if let Some(final_cost) = exec.final_cost {
            pairs.push(("final_cost", Json::Num(final_cost)));
        }
    }
    Json::obj(pairs)
}

/// Builds the `result` response for a list of per-statement reports.
pub fn result_response(reports: &[QueryReport]) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("result")),
        ("results", Json::Arr(reports.iter().map(report_to_json).collect())),
    ])
}

/// Renders one script outcome inside a `result` response: a full report
/// object for queries, a small acknowledgement object for
/// `PREPARE`/`DEALLOCATE`.
pub fn outcome_to_json(outcome: &ScriptOutcome) -> Json {
    match outcome {
        ScriptOutcome::Query(report) => report_to_json(report),
        ScriptOutcome::Prepared { name, params } => Json::obj(vec![
            ("prepared", Json::str(name.clone())),
            ("params", Json::Num(*params as f64)),
        ]),
        ScriptOutcome::Deallocated { name } => {
            Json::obj(vec![("deallocated", Json::str(name.clone()))])
        }
    }
}

/// Builds the `result` response for a script's outcomes.
pub fn outcomes_response(outcomes: &[ScriptOutcome]) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("result")),
        ("results", Json::Arr(outcomes.iter().map(outcome_to_json).collect())),
    ])
}

/// Builds the acknowledgement for a successful `prepare`.
pub fn prepared_response(name: &str, params: usize) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("prepared")),
        ("name", Json::str(name)),
        ("params", Json::Num(params as f64)),
    ])
}

/// Builds the acknowledgement for a successful `deallocate`.
pub fn deallocated_response(name: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("deallocated")),
        ("name", Json::str(name)),
    ])
}

/// Builds the acknowledgement for a successful `set`.
pub fn set_response(option: &str, value: &str) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("set")),
        ("option", Json::str(option)),
        ("value", Json::str(value)),
    ])
}

/// Builds the `pong` liveness response.
pub fn pong_response() -> Json {
    Json::obj(vec![("ok", Json::Bool(true)), ("type", Json::str("pong"))])
}

/// Builds the `shutdown` acknowledgement.
pub fn shutdown_response() -> Json {
    Json::obj(vec![("ok", Json::Bool(true)), ("type", Json::str("shutdown"))])
}

/// Builds the `stats` response from the shared context plus server-level
/// gauges the connection layer tracks.
pub fn stats_response(
    server: &ServerContext,
    active_connections: usize,
    uptime: Duration,
    snapshot_loaded: bool,
) -> Json {
    let ctx = server.context();
    let cache = server.plan_cache_counters();
    let sizes = ctx.storage_sizes();
    let encoded: usize = sizes.iter().map(|t| t.encoded_bytes).sum();
    let plain: usize = sizes.iter().map(|t| t.plain_bytes).sum();
    let ratio = if encoded == 0 { 1.0 } else { plain as f64 / encoded as f64 };
    let storage_tables = Json::Arr(
        sizes
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("table", Json::str(&t.table)),
                    ("encoded_bytes", Json::Num(t.encoded_bytes as f64)),
                    ("plain_bytes", Json::Num(t.plain_bytes as f64)),
                    ("compression_ratio", Json::Num(t.compression_ratio())),
                    (
                        "columns",
                        Json::Arr(
                            t.columns
                                .iter()
                                .map(|c| {
                                    Json::obj(vec![
                                        ("column", Json::str(&c.column)),
                                        ("encoded_bytes", Json::Num(c.encoded_bytes as f64)),
                                        ("plain_bytes", Json::Num(c.plain_bytes as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("stats")),
        ("tables", Json::Num(ctx.db().table_count() as f64)),
        ("total_rows", Json::Num(ctx.db().total_rows() as f64)),
        ("storage_encoded_bytes", Json::Num(encoded as f64)),
        ("storage_plain_bytes", Json::Num(plain as f64)),
        ("storage_compression_ratio", Json::Num(ratio)),
        ("storage_tables", storage_tables),
        ("indexes", Json::Num(ctx.db().index_count() as f64)),
        ("workload_queries", Json::Num(ctx.queries().len() as f64)),
        ("queries_served", Json::Num(server.queries_served() as f64)),
        ("replans_total", Json::Num(server.replans_total() as f64)),
        ("truth_cached", Json::Num(ctx.truth_cache_len() as f64)),
        ("plan_cache_hits", Json::Num(cache.hits as f64)),
        ("plan_cache_misses", Json::Num(cache.misses as f64)),
        ("plan_cache_fence_rejections", Json::Num(cache.fence_rejections as f64)),
        ("plan_cache_evictions", Json::Num(cache.evictions as f64)),
        ("plan_cache_installs", Json::Num(cache.installs as f64)),
        ("plan_cache_size", Json::Num(server.plan_cache_len() as f64)),
        ("plan_cache_capacity", Json::Num(server.plan_cache_capacity() as f64)),
        ("active_connections", Json::Num(active_connections as f64)),
        ("uptime_ms", Json::Num(uptime.as_millis() as f64)),
        ("snapshot_loaded", Json::Bool(snapshot_loaded)),
        ("datagen_runs", Json::Num(ctx.datagen_runs() as f64)),
        ("admitted", Json::Num(server.metrics().admitted_total.get() as f64)),
        ("rejected", Json::Num(server.metrics().rejected_total.get() as f64)),
        ("pool_workers", Json::Num(server.pool_gauges().0 as f64)),
        ("pool_busy", Json::Num(server.pool_gauges().1 as f64)),
        ("pool_queue_depth", Json::Num(server.pool_gauges().2 as f64)),
        ("admission_executing", Json::Num(server.admission_gauges().0 as f64)),
        ("admission_queued", Json::Num(server.admission_gauges().1 as f64)),
        ("workers", worker_timelines_json(server)),
    ])
}

/// Renders the shared pool's per-worker busy/idle/steal accumulators (an
/// empty array for a context without a scheduler).
fn worker_timelines_json(server: &ServerContext) -> Json {
    Json::Arr(
        server
            .worker_timelines()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                Json::obj(vec![
                    ("worker", Json::Num(i as f64)),
                    ("busy_nanos", Json::Num(t.busy_nanos as f64)),
                    ("idle_nanos", Json::Num(t.idle_nanos as f64)),
                    ("steals", Json::Num(t.steals as f64)),
                    ("utilization", Json::Num(t.utilization())),
                ])
            })
            .collect(),
    )
}

/// Builds the `history` response: lifetime per-fingerprint aggregates
/// (hottest by count first, capped at `top` when given) and the most
/// recent regressions.  Fingerprints travel as hex strings — they are
/// 64-bit hashes and a JSON number would round them past 2^53.
pub fn history_response(server: &ServerContext, top: Option<u64>) -> Json {
    let snapshot = server.history().snapshot();
    let cap = top.map(|t| t as usize).unwrap_or(usize::MAX);
    let fingerprints = snapshot
        .fingerprints
        .iter()
        .take(cap)
        .map(|f| {
            Json::obj(vec![
                ("fingerprint", Json::str(format!("{:016x}", f.fingerprint))),
                ("query", Json::str(f.name.clone())),
                ("count", Json::Num(f.count as f64)),
                ("total_us", Json::Num(f.total_us as f64)),
                ("p50_us", Json::Num(f.p50_us)),
                ("p99_us", Json::Num(f.p99_us)),
                ("max_q_error", Json::Num(f.max_q_error)),
                ("replans", Json::Num(f.replans as f64)),
                ("regressions", Json::Num(f.regressions as f64)),
                ("last_rows", Json::Num(f.last_rows as f64)),
                ("last_seq", Json::Num(f.last_seq as f64)),
            ])
        })
        .collect();
    let regressions = snapshot
        .regressions
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("query", Json::str(r.name.clone())),
                ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
                ("seq", Json::Num(r.seq as f64)),
                ("baseline_us", Json::Num(r.baseline_us)),
                ("recent_us", Json::Num(r.recent_us)),
                ("factor", Json::Num(r.factor)),
                ("ratio", Json::Num(r.ratio)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("history")),
        ("recorded", Json::Num(server.history().recorded() as f64)),
        ("fingerprints", Json::Arr(fingerprints)),
        ("regressions", Json::Arr(regressions)),
    ])
}

/// Builds the `trace` response: the shared pool's retained pipeline spans
/// as a Chrome trace-event array (the `events` field is directly loadable
/// in `about://tracing` once written to a file).  Every event — including
/// the `thread_name` metadata — carries `name`/`ph`/`ts`/`pid`/`tid`, the
/// shape CI validates structurally.
pub fn trace_export_response(server: &ServerContext) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let event = |name: &str, ph: &str, ts: f64, tid: u32, args: Vec<(&str, Json)>| {
        Json::obj(vec![
            ("name", Json::str(name)),
            ("ph", Json::str(ph)),
            ("ts", Json::Num(ts)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", Json::obj(args)),
        ])
    };
    let timelines = server.worker_timelines();
    for (i, t) in timelines.iter().enumerate() {
        let tid = i as u32 + 1;
        events.push(event(
            "thread_name",
            "M",
            0.0,
            tid,
            vec![("name", Json::str(format!("qob-worker-{i}")))],
        ));
        events.push(event(
            "worker_totals",
            "C",
            0.0,
            tid,
            vec![
                ("busy_nanos", Json::Num(t.busy_nanos as f64)),
                ("idle_nanos", Json::Num(t.idle_nanos as f64)),
                ("steals", Json::Num(t.steals as f64)),
            ],
        ));
    }
    let spans = server.pipeline_spans();
    let mut submitters: Vec<u32> =
        spans.iter().map(|s| s.tid).filter(|&tid| tid as usize > timelines.len()).collect();
    submitters.sort_unstable();
    submitters.dedup();
    for tid in submitters {
        events.push(event(
            "thread_name",
            "M",
            0.0,
            tid,
            vec![("name", Json::str(format!("submitter-{tid}")))],
        ));
    }
    for span in &spans {
        events.push(Json::obj(vec![
            ("name", Json::str(span.name.clone())),
            ("ph", Json::str("X")),
            ("ts", Json::Num(span.start_us as f64)),
            ("dur", Json::Num(span.dur_us as f64)),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(span.tid as f64)),
            ("args", Json::obj(vec![])),
        ]));
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("trace")),
        ("span_count", Json::Num(spans.len() as f64)),
        ("events", Json::Arr(events)),
    ])
}

/// Builds the `metrics` response: the full Prometheus text exposition in
/// `body`, plus a JSON `summary` for programmatic consumers (`qob top`,
/// the smoke scripts) — latency percentiles estimated from the histogram
/// buckets and the headline counters.
pub fn metrics_response(server: &ServerContext) -> Json {
    let m = server.metrics();
    let q = m.query_latency.snapshot();
    let w = m.queue_wait_latency.snapshot();
    let cache = server.plan_cache_counters();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("type", Json::str("metrics")),
        ("body", Json::str(server.metrics_exposition())),
        (
            "summary",
            Json::obj(vec![
                ("queries_total", Json::Num(m.queries_total.get() as f64)),
                ("query_errors_total", Json::Num(m.query_errors_total.get() as f64)),
                ("replans_total", Json::Num(m.replans_total.get() as f64)),
                ("slow_queries_total", Json::Num(m.slow_queries_total.get() as f64)),
                ("worker_panics_total", Json::Num(m.worker_panics_total.get() as f64)),
                ("regressions_total", Json::Num(m.regressions_total.get() as f64)),
                ("query_p50_us", Json::Num(q.quantile(0.5))),
                ("query_p95_us", Json::Num(q.quantile(0.95))),
                ("query_p99_us", Json::Num(q.quantile(0.99))),
                ("admitted_total", Json::Num(m.admitted_total.get() as f64)),
                ("rejected_total", Json::Num(m.rejected_total.get() as f64)),
                ("queue_wait_p50_us", Json::Num(w.quantile(0.5))),
                ("queue_wait_p99_us", Json::Num(w.quantile(0.99))),
                ("plan_cache_hits", Json::Num(cache.hits as f64)),
                ("plan_cache_misses", Json::Num(cache.misses as f64)),
                ("plan_cache_fence_rejections", Json::Num(cache.fence_rejections as f64)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip_through_json() {
        let requests = vec![
            Request::Query { sql: "SELECT COUNT(*) FROM title t".into() },
            Request::Explain { sql: "SELECT 1".into() },
            Request::Set { option: "threads".into(), value: "4".into() },
            Request::Prepare { name: "q".into(), sql: "SELECT ... ?".into() },
            Request::Execute {
                name: "q".into(),
                params: vec![
                    ParamValue::Int(2000),
                    ParamValue::Str("x".into()),
                    ParamValue::Null,
                    ParamValue::Int(-7),
                ],
            },
            Request::Execute { name: "noargs".into(), params: vec![] },
            Request::Deallocate { name: "q".into() },
            Request::Stats,
            Request::Metrics,
            Request::History { top: None },
            Request::History { top: Some(5) },
            Request::TraceExport,
            Request::Ping,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_json().to_string();
            assert_eq!(Request::parse(&line).unwrap(), request, "line: {line}");
        }
        // `params` may be omitted entirely.
        let r = Request::parse(r#"{"type":"execute","name":"q"}"#).unwrap();
        assert_eq!(r, Request::Execute { name: "q".into(), params: vec![] });
    }

    #[test]
    fn execute_params_reject_bad_values() {
        for line in [
            r#"{"type":"execute","name":"q","params":[1.5]}"#,
            r#"{"type":"execute","name":"q","params":[true]}"#,
            r#"{"type":"execute","name":"q","params":[[1]]}"#,
            r#"{"type":"execute","name":"q","params":"x"}"#,
            // Beyond 2^53 a JSON number has already lost exactness.
            r#"{"type":"execute","name":"q","params":[9007199254740994]}"#,
        ] {
            assert!(Request::parse(line).is_err(), "accepted: {line}");
        }
        assert!(Request::parse(r#"{"type":"prepare","sql":"x"}"#).unwrap_err().contains("name"));
        assert!(Request::parse(r#"{"type":"prepare","name":"x"}"#).unwrap_err().contains("sql"));
        assert!(Request::parse(r#"{"type":"deallocate"}"#).unwrap_err().contains("name"));
    }

    #[test]
    fn ack_responses_have_the_documented_shape() {
        let p = prepared_response("q", 2);
        assert_eq!(p.get("type").unwrap().as_str(), Some("prepared"));
        assert_eq!(p.get("params").unwrap().as_u64(), Some(2));
        let d = deallocated_response("q");
        assert_eq!(d.get("type").unwrap().as_str(), Some("deallocated"));
        assert_eq!(d.get("name").unwrap().as_str(), Some("q"));

        let outcomes = vec![
            ScriptOutcome::Prepared { name: "q".into(), params: 1 },
            ScriptOutcome::Deallocated { name: "q".into() },
        ];
        let response = outcomes_response(&outcomes);
        let results = response.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("prepared").unwrap().as_str(), Some("q"));
        assert_eq!(results[1].get("deallocated").unwrap().as_str(), Some("q"));
    }

    #[test]
    fn set_accepts_number_and_bool_values() {
        let r = Request::parse(r#"{"type":"set","option":"threads","value":4}"#).unwrap();
        assert_eq!(r, Request::Set { option: "threads".into(), value: "4".into() });
        let r = Request::parse(r#"{"type":"set","option":"execute","value":false}"#).unwrap();
        assert_eq!(r, Request::Set { option: "execute".into(), value: "false".into() });
    }

    #[test]
    fn malformed_requests_are_descriptive() {
        assert!(Request::parse("not json").unwrap_err().contains("invalid JSON"));
        assert!(Request::parse("{}").unwrap_err().contains("`type`"));
        assert!(Request::parse(r#"{"type":"fly"}"#).unwrap_err().contains("fly"));
        assert!(Request::parse(r#"{"type":"query"}"#).unwrap_err().contains("sql"));
        assert!(Request::parse(r#"{"type":"set","option":"x"}"#).unwrap_err().contains("value"));
        for line in [
            r#"{"type":"history","top":-1}"#,
            r#"{"type":"history","top":1.5}"#,
            r#"{"type":"history","top":"many"}"#,
        ] {
            assert!(Request::parse(line).unwrap_err().contains("top"), "accepted: {line}");
        }
    }

    #[test]
    fn error_responses_have_the_documented_shape() {
        let e = error_response("sql_error", "boom");
        assert_eq!(e.get("ok").unwrap().as_bool(), Some(false));
        let inner = e.get("error").unwrap();
        assert_eq!(inner.get("code").unwrap().as_str(), Some("sql_error"));
        assert_eq!(inner.get("message").unwrap().as_str(), Some("boom"));
    }
}
