//! The two child-process phases of a workload run.
//!
//! * [`setup_phase`] — one repetition of set-up, in a fresh process: CSV on
//!   disk → ingested, encoded, indexed, analysed context → snapshot saved →
//!   snapshot loaded → workload prepared (server up, statements `PREPARE`d).
//! * [`run_phase`] — the workload's own process: load the snapshot, prepare,
//!   warm up with one verified pass, run timed whole passes, and (with
//!   tracing) replay one pass span by span.  Its `VmHWM` is the workload's
//!   peak memory, free of the ingest that produced the snapshot.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use qob_core::{BenchmarkContext, SchedulerConfig, ServerContext, Session, SessionOptions};
use qob_server::{serve, Json, Request, ServerConfig, ServerHandle};
use qob_sql::ParamValue;

use crate::fixture;
use crate::layers;
use crate::ops::{op_list, Domain, FixtureScale, Op, Statement, Workload};
use crate::stats::{self, Pass, Run, Samples};

/// What a child phase needs to know.
pub struct Env {
    /// The workload.
    pub workload: Workload,
    /// The fixture scale (selects the pinned domain).
    pub scale: FixtureScale,
    /// The op-list seed.
    pub seed: u64,
    /// Timed seconds (whole passes beyond it are finished).
    pub seconds: u64,
    /// Whether to replay a traced pass and measure the per-layer metrics.
    pub trace: bool,
    /// The run directory: `csv/` and `snapshot.qob` live here.
    pub dir: PathBuf,
    /// Threads driving load: execution threads of the in-process workloads,
    /// connections *and* pool workers of `wire_hot`.  Always `nproc`, so the
    /// load never exceeds the cores.
    pub threads: usize,
}

impl Env {
    /// The fixture's CSV directory.
    pub fn csv_dir(&self) -> PathBuf {
        self.dir.join("csv")
    }

    /// The snapshot set-up saves and the run loads.
    pub fn snapshot(&self) -> PathBuf {
        self.dir.join("snapshot.qob")
    }
}

fn secs(d: Duration) -> Json {
    Json::Num(d.as_secs_f64())
}

/// One set-up repetition; prints nothing, returns its phase timings.
pub fn setup_phase(env: &Env) -> Result<Json, String> {
    let domain = Domain::load(&env.scale.domain_path(env.workload))?;

    let started = Instant::now();
    let ctx = fixture::ingest(&env.csv_dir(), env.threads)?;
    let ingest = started.elapsed();
    let rows = ctx.db().total_rows();

    let started = Instant::now();
    ctx.save_snapshot(env.snapshot()).map_err(|e| format!("save_snapshot: {e}"))?;
    let save = started.elapsed();
    drop(ctx);
    let snapshot_bytes =
        std::fs::metadata(env.snapshot()).map_err(|e| format!("snapshot: {e}"))?.len();

    let (target, load, prepare) = load_and_prepare(env, &domain)?;
    target.shutdown();

    Ok(Json::obj(vec![
        ("ingest_s", secs(ingest)),
        ("save_s", secs(save)),
        ("load_s", secs(load)),
        ("prepare_s", secs(prepare)),
        ("rows", Json::Num(rows as f64)),
        ("snapshot_bytes", Json::Num(snapshot_bytes as f64)),
    ]))
}

fn load_and_prepare(env: &Env, domain: &Domain) -> Result<(Target, Duration, Duration), String> {
    let started = Instant::now();
    let ctx = BenchmarkContext::load_snapshot(env.snapshot())
        .map_err(|e| format!("load_snapshot: {e}"))?;
    let load = started.elapsed();
    let started = Instant::now();
    let target = Target::prepare(env.workload, ctx, domain, env.threads)?;
    Ok((target, load, started.elapsed()))
}

/// The connection `wire_hot` drives the server through: JSON lines, one
/// `write` per request, `TCP_NODELAY` on.
///
/// Not `qob_server::Client`: that client formats each request straight into
/// the socket, piece by piece, so a request leaves as several small segments
/// and every round trip waits out the peer's delayed-ACK timer (≈ 40 ms here)
/// whatever the server does.  The timed workload is about the server's path,
/// so it sends each line whole; the traced pass still measures the library
/// client's round trip as `server.client_lib_us` (a ping through it).
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to the server at `addr`.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Sends one request line and blocks for its response line.
    pub fn request(&mut self, request: &Request) -> std::io::Result<Json> {
        let mut line = request.to_json().to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        line.clear();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Json::parse(line.trim_end())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// What one statement returned.
pub struct Outcome {
    /// Result rows — or, when the workload does not execute, relations planned.
    pub answer: u64,
    /// The optimizer's cost of the plan used.
    pub cost: f64,
}

/// The prepared system under test.
pub struct Target {
    /// The warm server context (in-process sessions clone from it).
    pub server: ServerContext,
    /// The in-process session the in-process workloads drive.
    pub session: Session,
    /// The listening server and its connections (`wire_hot` only).
    pub wire: Option<(ServerHandle, Vec<Client>)>,
}

impl Target {
    fn prepare(
        workload: Workload,
        ctx: BenchmarkContext,
        domain: &Domain,
        threads: usize,
    ) -> Result<Target, String> {
        let options = SessionOptions {
            threads,
            plan_cache: workload.plan_cache(),
            execute: workload.executes(),
            ..SessionOptions::default()
        };
        if workload != Workload::WireHot {
            let server = ServerContext::with_defaults(ctx, options);
            let session = server.session();
            return Ok(Target { server, session, wire: None });
        }
        // `qob serve`'s shape: one shared pool, admission at twice the pool.
        let scheduler =
            SchedulerConfig { workers: threads, max_concurrent: 2 * threads, max_queued: 256 };
        let server = ServerContext::with_scheduler(ctx, options, scheduler);
        let config = ServerConfig { addr: "127.0.0.1:0".to_owned(), snapshot_loaded: true };
        let handle = serve(server.clone(), config).map_err(|e| format!("cannot bind: {e}"))?;
        let addr = handle.local_addr().to_string();
        let mut clients = Vec::with_capacity(threads);
        for _ in 0..threads {
            let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            for statement in &domain.statements {
                let request =
                    Request::Prepare { name: statement.key.clone(), sql: statement.sql.clone() };
                let response = client.request(&request).map_err(|e| format!("prepare: {e}"))?;
                if response.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(format!("PREPARE {} refused: {response}", statement.key));
                }
            }
            clients.push(client);
        }
        let mut session = server.session();
        for statement in &domain.statements {
            session.prepare(&statement.key, &statement.sql).map_err(|e| e.to_string())?;
        }
        Ok(Target { server, session, wire: Some((handle, clients)) })
    }

    /// Closes the connections, stops the server and waits for its threads.
    pub fn shutdown(self) {
        if let Some((handle, clients)) = self.wire {
            drop(clients);
            handle.shutdown();
            handle.join();
        }
    }
}

/// Runs one statement through the in-process session, as SQL text.
pub fn run_local(session: &mut Session, statement: &Statement) -> Result<Outcome, String> {
    let outcomes = session.run_script(&statement.sql).map_err(|e| e.to_string())?;
    let report = outcomes.first().and_then(|o| o.as_query()).ok_or("no query report")?;
    let answer = match &report.execution {
        Some(execution) => execution.rows,
        None => report.relations as u64,
    };
    Ok(Outcome { answer, cost: report.cost })
}

/// Sends one `EXECUTE` of a prepared statement and waits for the response.
pub fn wire_request(
    client: &mut Client,
    statement: &Statement,
    variant: usize,
) -> Result<Json, String> {
    let params = statement.params[variant].iter().map(|v| ParamValue::Int(*v)).collect();
    let request = Request::Execute { name: statement.key.clone(), params };
    client.request(&request).map_err(|e| e.to_string())
}

/// Reads the outcome out of a `result` response (an error response is `Err`).
pub fn wire_outcome(response: &Json) -> Result<Outcome, String> {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(response.to_string());
    }
    let result = response
        .get("results")
        .and_then(Json::as_array)
        .and_then(|r| r.first())
        .ok_or("no result")?;
    Ok(Outcome {
        answer: result.get("rows").and_then(Json::as_u64).ok_or("result lacks `rows`")?,
        cost: result.get("cost").and_then(Json::as_f64).unwrap_or(f64::NAN),
    })
}

/// Checks an outcome against the pinned answer.
pub fn verify(statement: &Statement, variant: usize, outcome: &Outcome) -> Result<(), String> {
    let expected = statement.answers[variant];
    if outcome.answer == expected {
        return Ok(());
    }
    let params = statement.params.get(variant).map(|p| format!("{p:?}")).unwrap_or_default();
    Err(format!("{}{params}: answered {}, pinned {expected}", statement.key, outcome.answer))
}

/// One pass of `ops` through the in-process session, every answer verified.
fn local_pass(session: &mut Session, domain: &Domain, ops: &[Op], samples: &mut Samples) {
    for op in ops {
        let statement = &domain.statements[op.statement];
        let started = Instant::now();
        let outcome = run_local(session, statement);
        let latency = started.elapsed();
        samples.record(outcome.and_then(|o| verify(statement, op.variant, &o)).map(|()| latency));
    }
}

/// One pass of `ops` over one connection, every answer verified.
fn wire_pass(client: &mut Client, domain: &Domain, ops: &[Op], samples: &mut Samples) {
    for op in ops {
        let statement = &domain.statements[op.statement];
        let started = Instant::now();
        let outcome = wire_request(client, statement, op.variant).and_then(|r| wire_outcome(&r));
        let latency = started.elapsed();
        samples.record(outcome.and_then(|o| verify(statement, op.variant, &o)).map(|()| latency));
    }
}

/// Timed whole passes until `budget`; closed loop — every caller waits for
/// its reply before sending the next statement.  In-process: one caller.
/// Wire: one caller per connection, each on its own seeded list, started
/// together.
fn timed_run(env: &Env, target: &mut Target, domain: &Domain, budget: Duration) -> Run {
    let Some((_, clients)) = target.wire.as_mut() else {
        let ops = op_list(env.workload, domain, env.seed, 0);
        let session = &mut target.session;
        let passes = timed_passes(budget, |samples| local_pass(session, domain, &ops, samples));
        return Run { callers: vec![passes] };
    };
    let barrier = Barrier::new(clients.len());
    let callers = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(stream, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let ops = op_list(env.workload, domain, env.seed, stream as u64);
                    barrier.wait();
                    timed_passes(budget, |samples| wire_pass(client, domain, &ops, samples))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    Run { callers }
}

/// One caller's whole passes until `budget`, each timed on its own.
fn timed_passes(budget: Duration, mut pass: impl FnMut(&mut Samples)) -> Vec<Pass> {
    let mut passes = Vec::new();
    let started = Instant::now();
    stats::run_whole_passes(
        budget,
        || started.elapsed(),
        || {
            let mut samples = Samples::default();
            let pass_started = Instant::now();
            pass(&mut samples);
            passes.push(Pass { samples, wall: pass_started.elapsed() });
        },
    );
    passes
}

/// Geometric mean of the optimizer's cost for the plan it chooses, cold, for
/// every statement of the workload's domain (parameterized statements: their
/// 16 hottest parameter tuples).  Exact and seed-independent: it guards plan
/// *quality* against a planner that gets faster by searching less.
fn plan_cost_geomean(target: &Target, domain: &Domain) -> Result<f64, String> {
    let mut session = target.server.session();
    session.options.plan_cache = false;
    session.options.execute = false;
    let mut costs = Vec::new();
    for statement in &domain.statements {
        if statement.params.is_empty() {
            costs.push(run_local(&mut session, statement)?.cost);
            continue;
        }
        session.prepare(&statement.key, &statement.sql).map_err(|e| e.to_string())?;
        for tuple in statement.params.iter().take(16) {
            let values: Vec<ParamValue> = tuple.iter().map(|v| ParamValue::Int(*v)).collect();
            costs.push(
                session.execute_prepared(&statement.key, &values).map_err(|e| e.to_string())?.cost,
            );
        }
    }
    stats::geomean(&costs).ok_or_else(|| "a plan cost was not positive".to_owned())
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or("unparsable VmHWM")?;
    Ok(kib / 1024.0)
}

/// The workload's own process: load, prepare, warm up, run, (trace,) report.
pub fn run_phase(env: &Env) -> Result<Json, String> {
    let domain = Domain::load(&env.scale.domain_path(env.workload))?;
    let (mut target, load, prepare) = load_and_prepare(env, &domain)?;

    // Untimed bookkeeping first, so the warm-up is the last thing before the
    // timed run.
    let cost_geomean = plan_cost_geomean(&target, &domain)?;

    // Warm-up: one verified whole pass of every caller.
    let mut totals = Samples::default();
    let started = Instant::now();
    let (attempted, failed) =
        timed_run(env, &mut target, &domain, Duration::ZERO).attempted_failed();
    let warmup = started.elapsed();
    totals.attempted += attempted;
    totals.failed += failed;

    // The timed run.  A traced run spends half its budget untraced (the
    // baseline of `obs.trace_overhead_share`) and then replays one pass.
    let budget = Duration::from_secs(env.seconds);
    let budget = if env.trace { budget / 2 } else { budget };
    let run = timed_run(env, &mut target, &domain, budget);
    let (attempted, failed) = run.attempted_failed();
    totals.attempted += attempted;
    totals.failed += failed;
    let samples = run.sample_count();
    let tail = stats::highest_supported_percentile(samples);
    let number = |value: Option<f64>| value.map_or(Json::Null, Json::Num);
    // Mean admission wait per admitted statement (only `wire_hot` contends).
    let waits = target.server.metrics().queue_wait_latency.snapshot();
    let queue_wait_us =
        if waits.count == 0 { 0.0 } else { waits.sum_micros as f64 / waits.count as f64 };
    let pass_walls: Vec<Json> = run.callers.iter().flatten().map(|p| secs(p.wall)).collect();

    let mut pairs = vec![
        ("load_s", secs(load)),
        ("prepare_s", secs(prepare)),
        ("warmup_s", secs(warmup)),
        ("callers", Json::Num(run.callers.len() as f64)),
        ("pass_s", Json::Arr(pass_walls)),
        ("samples", Json::Num(samples as f64)),
        ("ops_per_s", number(run.ops_per_s())),
        ("p50_ms", number(run.percentile_ms(0.50))),
        ("p95_ms", number(run.percentile_ms(0.95))),
        ("pooled_p50_ms", number(run.pooled_percentile_ms(0.50))),
        ("pooled_p95_ms", number(run.pooled_percentile_ms(0.95))),
        ("highest_supported_percentile", number(tail)),
        ("highest_supported_ms", number(tail.and_then(|q| run.pooled_percentile_ms(q)))),
        ("plan_cost_geomean", Json::Num(cost_geomean)),
    ];

    if env.trace {
        let layer_metrics =
            layers::traced_pass(env, &mut target, &domain, queue_wait_us, &mut totals)?;
        pairs.push(("layers", Json::Obj(layer_metrics)));
    }

    pairs.push(("attempted", Json::Num(totals.attempted as f64)));
    pairs.push(("failed", Json::Num(totals.failed as f64)));
    target.shutdown();
    pairs.push(("peak_rss_mb", Json::Num(peak_rss_mib()?)));
    Ok(Json::obj(pairs))
}
