//! `qob` — the end-to-end text path of the reproduction.
//!
//! Three modes share one pipeline (parse → bind → estimate → plan →
//! execute):
//!
//! * **one-shot** (default): read SQL, build or snapshot-load the database,
//!   answer, exit;
//! * **`qob serve`**: keep one warm context resident and answer queries
//!   from many TCP clients over the JSON-lines protocol;
//! * **`qob connect`**: the matching client — send SQL to a running server
//!   and render the answers exactly like a one-shot run.
//!
//! ```text
//! echo "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
//!       WHERE mc.movie_id = t.id AND mc.company_id = cn.id
//!         AND cn.country_code = '[us]'" | qob
//! ```

use std::process::ExitCode;
use std::time::Instant;

use qob_core::{
    BenchmarkContext, EstimatorKind, QueryReport, ScriptOutcome, ServerContext, SessionOptions,
};
use qob_datagen::Scale;
use qob_server::{Client, Json, Request, ServerConfig};
use qob_storage::IndexConfig;
use qob_workload::parse_script;

const USAGE: &str = "\
qob — run ad-hoc SQL through the optimizer pipeline of the JOB reproduction

USAGE:
    qob [OPTIONS] [FILE]    read a ;-separated SQL script from FILE (or stdin)
    qob [OPTIONS] -e SQL    run an inline statement
    qob serve [OPTIONS]     start the long-lived query server
    qob connect [OPTIONS]   talk to a running server (SQL from -e/FILE/stdin)
    qob top [OPTIONS]       live dashboard over a running server: QPS, latency
                            quantiles, pool utilization, hottest fingerprints
                            and recent regressions, refreshing in place
    qob plangrid [OPTIONS]  rank every estimator x cost-model x enumerator
                            combination against the true plan-space optimum
                            and write a BENCH_planspace.json summary
    qob ingest <DIR> [OPTIONS]
                            stream the 21 IMDB-schema CSV/TSV files in DIR
                            into an encoded database, optionally snapshot it,
                            and write a BENCH_ingest.json summary

OPTIONS:
    -e, --execute <SQL>      inline SQL statement
        --scale <s>          data scale: tiny | small | benchmark  [default: tiny]
        --indexes <i>        physical design: none | pk | pkfk     [default: pk]
        --estimator <n>      postgres | hyper | dbms-a | dbms-b | dbms-c |
                             true-distinct                          [default: postgres]
        --threads <n>        execution worker threads; 1 = sequential engine,
                             0 = all cores                          [default: 0]
        --morsel-size <n>    tuples per execution morsel; 0 = engine default
        --snapshot <PATH>    load the database from PATH if it exists, else
                             generate it once and save it there
        --data-dir <DIR>     ingest the database from IMDB-schema CSV/TSV
                             files in DIR instead of generating it (combines
                             with --snapshot: ingest once, save, reload fast)
        --adaptive           re-optimize mid-execution when an operator's true
                             cardinality diverges from the estimate (re-plan
                             events are printed in the report)
        --adaptive-threshold <x>
                             divergence factor (q-error) that triggers a
                             re-plan                                [default: 10]
        --plan-cache         reuse optimized plans across statements with the
                             same structure (literal values parameterize
                             automatically); reuse is fenced by --cache-fence
        --cache-fence <x>    reject a cached plan when any subplan estimate
                             diverges by more than this q-error factor
                                                                    [default: 10]
        --tracing            collect per-phase and per-operator wall time and
                             render it in reports (EXPLAIN ANALYZE implies
                             this for its statement)
        --no-exec            stop after planning (skip execution and q-errors)
    -h, --help               print this help

SERVE OPTIONS:
        --addr <HOST:PORT>   listen address             [default: 127.0.0.1:4547]
        --plan-cache         enable the plan cache for every session by default
        --cache-fence <x>    default reuse fence for sessions
        --slow-query-ms <n>  log queries slower than n ms to the structured
                             event log on stderr (0 disables)    [default: 0]
        --workers <n>        shared execution pool size — morsels from every
                             concurrent query interleave on these threads;
                             0 = all cores                  [default: 0]
        --max-concurrent <n> statements allowed to execute at once; the rest
                             wait in the admission queue (0 = unlimited)
                                                       [default: 2x workers]
        --max-queued <n>     waiting statements beyond which new arrivals
                             are rejected with code `rejected` [default: 256]
        --mem-budget <n>     default per-statement intermediate-tuple budget
                             (0 = engine default)
        --morsel-size <n>    default execution morsel size for every session
                             (0 = engine default)
        --regression-ratio <x>
                             fire a `regression` event when a fingerprint's
                             recent median latency exceeds its baseline median
                             by this factor (0 disables)        [default: 2]
        plus --snapshot / --data-dir / --scale / --indexes / --threads as
        above

INGEST OPTIONS:
        --indexes <i>        physical design: none | pk | pkfk     [default: pk]
        --threads <n>        parse worker threads; 0 = all cores   [default: 0]
        --snapshot <PATH>    also save the ingested database as a snapshot,
                             then measure eager reload and lazy point-query
                             cost against it
        --generate <s>       first export a synthetic database at this scale
                             (tiny | small | benchmark) as CSV files into
                             <DIR>, then ingest them back
        --output <PATH>      summary path            [default: BENCH_ingest.json]

PLANGRID OPTIONS:
        --seed <n>           master seed: plan-space sampling, quickpick and
                             query generation all derive from it  [default: 0]
        --job-limit <n>      JOB queries to include (after --max-rels
                             filtering; 0 = none)                 [default: 4]
        --random-count <n>   seeded random queries to generate over the FK
                             graph and include (0 = none)         [default: 4]
        --max-rels <n>       only queries with at most n relations (keeps the
                             plan space exhaustively enumerable)  [default: 8]
        --samples <n>        uniform plan samples when a space is too large
                             to exhaust                        [default: 1000]
        --quickpick <n>      random plans per query for the quickpick
                             enumerator                         [default: 100]
        --output <PATH>      summary path         [default: BENCH_planspace.json]
        --require-true-optimal
                             fail unless the dpccp enumerator under true
                             cardinalities finds the optimum for every query
                             and cost model (the CI smoke invariant)
        plus --snapshot / --scale / --indexes as above

CONNECT OPTIONS:
        --addr <HOST:PORT>   server address             [default: 127.0.0.1:4547]
        --explain            plan only, never execute
        --set <name=value>   set a session option before the query runs (may
                             repeat; e.g. --set tracing=true)
        --stats              print the server's stats response (JSON) and exit
        --metrics            scrape the server's metrics (Prometheus text
                             exposition, validated before printing) and exit
        --history [n]        print the server's per-fingerprint query history
                             (JSON: counts, p50/p99, regressions) and exit;
                             the optional value caps the list to the n
                             hottest fingerprints
        --trace-out <PATH>   export the server's scheduler timeline as Chrome
                             trace-event JSON to PATH (open in about://tracing
                             or https://ui.perfetto.dev) and exit
        --ping               liveness check and exit
        --shutdown           ask the server to shut down and exit
        --json               print raw JSON response lines instead of tables

TOP OPTIONS:
        --addr <HOST:PORT>   server address             [default: 127.0.0.1:4547]
        --interval <ms>      refresh interval in milliseconds  [default: 1000]
        --count <n>          exit after n frames (0 = run until interrupted)
        --top <n>            hottest fingerprints to show          [default: 8]

Scripts may PREPARE name AS SELECT ... ? / EXECUTE name(values) /
DEALLOCATE name — in one-shot mode, over `qob connect`, and on the wire.

The database is the synthetic IMDB-like catalog (21 tables); queries are
written in the JOB dialect: SELECT MIN(..)/COUNT(*) FROM t1 a1, t2 a2
WHERE <equality joins AND base predicates>.  The wire protocol is
documented in docs/PROTOCOL.md.";

/// Everything the one-shot command line selects.  `scale`/`indexes` are
/// `None` unless set explicitly (defaulting to tiny/PK, or to whatever a
/// loaded snapshot was built with).
struct Options {
    source: Source,
    scale: Option<Scale>,
    indexes: Option<IndexConfig>,
    estimator: EstimatorKind,
    execute: bool,
    threads: usize,
    morsel_size: usize,
    adaptive: qob_exec::AdaptiveOptions,
    plan_cache: bool,
    cache_fence: f64,
    snapshot: Option<String>,
    data_dir: Option<String>,
    tracing: bool,
}

enum Source {
    Stdin,
    File(String),
    Inline(String),
}

fn value_of(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_scale(raw: &str) -> Result<Scale, String> {
    match raw {
        "tiny" => Ok(Scale::tiny()),
        "small" => Ok(Scale::small()),
        "benchmark" => Ok(Scale::benchmark()),
        other => Err(format!("unknown scale `{other}`")),
    }
}

fn parse_indexes(raw: &str) -> Result<IndexConfig, String> {
    match raw {
        "none" => Ok(IndexConfig::NoIndexes),
        "pk" => Ok(IndexConfig::PrimaryKeyOnly),
        "pkfk" => Ok(IndexConfig::PrimaryAndForeignKey),
        other => Err(format!("unknown index config `{other}`")),
    }
}

fn parse_threads(raw: &str) -> Result<usize, String> {
    let n: usize = raw.parse().map_err(|_| format!("--threads needs a number, got `{raw}`"))?;
    Ok(if n == 0 { qob_exec::default_threads() } else { n })
}

/// Validates and normalises `--morsel-size` through the same
/// [`SessionOptions::set`] rule the wire protocol enforces, so the CLI can
/// never drift from `set morsel_size`.
fn parse_morsel_size(raw: &str) -> Result<usize, String> {
    let mut scratch = SessionOptions::default();
    scratch.set("morsel_size", raw)?;
    Ok(scratch.morsel_size)
}

/// Validates `--adaptive-threshold` through [`SessionOptions::set`] (same
/// rule as `set adaptive_threshold` on the wire).
fn parse_adaptive_threshold(raw: &str) -> Result<f64, String> {
    let mut scratch = SessionOptions::default();
    scratch.set("adaptive_threshold", raw)?;
    Ok(scratch.adaptive.divergence_threshold)
}

/// Validates `--cache-fence` through [`SessionOptions::set`] (same rule as
/// `set cache_fence` on the wire).
fn parse_cache_fence(raw: &str) -> Result<f64, String> {
    let mut scratch = SessionOptions::default();
    scratch.set("cache_fence", raw)?;
    Ok(scratch.cache_fence)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        source: Source::Stdin,
        scale: None,
        indexes: None,
        estimator: EstimatorKind::Postgres,
        execute: true,
        threads: qob_exec::default_threads(),
        morsel_size: qob_exec::DEFAULT_MORSEL_SIZE,
        adaptive: qob_exec::AdaptiveOptions::default(),
        plan_cache: false,
        cache_fence: qob_core::DEFAULT_CACHE_FENCE,
        snapshot: None,
        data_dir: None,
        tracing: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "-e" | "--execute" => options.source = Source::Inline(value_of(args, &mut i, "-e")?),
            "--scale" => options.scale = Some(parse_scale(&value_of(args, &mut i, "--scale")?)?),
            "--indexes" => {
                options.indexes = Some(parse_indexes(&value_of(args, &mut i, "--indexes")?)?)
            }
            "--estimator" => {
                options.estimator = parse_estimator(&value_of(args, &mut i, "--estimator")?)?
            }
            "--threads" => options.threads = parse_threads(&value_of(args, &mut i, "--threads")?)?,
            "--morsel-size" => {
                options.morsel_size = parse_morsel_size(&value_of(args, &mut i, "--morsel-size")?)?
            }
            "--adaptive" => options.adaptive.enabled = true,
            "--adaptive-threshold" => {
                options.adaptive.divergence_threshold =
                    parse_adaptive_threshold(&value_of(args, &mut i, "--adaptive-threshold")?)?
            }
            "--plan-cache" => options.plan_cache = true,
            "--cache-fence" => {
                options.cache_fence = parse_cache_fence(&value_of(args, &mut i, "--cache-fence")?)?
            }
            "--snapshot" => options.snapshot = Some(value_of(args, &mut i, "--snapshot")?),
            "--data-dir" => options.data_dir = Some(value_of(args, &mut i, "--data-dir")?),
            "--tracing" => options.tracing = true,
            "--no-exec" => options.execute = false,
            "-" => options.source = Source::Stdin,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => options.source = Source::File(file.to_owned()),
        }
        i += 1;
    }
    Ok(options)
}

fn parse_estimator(name: &str) -> Result<EstimatorKind, String> {
    EstimatorKind::parse(name).ok_or_else(|| format!("unknown estimator `{name}`"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => serve_main(&args[1..]),
        Some("connect") => connect_main(&args[1..]),
        Some("top") => top_main(&args[1..]),
        Some("plangrid") => plangrid_main(&args[1..]),
        Some("ingest") => ingest_main(&args[1..]),
        _ => oneshot_main(&args),
    }
}

// ---------------------------------------------------------------------------
// One-shot mode
// ---------------------------------------------------------------------------

fn read_source(source: &Source) -> Result<String, String> {
    match source {
        Source::Inline(sql) => Ok(sql.clone()),
        Source::File(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
        }
        Source::Stdin => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map(|_| text)
                .map_err(|e| format!("cannot read stdin: {e}"))
        }
    }
}

/// Builds, ingests or snapshot-loads the context.  Returns the context and
/// whether it came from a snapshot.  `scale`/`indexes` are `Some` only when
/// set explicitly on the command line; a loaded snapshot supplies its own
/// defaults, and an explicit mismatch is surfaced rather than silently
/// ignored (indexes rebuild cheaply; a scale mismatch is an error because
/// honouring it would mean regenerating — delete the snapshot to rescale).
/// `data_dir` replaces generation with CSV ingestion; an existing snapshot
/// still wins (ingest once, save, reload fast on later runs).
fn obtain_context(
    scale: Option<Scale>,
    indexes: Option<IndexConfig>,
    snapshot: Option<&str>,
    data_dir: Option<&str>,
) -> Result<(BenchmarkContext, bool), String> {
    if let Some(path) = snapshot {
        if std::path::Path::new(path).exists() {
            let started = Instant::now();
            let mut ctx = BenchmarkContext::load_snapshot(path)
                .map_err(|e| format!("cannot load snapshot `{path}`: {e}"))?;
            eprintln!(
                "loaded snapshot `{path}` in {:.3?} ({} tables, {} rows, {})",
                started.elapsed(),
                ctx.db().table_count(),
                ctx.db().total_rows(),
                ctx.db().index_config().label()
            );
            if let Some(wanted) = scale {
                if wanted != ctx.scale() {
                    return Err(format!(
                        "snapshot `{path}` was generated at {} movies, but --scale asks for {}; \
                         delete the snapshot (or drop --scale) to proceed",
                        ctx.scale().movies,
                        wanted.movies
                    ));
                }
            }
            if let Some(wanted) = indexes {
                if wanted != ctx.db().index_config() {
                    ctx.set_index_config(wanted)
                        .map_err(|e| format!("cannot rebuild indexes: {e}"))?;
                    eprintln!("rebuilt indexes for the requested design ({})", wanted.label());
                }
            }
            return Ok((ctx, true));
        }
    }
    if let Some(dir) = data_dir {
        if scale.is_some() {
            return Err(
                "--scale does not apply with --data-dir (the CSV files set the scale)".to_owned()
            );
        }
        let indexes = indexes.unwrap_or_default();
        eprintln!("ingesting CSV files from `{dir}` ({})...", indexes.label());
        let started = Instant::now();
        let (ctx, report) =
            BenchmarkContext::ingest_csv_dir(dir, indexes, qob_exec::default_threads())
                .map_err(|e| format!("ingestion from `{dir}` failed: {e}"))?;
        eprintln!(
            "ingested {} rows across {} tables in {:.3?}",
            report.total_rows(),
            ctx.db().table_count(),
            started.elapsed()
        );
        if let Some(path) = snapshot {
            ctx.save_snapshot(path).map_err(|e| format!("cannot save snapshot `{path}`: {e}"))?;
            eprintln!("saved snapshot to `{path}`");
        }
        return Ok((ctx, false));
    }
    let indexes = indexes.unwrap_or_default();
    eprintln!("building the synthetic IMDB-like database ({})...", indexes.label());
    let ctx = BenchmarkContext::new(scale.unwrap_or_else(Scale::tiny), indexes)
        .map_err(|e| format!("database generation failed: {e}"))?;
    if let Some(path) = snapshot {
        ctx.save_snapshot(path).map_err(|e| format!("cannot save snapshot `{path}`: {e}"))?;
        eprintln!("saved snapshot to `{path}`");
    }
    Ok((ctx, false))
}

fn oneshot_main(args: &[String]) -> ExitCode {
    let options = match parse_args(args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let script = match read_source(&options.source) {
        Ok(script) => script,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    // Parse (syntax only) *before* paying for the database, so `--help`,
    // empty input and parse errors never trigger datagen.
    let parsed = match parse_script(&script) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.is_empty() {
        eprintln!("error: the input contains no statements");
        return ExitCode::FAILURE;
    }

    let (ctx, _) = match obtain_context(
        options.scale,
        options.indexes,
        options.snapshot.as_deref(),
        options.data_dir.as_deref(),
    ) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    let server = ServerContext::new(ctx);
    let mut session = server.session();
    session.options.estimator = options.estimator;
    session.options.threads = options.threads;
    session.options.execute = options.execute;
    session.options.morsel_size = options.morsel_size;
    session.options.adaptive = options.adaptive;
    session.options.plan_cache = options.plan_cache;
    session.options.cache_fence = options.cache_fence;
    session.options.tracing = options.tracing;

    let mut failures = 0usize;
    for statement in &parsed {
        match session.run_statement(statement) {
            Ok(ScriptOutcome::Query(report)) => {
                println!(
                    "\n=== {} — {} relations, {} join predicates, {} selections ===",
                    report.name, report.relations, report.join_predicates, report.selections
                );
                print_report(&report);
            }
            Ok(ScriptOutcome::Prepared { name, params }) => {
                println!(
                    "\nprepared `{name}` ({params} parameter{})",
                    if params == 1 { "" } else { "s" }
                );
            }
            Ok(ScriptOutcome::Deallocated { name }) => {
                println!("\ndeallocated `{name}`");
            }
            Err(e) => {
                eprintln!("statement `{}` failed: {e}", statement.name);
                failures += 1;
            }
        }
    }
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Renders one report in the one-shot output format (also used, via the
/// JSON fields, by `qob connect` — the two must stay in sync so server
/// answers diff clean against one-shot answers).
fn print_report(report: &QueryReport) {
    println!(
        "plan chosen with {} estimates (cost {:.1}, {} thread{}):",
        report.estimator,
        report.cost,
        report.threads,
        if report.threads == 1 { "" } else { "s" }
    );
    if let Some(status) = report.plan_cache {
        println!("plan cache: {}", status.label());
    }
    print!("{}", report.plan);

    let Some(exec) = &report.execution else { return };
    for (i, replan) in exec.replans.iter().enumerate() {
        println!(
            "re-plan {}: after {} estimated {:.0} observed {} (diverged {:.1}x) — {}",
            i + 1,
            replan.after,
            replan.estimated,
            replan.observed,
            replan.factor,
            if replan.changed { "resumed on spliced plan:" } else { "plan confirmed" }
        );
        if replan.changed {
            print!("{}", replan.resumed_plan);
        }
    }
    // Tracing appends time/morsel columns; the untraced table is unchanged
    // so CI smokes can keep diffing cardinality lines across engine modes.
    let traced = exec.operators.iter().any(|op| op.time_us.is_some());
    if traced {
        println!(
            "\n{:<28} {:>14} {:>14} {:>10} {:>12} {:>8}",
            "operator output", "estimated", "true", "q-error", "time", "morsels"
        );
    } else {
        println!(
            "\n{:<28} {:>14} {:>14} {:>10}",
            "operator output", "estimated", "true", "q-error"
        );
    }
    for op in &exec.operators {
        if traced {
            println!(
                "{:<28} {:>14.0} {:>14} {:>9.1}x {:>10}us {:>8}",
                op.relations,
                op.estimated,
                op.true_rows,
                op.q_error,
                op.time_us.unwrap_or(0),
                op.morsels.unwrap_or(0)
            );
        } else {
            println!(
                "{:<28} {:>14.0} {:>14} {:>9.1}x",
                op.relations, op.estimated, op.true_rows, op.q_error
            );
        }
    }
    println!(
        "\n{} rows in {:.3?} — worst operator q-error {:.1}x",
        exec.rows, exec.elapsed, exec.worst_q_error
    );
    if let Some(trace) = &report.trace {
        println!(
            "phases: parse {}us, bind {}us, optimize {}us, queue {}us, execute {}us",
            trace.parse_us, trace.bind_us, trace.optimize_us, trace.queue_us, trace.execute_us
        );
    }
}

// ---------------------------------------------------------------------------
// `qob serve`
// ---------------------------------------------------------------------------

struct ServeOptions {
    addr: String,
    scale: Option<Scale>,
    indexes: Option<IndexConfig>,
    threads: usize,
    plan_cache: bool,
    cache_fence: f64,
    snapshot: Option<String>,
    data_dir: Option<String>,
    slow_query_ms: u64,
    /// Shared execution pool size (`0` on the command line = all cores).
    workers: usize,
    /// Admission concurrency limit; `None` = twice the pool size.
    max_concurrent: Option<usize>,
    max_queued: usize,
    mem_budget: usize,
    /// Default execution morsel size for every session (`0` = engine
    /// default); small tables need a smaller morsel before a pipeline has
    /// enough morsels to parallelise at all.
    morsel_size: usize,
    /// Regression-detector threshold for every session (`0` disables).
    regression_ratio: f64,
}

/// Validates `--slow-query-ms` through [`SessionOptions::set`] (same rule
/// as `set slow_query_ms` on the wire).
fn parse_slow_query_ms(raw: &str) -> Result<u64, String> {
    let mut scratch = SessionOptions::default();
    scratch.set("slow_query_ms", raw)?;
    Ok(scratch.slow_query_ms)
}

/// Validates `--mem-budget` through [`SessionOptions::set`] (same rule as
/// `set mem_budget` on the wire).
fn parse_mem_budget(raw: &str) -> Result<usize, String> {
    let mut scratch = SessionOptions::default();
    scratch.set("mem_budget", raw)?;
    Ok(scratch.mem_budget)
}

/// Validates `--regression-ratio` through [`SessionOptions::set`] (same rule
/// as `set regression_ratio` on the wire).
fn parse_regression_ratio(raw: &str) -> Result<f64, String> {
    let mut scratch = SessionOptions::default();
    scratch.set("regression_ratio", raw)?;
    Ok(scratch.regression_ratio)
}

fn parse_count(raw: &str, flag: &str) -> Result<usize, String> {
    raw.parse().map_err(|_| format!("{flag} needs a number, got `{raw}`"))
}

fn parse_serve_args(args: &[String]) -> Result<ServeOptions, String> {
    let mut options = ServeOptions {
        addr: qob_server::DEFAULT_ADDR.to_owned(),
        scale: None,
        indexes: None,
        threads: qob_exec::default_threads(),
        plan_cache: false,
        cache_fence: qob_core::DEFAULT_CACHE_FENCE,
        snapshot: None,
        data_dir: None,
        slow_query_ms: 0,
        workers: qob_exec::default_threads(),
        max_concurrent: None,
        max_queued: 256,
        mem_budget: 0,
        morsel_size: qob_exec::DEFAULT_MORSEL_SIZE,
        regression_ratio: qob_core::DEFAULT_REGRESSION_RATIO,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => options.addr = value_of(args, &mut i, "--addr")?,
            "--scale" => options.scale = Some(parse_scale(&value_of(args, &mut i, "--scale")?)?),
            "--indexes" => {
                options.indexes = Some(parse_indexes(&value_of(args, &mut i, "--indexes")?)?)
            }
            "--threads" => options.threads = parse_threads(&value_of(args, &mut i, "--threads")?)?,
            "--plan-cache" => options.plan_cache = true,
            "--cache-fence" => {
                options.cache_fence = parse_cache_fence(&value_of(args, &mut i, "--cache-fence")?)?
            }
            "--snapshot" => options.snapshot = Some(value_of(args, &mut i, "--snapshot")?),
            "--data-dir" => options.data_dir = Some(value_of(args, &mut i, "--data-dir")?),
            "--slow-query-ms" => {
                options.slow_query_ms =
                    parse_slow_query_ms(&value_of(args, &mut i, "--slow-query-ms")?)?
            }
            "--workers" => {
                // Same `0 = all cores` rule as --threads.
                options.workers = parse_threads(&value_of(args, &mut i, "--workers")?)?
            }
            "--max-concurrent" => {
                options.max_concurrent = Some(parse_count(
                    &value_of(args, &mut i, "--max-concurrent")?,
                    "--max-concurrent",
                )?)
            }
            "--max-queued" => {
                options.max_queued =
                    parse_count(&value_of(args, &mut i, "--max-queued")?, "--max-queued")?
            }
            "--mem-budget" => {
                options.mem_budget = parse_mem_budget(&value_of(args, &mut i, "--mem-budget")?)?
            }
            "--morsel-size" => {
                options.morsel_size = parse_morsel_size(&value_of(args, &mut i, "--morsel-size")?)?
            }
            "--regression-ratio" => {
                options.regression_ratio =
                    parse_regression_ratio(&value_of(args, &mut i, "--regression-ratio")?)?
            }
            flag => return Err(format!("unknown serve flag `{flag}`")),
        }
        i += 1;
    }
    Ok(options)
}

fn serve_main(args: &[String]) -> ExitCode {
    let options = match parse_serve_args(args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let (ctx, snapshot_loaded) = match obtain_context(
        options.scale,
        options.indexes,
        options.snapshot.as_deref(),
        options.data_dir.as_deref(),
    ) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    let defaults = SessionOptions {
        threads: options.threads,
        plan_cache: options.plan_cache,
        cache_fence: options.cache_fence,
        slow_query_ms: options.slow_query_ms,
        mem_budget: options.mem_budget,
        morsel_size: options.morsel_size,
        regression_ratio: options.regression_ratio,
        ..SessionOptions::default()
    };
    let scheduler = qob_core::SchedulerConfig {
        workers: options.workers,
        max_concurrent: options.max_concurrent.unwrap_or(2 * options.workers),
        max_queued: options.max_queued,
    };
    let context = ServerContext::with_scheduler(ctx, defaults, scheduler);
    let config = ServerConfig { addr: options.addr, snapshot_loaded };
    let handle = match qob_server::serve(context, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("error: cannot bind server: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "execution: shared pool of {} workers, {} concurrent statements, {} queued max",
        scheduler.workers, scheduler.max_concurrent, scheduler.max_queued
    );
    eprintln!("qob server listening on {} (JSON lines; see docs/PROTOCOL.md)", handle.local_addr());
    handle.join();
    eprintln!("qob server stopped");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// `qob connect`
// ---------------------------------------------------------------------------

enum ConnectAction {
    Script { explain: bool },
    Stats,
    Metrics,
    History { top: Option<u64> },
    TraceExport { out: String },
    Ping,
    Shutdown,
}

struct ConnectOptions {
    addr: String,
    source: Source,
    action: ConnectAction,
    raw_json: bool,
    /// `--set name=value` session options, applied in order before the
    /// main request on the same connection.
    sets: Vec<(String, String)>,
}

fn parse_connect_args(args: &[String]) -> Result<ConnectOptions, String> {
    let mut options = ConnectOptions {
        addr: qob_server::DEFAULT_ADDR.to_owned(),
        source: Source::Stdin,
        action: ConnectAction::Script { explain: false },
        raw_json: false,
        sets: Vec::new(),
    };
    let mut explain = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => options.addr = value_of(args, &mut i, "--addr")?,
            "-e" | "--execute" => options.source = Source::Inline(value_of(args, &mut i, "-e")?),
            "--set" => {
                let raw = value_of(args, &mut i, "--set")?;
                let (name, value) = raw
                    .split_once('=')
                    .ok_or_else(|| format!("--set needs name=value, got `{raw}`"))?;
                options.sets.push((name.trim().to_owned(), value.trim().to_owned()));
            }
            "--explain" => explain = true,
            "--stats" => options.action = ConnectAction::Stats,
            "--metrics" => options.action = ConnectAction::Metrics,
            "--history" => {
                // The cap is optional: `--history 5` limits the list, a bare
                // `--history` returns every fingerprint.
                let top = match args.get(i + 1).map(|next| next.parse::<u64>()) {
                    Some(Ok(n)) => {
                        i += 1;
                        Some(n)
                    }
                    _ => None,
                };
                options.action = ConnectAction::History { top };
            }
            "--trace-out" => {
                options.action =
                    ConnectAction::TraceExport { out: value_of(args, &mut i, "--trace-out")? }
            }
            "--ping" => options.action = ConnectAction::Ping,
            "--shutdown" => options.action = ConnectAction::Shutdown,
            "--json" => options.raw_json = true,
            "-" => options.source = Source::Stdin,
            flag if flag.starts_with('-') => return Err(format!("unknown connect flag `{flag}`")),
            file => options.source = Source::File(file.to_owned()),
        }
        i += 1;
    }
    if let ConnectAction::Script { explain: e } = &mut options.action {
        *e = explain;
    }
    Ok(options)
}

fn connect_main(args: &[String]) -> ExitCode {
    let options = match parse_connect_args(args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut client = match Client::connect(&options.addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };

    // Session options ride the same connection as the query that follows.
    for (name, value) in &options.sets {
        let request = Request::Set { option: name.clone(), value: value.clone() };
        match client.request(&request) {
            Ok(response) if response.get("ok").and_then(Json::as_bool) == Some(true) => {}
            Ok(response) => {
                let message = response
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("malformed error response");
                eprintln!("error: set {name}: {message}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("error: set {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let request = match &options.action {
        ConnectAction::Stats => Request::Stats,
        ConnectAction::Metrics => Request::Metrics,
        ConnectAction::History { top } => Request::History { top: *top },
        ConnectAction::TraceExport { .. } => Request::TraceExport,
        ConnectAction::Ping => Request::Ping,
        ConnectAction::Shutdown => Request::Shutdown,
        ConnectAction::Script { explain } => {
            let sql = match read_source(&options.source) {
                Ok(sql) => sql,
                Err(message) => {
                    eprintln!("error: {message}");
                    return ExitCode::FAILURE;
                }
            };
            if *explain {
                Request::Explain { sql }
            } else {
                Request::Query { sql }
            }
        }
    };

    let response = match client.request(&request) {
        Ok(response) => response,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if matches!(options.action, ConnectAction::Metrics) {
        return render_metrics(&response, options.raw_json);
    }
    if let ConnectAction::TraceExport { out } = &options.action {
        return write_trace(&response, out, options.raw_json);
    }
    if options.raw_json
        || matches!(options.action, ConnectAction::Stats | ConnectAction::History { .. })
    {
        println!("{response}");
        return exit_for(&response);
    }
    render_response(&response)
}

/// Writes a `trace` response's event array as a Chrome trace-event JSON
/// file — a plain array, exactly what `about://tracing` and Perfetto load.
fn write_trace(response: &Json, path: &str, raw_json: bool) -> ExitCode {
    let Some(events) = response.get("events").and_then(Json::as_array) else {
        eprintln!("error: malformed trace response: {response}");
        return ExitCode::FAILURE;
    };
    let spans = response.get("span_count").and_then(Json::as_u64).unwrap_or(0);
    let body = Json::Arr(events.to_vec());
    if let Err(e) = std::fs::write(path, format!("{body}\n")) {
        eprintln!("error: cannot write `{path}`: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {} trace events ({spans} pipeline spans) to `{path}` — open it in \
         about://tracing or https://ui.perfetto.dev",
        events.len()
    );
    if raw_json {
        println!("{response}");
    }
    exit_for(response)
}

/// Renders a `metrics` response: validates the Prometheus exposition before
/// printing it.
fn render_metrics(response: &Json, raw_json: bool) -> ExitCode {
    let Some(body) = response.get("body").and_then(Json::as_str) else {
        eprintln!("error: malformed metrics response: {response}");
        return ExitCode::FAILURE;
    };
    if let Err(e) = qob_obs::validate_exposition(body) {
        eprintln!("error: server sent an invalid exposition: {e}");
        return ExitCode::FAILURE;
    }
    if raw_json {
        println!("{response}");
    } else {
        print!("{body}");
    }
    exit_for(response)
}

fn exit_for(response: &Json) -> ExitCode {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders a server response in the one-shot output format.
fn render_response(response: &Json) -> ExitCode {
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let message = response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("malformed error response");
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    match response.get("type").and_then(Json::as_str) {
        Some("result") => {
            for result in response.get("results").and_then(Json::as_array).unwrap_or(&[]) {
                render_result(result);
            }
            ExitCode::SUCCESS
        }
        Some("pong") => {
            println!("pong");
            ExitCode::SUCCESS
        }
        Some("shutdown") => {
            println!("server is shutting down");
            ExitCode::SUCCESS
        }
        _ => {
            println!("{response}");
            ExitCode::SUCCESS
        }
    }
}

/// Renders one per-statement result object exactly like [`print_report`].
fn render_result(result: &Json) {
    let str_of = |key: &str| result.get(key).and_then(Json::as_str).unwrap_or("?");
    let num_of = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    // Prepared-statement acknowledgements are tiny objects, not reports.
    if let Some(name) = result.get("prepared").and_then(Json::as_str) {
        let params = result.get("params").and_then(Json::as_u64).unwrap_or(0);
        println!("\nprepared `{name}` ({params} parameter{})", if params == 1 { "" } else { "s" });
        return;
    }
    if let Some(name) = result.get("deallocated").and_then(Json::as_str) {
        println!("\ndeallocated `{name}`");
        return;
    }
    println!(
        "\n=== {} — {} relations, {} join predicates, {} selections ===",
        str_of("query"),
        num_of("relations"),
        num_of("join_predicates"),
        num_of("selections")
    );
    let threads = num_of("threads") as usize;
    println!(
        "plan chosen with {} estimates (cost {:.1}, {} thread{}):",
        str_of("estimator"),
        num_of("cost"),
        threads,
        if threads == 1 { "" } else { "s" }
    );
    if let Some(status) = result.get("plan_cache").and_then(Json::as_str) {
        println!("plan cache: {status}");
    }
    print!("{}", str_of("plan"));

    let Some(rows) = result.get("rows").and_then(Json::as_u64) else { return };
    for (i, replan) in
        result.get("replans").and_then(Json::as_array).unwrap_or(&[]).iter().enumerate()
    {
        let changed = replan.get("changed").and_then(Json::as_bool).unwrap_or(false);
        println!(
            "re-plan {}: after {} estimated {:.0} observed {} (diverged {:.1}x) — {}",
            i + 1,
            replan.get("after").and_then(Json::as_str).unwrap_or("?"),
            replan.get("estimated").and_then(Json::as_f64).unwrap_or(0.0),
            replan.get("observed").and_then(Json::as_u64).unwrap_or(0),
            replan.get("factor").and_then(Json::as_f64).unwrap_or(0.0),
            if changed { "resumed on spliced plan:" } else { "plan confirmed" }
        );
        if changed {
            print!("{}", replan.get("resumed_plan").and_then(Json::as_str).unwrap_or(""));
        }
    }
    let ops = result.get("operators").and_then(Json::as_array).unwrap_or(&[]);
    let traced = ops.iter().any(|op| op.get("time_us").is_some());
    if traced {
        println!(
            "\n{:<28} {:>14} {:>14} {:>10} {:>12} {:>8}",
            "operator output", "estimated", "true", "q-error", "time", "morsels"
        );
    } else {
        println!(
            "\n{:<28} {:>14} {:>14} {:>10}",
            "operator output", "estimated", "true", "q-error"
        );
    }
    for op in ops {
        if traced {
            println!(
                "{:<28} {:>14.0} {:>14} {:>9.1}x {:>10}us {:>8}",
                op.get("relations").and_then(Json::as_str).unwrap_or("?"),
                op.get("estimated").and_then(Json::as_f64).unwrap_or(0.0),
                op.get("true").and_then(Json::as_u64).unwrap_or(0),
                op.get("q_error").and_then(Json::as_f64).unwrap_or(0.0),
                op.get("time_us").and_then(Json::as_u64).unwrap_or(0),
                op.get("morsels").and_then(Json::as_u64).unwrap_or(0)
            );
        } else {
            println!(
                "{:<28} {:>14.0} {:>14} {:>9.1}x",
                op.get("relations").and_then(Json::as_str).unwrap_or("?"),
                op.get("estimated").and_then(Json::as_f64).unwrap_or(0.0),
                op.get("true").and_then(Json::as_u64).unwrap_or(0),
                op.get("q_error").and_then(Json::as_f64).unwrap_or(0.0)
            );
        }
    }
    let elapsed = std::time::Duration::from_micros(num_of("elapsed_us") as u64);
    println!(
        "\n{} rows in {:.3?} — worst operator q-error {:.1}x",
        rows,
        elapsed,
        num_of("worst_q_error")
    );
    if let Some(trace) = result.get("trace") {
        let phase = |key: &str| trace.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "phases: parse {}us, bind {}us, optimize {}us, queue {}us, execute {}us",
            phase("parse_us"),
            phase("bind_us"),
            phase("optimize_us"),
            phase("queue_us"),
            phase("execute_us")
        );
    }
}

// ---------------------------------------------------------------------------
// `qob top`
// ---------------------------------------------------------------------------

struct TopOptions {
    addr: String,
    interval_ms: u64,
    /// Frames to render before exiting; `0` = run until interrupted.
    count: usize,
    /// Hottest fingerprints to show.
    top: usize,
}

fn parse_top_args(args: &[String]) -> Result<TopOptions, String> {
    let mut options = TopOptions {
        addr: qob_server::DEFAULT_ADDR.to_owned(),
        interval_ms: 1000,
        count: 0,
        top: 8,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => options.addr = value_of(args, &mut i, "--addr")?,
            "--interval" => {
                options.interval_ms =
                    parse_count(&value_of(args, &mut i, "--interval")?, "--interval")?.max(50)
                        as u64
            }
            "--count" => {
                options.count = parse_count(&value_of(args, &mut i, "--count")?, "--count")?
            }
            "--top" => {
                options.top = parse_count(&value_of(args, &mut i, "--top")?, "--top")?.max(1)
            }
            flag => return Err(format!("unknown top flag `{flag}`")),
        }
        i += 1;
    }
    Ok(options)
}

/// A 20-cell utilization bar: `[##########----------]  50.0%`.
fn utilization_bar(fraction: f64) -> String {
    let cells = (fraction.clamp(0.0, 1.0) * 20.0).round() as usize;
    format!("[{}{}] {:>5.1}%", "#".repeat(cells), "-".repeat(20 - cells), fraction * 100.0)
}

/// Renders one dashboard frame from the three wire responses.  Pure
/// formatting — the polling loop and the tests share it.
fn format_top_frame(
    addr: &str,
    stats: &Json,
    summary: &Json,
    history: &Json,
    qps: Option<f64>,
) -> String {
    use std::fmt::Write as _;
    let stat = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap_or(0);
    let sum = |key: &str| summary.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "qob top — {addr} · {} queries · {} connections",
        stat("queries_served"),
        stat("active_connections")
    );
    let qps_text = qps.map_or("  --".to_owned(), |q| format!("{q:.1}"));
    let _ = writeln!(
        out,
        "qps {qps_text} · p50 {:.0}us p95 {:.0}us p99 {:.0}us · errors {} · regressions {}",
        sum("query_p50_us"),
        sum("query_p95_us"),
        sum("query_p99_us"),
        sum("query_errors_total") as u64,
        sum("regressions_total") as u64
    );

    let workers = stats.get("workers").and_then(Json::as_array).unwrap_or(&[]);
    if !workers.is_empty() {
        let _ = writeln!(out, "\npool ({} workers):", workers.len());
        for (i, worker) in workers.iter().enumerate() {
            let utilization = worker.get("utilization").and_then(Json::as_f64).unwrap_or(0.0);
            let steals = worker.get("steals").and_then(Json::as_u64).unwrap_or(0);
            let _ =
                writeln!(out, "  worker {i:<2} {}  steals {steals}", utilization_bar(utilization));
        }
    }

    let fingerprints = history.get("fingerprints").and_then(Json::as_array).unwrap_or(&[]);
    if !fingerprints.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<16} {:>7} {:>10} {:>10} {:>8} {:>7}  query",
            "fingerprint", "count", "p50", "p99", "q-err", "replan"
        );
        for f in fingerprints {
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>8}us {:>8}us {:>7.1}x {:>7}  {}",
                f.get("fingerprint").and_then(Json::as_str).unwrap_or("?"),
                f.get("count").and_then(Json::as_u64).unwrap_or(0),
                f.get("p50_us").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                f.get("p99_us").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                f.get("max_q_error").and_then(Json::as_f64).unwrap_or(0.0),
                f.get("replans").and_then(Json::as_u64).unwrap_or(0),
                f.get("query").and_then(Json::as_str).unwrap_or("?"),
            );
        }
    } else {
        let _ = writeln!(out, "\nno queries recorded yet");
    }

    let regressions = history.get("regressions").and_then(Json::as_array).unwrap_or(&[]);
    if !regressions.is_empty() {
        let _ = writeln!(out, "\nrecent regressions:");
        for r in regressions {
            let _ = writeln!(
                out,
                "  {}: {:.0}us → {:.0}us ({:.1}x past the {:.1}x threshold)",
                r.get("query").and_then(Json::as_str).unwrap_or("?"),
                r.get("baseline_us").and_then(Json::as_f64).unwrap_or(0.0),
                r.get("recent_us").and_then(Json::as_f64).unwrap_or(0.0),
                r.get("factor").and_then(Json::as_f64).unwrap_or(0.0),
                r.get("ratio").and_then(Json::as_f64).unwrap_or(0.0),
            );
        }
    }
    out
}

fn top_main(args: &[String]) -> ExitCode {
    let options = match parse_top_args(args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let mut client = match Client::connect(&options.addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };

    // QPS is the queries_total delta between consecutive frames; the first
    // frame has no baseline and shows `--`.
    let mut previous: Option<(Instant, u64)> = None;
    let mut frame = 0usize;
    loop {
        let polled = (|| -> Result<(Json, Json, Json), String> {
            let stats = client.request(&Request::Stats).map_err(|e| e.to_string())?;
            let metrics = client.request(&Request::Metrics).map_err(|e| e.to_string())?;
            let history = client
                .request(&Request::History { top: Some(options.top as u64) })
                .map_err(|e| e.to_string())?;
            Ok((stats, metrics, history))
        })();
        let (stats, metrics, history) = match polled {
            Ok(tuple) => tuple,
            Err(message) => {
                eprintln!("error: lost the server at {}: {message}", options.addr);
                return ExitCode::FAILURE;
            }
        };
        let summary = metrics.get("summary").cloned().unwrap_or(Json::Null);
        let now = Instant::now();
        let total = summary.get("queries_total").and_then(Json::as_u64).unwrap_or(0);
        let qps = previous.map(|(at, then)| {
            total.saturating_sub(then) as f64 / now.duration_since(at).as_secs_f64().max(1e-9)
        });
        previous = Some((now, total));

        // Clear and repaint in place (ANSI: wipe the screen, home the
        // cursor), exactly like top(1).
        print!("\x1b[2J\x1b[H{}", format_top_frame(&options.addr, &stats, &summary, &history, qps));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();

        frame += 1;
        if options.count > 0 && frame >= options.count {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

// ---------------------------------------------------------------------------
// `qob plangrid`
// ---------------------------------------------------------------------------

struct PlangridOptions {
    scale: Option<Scale>,
    indexes: Option<IndexConfig>,
    snapshot: Option<String>,
    seed: u64,
    job_limit: usize,
    random_count: usize,
    max_rels: usize,
    samples: usize,
    quickpick: usize,
    output: String,
    require_true_optimal: bool,
}

fn parse_plangrid_args(args: &[String]) -> Result<PlangridOptions, String> {
    let mut options = PlangridOptions {
        scale: None,
        indexes: None,
        snapshot: None,
        seed: 0,
        job_limit: 4,
        random_count: 4,
        max_rels: 8,
        samples: 1000,
        quickpick: 100,
        output: "BENCH_planspace.json".to_owned(),
        require_true_optimal: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--scale" => options.scale = Some(parse_scale(&value_of(args, &mut i, "--scale")?)?),
            "--indexes" => {
                options.indexes = Some(parse_indexes(&value_of(args, &mut i, "--indexes")?)?)
            }
            "--snapshot" => options.snapshot = Some(value_of(args, &mut i, "--snapshot")?),
            "--seed" => {
                let raw = value_of(args, &mut i, "--seed")?;
                options.seed =
                    raw.parse().map_err(|_| format!("--seed needs a number, got `{raw}`"))?
            }
            "--job-limit" => {
                options.job_limit =
                    parse_count(&value_of(args, &mut i, "--job-limit")?, "--job-limit")?
            }
            "--random-count" => {
                options.random_count =
                    parse_count(&value_of(args, &mut i, "--random-count")?, "--random-count")?
            }
            "--max-rels" => {
                options.max_rels =
                    parse_count(&value_of(args, &mut i, "--max-rels")?, "--max-rels")?.max(2)
            }
            "--samples" => {
                options.samples =
                    parse_count(&value_of(args, &mut i, "--samples")?, "--samples")?.max(1)
            }
            "--quickpick" => {
                options.quickpick =
                    parse_count(&value_of(args, &mut i, "--quickpick")?, "--quickpick")?.max(1)
            }
            "--output" => options.output = value_of(args, &mut i, "--output")?,
            "--require-true-optimal" => options.require_true_optimal = true,
            flag => return Err(format!("unknown plangrid flag `{flag}`")),
        }
        i += 1;
    }
    Ok(options)
}

/// Rounds a metric to 6 decimals so the JSON stays compact and stable.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

fn plangrid_main(args: &[String]) -> ExitCode {
    let options = match parse_plangrid_args(args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let (ctx, _) =
        match obtain_context(options.scale, options.indexes, options.snapshot.as_deref(), None) {
            Ok(pair) => pair,
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        };

    // The workload: small JOB queries plus seeded random queries over the
    // same FK graph — all bounded by --max-rels so the plan space stays
    // exhaustively enumerable by default.
    let mut queries: Vec<qob_plan::QuerySpec> = ctx
        .queries()
        .iter()
        .filter(|q| q.rel_count() <= options.max_rels)
        .take(options.job_limit)
        .cloned()
        .collect();
    if options.random_count > 0 {
        let generator_options = qob_plangrid::GeneratorOptions {
            min_relations: 2,
            max_relations: options.max_rels.min(6),
            ..Default::default()
        };
        match qob_plangrid::generate_many(
            ctx.db(),
            &generator_options,
            options.random_count,
            options.seed,
            "rand",
        ) {
            Ok(generated) => {
                for g in &generated {
                    eprintln!("generated {}: {}", g.spec.name, g.sql.replace('\n', " "));
                }
                queries.extend(generated.into_iter().map(|g| g.spec));
            }
            Err(e) => {
                eprintln!("error: query generation failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if queries.is_empty() {
        eprintln!("error: no queries selected (raise --job-limit or --random-count)");
        return ExitCode::FAILURE;
    }

    let grid_options = qob_plangrid::GridOptions {
        seed: options.seed,
        space: qob_plangrid::PlanSpaceOptions {
            max_exhaustive_relations: options.max_rels,
            samples: options.samples,
            ..Default::default()
        },
        quickpick_runs: options.quickpick,
    };
    let started = Instant::now();
    let report = match qob_plangrid::run_grid(&ctx, &queries, &grid_options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    // The CI invariant: with perfect estimates, exhaustive DP provably
    // finds the optimum — every (true, *, dpccp) cell must be at 1.0.
    let true_dpccp_optimal = report
        .cells
        .iter()
        .filter(|c| c.estimator == "true" && c.enumerator == "dpccp")
        .all(|c| c.optimal_plan_ratio == 1.0);

    let spaces: Vec<Json> = report
        .spaces
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("query", Json::str(s.query.clone())),
                ("cost_model", Json::str(s.cost_model)),
                ("relations", Json::Num(s.relations as f64)),
                ("exhaustive", Json::Bool(s.exhaustive)),
                // u128 exceeds f64 precision; emit as a string.
                ("plan_count", Json::str(s.plan_count.to_string())),
                ("explored", Json::Num(s.explored as f64)),
            ])
        })
        .collect();
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("estimator", Json::str(c.estimator)),
                ("cost_model", Json::str(c.cost_model)),
                ("enumerator", Json::str(c.enumerator)),
                ("queries", Json::Num(c.queries as f64)),
                ("optimal_queries", Json::Num(c.optimal_queries as f64)),
                ("optimal_plan_ratio", Json::Num(round6(c.optimal_plan_ratio))),
                ("geo_mean_cost_ratio", Json::Num(round6(c.geo_mean_cost_ratio))),
                ("median_rank", Json::Num(round6(c.median_rank))),
                ("mean_subplan_optimality", Json::Num(round6(c.mean_subplan_optimality))),
            ])
        })
        .collect();
    let per_query: Vec<Json> = report
        .per_query
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("query", Json::str(c.query.clone())),
                ("estimator", Json::str(c.estimator)),
                ("cost_model", Json::str(c.cost_model)),
                ("enumerator", Json::str(c.enumerator)),
                ("cost_ratio", Json::Num(round6(c.cost_ratio))),
                ("rank", Json::Num(round6(c.rank))),
                ("subplan_optimality", Json::Num(round6(c.subplan_optimality))),
                ("optimal", Json::Bool(c.optimal)),
            ])
        })
        .collect();
    let out = Json::obj(vec![
        ("bench", Json::str("planspace")),
        ("seed", Json::Num(options.seed as f64)),
        ("scale_movies", Json::Num(ctx.scale().movies as f64)),
        ("indexes", Json::str(ctx.db().index_config().label())),
        ("max_rels", Json::Num(options.max_rels as f64)),
        ("queries", Json::Arr(queries.iter().map(|q| Json::str(q.name.clone())).collect())),
        ("true_dpccp_optimal", Json::Bool(true_dpccp_optimal)),
        ("spaces", Json::Arr(spaces)),
        ("cells", Json::Arr(cells)),
        ("per_query", Json::Arr(per_query)),
    ]);
    if let Err(e) = std::fs::write(&options.output, format!("{out}\n")) {
        eprintln!("error: cannot write `{}`: {e}", options.output);
        return ExitCode::FAILURE;
    }

    eprintln!(
        "plangrid: {} queries x {} estimators x 3 cost models x 4 enumerators in {:.3?} → {}",
        queries.len(),
        qob_plangrid::grid::estimator_names().len(),
        elapsed,
        options.output
    );
    for cell in report.cells.iter().filter(|c| c.cost_model == "cmm") {
        eprintln!(
            "  [{:>13} | {:>9}] optimal {:>5.1}% geo-ratio {:>8.2} median-rank {:.3} subplan {:.3}",
            cell.estimator,
            cell.enumerator,
            cell.optimal_plan_ratio * 100.0,
            cell.geo_mean_cost_ratio,
            cell.median_rank,
            cell.mean_subplan_optimality
        );
    }
    if options.require_true_optimal && !true_dpccp_optimal {
        eprintln!(
            "error: --require-true-optimal: dpccp under true cardinalities missed the optimum"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// `qob ingest`
// ---------------------------------------------------------------------------

struct IngestOptions {
    dir: Option<String>,
    indexes: Option<IndexConfig>,
    threads: usize,
    snapshot: Option<String>,
    generate: Option<Scale>,
    output: String,
}

fn parse_ingest_args(args: &[String]) -> Result<IngestOptions, String> {
    let mut options = IngestOptions {
        dir: None,
        indexes: None,
        threads: qob_exec::default_threads(),
        snapshot: None,
        generate: None,
        output: "BENCH_ingest.json".to_owned(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--indexes" => {
                options.indexes = Some(parse_indexes(&value_of(args, &mut i, "--indexes")?)?)
            }
            "--threads" => options.threads = parse_threads(&value_of(args, &mut i, "--threads")?)?,
            "--snapshot" => options.snapshot = Some(value_of(args, &mut i, "--snapshot")?),
            "--generate" => {
                options.generate = Some(parse_scale(&value_of(args, &mut i, "--generate")?)?)
            }
            "--output" => options.output = value_of(args, &mut i, "--output")?,
            flag if flag.starts_with('-') => return Err(format!("unknown ingest flag `{flag}`")),
            dir => options.dir = Some(dir.to_owned()),
        }
        i += 1;
    }
    if options.dir.is_none() {
        return Err("ingest needs a data directory argument".to_owned());
    }
    Ok(options)
}

/// Sums the on-disk size of the `.csv`/`.tsv` files in `dir` — the "raw
/// bytes" side of the compression numbers in `BENCH_ingest.json`.
fn csv_dir_bytes(dir: &str) -> Result<u64, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read data dir `{dir}`: {e}"))?;
    let mut total = 0;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read data dir `{dir}`: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".csv") || name.ends_with(".tsv") {
            total += entry.metadata().map_err(|e| format!("cannot stat `{name}`: {e}"))?.len();
        }
    }
    Ok(total)
}

fn ingest_main(args: &[String]) -> ExitCode {
    let options = match parse_ingest_args(args) {
        Ok(options) => options,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let dir = options.dir.as_deref().expect("parse_ingest_args requires a directory");
    let indexes = options.indexes.unwrap_or_default();

    if let Some(scale) = options.generate {
        eprintln!(
            "generating a synthetic database ({} movies) and exporting it to `{dir}`...",
            scale.movies
        );
        let started = Instant::now();
        let source = match BenchmarkContext::new(scale, IndexConfig::NoIndexes) {
            Ok(ctx) => ctx,
            Err(e) => {
                eprintln!("error: generation failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = source.export_csv_dir(dir) {
            eprintln!("error: cannot export CSV files to `{dir}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "exported {} rows across {} tables in {:.3?}",
            source.db().total_rows(),
            source.db().table_count(),
            started.elapsed()
        );
    }

    let csv_bytes = match csv_dir_bytes(dir) {
        Ok(bytes) => bytes,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!("ingesting CSV files from `{dir}` ({})...", indexes.label());
    let started = Instant::now();
    let (ctx, report) = match BenchmarkContext::ingest_csv_dir(dir, indexes, options.threads) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: ingestion from `{dir}` failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ingest_elapsed = started.elapsed();
    let rows = report.total_rows();
    let rows_per_sec = rows as f64 / ingest_elapsed.as_secs_f64().max(1e-9);
    let encoded = report.encoded_bytes();
    let plain = report.plain_bytes();
    eprintln!(
        "ingested {rows} rows across {} tables in {:.3?} ({:.0} rows/s); \
         {encoded} encoded bytes vs {plain} plain ({:.2}x)",
        ctx.db().table_count(),
        ingest_elapsed,
        rows_per_sec,
        plain as f64 / encoded.max(1) as f64
    );

    let tables: Vec<Json> = report
        .tables
        .iter()
        .map(|t| {
            Json::obj(vec![
                ("table", Json::str(t.table.clone())),
                ("rows", Json::Num(t.rows as f64)),
                ("encoded_bytes", Json::Num(t.encoded_bytes as f64)),
                ("plain_bytes", Json::Num(t.plain_bytes as f64)),
                ("dict_bytes", Json::Num(t.dict_bytes as f64)),
            ])
        })
        .collect();
    let mut pairs = vec![
        ("bench", Json::str("ingest")),
        ("data_dir", Json::str(dir.to_owned())),
        ("indexes", Json::str(indexes.label())),
        ("parse_threads", Json::Num(options.threads as f64)),
        ("rows", Json::Num(rows as f64)),
        ("csv_bytes", Json::Num(csv_bytes as f64)),
        ("ingest_ms", Json::Num(round6(ingest_elapsed.as_secs_f64() * 1e3))),
        ("rows_per_sec", Json::Num(rows_per_sec.round())),
        ("encoded_bytes", Json::Num(encoded as f64)),
        ("plain_bytes", Json::Num(plain as f64)),
        ("compression_ratio", Json::Num(round6(plain as f64 / encoded.max(1) as f64))),
        ("tables", Json::Arr(tables)),
    ];

    if let Some(path) = options.snapshot.as_deref() {
        match snapshot_bench(&ctx, path) {
            Ok(summary) => pairs.push(("snapshot", summary)),
            Err(message) => {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
        }
    }

    let out = Json::obj(pairs);
    if let Err(e) = std::fs::write(&options.output, format!("{out}\n")) {
        eprintln!("error: cannot write `{}`: {e}", options.output);
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", options.output);
    ExitCode::SUCCESS
}

/// The `--snapshot` leg of `qob ingest`: save the ingested database, time
/// an eager reload, then open the file *lazily* and run a single-table
/// point query, reporting how few bytes it faulted in (the O(touched data)
/// claim of docs/STORAGE.md, with real numbers).
fn snapshot_bench(ctx: &BenchmarkContext, path: &str) -> Result<Json, String> {
    let started = Instant::now();
    ctx.save_snapshot(path).map_err(|e| format!("cannot save snapshot `{path}`: {e}"))?;
    let save_ms = started.elapsed().as_secs_f64() * 1e3;
    let file_bytes =
        std::fs::metadata(path).map_err(|e| format!("cannot stat `{path}`: {e}"))?.len();

    let started = Instant::now();
    let reloaded = BenchmarkContext::load_snapshot(path)
        .map_err(|e| format!("cannot reload snapshot `{path}`: {e}"))?;
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    if reloaded.db().total_rows() != ctx.db().total_rows() {
        return Err(format!(
            "snapshot round-trip lost rows: saved {}, reloaded {}",
            ctx.db().total_rows(),
            reloaded.db().total_rows()
        ));
    }

    // Lazy open + point query: pick a real id from the warm context so the
    // probe is guaranteed to match exactly one row.
    let title = ctx.db().table_by_name("title").ok_or("ingested database lacks `title`")?;
    let id_col = title.column_id("id").ok_or("`title` lacks an `id` column")?;
    let target = title.column(id_col).int_at(title.row_count() / 2).ok_or("NULL title id")?;
    let started = Instant::now();
    let (lazy, _meta, store) = qob_storage::snapshot::open_lazy(path)
        .map_err(|e| format!("cannot lazily open `{path}`: {e}"))?;
    let lazy_title = lazy.table_by_name("title").ok_or("lazy snapshot lacks `title`")?;
    let matched = qob_storage::Predicate::IntCmp {
        column: id_col,
        op: qob_storage::CmpOp::Eq,
        value: target,
    }
    .filter(lazy_title)
    .len();
    let lazy_ms = started.elapsed().as_secs_f64() * 1e3;
    let touched = store.bytes_read();
    eprintln!(
        "snapshot `{path}`: {file_bytes} bytes, save {save_ms:.1}ms, eager load {load_ms:.1}ms; \
         lazy point query on title touched {touched} bytes ({:.1}% of the file) in {lazy_ms:.1}ms",
        touched as f64 / file_bytes.max(1) as f64 * 100.0
    );
    Ok(Json::obj(vec![
        ("path", Json::str(path.to_owned())),
        ("file_bytes", Json::Num(file_bytes as f64)),
        ("save_ms", Json::Num(round6(save_ms))),
        ("load_ms", Json::Num(round6(load_ms))),
        ("lazy_point_query_ms", Json::Num(round6(lazy_ms))),
        ("lazy_point_query_rows", Json::Num(matched as f64)),
        ("lazy_bytes_read", Json::Num(touched as f64)),
        ("lazy_fraction_of_file", Json::Num(round6(touched as f64 / file_bytes.max(1) as f64))),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_read_stdin_with_postgres_estimator() {
        let options = parse_args(&[]).unwrap();
        assert!(matches!(options.source, Source::Stdin));
        assert_eq!(options.estimator, EstimatorKind::Postgres);
        assert_eq!(options.indexes, None, "indexes default resolves at build time");
        assert!(options.execute);
        assert!(options.snapshot.is_none());
    }

    #[test]
    fn flags_parse() {
        let options = parse_args(&args(&[
            "--scale",
            "small",
            "--indexes",
            "pkfk",
            "--estimator",
            "hyper",
            "--no-exec",
            "--snapshot",
            "db.qob",
            "-e",
            "SELECT * FROM t",
        ]))
        .unwrap();
        assert!(matches!(options.source, Source::Inline(ref s) if s == "SELECT * FROM t"));
        assert_eq!(options.estimator, EstimatorKind::HyPer);
        assert_eq!(options.indexes, Some(IndexConfig::PrimaryAndForeignKey));
        assert_eq!(options.snapshot.as_deref(), Some("db.qob"));
        assert!(!options.execute);

        let options = parse_args(&args(&["queries.sql"])).unwrap();
        assert!(matches!(options.source, Source::File(ref f) if f == "queries.sql"));
    }

    #[test]
    fn bad_flags_are_rejected_and_help_is_empty_error() {
        assert!(parse_args(&args(&["--scale", "huge"])).is_err());
        assert!(parse_args(&args(&["--estimator"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--threads", "four"])).is_err());
        assert!(parse_args(&args(&["--snapshot"])).is_err());
        assert_eq!(parse_args(&args(&["--help"])).err().unwrap(), "");
    }

    #[test]
    fn ingest_flags_parse() {
        let options = parse_ingest_args(&args(&[
            "imdb-data",
            "--indexes",
            "pkfk",
            "--threads",
            "2",
            "--snapshot",
            "db.qob",
            "--output",
            "out.json",
        ]))
        .unwrap();
        assert_eq!(options.dir.as_deref(), Some("imdb-data"));
        assert_eq!(options.indexes, Some(IndexConfig::PrimaryAndForeignKey));
        assert_eq!(options.threads, 2);
        assert_eq!(options.snapshot.as_deref(), Some("db.qob"));
        assert_eq!(options.output, "out.json");

        let defaults = parse_ingest_args(&args(&["imdb-data"])).unwrap();
        assert_eq!(defaults.indexes, None);
        assert_eq!(defaults.output, "BENCH_ingest.json");
        assert!(defaults.snapshot.is_none());
        assert!(defaults.generate.is_none());

        let generated = parse_ingest_args(&args(&["imdb-data", "--generate", "tiny"])).unwrap();
        assert_eq!(generated.generate, Some(Scale::tiny()));
        assert!(parse_ingest_args(&args(&["d", "--generate", "galactic"])).is_err());

        assert!(parse_ingest_args(&[]).is_err(), "the data directory is required");
        assert!(parse_ingest_args(&args(&["imdb-data", "--bogus"])).is_err());
        assert_eq!(parse_ingest_args(&args(&["--help"])).err().unwrap(), "");
    }

    #[test]
    fn data_dir_flag_parses_in_oneshot_and_serve() {
        let options = parse_args(&args(&["--data-dir", "csv"])).unwrap();
        assert_eq!(options.data_dir.as_deref(), Some("csv"));
        let serve = parse_serve_args(&args(&["--data-dir", "csv"])).unwrap();
        assert_eq!(serve.data_dir.as_deref(), Some("csv"));
    }

    #[test]
    fn data_dir_rejects_an_explicit_scale() {
        let err = match obtain_context(Some(Scale::tiny()), None, None, Some("csv")) {
            Err(err) => err,
            Ok(_) => panic!("--scale with --data-dir must be rejected"),
        };
        assert!(err.contains("--scale"), "unexpected error: {err}");
    }

    #[test]
    fn plangrid_flags_parse() {
        let options = parse_plangrid_args(&args(&[
            "--seed",
            "7",
            "--job-limit",
            "2",
            "--random-count",
            "3",
            "--max-rels",
            "6",
            "--samples",
            "500",
            "--quickpick",
            "50",
            "--require-true-optimal",
            "--output",
            "out.json",
        ]))
        .unwrap();
        assert_eq!(options.seed, 7);
        assert_eq!(options.job_limit, 2);
        assert_eq!(options.random_count, 3);
        assert_eq!(options.max_rels, 6);
        assert_eq!(options.samples, 500);
        assert_eq!(options.quickpick, 50);
        assert!(options.require_true_optimal);
        assert_eq!(options.output, "out.json");

        let defaults = parse_plangrid_args(&[]).unwrap();
        assert_eq!(defaults.seed, 0);
        assert_eq!(defaults.job_limit, 4);
        assert_eq!(defaults.random_count, 4);
        assert_eq!(defaults.max_rels, 8);
        assert_eq!(defaults.output, "BENCH_planspace.json");
        assert!(!defaults.require_true_optimal);

        assert!(parse_plangrid_args(&args(&["--seed", "x"])).is_err());
        assert!(parse_plangrid_args(&args(&["--bogus"])).is_err());
        assert_eq!(parse_plangrid_args(&args(&["--help"])).err().unwrap(), "");
    }

    #[test]
    fn threads_flag_parses_with_zero_meaning_all_cores() {
        assert_eq!(parse_args(&args(&["--threads", "4"])).unwrap().threads, 4);
        assert_eq!(parse_args(&args(&["--threads", "1"])).unwrap().threads, 1);
        assert_eq!(
            parse_args(&args(&["--threads", "0"])).unwrap().threads,
            qob_exec::default_threads()
        );
        assert_eq!(parse_args(&[]).unwrap().threads, qob_exec::default_threads());
    }

    #[test]
    fn adaptive_and_morsel_flags_parse() {
        let options = parse_args(&[]).unwrap();
        assert!(!options.adaptive.enabled, "adaptivity defaults off");
        assert_eq!(options.morsel_size, qob_exec::DEFAULT_MORSEL_SIZE);

        let options = parse_args(&args(&[
            "--adaptive",
            "--adaptive-threshold",
            "2.5",
            "--morsel-size",
            "64",
        ]))
        .unwrap();
        assert!(options.adaptive.enabled);
        assert_eq!(options.adaptive.divergence_threshold, 2.5);
        assert_eq!(options.morsel_size, 64);

        // `--adaptive-threshold` alone tunes without enabling.
        let options = parse_args(&args(&["--adaptive-threshold", "3"])).unwrap();
        assert!(!options.adaptive.enabled);
        assert_eq!(options.adaptive.divergence_threshold, 3.0);

        assert_eq!(
            parse_args(&args(&["--morsel-size", "0"])).unwrap().morsel_size,
            qob_exec::DEFAULT_MORSEL_SIZE
        );
        assert!(parse_args(&args(&["--adaptive-threshold", "0.5"])).is_err());
        assert!(parse_args(&args(&["--adaptive-threshold", "nope"])).is_err());
        assert!(parse_args(&args(&["--morsel-size", "many"])).is_err());
    }

    #[test]
    fn plan_cache_flags_parse() {
        let options = parse_args(&[]).unwrap();
        assert!(!options.plan_cache, "caching defaults off");
        assert_eq!(options.cache_fence, qob_core::DEFAULT_CACHE_FENCE);

        let options = parse_args(&args(&["--plan-cache", "--cache-fence", "2.5"])).unwrap();
        assert!(options.plan_cache);
        assert_eq!(options.cache_fence, 2.5);
        assert!(parse_args(&args(&["--cache-fence", "0.5"])).is_err());
        assert!(parse_args(&args(&["--cache-fence", "nope"])).is_err());

        let serve = parse_serve_args(&args(&["--plan-cache", "--cache-fence", "3"])).unwrap();
        assert!(serve.plan_cache);
        assert_eq!(serve.cache_fence, 3.0);
    }

    #[test]
    fn observability_flags_parse() {
        assert!(!parse_args(&[]).unwrap().tracing, "tracing defaults off");
        assert!(parse_args(&args(&["--tracing"])).unwrap().tracing);

        assert_eq!(parse_serve_args(&[]).unwrap().slow_query_ms, 0);
        assert_eq!(
            parse_serve_args(&args(&["--slow-query-ms", "250"])).unwrap().slow_query_ms,
            250
        );
        assert!(parse_serve_args(&args(&["--slow-query-ms", "soon"])).is_err());

        let options = parse_connect_args(&args(&["--metrics"])).unwrap();
        assert!(matches!(options.action, ConnectAction::Metrics));
    }

    #[test]
    fn history_and_trace_connect_flags_parse() {
        let options = parse_connect_args(&args(&["--history"])).unwrap();
        assert!(matches!(options.action, ConnectAction::History { top: None }));
        let options = parse_connect_args(&args(&["--history", "5"])).unwrap();
        assert!(matches!(options.action, ConnectAction::History { top: Some(5) }));
        // A following flag is not a cap.
        let options = parse_connect_args(&args(&["--history", "--json"])).unwrap();
        assert!(matches!(options.action, ConnectAction::History { top: None }));
        assert!(options.raw_json);

        let options = parse_connect_args(&args(&["--trace-out", "trace.json"])).unwrap();
        assert!(
            matches!(options.action, ConnectAction::TraceExport { ref out } if out == "trace.json")
        );
        assert!(parse_connect_args(&args(&["--trace-out"])).is_err());
    }

    #[test]
    fn regression_ratio_serve_flag_parses() {
        let defaults = parse_serve_args(&[]).unwrap();
        assert_eq!(defaults.regression_ratio, qob_core::DEFAULT_REGRESSION_RATIO);
        let options = parse_serve_args(&args(&["--regression-ratio", "1.5"])).unwrap();
        assert_eq!(options.regression_ratio, 1.5);
        let disabled = parse_serve_args(&args(&["--regression-ratio", "0"])).unwrap();
        assert_eq!(disabled.regression_ratio, 0.0);
        assert!(parse_serve_args(&args(&["--regression-ratio", "-1"])).is_err());
        assert!(parse_serve_args(&args(&["--regression-ratio", "fast"])).is_err());
    }

    #[test]
    fn top_args_parse() {
        let defaults = parse_top_args(&[]).unwrap();
        assert_eq!(defaults.addr, qob_server::DEFAULT_ADDR);
        assert_eq!(defaults.interval_ms, 1000);
        assert_eq!(defaults.count, 0, "run until interrupted by default");
        assert_eq!(defaults.top, 8);

        let options = parse_top_args(&args(&[
            "--addr",
            "127.0.0.1:9",
            "--interval",
            "250",
            "--count",
            "3",
            "--top",
            "5",
        ]))
        .unwrap();
        assert_eq!(options.addr, "127.0.0.1:9");
        assert_eq!(options.interval_ms, 250);
        assert_eq!(options.count, 3);
        assert_eq!(options.top, 5);
        assert_eq!(parse_top_args(&args(&["--interval", "1"])).unwrap().interval_ms, 50, "floored");
        assert!(parse_top_args(&args(&["--interval", "soon"])).is_err());
        assert!(parse_top_args(&args(&["--bogus"])).is_err());
        assert_eq!(parse_top_args(&args(&["--help"])).err().unwrap(), "");
    }

    #[test]
    fn top_frame_renders_every_section() {
        let stats = Json::obj(vec![
            ("queries_served", Json::Num(42.0)),
            ("active_connections", Json::Num(2.0)),
            (
                "workers",
                Json::Arr(vec![
                    Json::obj(vec![
                        ("worker", Json::Num(0.0)),
                        ("utilization", Json::Num(0.5)),
                        ("steals", Json::Num(3.0)),
                    ]),
                    Json::obj(vec![
                        ("worker", Json::Num(1.0)),
                        ("utilization", Json::Num(0.0)),
                        ("steals", Json::Num(0.0)),
                    ]),
                ]),
            ),
        ]);
        let summary = Json::obj(vec![
            ("query_p50_us", Json::Num(120.0)),
            ("query_p95_us", Json::Num(400.0)),
            ("query_p99_us", Json::Num(900.0)),
            ("query_errors_total", Json::Num(0.0)),
            ("regressions_total", Json::Num(1.0)),
        ]);
        let history = Json::obj(vec![
            (
                "fingerprints",
                Json::Arr(vec![Json::obj(vec![
                    ("fingerprint", Json::str("00deadbeef001122")),
                    ("query", Json::str("q1")),
                    ("count", Json::Num(40.0)),
                    ("p50_us", Json::Num(110.0)),
                    ("p99_us", Json::Num(800.0)),
                    ("max_q_error", Json::Num(2.5)),
                    ("replans", Json::Num(0.0)),
                ])]),
            ),
            (
                "regressions",
                Json::Arr(vec![Json::obj(vec![
                    ("query", Json::str("q1")),
                    ("baseline_us", Json::Num(100.0)),
                    ("recent_us", Json::Num(300.0)),
                    ("factor", Json::Num(3.0)),
                    ("ratio", Json::Num(2.0)),
                ])]),
            ),
        ]);
        let frame = format_top_frame("127.0.0.1:4547", &stats, &summary, &history, Some(12.5));
        assert!(frame.contains("42 queries"), "{frame}");
        assert!(frame.contains("qps 12.5"), "{frame}");
        assert!(frame.contains("p50 120us"), "{frame}");
        assert!(frame.contains("pool (2 workers)"), "{frame}");
        assert!(frame.contains("[##########----------]  50.0%"), "{frame}");
        assert!(frame.contains("00deadbeef001122"), "{frame}");
        assert!(frame.contains("recent regressions:"), "{frame}");
        assert!(frame.contains("3.0x past the 2.0x threshold"), "{frame}");

        // The first frame has no QPS baseline; an empty history says so.
        let empty = Json::obj(vec![("fingerprints", Json::Arr(vec![]))]);
        let frame = format_top_frame("127.0.0.1:4547", &stats, &summary, &empty, None);
        assert!(frame.contains("qps   --"), "{frame}");
        assert!(frame.contains("no queries recorded yet"), "{frame}");
    }

    #[test]
    fn utilization_bars_clamp() {
        assert_eq!(utilization_bar(0.0), "[--------------------]   0.0%");
        assert_eq!(utilization_bar(1.0), "[####################] 100.0%");
        assert_eq!(utilization_bar(7.0), "[####################] 700.0%");
        assert!(utilization_bar(0.5).starts_with("[##########----------]"));
    }

    #[test]
    fn connect_set_flags_parse() {
        let options = parse_connect_args(&args(&[
            "--set",
            "plan_cache=true",
            "--set",
            "cache_fence=2",
            "-e",
            "SELECT 1",
        ]))
        .unwrap();
        assert_eq!(
            options.sets,
            vec![
                ("plan_cache".to_owned(), "true".to_owned()),
                ("cache_fence".to_owned(), "2".to_owned()),
            ]
        );
        assert!(parse_connect_args(&args(&["--set", "no_equals"])).is_err());
        assert!(parse_connect_args(&args(&["--set"])).is_err());
    }

    #[test]
    fn estimator_names_cover_the_paper_systems() {
        for (name, kind) in [
            ("postgres", EstimatorKind::Postgres),
            ("true-distinct", EstimatorKind::PostgresTrueDistinct),
            ("hyper", EstimatorKind::HyPer),
            ("dbms-a", EstimatorKind::DbmsA),
            ("dbms-b", EstimatorKind::DbmsB),
            ("dbms-c", EstimatorKind::DbmsC),
        ] {
            assert_eq!(parse_estimator(name).unwrap(), kind);
        }
        assert!(parse_estimator("oracle").is_err());
    }

    #[test]
    fn serve_args_parse() {
        let options = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--snapshot",
            "db.qob",
            "--threads",
            "2",
            "--scale",
            "small",
        ]))
        .unwrap();
        assert_eq!(options.addr, "127.0.0.1:0");
        assert_eq!(options.snapshot.as_deref(), Some("db.qob"));
        assert_eq!(options.threads, 2);
        assert!(parse_serve_args(&args(&["--bogus"])).is_err());
        assert!(parse_serve_args(&args(&["positional"])).is_err());
        assert_eq!(parse_serve_args(&args(&["--help"])).err().unwrap(), "");
        assert_eq!(parse_serve_args(&[]).unwrap().addr, qob_server::DEFAULT_ADDR);
    }

    #[test]
    fn scheduler_serve_flags_parse() {
        let defaults = parse_serve_args(&[]).unwrap();
        assert_eq!(defaults.workers, qob_exec::default_threads(), "shared pool defaults on");
        assert_eq!(defaults.max_concurrent, None, "limit defaults to 2x workers at serve time");
        assert_eq!(defaults.max_queued, 256);
        assert_eq!(defaults.mem_budget, 0);
        assert_eq!(defaults.morsel_size, qob_exec::DEFAULT_MORSEL_SIZE);

        let options = parse_serve_args(&args(&[
            "--workers",
            "4",
            "--max-concurrent",
            "8",
            "--max-queued",
            "16",
            "--mem-budget",
            "1000000",
            "--morsel-size",
            "1024",
        ]))
        .unwrap();
        assert_eq!(options.workers, 4);
        assert_eq!(options.max_concurrent, Some(8));
        assert_eq!(options.max_queued, 16);
        assert_eq!(options.mem_budget, 1_000_000);
        assert_eq!(options.morsel_size, 1024);
        assert_eq!(
            parse_serve_args(&args(&["--workers", "0"])).unwrap().workers,
            qob_exec::default_threads()
        );
        assert!(parse_serve_args(&args(&["--workers", "many"])).is_err());
        assert!(parse_serve_args(&args(&["--max-concurrent", "-1"])).is_err());
        assert!(parse_serve_args(&args(&["--mem-budget", "big"])).is_err());
    }

    #[test]
    fn connect_args_parse() {
        let options =
            parse_connect_args(&args(&["--addr", "127.0.0.1:9", "-e", "SELECT 1"])).unwrap();
        assert_eq!(options.addr, "127.0.0.1:9");
        assert!(matches!(options.action, ConnectAction::Script { explain: false }));
        assert!(matches!(options.source, Source::Inline(_)));

        let options = parse_connect_args(&args(&["--explain", "-e", "SELECT 1"])).unwrap();
        assert!(matches!(options.action, ConnectAction::Script { explain: true }));

        assert!(matches!(
            parse_connect_args(&args(&["--stats"])).unwrap().action,
            ConnectAction::Stats
        ));
        assert!(matches!(
            parse_connect_args(&args(&["--ping"])).unwrap().action,
            ConnectAction::Ping
        ));
        assert!(matches!(
            parse_connect_args(&args(&["--shutdown"])).unwrap().action,
            ConnectAction::Shutdown
        ));
        assert!(parse_connect_args(&args(&["--json"])).unwrap().raw_json);
        assert!(parse_connect_args(&args(&["--bogus"])).is_err());
    }
}
