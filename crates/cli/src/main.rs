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
//! Each subcommand is a module with a `parse_args` and a `run`; `flags`
//! holds what they share.  Session options go through
//! `SessionOptions::set` and reports render from the wire JSON, so the
//! command line adds no parser or renderer of its own.
//!
//! ```text
//! echo "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn
//!       WHERE mc.movie_id = t.id AND mc.company_id = cn.id
//!         AND cn.country_code = '[us]'" | qob
//! ```

mod connect;
mod flags;
mod ingest;
mod oneshot;
mod plangrid;
mod serve;
mod top;

use std::process::ExitCode;

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
        --snapshot <PATH>    load the database from PATH if it exists, else
                             generate it once and save it there
        --data-dir <DIR>     ingest the database from IMDB-schema CSV/TSV
                             files in DIR instead of generating it (combines
                             with --snapshot: ingest once, save, reload fast)
    -h, --help               print this help

SESSION OPTIONS (one-shot and serve):
    Each flag sets the session option of the same name, exactly as `set`
    does on the wire (docs/PROTOCOL.md): --morsel-size is morsel_size, a
    switch sets true, and --no-exec sets execute=false.  Under serve they
    are every session's defaults.
        --estimator <n>      postgres | hyper | dbms-a | dbms-b | dbms-c |
                             true-distinct                          [default: postgres]
        --threads <n>        execution worker threads; 1 = sequential engine,
                             0 = all cores                          [default: 0]
        --morsel-size <n>    tuples per execution morsel; 0 = engine default
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
        --slow-query-ms <n>  log queries slower than n ms to the structured
                             event log on stderr (0 disables)    [default: 0]
        --mem-budget <n>     per-statement intermediate-tuple budget
                             (0 = engine default)
        --regression-ratio <x>
                             fire a `regression` event when a fingerprint's
                             recent median latency exceeds its baseline median
                             by this factor (0 disables)        [default: 2]

SERVE OPTIONS:
        --addr <HOST:PORT>   listen address             [default: 127.0.0.1:4547]
        --workers <n>        shared execution pool size — morsels from every
                             concurrent query interleave on these threads;
                             0 = all cores                  [default: 0]
        --max-concurrent <n> statements allowed to execute at once; the rest
                             wait in the admission queue (0 = unlimited)
                                                       [default: 2x workers]
        --max-queued <n>     waiting statements beyond which new arrivals
                             are rejected with code `rejected` [default: 256]
        plus --snapshot / --data-dir / --scale / --indexes and the SESSION
        OPTIONS above

INGEST OPTIONS:
        --indexes <i>        physical design: none | pk | pkfk     [default: pk]
        --threads <n>        tables ingested at once, at most one worker per
                             file; 0 = all cores                   [default: 0]
        --snapshot <PATH>    also save the ingested database as a snapshot,
                             then measure a full reload and a lazy
                             point-query cost against it
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve") => serve::parse_args(&args[1..]).map(serve::run),
        Some("connect") => connect::parse_args(&args[1..]).map(connect::run),
        Some("top") => top::parse_args(&args[1..]).map(top::run),
        Some("plangrid") => plangrid::parse_args(&args[1..]).map(plangrid::run),
        Some("ingest") => ingest::parse_args(&args[1..]).map(ingest::run),
        _ => oneshot::parse_args(&args).map(oneshot::run),
    };
    // Every parser reports `-h`/`--help` as an empty error; a command that
    // fails after parsing says why, without the usage text.
    match outcome {
        Ok(Ok(code)) => code,
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Rounds a metric to 6 decimals so the JSON stays compact and stable.
pub(crate) fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}
