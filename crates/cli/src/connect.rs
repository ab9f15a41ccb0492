//! `qob connect`: send SQL to a running server and render the answers
//! exactly like a one-shot run.

use std::process::ExitCode;

use qob_server::{Client, Json, Request};

use crate::flags::{read_source, value_of, Source};

enum ConnectAction {
    Script { explain: bool },
    Stats,
    Metrics,
    History { top: Option<u64> },
    TraceExport { out: String },
    Ping,
    Shutdown,
}

pub(crate) struct Options {
    addr: String,
    source: Source,
    action: ConnectAction,
    raw_json: bool,
    /// `--set name=value` session options, applied in order before the
    /// main request on the same connection.
    sets: Vec<(String, String)>,
}

pub(crate) fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
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

pub(crate) fn run(options: Options) -> Result<ExitCode, String> {
    let addr = &options.addr;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

    // Session options ride the same connection as the query that follows.
    for (name, value) in &options.sets {
        let request = Request::Set { option: name.clone(), value: value.clone() };
        let response = client.request(&request).map_err(|e| format!("set {name}: {e}"))?;
        if let Some(message) = error_of(&response) {
            return Err(format!("set {name}: {message}"));
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
            let sql = read_source(&options.source)?;
            if *explain {
                Request::Explain { sql }
            } else {
                Request::Query { sql }
            }
        }
    };

    let response = client.request(&request).map_err(|e| e.to_string())?;
    match &options.action {
        ConnectAction::Metrics => render_metrics(&response, options.raw_json)?,
        ConnectAction::TraceExport { out } => write_trace(&response, out, options.raw_json)?,
        ConnectAction::Stats | ConnectAction::History { .. } => println!("{response}"),
        _ if options.raw_json => println!("{response}"),
        _ => return render_response(&response),
    }
    Ok(if error_of(&response).is_none() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The error message of a failed response; `None` when it succeeded.
fn error_of(response: &Json) -> Option<&str> {
    (response.get("ok").and_then(Json::as_bool) != Some(true)).then(|| {
        response
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("malformed error response")
    })
}

/// Writes a `trace` response's event array as a Chrome trace-event JSON
/// file — a plain array, exactly what `about://tracing` and Perfetto load.
fn write_trace(response: &Json, path: &str, raw_json: bool) -> Result<(), String> {
    let events = response
        .get("events")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("malformed trace response: {response}"))?;
    let spans = response.get("span_count").and_then(Json::as_u64).unwrap_or(0);
    let body = Json::Arr(events.to_vec());
    std::fs::write(path, format!("{body}\n")).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!(
        "wrote {} trace events ({spans} pipeline spans) to `{path}` — open it in \
         about://tracing or https://ui.perfetto.dev",
        events.len()
    );
    if raw_json {
        println!("{response}");
    }
    Ok(())
}

/// Renders a `metrics` response: validates the Prometheus exposition before
/// printing it.
fn render_metrics(response: &Json, raw_json: bool) -> Result<(), String> {
    let body = response
        .get("body")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("malformed metrics response: {response}"))?;
    qob_obs::validate_exposition(body)
        .map_err(|e| format!("server sent an invalid exposition: {e}"))?;
    if raw_json {
        println!("{response}");
    } else {
        print!("{body}");
    }
    Ok(())
}

/// Renders a server response in the one-shot output format.
fn render_response(response: &Json) -> Result<ExitCode, String> {
    if let Some(message) = error_of(response) {
        return Err(message.to_owned());
    }
    match response.get("type").and_then(Json::as_str) {
        Some("result") => {
            for result in response.get("results").and_then(Json::as_array).unwrap_or(&[]) {
                print!("{}", render_result(result));
            }
        }
        Some("pong") => println!("pong"),
        Some("shutdown") => println!("server is shutting down"),
        _ => println!("{response}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// Renders one per-statement object of a `result` response: a query
/// report, or a `PREPARE`/`DEALLOCATE` acknowledgement.  One-shot runs
/// print their outcomes through the same wire JSON, so both modes print
/// the same text.
pub(crate) fn render_result(result: &Json) -> String {
    let mut out = String::new();
    write_result(&mut out, result).expect("formatting into a String cannot fail");
    out
}

fn write_result(out: &mut String, result: &Json) -> std::fmt::Result {
    use std::fmt::Write as _;
    fn str_of<'a>(json: &'a Json, key: &str) -> &'a str {
        json.get(key).and_then(Json::as_str).unwrap_or("?")
    }
    let f64_of = |json: &Json, key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let u64_of = |json: &Json, key: &str| json.get(key).and_then(Json::as_u64).unwrap_or(0);
    // Prepared-statement acknowledgements are tiny objects, not reports.
    if let Some(name) = result.get("prepared").and_then(Json::as_str) {
        let params = u64_of(result, "params");
        let plural = if params == 1 { "" } else { "s" };
        return writeln!(out, "\nprepared `{name}` ({params} parameter{plural})");
    }
    if let Some(name) = result.get("deallocated").and_then(Json::as_str) {
        return writeln!(out, "\ndeallocated `{name}`");
    }
    writeln!(
        out,
        "\n=== {} — {} relations, {} join predicates, {} selections ===",
        str_of(result, "query"),
        f64_of(result, "relations"),
        f64_of(result, "join_predicates"),
        f64_of(result, "selections")
    )?;
    let threads = u64_of(result, "threads");
    let final_cost = match result.get("final_cost").and_then(Json::as_f64) {
        Some(cost) => format!(", final plan cost {cost:.1}"),
        None => String::new(),
    };
    writeln!(
        out,
        "plan chosen with {} estimates (cost {:.1}{final_cost}, {} thread{}):",
        str_of(result, "estimator"),
        f64_of(result, "cost"),
        threads,
        if threads == 1 { "" } else { "s" }
    )?;
    if let Some(status) = result.get("plan_cache").and_then(Json::as_str) {
        writeln!(out, "plan cache: {status}")?;
    }
    write!(out, "{}", str_of(result, "plan"))?;

    let Some(rows) = result.get("rows").and_then(Json::as_u64) else { return Ok(()) };
    for (i, replan) in
        result.get("replans").and_then(Json::as_array).unwrap_or(&[]).iter().enumerate()
    {
        let changed = replan.get("changed").and_then(Json::as_bool).unwrap_or(false);
        writeln!(
            out,
            "re-plan {}: after {} estimated {:.0} observed {} (diverged {:.1}x) — {}",
            i + 1,
            str_of(replan, "after"),
            f64_of(replan, "estimated"),
            u64_of(replan, "observed"),
            f64_of(replan, "factor"),
            if changed { "resumed on spliced plan:" } else { "plan confirmed" }
        )?;
        if changed {
            write!(out, "{}", replan.get("resumed_plan").and_then(Json::as_str).unwrap_or(""))?;
        }
    }
    // Tracing appends time/morsel columns; the untraced table is unchanged
    // so CI smokes can keep diffing cardinality lines across engine modes.
    let ops = result.get("operators").and_then(Json::as_array).unwrap_or(&[]);
    let traced = ops.iter().any(|op| op.get("time_us").is_some());
    write!(
        out,
        "\n{:<28} {:>14} {:>14} {:>10}",
        "operator output", "estimated", "true", "q-error"
    )?;
    if traced {
        write!(out, " {:>12} {:>8}", "time", "morsels")?;
    }
    writeln!(out)?;
    for op in ops {
        write!(
            out,
            "{:<28} {:>14.0} {:>14} {:>9.1}x",
            str_of(op, "relations"),
            f64_of(op, "estimated"),
            u64_of(op, "true"),
            f64_of(op, "q_error")
        )?;
        if traced {
            write!(out, " {:>10}us {:>8}", u64_of(op, "time_us"), u64_of(op, "morsels"))?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\n{} rows in {:.3?} — worst operator q-error {:.1}x",
        rows,
        std::time::Duration::from_micros(u64_of(result, "elapsed_us")),
        f64_of(result, "worst_q_error")
    )?;
    if let Some(trace) = result.get("trace") {
        writeln!(
            out,
            "phases: parse {}us, bind {}us, optimize {}us, queue {}us, execute {}us",
            u64_of(trace, "parse_us"),
            u64_of(trace, "bind_us"),
            u64_of(trace, "optimize_us"),
            u64_of(trace, "queue_us"),
            u64_of(trace, "execute_us")
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::args;
    use qob_core::{
        CacheOutcome, ExecutionReport, OperatorReport, QueryReport, ReplanEvent, ScriptOutcome,
        TraceReport,
    };
    use qob_server::protocol::outcome_to_json;
    use std::time::Duration;

    /// A traced report with a plan-cache status and one re-plan that
    /// resumed on a spliced plan: every optional section renders.
    fn traced_report() -> QueryReport {
        let op = |relations: &str, estimated: f64, true_rows: u64, q_error: f64, time_us: u64| {
            OperatorReport {
                relations: relations.to_owned(),
                estimated,
                true_rows,
                q_error,
                time_us: Some(time_us),
                morsels: Some(3),
            }
        };
        QueryReport {
            name: "q7".to_owned(),
            relations: 3,
            join_predicates: 2,
            selections: 1,
            estimator: "postgres".to_owned(),
            cost: 1234.56,
            threads: 2,
            plan: "HJ {cn,mc,t}\n  HJ {mc,t}\n    Scan t\n    Scan mc\n  Scan cn\n".to_owned(),
            plan_cache: CacheOutcome::FenceRejected,
            execution: Some(ExecutionReport {
                rows: 1,
                elapsed: Duration::from_micros(1_500),
                operators: vec![
                    op("{t}", 2_528_312.0, 2_528_312, 1.0, 900),
                    op("{mc,t}", 12.4, 400, 32.258, 45),
                    op("{cn,mc,t}", 3.0, 120, 40.0, 7),
                ],
                worst_q_error: 40.0,
                replans: vec![ReplanEvent {
                    after: "{mc,t}".to_owned(),
                    estimated: 12.4,
                    observed: 400,
                    factor: 32.258,
                    changed: true,
                    resumed_plan: "HJ {cn,mc,t}\n  Scan cn\n  Materialized {mc,t}\n".to_owned(),
                }],
                final_cost: Some(980.24),
            }),
            trace: Some(TraceReport {
                parse_us: 39,
                bind_us: 12,
                optimize_us: 80,
                queue_us: 0,
                execute_us: 1_490,
            }),
        }
    }

    fn rendered(outcome: ScriptOutcome) -> String {
        render_result(&outcome_to_json(&outcome))
    }

    #[test]
    fn reports_render_through_the_wire_json() {
        let expected = [
            "",
            "=== q7 — 3 relations, 2 join predicates, 1 selections ===",
            "plan chosen with postgres estimates (cost 1234.6, final plan cost 980.2, 2 threads):",
            "plan cache: fence-reject",
            "HJ {cn,mc,t}",
            "  HJ {mc,t}",
            "    Scan t",
            "    Scan mc",
            "  Scan cn",
            "re-plan 1: after {mc,t} estimated 12 observed 400 (diverged 32.3x) — resumed on \
             spliced plan:",
            "HJ {cn,mc,t}",
            "  Scan cn",
            "  Materialized {mc,t}",
            "",
            "operator output                   estimated           true    q-error         time  \
             morsels",
            "{t}                                 2528312        2528312       \
             1.0x        900us        3",
            "{mc,t}                                   12            400      \
             32.3x         45us        3",
            "{cn,mc,t}                                 3            120      \
             40.0x          7us        3",
            "",
            "1 rows in 1.500ms — worst operator q-error 40.0x",
            "phases: parse 39us, bind 12us, optimize 80us, queue 0us, execute 1490us",
        ];
        let text = rendered(ScriptOutcome::Query(Box::new(traced_report())));
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
        assert!(text.ends_with('\n'));

        // Untraced: no time/morsel columns and no phases line; an
        // unchanged re-plan prints no plan.
        let mut report = traced_report();
        report.trace = None;
        report.plan_cache = CacheOutcome::Off;
        let exec = report.execution.as_mut().unwrap();
        exec.replans[0].changed = false;
        exec.final_cost = None;
        for op in &mut exec.operators {
            op.time_us = None;
            op.morsels = None;
        }
        let expected = [
            "",
            "=== q7 — 3 relations, 2 join predicates, 1 selections ===",
            "plan chosen with postgres estimates (cost 1234.6, 2 threads):",
            "HJ {cn,mc,t}",
            "  HJ {mc,t}",
            "    Scan t",
            "    Scan mc",
            "  Scan cn",
            "re-plan 1: after {mc,t} estimated 12 observed 400 (diverged 32.3x) — plan confirmed",
            "",
            "operator output                   estimated           true    q-error",
            "{t}                                 2528312        2528312       1.0x",
            "{mc,t}                                   12            400      32.3x",
            "{cn,mc,t}                                 3            120      40.0x",
            "",
            "1 rows in 1.500ms — worst operator q-error 40.0x",
        ];
        let text = rendered(ScriptOutcome::Query(Box::new(report)));
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn prepare_and_deallocate_acknowledgements_render() {
        let prepared =
            |params| rendered(ScriptOutcome::Prepared { name: "by_year".into(), params });
        assert_eq!(prepared(1), "\nprepared `by_year` (1 parameter)\n");
        assert_eq!(prepared(2), "\nprepared `by_year` (2 parameters)\n");
        assert_eq!(
            rendered(ScriptOutcome::Deallocated { name: "by_year".into() }),
            "\ndeallocated `by_year`\n"
        );
    }

    #[test]
    fn history_and_trace_connect_flags_parse() {
        let options = parse_args(&args(&["--history"])).unwrap();
        assert!(matches!(options.action, ConnectAction::History { top: None }));
        let options = parse_args(&args(&["--history", "5"])).unwrap();
        assert!(matches!(options.action, ConnectAction::History { top: Some(5) }));
        // A following flag is not a cap.
        let options = parse_args(&args(&["--history", "--json"])).unwrap();
        assert!(matches!(options.action, ConnectAction::History { top: None }));
        assert!(options.raw_json);

        let options = parse_args(&args(&["--trace-out", "trace.json"])).unwrap();
        assert!(
            matches!(options.action, ConnectAction::TraceExport { ref out } if out == "trace.json")
        );
        assert!(parse_args(&args(&["--trace-out"])).is_err());
    }

    #[test]
    fn connect_set_flags_parse() {
        let options = parse_args(&args(&[
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
        assert!(parse_args(&args(&["--set", "no_equals"])).is_err());
        assert!(parse_args(&args(&["--set"])).is_err());
    }

    #[test]
    fn connect_args_parse() {
        let options = parse_args(&args(&["--addr", "127.0.0.1:9", "-e", "SELECT 1"])).unwrap();
        assert_eq!(options.addr, "127.0.0.1:9");
        assert!(matches!(options.action, ConnectAction::Script { explain: false }));
        assert!(matches!(options.source, Source::Inline(_)));

        let options = parse_args(&args(&["--explain", "-e", "SELECT 1"])).unwrap();
        assert!(matches!(options.action, ConnectAction::Script { explain: true }));

        assert!(matches!(parse_args(&args(&["--stats"])).unwrap().action, ConnectAction::Stats));
        assert!(matches!(parse_args(&args(&["--ping"])).unwrap().action, ConnectAction::Ping));
        assert!(matches!(
            parse_args(&args(&["--shutdown"])).unwrap().action,
            ConnectAction::Shutdown
        ));
        assert!(matches!(
            parse_args(&args(&["--metrics"])).unwrap().action,
            ConnectAction::Metrics
        ));
        assert!(parse_args(&args(&["--json"])).unwrap().raw_json);
        assert!(parse_args(&args(&["--bogus"])).is_err());
    }
}
