//! `qob top`: a live dashboard over a running server.

use std::process::ExitCode;
use std::time::Instant;

use qob_server::{Client, Json, Request};

use crate::flags::{count_of, value_of};

pub(crate) struct Options {
    addr: String,
    interval_ms: u64,
    /// Frames to render before exiting; `0` = run until interrupted.
    count: usize,
    /// Hottest fingerprints to show.
    top: usize,
}

pub(crate) fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options =
        Options { addr: qob_server::DEFAULT_ADDR.to_owned(), interval_ms: 1000, count: 0, top: 8 };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => options.addr = value_of(args, &mut i, "--addr")?,
            "--interval" => {
                options.interval_ms = count_of(args, &mut i, "--interval")?.max(50) as u64
            }
            "--count" => options.count = count_of(args, &mut i, "--count")?,
            "--top" => options.top = count_of(args, &mut i, "--top")?.max(1),
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

pub(crate) fn run(options: Options) -> Result<ExitCode, String> {
    let addr = &options.addr;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;

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
        let (stats, metrics, history) =
            polled.map_err(|message| format!("lost the server at {addr}: {message}"))?;
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
            return Ok(ExitCode::SUCCESS);
        }
        std::thread::sleep(std::time::Duration::from_millis(options.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::args;

    #[test]
    fn top_args_parse() {
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.addr, qob_server::DEFAULT_ADDR);
        assert_eq!(defaults.interval_ms, 1000);
        assert_eq!(defaults.count, 0, "run until interrupted by default");
        assert_eq!(defaults.top, 8);

        let options = parse_args(&args(&[
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
        assert_eq!(parse_args(&args(&["--interval", "1"])).unwrap().interval_ms, 50, "floored");
        assert!(parse_args(&args(&["--interval", "soon"])).is_err());
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert_eq!(parse_args(&args(&["--help"])).err().unwrap(), "");
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
}
