//! `qob-benchmark`: the repository's performance benchmark.
//!
//! One command generates the fixture, sets the system up, runs seeded
//! closed-loop workloads against it, checks every answer against pinned
//! references and prints every metric by name and unit.  See `README.md` for
//! the metric catalogue and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
//!     [--repeat K] [--smoke] [--bless]
//! ```
//!
//! With `--workload` the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; without it, every workload
//! runs and one JSON document covers them all.  Run it from the repository
//! root.

mod bless;
mod fixture;
mod layers;
mod naive;
mod ops;
mod rng;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use qob_server::Json;

use ops::{Domain, FixtureScale, Workload};
use workload::Env;

/// The seed of a run that names none; the pinned answers hold for every seed.
const DEFAULT_SEED: u64 = 42;

/// Timed seconds of a run that names none (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: u64 = 15;

/// Timed seconds per workload under `--smoke`.
const SMOKE_SECONDS: u64 = 1;

/// Set-up repetitions of an untraced run; `setup_s` is built on their median.
const SETUP_REPETITIONS: usize = 3;

/// End-to-end metrics, with units — reported by untraced runs.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "statements/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_row", "bytes"),
    ("plan_cost_geomean", "cost"),
];

/// Per-layer metrics, with units — reported by traced runs.
const PER_LAYER: [(&str, &str); 30] = [
    ("sql.compile_us", "us"),
    ("cardest.estimate_us", "us"),
    ("cardest.estimate_calls", "count"),
    ("enumerate.optimize_self_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.fence_rejects", "count"),
    ("exec.execute_us", "us"),
    ("exec.tuples_out", "count"),
    ("exec.tuples_per_s", "1/s"),
    ("bench.chain_self_us", "us"),
    ("bench.traced_op_us", "us"),
    ("core.session_self_us", "us"),
    ("core.queue_wait_us", "us"),
    ("server.wire_self_us", "us"),
    ("server.ping_us", "us"),
    ("server.response_bytes", "bytes"),
    ("server.client_lib_us", "us"),
    ("obs.trace_overhead_share", "ratio"),
    ("storage.ingest_rows_per_s", "rows/s"),
    ("stats.build_s", "s"),
    ("storage.lazy_read_share", "ratio"),
    ("storage.scan_rows_per_s", "rows/s"),
    ("storage.scan_rows_per_s.plain", "rows/s"),
    ("storage.scan_rows_per_s.packed", "rows/s"),
    ("storage.scan_rows_per_s.rle", "rows/s"),
    ("storage.page_skip_share", "ratio"),
    ("storage.snapshot_save_s", "s"),
    ("storage.snapshot_load_s", "s"),
    ("storage.setup_ingest_s", "s"),
];

/// Metrics that must repeat bit for bit between runs of one seed.
const EXACT: [&str; 5] = [
    "stored_bytes_per_row",
    "plan_cost_geomean",
    "exec.tuples_out",
    "cardest.estimate_calls",
    "cache.fence_rejects",
];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Setup,
    Run,
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
    bless: bool,
    phase: Option<Phase>,
    dir: Option<PathBuf>,
}

const USAGE: &str = "usage: qob-benchmark [--workload job_plan|job_exec|scan_filter|wire_hot] \
[--seed N] [--seconds S] [--trace 0|1] [--repeat K] [--smoke] [--bless]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: None,
        smoke: false,
        bless: false,
        phase: None,
        dir: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 sets".into());
                }
                args.repeat = Some(k);
            }
            "--smoke" => args.smoke = true,
            "--bless" => args.bless = true,
            "--phase" => {
                args.phase = Some(match value()?.as_str() {
                    "setup" => Phase::Setup,
                    "run" => Phase::Run,
                    other => return Err(format!("unknown phase `{other}`")),
                })
            }
            "--dir" => args.dir = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn scale(&self) -> FixtureScale {
        if self.smoke {
            FixtureScale::Smoke
        } else {
            FixtureScale::Full
        }
    }

    fn seconds(&self) -> u64 {
        self.seconds.unwrap_or(if self.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS })
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) if message.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("qob-benchmark: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("qob-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if let Some(phase) = args.phase {
        let env = Env {
            workload: args.workload.ok_or("--phase needs --workload")?,
            scale: args.scale(),
            seed: args.seed,
            seconds: args.seconds(),
            trace: args.trace,
            dir: args.dir.clone().ok_or("--phase needs --dir")?,
            threads: nproc(),
        };
        let report = match phase {
            Phase::Setup => workload::setup_phase(&env)?,
            Phase::Run => workload::run_phase(&env)?,
        };
        println!("{report}");
        return Ok(ExitCode::SUCCESS);
    }
    if !Path::new("benchmark/Cargo.toml").is_file() {
        return Err("no benchmark/Cargo.toml here: run from the repository root".into());
    }
    std::fs::create_dir_all("benchmark/out")
        .map_err(|e| format!("cannot create benchmark/out: {e}"))?;
    if args.bless {
        let dir = RunDir::create("bless")?;
        bless::bless(args.scale(), &dir.0, nproc())?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.smoke {
        return smoke(args);
    }
    if let Some(sets) = args.repeat {
        return repeat(args, sets);
    }
    match args.workload {
        // The contract mode: one workload, one result line.
        Some(workload) => {
            let report = run_workload(args, workload)?;
            eprintln!("{}", report.diagnostics);
            println!("{}", report.result_line());
            Ok(ExitCode::SUCCESS)
        }
        None => {
            let reports = run_all(args)?;
            println!("{}", document(args, &reports));
            let failed = reports.iter().any(|r| !r.correct());
            Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
        }
    }
}

/// A scratch directory under `benchmark/out`, removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create(tag: &str) -> Result<RunDir, String> {
        let path = Path::new("benchmark/out").join(format!("run-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("`{}`: {e}", path.display()))?;
        Ok(RunDir(path))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The outcome of one workload run.
struct Report {
    workload: Workload,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`, in catalogue order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Phase timings, sample counts and the like — not metrics.
    diagnostics: Json,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value, unit)| {
                    let entry =
                        Json::obj(vec![("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
                    ((*name).to_owned(), entry)
                })
                .collect(),
        )
    }

    /// The contract's result object.
    fn result_line(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
    }
}

/// Runs one phase in a child process and parses the JSON it prints last.
fn child(args: &Args, phase: &str, workload: Workload, dir: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--phase", phase, "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds().to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| format!("spawning the {phase} phase: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {phase} phase of {} failed ({})", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("the {phase} phase printed nothing"))?;
    Json::parse(line).map_err(|e| format!("the {phase} phase printed `{line}`: {e}"))
}

/// Generates the fixture, repeats set-up, runs the workload, assembles the
/// metrics.  Every phase that touches the system runs in a process of its own.
fn run_workload(args: &Args, workload: Workload) -> Result<Report, String> {
    let scale = args.scale();
    let dir = RunDir::create(workload.name())?;
    let fixture = fixture::generate(scale, &dir.0.join("csv"))?;
    let domain_path = scale.domain_path(workload);
    let domain = Domain::load(&domain_path)?;
    fixture::check_pinned(&fixture, domain.fixture_fnv, &domain_path)?;

    let repetitions = if args.trace { 1 } else { SETUP_REPETITIONS };
    let mut setups = Vec::with_capacity(repetitions);
    for _ in 0..repetitions {
        setups.push(child(args, "setup", workload, &dir.0)?);
    }
    let run = child(args, "run", workload, &dir.0)?;
    drop(dir);

    let field = |doc: &Json, name: &str| {
        doc.get(name).and_then(Json::as_f64).ok_or_else(|| format!("phase report lacks `{name}`"))
    };
    let setup_totals: Vec<f64> = setups
        .iter()
        .map(|s| {
            Ok(field(s, "ingest_s")?
                + field(s, "save_s")?
                + field(s, "load_s")?
                + field(s, "prepare_s")?)
        })
        .collect::<Result<_, String>>()?;
    let setup_median = stats::median(&setup_totals).ok_or("no set-up repetition")?;
    let last = setups.last().ok_or("no set-up repetition")?;

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        let layers = run.get("layers").ok_or("the run phase reported no layers")?;
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = match *name {
                    "storage.snapshot_save_s" => field(last, "save_s"),
                    "storage.snapshot_load_s" => field(last, "load_s"),
                    "storage.setup_ingest_s" => field(last, "ingest_s"),
                    other => field(layers, other),
                }?;
                Ok((*name, value, *unit))
            })
            .collect::<Result<_, String>>()?
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let value = match *name {
                    // CSV on disk → first timed statement: the median set-up
                    // repetition plus this run's warm-up pass.
                    "setup_s" => setup_median + field(&run, "warmup_s")?,
                    "stored_bytes_per_row" => field(last, "snapshot_bytes")? / field(last, "rows")?,
                    other => field(&run, other)?,
                };
                Ok((*name, value, *unit))
            })
            .collect::<Result<_, String>>()?
    };
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{}: metric `{name}` is {value}", workload.name()));
    }

    let diagnostics = Json::obj(vec![
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
        ("fixture_movies", Json::Num(scale.movies() as f64)),
        ("fixture_rows", Json::Num(fixture.rows as f64)),
        ("fixture_s", Json::Num(fixture.elapsed.as_secs_f64())),
        ("setup_repetitions", Json::Arr(setups)),
        ("run", strip(&run, "layers")),
    ]);
    Ok(Report {
        workload,
        attempted: field(&run, "attempted")? as u64,
        failed: field(&run, "failed")? as u64,
        metrics,
        diagnostics,
    })
}

/// `doc` without the member `key`.
fn strip(doc: &Json, key: &str) -> Json {
    match doc {
        Json::Obj(pairs) => Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect()),
        other => other.clone(),
    }
}

fn run_all(args: &Args) -> Result<Vec<Report>, String> {
    Workload::ALL
        .into_iter()
        .filter(|w| args.workload.is_none_or(|only| only == *w))
        .map(|workload| {
            eprintln!(
                "qob-benchmark: {} (seed {}, trace {})",
                workload.name(),
                args.seed,
                args.trace as u8
            );
            run_workload(args, workload)
        })
        .collect()
}

/// The one JSON document of a run over several workloads.
fn document(args: &Args, reports: &[Report]) -> Json {
    let workloads = reports
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("name", Json::str(r.workload.name())),
                ("correct", Json::Bool(r.correct())),
                ("attempted_ops", Json::Num(r.attempted as f64)),
                ("failed_ops", Json::Num(r.failed as f64)),
                ("metrics", r.metrics_json()),
                ("diagnostics", r.diagnostics.clone()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("benchmark", Json::str("qob-benchmark")),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds() as f64)),
        ("trace", Json::Num(f64::from(args.trace as u8))),
        ("nproc", Json::Num(nproc() as f64)),
        ("workloads", Json::Arr(workloads)),
        // This benchmark measures; it claims no gain.
        ("claim", Json::Null),
    ])
}

/// `BENCHMARK.json`: the regression bound of every end-to-end metric, and
/// the names it promises per trace mode.
struct Contract {
    bounds: Vec<(String, f64)>,
    per_layer: Vec<String>,
    workloads: Vec<String>,
}

impl Contract {
    fn load() -> Result<Contract, String> {
        let text = std::fs::read_to_string("BENCHMARK.json").map_err(|e| {
            format!("cannot read BENCHMARK.json ({e}); run from the repository root")
        })?;
        let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let names = |key: &str| -> Result<Vec<&Json>, String> {
            Ok(doc
                .get(key)
                .and_then(Json::as_array)
                .ok_or(format!("BENCHMARK.json lacks `{key}`"))?
                .iter()
                .collect())
        };
        let name = |item: &Json| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or("BENCHMARK.json: unnamed entry")
        };
        Ok(Contract {
            bounds: names("end_to_end")?
                .into_iter()
                .map(|m| {
                    Ok((
                        name(m)?,
                        m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            per_layer: names("per_layer")?.into_iter().map(name).collect::<Result<_, _>>()?,
            workloads: names("workloads")?.into_iter().map(name).collect::<Result<_, _>>()?,
        })
    }
}

/// `--repeat K`: K full sets of one seed; prints the relative spread
/// `(max − min) / median` of every metric × workload next to its bound and
/// fails on any excess, or on an exact-count metric that did not repeat.
fn repeat(args: &Args, sets: usize) -> Result<ExitCode, String> {
    let contract = Contract::load()?;
    let mut runs: Vec<Vec<Report>> = Vec::with_capacity(sets);
    for set in 0..sets {
        eprintln!("qob-benchmark: set {} of {sets}", set + 1);
        runs.push(run_all(args)?);
    }
    let mut excess = false;
    let mut rows = Vec::new();
    println!(
        "{:<12} {:<30} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median", "spread", "bound"
    );
    for w in 0..runs[0].len() {
        let first = &runs[0][w];
        excess |= runs.iter().any(|set| !set[w].correct());
        for (name, _, unit) in &first.metrics {
            let values: Vec<f64> = runs.iter().filter_map(|set| set[w].metric(name)).collect();
            let median = stats::median(&values).unwrap_or(f64::NAN);
            let spread = stats::relative_spread(&values).unwrap_or(f64::NAN);
            let bound = contract.bounds.iter().find(|b| b.0 == *name).map(|b| b.1);
            let exact = EXACT.contains(name);
            let ok = if exact {
                values.iter().all(|v| v.to_bits() == values[0].to_bits())
            } else {
                bound.is_none_or(|b| spread <= b)
            };
            excess |= !ok;
            let verdict = match (ok, exact) {
                (true, true) => "exact",
                (true, false) => "ok",
                (false, true) => "NOT EXACT",
                (false, false) => "EXCESS",
            };
            println!(
                "{:<12} {:<30} {:>14.6} {:>9.4} {:>7}  {verdict}",
                first.workload.name(),
                format!("{name} [{unit}]"),
                median,
                spread,
                bound.map_or("-".to_owned(), |b| b.to_string()),
            );
            rows.push(Json::obj(vec![
                ("workload", Json::str(first.workload.name())),
                ("metric", Json::str(*name)),
                ("median", Json::Num(median)),
                ("spread", Json::Num(spread)),
                ("bound", bound.map_or(Json::Null, Json::Num)),
                ("ok", Json::Bool(ok)),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj(vec![
            ("sets", Json::Num(sets as f64)),
            ("noise", Json::Arr(rows)),
            ("claim", Json::Null)
        ])
    );
    Ok(if excess { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// `--smoke`: every workload at the small scale, untraced and traced, and a
/// check that the output names every metric `BENCHMARK.json` promises, with
/// finite values and no failed statement.
fn smoke(args: &Args) -> Result<ExitCode, String> {
    let contract = Contract::load()?;
    let mut problems = Vec::new();
    let mut documents = Vec::new();
    for trace in [false, true] {
        let args = Args { trace, ..args.clone() };
        let reports = run_all(&args)?;
        let promised: Vec<&String> = if trace {
            contract.per_layer.iter().collect()
        } else {
            contract.bounds.iter().map(|b| &b.0).collect()
        };
        for name in &contract.workloads {
            let Some(report) = reports.iter().find(|r| r.workload.name() == name) else {
                if args.workload.is_none() {
                    problems.push(format!("workload `{name}` of BENCHMARK.json did not run"));
                }
                continue;
            };
            if report.failed > 0 || report.attempted == 0 {
                problems.push(format!(
                    "{name}: {} of {} statements failed",
                    report.failed, report.attempted
                ));
            }
            for metric in &promised {
                if report.metric(metric).is_none() {
                    problems.push(format!(
                        "{name} (trace {}): metric `{metric}` is missing",
                        trace as u8
                    ));
                }
            }
            for (metric, ..) in &report.metrics {
                if !promised.iter().any(|p| *p == metric) {
                    problems.push(format!("{name}: metric `{metric}` is not in BENCHMARK.json"));
                }
            }
        }
        documents.push(document(&args, &reports));
    }
    println!("{}", Json::Arr(documents));
    for problem in &problems {
        eprintln!("qob-benchmark: smoke: {problem}");
    }
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn the_contract_invocation_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "wire_hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload, Some(Workload::WireHot));
        assert_eq!((args.seed, args.seconds(), args.trace), (7, 10, true));
        assert_eq!(args.scale(), FixtureScale::Full);
    }

    #[test]
    fn defaults_and_smoke() {
        let args = parse_args(&[]).unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds(), args.trace),
            (None, DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        let args = parse_args(&argv(&["--smoke"])).unwrap();
        assert_eq!((args.scale(), args.seconds()), (FixtureScale::Smoke, SMOKE_SECONDS));
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--workload", "job"][..],
            &["--trace", "yes"],
            &["--seconds", "0"],
            &["--repeat", "1"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn metric_catalogues_have_unique_contract_conforming_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        assert!(names
            .iter()
            .all(|n| n.len() <= 64
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        assert!(END_TO_END.iter().chain(PER_LAYER.iter()).all(|m| m.1.len() <= 16));
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(EXACT.iter().all(|e| names.contains(e)));
    }
}
