//! Command-line plumbing shared by the subcommands: flag values, the
//! session-flag table, the context flags and building or loading the
//! database.

use std::time::Instant;

use qob_core::{BenchmarkContext, SessionOptions};
use qob_datagen::Scale;
use qob_storage::IndexConfig;

pub(crate) enum Source {
    Stdin,
    File(String),
    Inline(String),
}

/// The session options one-shot runs and `qob serve` take on the command
/// line, as `(flag, SessionOptions::set name, implied value)`.  A row with
/// an implied value is a switch; every other row takes the next argument.
/// [`SessionOptions::set`] parses and validates the value, so a flag
/// accepts exactly what `set` accepts on the wire.
pub(crate) const SESSION_FLAGS: [(&str, &str, Option<&str>); 12] = [
    ("--estimator", "estimator", None),
    ("--threads", "threads", None),
    ("--morsel-size", "morsel_size", None),
    ("--adaptive", "adaptive", Some("true")),
    ("--adaptive-threshold", "adaptive_threshold", None),
    ("--plan-cache", "plan_cache", Some("true")),
    ("--cache-fence", "cache_fence", None),
    ("--tracing", "tracing", Some("true")),
    ("--no-exec", "execute", Some("false")),
    ("--slow-query-ms", "slow_query_ms", None),
    ("--mem-budget", "mem_budget", None),
    ("--regression-ratio", "regression_ratio", None),
];

/// Applies `args[*i]` to `options` when it is a [`SESSION_FLAGS`] row,
/// consuming its value; `Ok(false)` leaves the argument to the caller.
pub(crate) fn take_session_flag(
    options: &mut SessionOptions,
    args: &[String],
    i: &mut usize,
) -> Result<bool, String> {
    let Some(&(flag, name, implied)) = SESSION_FLAGS.iter().find(|row| row.0 == args[*i]) else {
        return Ok(false);
    };
    let value = match implied {
        Some(value) => value.to_owned(),
        None => value_of(args, i, flag)?,
    };
    options.set(name, &value)?;
    Ok(true)
}

/// The flags that choose the database.  `scale`/`indexes` are `None`
/// unless set explicitly (defaulting to tiny/PK, or to whatever a loaded
/// snapshot was built with).
#[derive(Default)]
pub(crate) struct ContextFlags {
    pub(crate) scale: Option<Scale>,
    pub(crate) indexes: Option<IndexConfig>,
    pub(crate) snapshot: Option<String>,
    pub(crate) data_dir: Option<String>,
}

impl ContextFlags {
    /// Applies `args[*i]` when it is `--scale`, `--indexes`, `--snapshot`
    /// or `--data-dir`, consuming its value; `Ok(false)` leaves the
    /// argument to the caller.
    pub(crate) fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--scale" => self.scale = Some(parse_scale(&value_of(args, i, "--scale")?)?),
            "--indexes" => self.indexes = Some(parse_indexes(&value_of(args, i, "--indexes")?)?),
            "--snapshot" => self.snapshot = Some(value_of(args, i, "--snapshot")?),
            "--data-dir" => self.data_dir = Some(value_of(args, i, "--data-dir")?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

pub(crate) fn value_of(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i).cloned().ok_or_else(|| format!("{flag} needs a value"))
}

pub(crate) fn parse_scale(raw: &str) -> Result<Scale, String> {
    match raw {
        "tiny" => Ok(Scale::tiny()),
        "small" => Ok(Scale::small()),
        "benchmark" => Ok(Scale::benchmark()),
        other => Err(format!("unknown scale `{other}`")),
    }
}

pub(crate) fn parse_indexes(raw: &str) -> Result<IndexConfig, String> {
    match raw {
        "none" => Ok(IndexConfig::NoIndexes),
        "pk" => Ok(IndexConfig::PrimaryKeyOnly),
        "pkfk" => Ok(IndexConfig::PrimaryAndForeignKey),
        other => Err(format!("unknown index config `{other}`")),
    }
}

pub(crate) fn parse_threads(raw: &str) -> Result<usize, String> {
    let n: usize = raw.parse().map_err(|_| format!("--threads needs a number, got `{raw}`"))?;
    Ok(if n == 0 { qob_exec::default_threads() } else { n })
}

/// The non-negative integer value of `flag` (see [`value_of`]).
pub(crate) fn count_of(args: &[String], i: &mut usize, flag: &str) -> Result<usize, String> {
    let raw = value_of(args, i, flag)?;
    raw.parse().map_err(|_| format!("{flag} needs a number, got `{raw}`"))
}

pub(crate) fn read_source(source: &Source) -> Result<String, String> {
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
/// whether it came from a snapshot.  A loaded snapshot supplies its own
/// scale and indexes, and an explicit mismatch is surfaced rather than
/// silently ignored (indexes rebuild cheaply; a scale mismatch is an error
/// because honouring it would mean regenerating — delete the snapshot to
/// rescale).  `data_dir` replaces generation with CSV ingestion; an
/// existing snapshot still wins (ingest once, save, reload fast on later
/// runs).
pub(crate) fn obtain_context(flags: &ContextFlags) -> Result<(BenchmarkContext, bool), String> {
    let ContextFlags { scale, indexes, snapshot, data_dir } = flags;
    let (scale, indexes) = (*scale, *indexes);
    let (snapshot, data_dir) = (snapshot.as_deref(), data_dir.as_deref());
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

#[cfg(test)]
pub(crate) fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| (*s).to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oneshot, serve};
    use qob_core::EstimatorKind;

    /// The session options a command line yields in one-shot mode and in
    /// `qob serve`, which must agree.
    fn session_of(list: &[&str]) -> Result<SessionOptions, String> {
        let oneshot = oneshot::parse_args(&args(list)).map(|options| options.session);
        let serve = serve::parse_args(&args(list)).map(|options| options.session);
        assert_eq!(oneshot, serve, "one-shot and serve disagree on {list:?}");
        oneshot
    }

    #[test]
    fn session_flags_parse_exactly_like_set() {
        let defaults = session_of(&[]).unwrap();
        assert_eq!(defaults, SessionOptions::default());
        assert_eq!(defaults.estimator, EstimatorKind::Postgres);
        assert_eq!(defaults.threads, qob_exec::default_threads());
        assert_eq!(defaults.morsel_size, qob_exec::DEFAULT_MORSEL_SIZE);
        assert!(defaults.execute && !defaults.adaptive.enabled, "execution on, adaptivity off");
        assert!(!defaults.plan_cache && !defaults.tracing, "caching and tracing off");
        assert_eq!(defaults.cache_fence, qob_core::DEFAULT_CACHE_FENCE);
        assert_eq!((defaults.slow_query_ms, defaults.mem_budget), (0, 0));
        assert_eq!(defaults.regression_ratio, qob_core::DEFAULT_REGRESSION_RATIO);

        // `(command line, set name, set value, the field it must change)`,
        // spelled out here so the table is checked against something other
        // than itself.  The first case of each flag is not the default.
        type Case =
            (&'static [&'static str], &'static str, &'static str, fn(&SessionOptions) -> bool);
        let cases: [Case; 25] = [
            (&["--estimator", "hyper"], "estimator", "hyper", |o| {
                o.estimator == EstimatorKind::HyPer
            }),
            (&["--estimator", "postgres"], "estimator", "postgres", |o| {
                o.estimator == EstimatorKind::Postgres
            }),
            (&["--estimator", "true-distinct"], "estimator", "true-distinct", |o| {
                o.estimator == EstimatorKind::PostgresTrueDistinct
            }),
            (&["--estimator", "dbms-a"], "estimator", "dbms-a", |o| {
                o.estimator == EstimatorKind::DbmsA
            }),
            (&["--estimator", "dbms-b"], "estimator", "dbms-b", |o| {
                o.estimator == EstimatorKind::DbmsB
            }),
            (&["--estimator", "dbms-c"], "estimator", "dbms-c", |o| {
                o.estimator == EstimatorKind::DbmsC
            }),
            (&["--threads", "4"], "threads", "4", |o| o.threads == 4),
            (&["--threads", "1"], "threads", "1", |o| o.threads == 1),
            (&["--threads", "0"], "threads", "0", |o| o.threads == qob_exec::default_threads()),
            (&["--morsel-size", "64"], "morsel_size", "64", |o| o.morsel_size == 64),
            (&["--morsel-size", "1024"], "morsel_size", "1024", |o| o.morsel_size == 1024),
            (&["--morsel-size", "0"], "morsel_size", "0", |o| {
                o.morsel_size == qob_exec::DEFAULT_MORSEL_SIZE
            }),
            (&["--adaptive"], "adaptive", "true", |o| o.adaptive.enabled),
            (&["--adaptive-threshold", "2.5"], "adaptive_threshold", "2.5", |o| {
                o.adaptive.divergence_threshold == 2.5
            }),
            (&["--adaptive-threshold", "3"], "adaptive_threshold", "3", |o| {
                o.adaptive.divergence_threshold == 3.0
            }),
            (&["--plan-cache"], "plan_cache", "true", |o| o.plan_cache),
            (&["--cache-fence", "2.5"], "cache_fence", "2.5", |o| o.cache_fence == 2.5),
            (&["--cache-fence", "3"], "cache_fence", "3", |o| o.cache_fence == 3.0),
            (&["--tracing"], "tracing", "true", |o| o.tracing),
            (&["--no-exec"], "execute", "false", |o| !o.execute),
            (&["--slow-query-ms", "250"], "slow_query_ms", "250", |o| o.slow_query_ms == 250),
            (&["--slow-query-ms", "0"], "slow_query_ms", "0", |o| o.slow_query_ms == 0),
            (&["--mem-budget", "1000000"], "mem_budget", "1000000", |o| o.mem_budget == 1_000_000),
            (&["--regression-ratio", "1.5"], "regression_ratio", "1.5", |o| {
                o.regression_ratio == 1.5
            }),
            (&["--regression-ratio", "0"], "regression_ratio", "0", |o| o.regression_ratio == 0.0),
        ];
        for (list, name, value, changed) in cases {
            let mut expected = SessionOptions::default();
            expected.set(name, value).unwrap();
            let parsed = session_of(list).unwrap();
            assert_eq!(parsed, expected, "{list:?}");
            assert!(changed(&parsed), "{list:?}");
        }
        // A threshold or fence alone tunes without switching the feature on.
        assert!(!session_of(&["--adaptive-threshold", "2.5"]).unwrap().adaptive.enabled);
        assert!(!session_of(&["--cache-fence", "2.5"]).unwrap().plan_cache);

        // Every row has a case, and every row on one command line (between
        // context flags) applies each one.
        let mut list = vec!["--scale", "tiny"];
        let mut expected = SessionOptions::default();
        let mut firsts = Vec::new();
        for (flag, ..) in SESSION_FLAGS {
            let &(argv, name, value, changed) =
                cases.iter().find(|case| case.0[0] == flag).expect("a case per row");
            list.extend(argv);
            expected.set(name, value).unwrap();
            firsts.push(changed);
        }
        assert!(cases.iter().all(|case| SESSION_FLAGS.iter().any(|row| row.0 == case.0[0])));
        list.extend(["--indexes", "pkfk"]);
        let parsed = session_of(&list).unwrap();
        assert_eq!(parsed, expected);
        assert!(firsts.iter().all(|changed| changed(&parsed)), "{list:?}");
    }

    #[test]
    fn values_set_rejects_are_rejected_by_both_subcommands() {
        for (flag, raw) in [
            ("--estimator", "oracle"),
            ("--threads", "four"),
            ("--morsel-size", "x"),
            ("--morsel-size", "many"),
            ("--adaptive-threshold", "NaN"),
            ("--adaptive-threshold", "0.5"),
            ("--adaptive-threshold", "nope"),
            ("--cache-fence", "0.5"),
            ("--cache-fence", "nope"),
            ("--slow-query-ms", "soon"),
            ("--mem-budget", "big"),
            ("--regression-ratio", "-1"),
            ("--regression-ratio", "fast"),
        ] {
            let &(_, name, _) = SESSION_FLAGS.iter().find(|row| row.0 == flag).unwrap();
            assert!(SessionOptions::default().set(name, raw).is_err(), "set {name} {raw}");
            assert!(oneshot::parse_args(&args(&[flag, raw])).is_err(), "one-shot {flag} {raw}");
            assert!(serve::parse_args(&args(&[flag, raw])).is_err(), "serve {flag} {raw}");
        }
        // A valued flag with nothing after it.
        assert!(oneshot::parse_args(&args(&["--estimator"])).is_err());
        assert!(serve::parse_args(&args(&["--mem-budget"])).is_err());
    }

    #[test]
    fn data_dir_flag_parses_in_oneshot_and_serve() {
        let list = args(&["--data-dir", "csv"]);
        assert_eq!(oneshot::parse_args(&list).unwrap().context.data_dir.as_deref(), Some("csv"));
        assert_eq!(serve::parse_args(&list).unwrap().context.data_dir.as_deref(), Some("csv"));
    }

    #[test]
    fn data_dir_rejects_an_explicit_scale() {
        let flags = ContextFlags {
            scale: Some(Scale::tiny()),
            data_dir: Some("csv".to_owned()),
            ..ContextFlags::default()
        };
        let err = match obtain_context(&flags) {
            Err(err) => err,
            Ok(_) => panic!("--scale with --data-dir must be rejected"),
        };
        assert!(err.contains("--scale"), "unexpected error: {err}");
    }
}
