//! One-shot mode: read SQL, build or snapshot-load the database, answer,
//! exit.

use std::process::ExitCode;
use std::time::Instant;

use qob_core::{ServerContext, SessionOptions};
use qob_server::protocol::outcome_to_json;
use qob_workload::parse_script;

use crate::connect::render_result;
use crate::flags::{
    obtain_context, read_source, take_session_flag, value_of, ContextFlags, Source,
};

/// Everything the one-shot command line selects.
pub(crate) struct Options {
    source: Source,
    pub(crate) context: ContextFlags,
    pub(crate) session: SessionOptions,
}

pub(crate) fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        source: Source::Stdin,
        context: ContextFlags::default(),
        session: SessionOptions::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "-e" | "--execute" => options.source = Source::Inline(value_of(args, &mut i, "-e")?),
            "-" => options.source = Source::Stdin,
            _ if options.context.take(args, &mut i)? => {}
            _ if take_session_flag(&mut options.session, args, &mut i)? => {}
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            file => options.source = Source::File(file.to_owned()),
        }
        i += 1;
    }
    Ok(options)
}

pub(crate) fn run(options: Options) -> Result<ExitCode, String> {
    let script = read_source(&options.source)?;

    // Parse (syntax only) *before* paying for the database, so `--help`,
    // empty input and parse errors never trigger datagen.
    let parse_started = Instant::now();
    let parsed = parse_script(&script).map_err(|e| e.to_string())?;
    let parse_elapsed = parse_started.elapsed();
    if parsed.is_empty() {
        return Err("the input contains no statements".to_owned());
    }

    let (ctx, _) = obtain_context(&options.context)?;
    let mut session = ServerContext::with_defaults(ctx, options.session).session();
    let mut failures = 0usize;
    for statement in &parsed {
        match session.run_statement(statement, parse_elapsed) {
            Ok(outcome) => print!("{}", render_result(&outcome_to_json(&outcome))),
            Err(e) => {
                eprintln!("statement `{}` failed: {e}", statement.name);
                failures += 1;
            }
        }
    }
    Ok(if failures > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::args;
    use qob_datagen::Scale;
    use qob_storage::IndexConfig;

    #[test]
    fn defaults_read_stdin_with_default_session_options() {
        let options = parse_args(&[]).unwrap();
        assert!(matches!(options.source, Source::Stdin));
        assert_eq!(options.session, SessionOptions::default());
        assert_eq!(options.context.indexes, None, "indexes default resolves at build time");
        assert!(options.context.snapshot.is_none());
    }

    #[test]
    fn flags_parse() {
        let options = parse_args(&args(&[
            "--scale",
            "small",
            "--indexes",
            "pkfk",
            "--snapshot",
            "db.qob",
            "-e",
            "SELECT * FROM t",
        ]))
        .unwrap();
        assert!(matches!(options.source, Source::Inline(ref s) if s == "SELECT * FROM t"));
        assert_eq!(options.context.scale, Some(Scale::small()));
        assert_eq!(options.context.indexes, Some(IndexConfig::PrimaryAndForeignKey));
        assert_eq!(options.context.snapshot.as_deref(), Some("db.qob"));

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
}
