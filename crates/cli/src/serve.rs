//! `qob serve`: keep one warm context resident and answer queries from
//! many TCP clients over the JSON-lines protocol.

use std::process::ExitCode;

use qob_core::{SchedulerConfig, ServerContext, SessionOptions};
use qob_server::ServerConfig;

use crate::flags::{
    count_of, obtain_context, parse_threads, take_session_flag, value_of, ContextFlags,
};

pub(crate) struct Options {
    addr: String,
    pub(crate) context: ContextFlags,
    /// Every session's starting options.
    pub(crate) session: SessionOptions,
    /// Shared execution pool size (`0` on the command line = all cores).
    workers: usize,
    /// Admission concurrency limit; `None` = twice the pool size.
    max_concurrent: Option<usize>,
    max_queued: usize,
}

pub(crate) fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        addr: qob_server::DEFAULT_ADDR.to_owned(),
        context: ContextFlags::default(),
        session: SessionOptions::default(),
        workers: qob_exec::default_threads(),
        max_concurrent: None,
        max_queued: 256,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--addr" => options.addr = value_of(args, &mut i, "--addr")?,
            "--workers" => {
                // Same `0 = all cores` rule as --threads.
                options.workers = parse_threads(&value_of(args, &mut i, "--workers")?)?
            }
            "--max-concurrent" => {
                options.max_concurrent = Some(count_of(args, &mut i, "--max-concurrent")?)
            }
            "--max-queued" => options.max_queued = count_of(args, &mut i, "--max-queued")?,
            _ if options.context.take(args, &mut i)? => {}
            _ if take_session_flag(&mut options.session, args, &mut i)? => {}
            flag => return Err(format!("unknown serve flag `{flag}`")),
        }
        i += 1;
    }
    Ok(options)
}

pub(crate) fn run(options: Options) -> Result<ExitCode, String> {
    let (ctx, snapshot_loaded) = obtain_context(&options.context)?;

    let scheduler = SchedulerConfig {
        workers: options.workers,
        max_concurrent: options.max_concurrent.unwrap_or(2 * options.workers),
        max_queued: options.max_queued,
    };
    let context = ServerContext::with_scheduler(ctx, options.session, scheduler);
    let config = ServerConfig { addr: options.addr, snapshot_loaded };
    let handle =
        qob_server::serve(context, config).map_err(|e| format!("cannot bind server: {e}"))?;
    eprintln!(
        "execution: shared pool of {} workers, {} concurrent statements, {} queued max",
        scheduler.workers, scheduler.max_concurrent, scheduler.max_queued
    );
    eprintln!("qob server listening on {} (JSON lines; see docs/PROTOCOL.md)", handle.local_addr());
    handle.join();
    eprintln!("qob server stopped");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::args;

    #[test]
    fn serve_args_parse() {
        let options = parse_args(&args(&[
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
        assert_eq!(options.context.snapshot.as_deref(), Some("db.qob"));
        assert_eq!(options.context.scale, Some(qob_datagen::Scale::small()));
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["positional"])).is_err());
        assert_eq!(parse_args(&args(&["--help"])).err().unwrap(), "");
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.addr, qob_server::DEFAULT_ADDR);
        assert_eq!(defaults.session, SessionOptions::default());
    }

    #[test]
    fn scheduler_serve_flags_parse() {
        let defaults = parse_args(&[]).unwrap();
        assert_eq!(defaults.workers, qob_exec::default_threads(), "shared pool defaults on");
        assert_eq!(defaults.max_concurrent, None, "limit defaults to 2x workers at serve time");
        assert_eq!(defaults.max_queued, 256);

        let options =
            parse_args(&args(&["--workers", "4", "--max-concurrent", "8", "--max-queued", "16"]))
                .unwrap();
        assert_eq!(options.workers, 4);
        assert_eq!(options.max_concurrent, Some(8));
        assert_eq!(options.max_queued, 16);
        assert_eq!(
            parse_args(&args(&["--workers", "0"])).unwrap().workers,
            qob_exec::default_threads()
        );
        assert!(parse_args(&args(&["--workers", "many"])).is_err());
        assert!(parse_args(&args(&["--max-concurrent", "-1"])).is_err());
    }
}
