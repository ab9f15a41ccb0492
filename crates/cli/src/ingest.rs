//! `qob ingest`: stream IMDB-schema CSV/TSV files into an encoded
//! database, optionally snapshot it, and write a summary.

use std::process::ExitCode;
use std::time::Instant;

use qob_core::BenchmarkContext;
use qob_datagen::Scale;
use qob_server::Json;
use qob_storage::IndexConfig;

use crate::flags::{parse_indexes, parse_scale, parse_threads, value_of};
use crate::round6;

pub(crate) struct Options {
    dir: Option<String>,
    indexes: Option<IndexConfig>,
    threads: usize,
    snapshot: Option<String>,
    generate: Option<Scale>,
    output: String,
}

pub(crate) fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
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

pub(crate) fn run(options: Options) -> Result<ExitCode, String> {
    let dir = options.dir.as_deref().expect("parse_args requires a directory");
    let indexes = options.indexes.unwrap_or_default();

    if let Some(scale) = options.generate {
        eprintln!(
            "generating a synthetic database ({} movies) and exporting it to `{dir}`...",
            scale.movies
        );
        let started = Instant::now();
        let source = BenchmarkContext::new(scale, IndexConfig::NoIndexes)
            .map_err(|e| format!("generation failed: {e}"))?;
        source
            .export_csv_dir(dir)
            .map_err(|e| format!("cannot export CSV files to `{dir}`: {e}"))?;
        eprintln!(
            "exported {} rows across {} tables in {:.3?}",
            source.db().total_rows(),
            source.db().table_count(),
            started.elapsed()
        );
    }

    let csv_bytes = csv_dir_bytes(dir)?;

    eprintln!("ingesting CSV files from `{dir}` ({})...", indexes.label());
    let started = Instant::now();
    let (ctx, report) = BenchmarkContext::ingest_csv_dir(dir, indexes, options.threads)
        .map_err(|e| format!("ingestion from `{dir}` failed: {e}"))?;
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
        ("threads", Json::Num(options.threads as f64)),
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
        pairs.push(("snapshot", snapshot_bench(&ctx, path)?));
    }

    let out = Json::obj(pairs);
    std::fs::write(&options.output, format!("{out}\n"))
        .map_err(|e| format!("cannot write `{}`: {e}", options.output))?;
    eprintln!("wrote {}", options.output);
    Ok(ExitCode::SUCCESS)
}

/// The `--snapshot` leg of `qob ingest`: save the ingested database, time
/// a full reload, then open the file *lazily* and run a single-table
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
        "snapshot `{path}`: {file_bytes} bytes, save {save_ms:.1}ms, load {load_ms:.1}ms; \
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
    use crate::flags::args;

    #[test]
    fn ingest_flags_parse() {
        let options = parse_args(&args(&[
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

        let defaults = parse_args(&args(&["imdb-data"])).unwrap();
        assert_eq!(defaults.indexes, None);
        assert_eq!(defaults.output, "BENCH_ingest.json");
        assert!(defaults.snapshot.is_none());
        assert!(defaults.generate.is_none());

        let generated = parse_args(&args(&["imdb-data", "--generate", "tiny"])).unwrap();
        assert_eq!(generated.generate, Some(Scale::tiny()));
        assert!(parse_args(&args(&["d", "--generate", "galactic"])).is_err());

        assert!(parse_args(&[]).is_err(), "the data directory is required");
        assert!(parse_args(&args(&["imdb-data", "--bogus"])).is_err());
        assert_eq!(parse_args(&args(&["--help"])).err().unwrap(), "");
    }
}
