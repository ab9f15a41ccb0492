//! Ingest smoke tests over the checked-in 21-table IMDB-schema CSV fixture
//! (`tests/fixtures/imdb_csv/`) and over a CSV export of the synthetic
//! generator: ingestion must reproduce values exactly — including quoted
//! commas, escaped quotes, embedded newlines, backslash escapes, NULL vs.
//! empty-string fields, and tab-separated files — survive a snapshot
//! round-trip, and answer a 10-query JOB sample identically to the
//! generated database it was exported from.  Ingesting at 1 and at 4
//! threads writes byte-identical snapshots.

use qob_core::BenchmarkContext;
use qob_datagen::Scale;
use qob_exec::ExecutionOptions;
use qob_storage::IndexConfig;

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/imdb_csv")
}

#[test]
fn fixture_ingests_value_exactly_and_snapshots() {
    let (ctx, report) =
        BenchmarkContext::ingest_csv_dir(fixture_dir(), IndexConfig::PrimaryKeyOnly, 2)
            .expect("the checked-in fixture must ingest cleanly");
    assert_eq!(ctx.db().table_count(), 21);
    assert_eq!(report.tables.len(), 21);
    assert_eq!(report.total_rows(), ctx.db().total_rows());

    let table = |name: &str| ctx.db().table_by_name(name).unwrap();
    let col = |t: &str, c: &str| {
        let t = table(t);
        t.column(t.column_id(c).unwrap()).clone()
    };

    // title.csv: the full escape/NULL gauntlet.
    let title = col("title", "title");
    assert_eq!(table("title").row_count(), 6);
    assert_eq!(title.str_at(0), Some("The Matrix"));
    assert_eq!(title.str_at(1), Some("Comma, The Movie"));
    assert_eq!(title.str_at(2), Some("Quote \"Unquote\""));
    assert_eq!(title.str_at(3), Some("Two\nLines"));
    assert_eq!(title.str_at(5), Some("Back\\slash \"Q\""));
    let year = col("title", "production_year");
    assert_eq!(year.int_at(0), Some(1999));
    assert_eq!(year.int_at(2), None, "empty unquoted int field is NULL");
    assert_eq!(col("title", "episode_of_id").int_at(3), Some(3));
    assert_eq!(col("title", "imdb_index").str_at(0), None);
    assert_eq!(col("title", "imdb_index").str_at(1), Some("I"));

    // NULL vs. quoted-empty: `""` is the empty string, a bare field is NULL.
    let phonetic = col("keyword", "phonetic_code");
    assert_eq!(phonetic.str_at(2), Some(""));
    assert_eq!(col("company_name", "country_code").str_at(2), None);

    // Quoted fields keep their trailing whitespace.
    assert_eq!(col("name", "name").str_at(3), Some("Trailing space "));

    // movie_keyword arrives tab-separated.
    assert_eq!(table("movie_keyword").row_count(), 3);
    assert_eq!(col("movie_keyword", "keyword_id").int_at(1), Some(2));

    // `""` escaping inside a quoted field.
    assert_eq!(col("movie_companies", "note").str_at(2), Some("(as \"WB\")"));

    // The ingested catalog is a real database: keys declared, indexes built.
    assert!(ctx.db().index_count() > 0);

    // Snapshot round-trip preserves everything, bit for bit.
    let path = std::env::temp_dir().join(format!("qob-ingest-fixture-{}.qob", std::process::id()));
    ctx.save_snapshot(&path).unwrap();
    let reloaded = BenchmarkContext::load_snapshot(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(reloaded.db().total_rows(), ctx.db().total_rows());
    for (tid, t) in ctx.db().tables() {
        let r = reloaded.db().table(tid);
        assert_eq!(r.name(), t.name());
        for c in 0..t.column_count() {
            let cid = qob_storage::ColumnId(c as u32);
            for row in 0..t.row_count() {
                assert_eq!(
                    r.column(cid).value_at(row),
                    t.column(cid).value_at(row),
                    "{}.{} row {row} diverges after snapshot round-trip",
                    t.name(),
                    t.column_meta(cid).name
                );
            }
        }
    }
}

#[test]
fn exported_datagen_database_answers_a_job_sample_identically() {
    let generated = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();

    // Export to CSV, stream it back in, then push the ingested database
    // through a snapshot save→load — the full `qob ingest --snapshot` path.
    let dir = std::env::temp_dir().join(format!("qob-ingest-smoke-{}", std::process::id()));
    generated.export_csv_dir(&dir).unwrap();
    let (ingested, _) = BenchmarkContext::ingest_csv_dir(&dir, IndexConfig::PrimaryKeyOnly, 4)
        .expect("exported CSVs must ingest cleanly");
    std::fs::remove_dir_all(&dir).ok();
    let snap = std::env::temp_dir().join(format!("qob-ingest-smoke-{}.qob", std::process::id()));
    ingested.save_snapshot(&snap).unwrap();
    let ingested = BenchmarkContext::load_snapshot(&snap).unwrap();
    std::fs::remove_file(&snap).ok();

    // A deterministic 10-query JOB sample, answered by both contexts with
    // the same plan: rows and per-operator cardinalities must diff clean.
    let estimates = generated.estimator(qob_core::EstimatorKind::Postgres);
    let model = qob_cost::SimpleCostModel::new();
    let options = ExecutionOptions { threads: 1, ..Default::default() };
    let sample: Vec<_> = generated.queries().iter().step_by(12).take(10).collect();
    assert_eq!(sample.len(), 10);
    for query in sample {
        let planner = qob_enumerate::Planner::new(
            generated.db(),
            query,
            &model,
            estimates.as_ref(),
            qob_enumerate::PlannerConfig::default(),
        );
        let plan = qob_enumerate::goo::optimize_goo(&planner)
            .unwrap_or_else(|e| panic!("{}: planning failed: {e}", query.name));
        let a = generated.execute(query, &plan.plan, estimates.as_ref(), &options).unwrap();
        let b = ingested.execute(query, &plan.plan, estimates.as_ref(), &options).unwrap();
        assert_eq!(a.rows, b.rows, "{}: row counts diverge after CSV round-trip", query.name);
        assert_eq!(
            a.operator_cardinalities, b.operator_cardinalities,
            "{}: operator cardinalities diverge after CSV round-trip",
            query.name
        );
    }
}

/// Ingests `dir` at `threads` and returns the bytes `qob ingest --snapshot`
/// would write.
fn snapshot_bytes(dir: &std::path::Path, threads: usize, tag: &str) -> Vec<u8> {
    let (ctx, _) = BenchmarkContext::ingest_csv_dir(dir, IndexConfig::PrimaryKeyOnly, threads)
        .unwrap_or_else(|e| panic!("{tag} at {threads} threads: {e}"));
    let path = std::env::temp_dir()
        .join(format!("qob-ingest-determinism-{}-{tag}-{threads}.qob", std::process::id()));
    ctx.save_snapshot(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn ingest_snapshots_are_byte_identical_at_1_and_4_threads() {
    let exported = std::env::temp_dir().join(format!("qob-ingest-tiny-{}", std::process::id()));
    BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly)
        .unwrap()
        .export_csv_dir(&exported)
        .unwrap();
    for (tag, dir) in [("fixture", fixture_dir()), ("tiny", exported.clone())] {
        let sequential = snapshot_bytes(&dir, 1, tag);
        assert!(
            sequential == snapshot_bytes(&dir, 4, tag),
            "{tag}: the snapshot depends on the ingest thread count"
        );
    }
    std::fs::remove_dir_all(&exported).ok();
}
