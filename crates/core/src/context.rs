//! The benchmark context: database, statistics, workload, estimators and
//! ground truth.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use qob_cardest::{
    CardinalityEstimator, DampedSamplingEstimator, EstimatorContext, MagicConstantEstimator,
    PessimisticEstimator, PostgresEstimator, SamplingEstimator, TrueCardinalities,
};
use qob_cost::{CostModel, SimpleCostModel};
use qob_datagen::{declare_imdb_keys, generate_imdb, imdb_schema, Scale};
use qob_enumerate::{OptimizedPlan, Planner, PlannerConfig};
use qob_exec::{ExecutionError, ExecutionOptions, ExecutionResult, TrueCardinalityOptions};
use qob_plan::{PhysicalPlan, QuerySpec, RelSet};
use qob_stats::{analyze_database, AnalyzeOptions, DatabaseStats};
use qob_storage::{Database, IndexConfig, StorageError};
use qob_workload::job_queries;

/// The estimator profiles available for injection, named after the systems
/// of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// PostgreSQL-style histogram estimator.
    Postgres,
    /// PostgreSQL-style estimator with exact distinct counts (Figure 5).
    PostgresTrueDistinct,
    /// HyPer-style table-sample estimator.
    HyPer,
    /// "DBMS A": samples plus damping.
    DbmsA,
    /// "DBMS B": coarse statistics, strong underestimation with joins.
    DbmsB,
    /// "DBMS C": magic constants for base tables.
    DbmsC,
}

impl EstimatorKind {
    /// The five injected systems of the paper, in its reporting order.
    pub fn paper_systems() -> [EstimatorKind; 5] {
        [
            EstimatorKind::Postgres,
            EstimatorKind::DbmsA,
            EstimatorKind::DbmsB,
            EstimatorKind::DbmsC,
            EstimatorKind::HyPer,
        ]
    }

    /// Parses the CLI / wire-protocol name of a profile (`postgres`,
    /// `true-distinct`, `hyper`, `dbms-a`, `dbms-b`, `dbms-c`).
    pub fn parse(name: &str) -> Option<EstimatorKind> {
        Some(match name {
            "postgres" => EstimatorKind::Postgres,
            "true-distinct" => EstimatorKind::PostgresTrueDistinct,
            "hyper" => EstimatorKind::HyPer,
            "dbms-a" => EstimatorKind::DbmsA,
            "dbms-b" => EstimatorKind::DbmsB,
            "dbms-c" => EstimatorKind::DbmsC,
            _ => return None,
        })
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            EstimatorKind::Postgres => "PostgreSQL",
            EstimatorKind::PostgresTrueDistinct => "PostgreSQL (true distinct)",
            EstimatorKind::HyPer => "HyPer",
            EstimatorKind::DbmsA => "DBMS A",
            EstimatorKind::DbmsB => "DBMS B",
            EstimatorKind::DbmsC => "DBMS C",
        }
    }
}

/// Owns everything one experiment run needs: the generated database with its
/// physical design, ANALYZE statistics, the JOB workload and a cache of true
/// cardinalities per query.
pub struct BenchmarkContext {
    db: Database,
    stats: DatabaseStats,
    scale: Scale,
    queries: Vec<QuerySpec>,
    /// Per-query ground truth — or the recorded extraction failure (timeout
    /// vs. memory), so a failed harvest is never mistaken for an empty one.
    truth_cache: Mutex<HashMap<String, Result<Arc<TrueCardinalities>, ExecutionError>>>,
    truth_options: TrueCardinalityOptions,
    /// 1 when [`BenchmarkContext::new`] generated the data, else 0.
    datagen_runs: u64,
}

/// Snapshot metadata key recording [`Scale::movies`].
const META_SCALE_MOVIES: &str = "scale.movies";
/// Snapshot metadata key recording [`Scale::seed`].
const META_SCALE_SEED: &str = "scale.seed";

impl BenchmarkContext {
    /// Generates the IMDB-like database at `scale`, builds the indexes of
    /// `index_config`, runs ANALYZE and instantiates the workload.
    pub fn new(scale: Scale, index_config: IndexConfig) -> Result<Self, StorageError> {
        let mut db = generate_imdb(&scale)?;
        db.build_indexes(index_config)?;
        Ok(BenchmarkContext { datagen_runs: 1, ..Self::from_database(db, scale) })
    }

    /// Wraps an already-built database (generated or snapshot-loaded) with
    /// fresh ANALYZE statistics and the JOB workload.  The database keeps
    /// whatever physical design its indexes currently implement.
    pub fn from_database(db: Database, scale: Scale) -> Self {
        let stats = analyze_database(&db, &AnalyzeOptions::default());
        let queries = job_queries(&db);
        BenchmarkContext {
            db,
            stats,
            scale,
            queries,
            truth_cache: Mutex::new(HashMap::new()),
            truth_options: TrueCardinalityOptions {
                max_intermediate_slots: 50_000_000,
                timeout: Some(std::time::Duration::from_secs(60)),
                ..TrueCardinalityOptions::default()
            },
            datagen_runs: 0,
        }
    }

    /// Ingests an IMDB-format CSV/TSV export from `dir` (one
    /// `<table>.csv`/`.tsv` per table of [`imdb_schema`]), declares the JOB
    /// keys, builds the indexes of `index_config`, and wraps the result in a
    /// full context (ANALYZE + workload).  Returns the per-table ingestion
    /// report alongside, for `qob ingest` reporting.
    ///
    /// The scale is inferred from the ingested `title` row count so snapshot
    /// metadata and scale-dependent knobs keep working.
    pub fn ingest_csv_dir(
        dir: impl AsRef<std::path::Path>,
        index_config: IndexConfig,
        threads: usize,
    ) -> Result<(Self, qob_storage::IngestReport), StorageError> {
        let schemas = imdb_schema();
        let (tables, report) =
            qob_storage::ingest_csv_dir(dir, &schemas, qob_storage::EncodingPolicy::Auto, threads)?;
        let mut db = Database::new();
        for table in tables {
            db.add_table(table)?;
        }
        declare_imdb_keys(&mut db)?;
        db.build_indexes(index_config)?;
        let movies = db.table_by_name("title").map(|t| t.row_count()).unwrap_or(0);
        let scale = Scale::with_movies(movies.max(1));
        Ok((Self::from_database(db, scale), report))
    }

    /// Exports the context's database as CSV files to `dir` — the inverse of
    /// [`BenchmarkContext::ingest_csv_dir`], used to produce ingestible
    /// fixtures from generated data.
    pub fn export_csv_dir(&self, dir: impl AsRef<std::path::Path>) -> Result<(), StorageError> {
        qob_storage::export_csv_dir(&self.db, dir)
    }

    /// Persists the generated database (tables, keys, index design, scale)
    /// to `path` in the `qob-storage` snapshot format, so later runs can
    /// [`BenchmarkContext::load_snapshot`] instead of regenerating.
    ///
    /// Statistics and the ground-truth cache are *not* stored: statistics
    /// re-derive deterministically from the data on load, and truths refill
    /// lazily.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<(), StorageError> {
        let meta = vec![
            (META_SCALE_MOVIES.to_owned(), self.scale.movies as i64),
            (META_SCALE_SEED.to_owned(), self.scale.seed as i64),
        ];
        qob_storage::snapshot::save(&self.db, &meta, path)
    }

    /// Loads a context from a snapshot file written by
    /// [`BenchmarkContext::save_snapshot`]: the database (indexes declared at
    /// its recorded physical design, each built on its first use) plus the
    /// original generation scale.
    /// Statistics are re-analysed from the loaded data — deterministic, so
    /// estimates and q-errors match the generating run exactly.
    ///
    /// # Examples
    ///
    /// ```no_run
    /// use qob_core::BenchmarkContext;
    ///
    /// let ctx = BenchmarkContext::load_snapshot("db.qob").unwrap();
    /// assert_eq!(ctx.queries().len(), 113);
    /// ```
    pub fn load_snapshot(path: impl AsRef<std::path::Path>) -> Result<Self, StorageError> {
        let (db, meta) = qob_storage::snapshot::load(path)?;
        let get = |key: &str| meta.iter().find(|(k, _)| k == key).map(|(_, v)| *v);
        let movies = get(META_SCALE_MOVIES).ok_or_else(|| {
            StorageError::SnapshotCorrupt(format!("snapshot lacks `{META_SCALE_MOVIES}` metadata"))
        })?;
        let seed = get(META_SCALE_SEED).ok_or_else(|| {
            StorageError::SnapshotCorrupt(format!("snapshot lacks `{META_SCALE_SEED}` metadata"))
        })?;
        let scale = Scale::with_movies(movies as usize).with_seed(seed as u64);
        Ok(Self::from_database(db, scale))
    }

    /// Switches the indexes to a different physical design (statistics and
    /// ground truth are unaffected by index changes).
    pub fn set_index_config(&mut self, index_config: IndexConfig) -> Result<(), StorageError> {
        self.db.build_indexes(index_config)
    }

    /// Full data generations that built this context (`stats.datagen_runs`
    /// on the wire): 0 forever for a wrapped, ingested or snapshot-loaded one.
    pub fn datagen_runs(&self) -> u64 {
        self.datagen_runs
    }

    /// The catalog.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The storage footprint of every table: per-column encoded page bytes
    /// versus the bytes the same rows would occupy un-encoded.  Feeds the
    /// server's `stats` message and the metrics exposition's compression
    /// gauges.
    pub fn storage_sizes(&self) -> Vec<TableStorageSize> {
        self.db
            .tables()
            .map(|(_, table)| TableStorageSize {
                table: table.name().to_owned(),
                encoded_bytes: table.encoded_data_bytes(),
                plain_bytes: table.plain_data_bytes(),
                columns: (0..table.column_count())
                    .map(|c| {
                        let cid = qob_storage::ColumnId(c as u32);
                        let col = table.column(cid);
                        ColumnStorageSize {
                            column: table.column_meta(cid).name.clone(),
                            encoded_bytes: col.encoded_data_bytes(),
                            plain_bytes: col.plain_data_bytes(),
                        }
                    })
                    .collect(),
            })
            .collect()
    }

    /// The ANALYZE statistics.
    pub fn stats(&self) -> &DatabaseStats {
        &self.stats
    }

    /// The scale the database was generated at.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The 113-query workload.
    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    /// One query by name (e.g. `"6a"`).
    pub fn query(&self, name: &str) -> Option<QuerySpec> {
        self.queries.iter().find(|q| q.name == name).cloned()
    }

    /// A subset of the workload: all queries if `limit` is `None`, otherwise
    /// every `ceil(113/limit)`-th query so families stay represented.
    pub fn query_subset(&self, limit: Option<usize>) -> Vec<&QuerySpec> {
        match limit {
            None => self.queries.iter().collect(),
            Some(n) if n == 0 || n >= self.queries.len() => self.queries.iter().collect(),
            Some(n) => {
                let step = self.queries.len().div_ceil(n);
                self.queries.iter().step_by(step).collect()
            }
        }
    }

    /// Instantiates an estimator profile (borrowing the context's catalog and
    /// statistics).
    pub fn estimator(&self, kind: EstimatorKind) -> Box<dyn CardinalityEstimator + '_> {
        let ctx = EstimatorContext::new(&self.db, &self.stats);
        match kind {
            EstimatorKind::Postgres => Box::new(PostgresEstimator::new(ctx)),
            EstimatorKind::PostgresTrueDistinct => {
                Box::new(PostgresEstimator::with_true_distinct_counts(ctx))
            }
            EstimatorKind::HyPer => Box::new(SamplingEstimator::new(ctx)),
            EstimatorKind::DbmsA => Box::new(DampedSamplingEstimator::new(ctx)),
            EstimatorKind::DbmsB => Box::new(PessimisticEstimator::new(ctx)),
            EstimatorKind::DbmsC => Box::new(MagicConstantEstimator::new(ctx)),
        }
    }

    /// The exact cardinalities of every connected subexpression of `query`,
    /// or the extraction failure (computed once per query and cached either
    /// way — a timeout is recorded as a timeout, never cached as an empty
    /// truth).
    pub fn try_true_cardinalities(
        &self,
        query: &QuerySpec,
    ) -> Result<Arc<TrueCardinalities>, ExecutionError> {
        if let Some(cached) = self.truth_cache.lock().get(&query.name) {
            return cached.clone();
        }
        let result = qob_exec::true_cardinalities(&self.db, query, &self.truth_options)
            .map(|computed| Arc::new(to_truth(computed)));
        self.truth_cache.lock().insert(query.name.clone(), result.clone());
        result
    }

    /// The exact cardinalities of every connected subexpression of `query`.
    ///
    /// On extraction failure this returns an *uncached* empty truth — callers
    /// that need to distinguish "no truth" from "truth is empty" use
    /// [`BenchmarkContext::try_true_cardinalities`] or inspect
    /// [`BenchmarkContext::truth_failures`].
    pub fn true_cardinalities(&self, query: &QuerySpec) -> Arc<TrueCardinalities> {
        self.try_true_cardinalities(query).unwrap_or_else(|_| Arc::new(TrueCardinalities::new()))
    }

    /// Number of queries whose ground truth (or extraction failure) is
    /// cached — the server's measure of how warm the context is.
    pub fn truth_cache_len(&self) -> usize {
        self.truth_cache.lock().len()
    }

    /// Every recorded ground-truth extraction failure, by query name.
    pub fn truth_failures(&self) -> Vec<(String, ExecutionError)> {
        let mut failures: Vec<(String, ExecutionError)> = self
            .truth_cache
            .lock()
            .iter()
            .filter_map(|(name, r)| r.as_ref().err().map(|e| (name.clone(), e.clone())))
            .collect();
        failures.sort_by(|a, b| a.0.cmp(&b.0));
        failures
    }

    /// Pre-computes (and caches) ground truth for a query subset, spreading
    /// whole queries across `workers` threads.  Returns how many queries were
    /// freshly extracted.
    pub fn precompute_true_cardinalities(&self, limit: Option<usize>, workers: usize) -> usize {
        let cached: std::collections::HashSet<String> =
            self.truth_cache.lock().keys().cloned().collect();
        let todo: Vec<&QuerySpec> =
            self.query_subset(limit).into_iter().filter(|q| !cached.contains(&q.name)).collect();
        if todo.is_empty() {
            return 0;
        }
        // Whole queries parallelise across workers; within-query threads
        // would oversubscribe the batch, so they stay at 1 here.
        let options = TrueCardinalityOptions { threads: 1, ..self.truth_options.clone() };
        let results = qob_exec::true_cardinalities_batch(&self.db, &todo, &options, workers);
        let fresh = todo.len();
        let mut cache = self.truth_cache.lock();
        for (query, result) in todo.into_iter().zip(results) {
            cache.insert(query.name.clone(), result.map(|computed| Arc::new(to_truth(computed))));
        }
        fresh
    }

    /// Optimizes `query` with exhaustive bushy DP under the default
    /// (main-memory `C_mm`) cost model, using `cards` as the cardinality
    /// source.
    pub fn optimize(
        &self,
        query: &QuerySpec,
        cards: &dyn CardinalityEstimator,
        config: PlannerConfig,
    ) -> Result<OptimizedPlan, qob_enumerate::EnumerationError> {
        self.optimize_with_model(query, cards, &SimpleCostModel::new(), config)
    }

    /// Optimizes `query` under an explicit cost model.
    pub fn optimize_with_model(
        &self,
        query: &QuerySpec,
        cards: &dyn CardinalityEstimator,
        model: &dyn CostModel,
        config: PlannerConfig,
    ) -> Result<OptimizedPlan, qob_enumerate::EnumerationError> {
        let planner = Planner::new(&self.db, query, model, cards, config);
        qob_enumerate::dpccp::optimize_bushy(&planner)
    }

    /// Executes a plan; hash-join sizing uses `sizing_cards` (the estimates
    /// the "optimizer" believed), reproducing how PostgreSQL consumes its own
    /// estimates at runtime.
    pub fn execute(
        &self,
        query: &QuerySpec,
        plan: &PhysicalPlan,
        sizing_cards: &dyn CardinalityEstimator,
        options: &ExecutionOptions,
    ) -> Result<ExecutionResult, qob_exec::ExecutionError> {
        let hint = |set: RelSet| sizing_cards.estimate(query, set);
        qob_exec::execute_plan(&self.db, query, plan, &hint, options)
    }
}

/// One column's storage footprint.
#[derive(Debug, Clone)]
pub struct ColumnStorageSize {
    /// Column name.
    pub column: String,
    /// Encoded page bytes.
    pub encoded_bytes: usize,
    /// Plain-equivalent bytes (8 per int row, 4 per string-code row).
    pub plain_bytes: usize,
}

/// One table's storage footprint with its per-column breakdown.
#[derive(Debug, Clone)]
pub struct TableStorageSize {
    /// Table name.
    pub table: String,
    /// Encoded page bytes across all columns.
    pub encoded_bytes: usize,
    /// Plain-equivalent bytes across all columns.
    pub plain_bytes: usize,
    /// Per-column breakdown.
    pub columns: Vec<ColumnStorageSize>,
}

impl TableStorageSize {
    /// `plain / encoded` — how much the encodings compress this table.
    pub fn compression_ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            1.0
        } else {
            self.plain_bytes as f64 / self.encoded_bytes as f64
        }
    }
}

/// Converts a raw extraction result into the estimator-facing truth table.
fn to_truth(computed: HashMap<RelSet, u64>) -> TrueCardinalities {
    let mut truth = TrueCardinalities::new();
    for (set, card) in computed {
        truth.insert(set, card as f64);
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> BenchmarkContext {
        BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap()
    }

    #[test]
    fn context_holds_workload_and_catalog() {
        let ctx = ctx();
        assert_eq!(ctx.queries().len(), qob_workload::JOB_QUERY_COUNT);
        assert_eq!(ctx.db().table_count(), 21);
        assert!(ctx.query("13d").is_some());
        assert!(ctx.query("nope").is_none());
        assert_eq!(ctx.scale(), Scale::tiny());
        assert_eq!(ctx.stats().table_count(), 21);
    }

    #[test]
    fn query_subset_sampling() {
        let ctx = ctx();
        assert_eq!(ctx.query_subset(None).len(), 113);
        assert_eq!(ctx.query_subset(Some(0)).len(), 113);
        assert_eq!(ctx.query_subset(Some(500)).len(), 113);
        let ten = ctx.query_subset(Some(10));
        assert!(ten.len() >= 10 && ten.len() <= 13, "got {}", ten.len());
    }

    #[test]
    fn estimators_are_constructible_and_labelled() {
        let ctx = ctx();
        for kind in EstimatorKind::paper_systems() {
            let est = ctx.estimator(kind);
            assert_eq!(est.name(), kind.label());
        }
        assert_eq!(
            ctx.estimator(EstimatorKind::PostgresTrueDistinct).name(),
            "PostgreSQL (true distinct)"
        );
    }

    #[test]
    fn true_cardinalities_are_cached_and_plausible() {
        let ctx = ctx();
        let q = ctx.query("2a").unwrap();
        let t1 = ctx.true_cardinalities(&q);
        let t2 = ctx.true_cardinalities(&q);
        assert!(Arc::ptr_eq(&t1, &t2), "second call hits the cache");
        assert!(!t1.is_empty());
        // Base relation cardinalities never exceed their table sizes.
        for (rel, relation) in q.relations.iter().enumerate() {
            let rows = ctx.db().table(relation.table).row_count() as f64;
            if let Some(card) = t1.get(qob_plan::RelSet::single(rel)) {
                assert!(card <= rows);
            }
        }
    }

    #[test]
    fn truth_failures_are_recorded_not_cached_as_empty_truth() {
        let mut ctx = ctx();
        ctx.truth_options.timeout = Some(std::time::Duration::from_nanos(1));
        let q = ctx.query("2a").unwrap();
        let err = ctx.try_true_cardinalities(&q).unwrap_err();
        assert!(matches!(err, ExecutionError::Timeout { .. }), "got {err:?}");
        // The compatibility accessor degrades to an empty truth...
        assert!(ctx.true_cardinalities(&q).is_empty());
        // ...but the failure is recorded as a failure, not as a cached truth.
        let failures = ctx.truth_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, "2a");
        assert!(matches!(failures[0].1, ExecutionError::Timeout { .. }));
    }

    #[test]
    fn precompute_fills_the_truth_cache_once() {
        let ctx = ctx();
        let fresh = ctx.precompute_true_cardinalities(Some(5), 3);
        assert!(fresh >= 5, "got {fresh}");
        assert_eq!(ctx.precompute_true_cardinalities(Some(5), 3), 0, "second pass hits cache");
        assert!(ctx.truth_failures().is_empty());
        // Precomputed truths match the per-query path.
        let q = ctx.query_subset(Some(5))[0].clone();
        assert!(!ctx.true_cardinalities(&q).is_empty());
    }

    #[test]
    fn optimize_and_execute_roundtrip() {
        let ctx = ctx();
        let q = ctx.query("3a").unwrap();
        let est = ctx.estimator(EstimatorKind::Postgres);
        let plan = ctx.optimize(&q, est.as_ref(), PlannerConfig::default()).unwrap();
        assert!(plan.plan.validate(&q).is_ok());
        let result =
            ctx.execute(&q, &plan.plan, est.as_ref(), &ExecutionOptions::default()).unwrap();
        // The true final cardinality matches what execution produced.
        let truth = ctx.true_cardinalities(&q);
        if let Some(expected) = truth.get(q.all_rels()) {
            assert_eq!(result.rows as f64, expected);
        }
    }

    #[test]
    fn estimator_kind_parses_wire_names() {
        assert_eq!(EstimatorKind::parse("postgres"), Some(EstimatorKind::Postgres));
        assert_eq!(
            EstimatorKind::parse("true-distinct"),
            Some(EstimatorKind::PostgresTrueDistinct)
        );
        assert_eq!(EstimatorKind::parse("hyper"), Some(EstimatorKind::HyPer));
        assert_eq!(EstimatorKind::parse("dbms-a"), Some(EstimatorKind::DbmsA));
        assert_eq!(EstimatorKind::parse("dbms-b"), Some(EstimatorKind::DbmsB));
        assert_eq!(EstimatorKind::parse("dbms-c"), Some(EstimatorKind::DbmsC));
        assert_eq!(EstimatorKind::parse("oracle"), None);
    }

    #[test]
    fn snapshot_roundtrip_reconstructs_the_context() {
        let original = ctx();
        let path =
            std::env::temp_dir().join(format!("qob-ctx-snapshot-{}.qob", std::process::id()));
        original.save_snapshot(&path).unwrap();
        let loaded = BenchmarkContext::load_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.scale(), original.scale());
        assert_eq!(loaded.db().table_count(), original.db().table_count());
        assert_eq!(loaded.db().index_config(), original.db().index_config());
        assert_eq!(loaded.db().index_count(), original.db().index_count());
        for (tid, table) in original.db().tables() {
            assert_eq!(loaded.db().table(tid).row_count(), table.row_count());
        }
        assert_eq!(loaded.queries().len(), original.queries().len());

        // Estimates (statistics-derived) and truths are identical, so the
        // loaded context reproduces q-errors exactly.
        let q = original.query("2a").unwrap();
        let est_a = original.estimator(EstimatorKind::Postgres);
        let est_b = loaded.estimator(EstimatorKind::Postgres);
        let truth_a = original.true_cardinalities(&q);
        let truth_b = loaded.true_cardinalities(&q);
        assert_eq!(est_a.estimate(&q, q.all_rels()), est_b.estimate(&q, q.all_rels()));
        assert_eq!(truth_a.get(q.all_rels()), truth_b.get(q.all_rels()));
    }

    #[test]
    fn csv_export_then_ingest_reproduces_the_database() {
        let original = ctx();
        let dir = std::env::temp_dir().join(format!("qob-ctx-csv-{}", std::process::id()));
        original.export_csv_dir(&dir).unwrap();
        let (ingested, report) =
            BenchmarkContext::ingest_csv_dir(&dir, IndexConfig::PrimaryKeyOnly, 2).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(report.tables.len(), 21);
        assert_eq!(report.total_rows(), original.db().total_rows());
        assert_eq!(ingested.db().table_count(), original.db().table_count());
        assert_eq!(ingested.db().index_count(), original.db().index_count());
        for (_, table) in original.db().tables() {
            let ingested_table = ingested.db().table_by_name(table.name()).unwrap();
            assert_eq!(ingested_table.row_count(), table.row_count(), "{}", table.name());
            assert_eq!(ingested_table.schema(), table.schema());
        }
        // Cell-exact: every value of every table survives the round trip.
        for (_, table) in original.db().tables() {
            let back = ingested.db().table_by_name(table.name()).unwrap();
            for row in table.row_ids() {
                for c in 0..table.column_count() {
                    let cid = qob_storage::ColumnId(c as u32);
                    assert_eq!(back.value(row, cid), table.value(row, cid));
                }
            }
        }
        // And the workload ground truth agrees on a sample query.
        let q = original.query("2a").unwrap();
        let truth_a = original.true_cardinalities(&q);
        let truth_b = ingested.true_cardinalities(&q);
        assert_eq!(truth_a.get(q.all_rels()), truth_b.get(q.all_rels()));
    }

    #[test]
    fn missing_scale_metadata_is_rejected() {
        let db = generate_imdb(&Scale::tiny()).unwrap();
        let path = std::env::temp_dir().join(format!("qob-nometa-{}.qob", std::process::id()));
        qob_storage::snapshot::save(&db, &[], &path).unwrap();
        let Err(err) = BenchmarkContext::load_snapshot(&path) else {
            panic!("a snapshot without scale metadata must not load");
        };
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, StorageError::SnapshotCorrupt(_)), "got {err:?}");
    }

    #[test]
    fn index_config_can_be_switched() {
        let mut ctx = ctx();
        let before = ctx.db().index_count();
        ctx.set_index_config(IndexConfig::PrimaryAndForeignKey).unwrap();
        assert!(ctx.db().index_count() > before);
        ctx.set_index_config(IndexConfig::NoIndexes).unwrap();
        assert_eq!(ctx.db().index_count(), 0);
    }
}
