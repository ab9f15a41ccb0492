//! The plan executor: options, errors, results and the pipeline driver.

use std::fmt;
use std::time::Duration;

use qob_plan::{PhysicalPlan, QuerySpec, RelSet};
use qob_storage::{ColumnId, Database};

use crate::intermediate::{Intermediate, Materialized};
use crate::operators::ExecGuard;

/// The number of worker threads the engine uses by default: everything the
/// machine offers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The default number of tuples per morsel.
pub const DEFAULT_MORSEL_SIZE: usize = 16_384;

/// Runtime options of the execution engine.
#[derive(Debug, Clone)]
pub struct ExecutionOptions {
    /// Resize hash tables at runtime when the build side exceeds the
    /// estimate (the PostgreSQL 9.5 behaviour; disabling it reproduces the
    /// ≤ 9.4 undersized-hash-table pathology of Figure 6).
    pub enable_rehash: bool,
    /// Abort execution after this wall-clock budget (the paper's query
    /// timeout for disastrous plans).
    pub timeout: Option<Duration>,
    /// Abort when any operator's output exceeds this many row-id slots, a
    /// memory guard against exploding plans.
    pub max_intermediate_slots: usize,
    /// Worker threads driving each pipeline.  `1` reproduces the historical
    /// sequential interpreter exactly (same hash-table sizing, insert order
    /// and output order); the default saturates all cores.
    pub threads: usize,
    /// Tuples per morsel — the unit of work pipeline workers pull from a
    /// source.  Smaller morsels spread uneven work better, larger ones
    /// amortise scheduling; the default suits cache-resident row-id tuples.
    pub morsel_size: usize,
    /// The shared server-wide worker pool (see [`crate::scheduler`]).  When
    /// set, parallel pipeline work is submitted to this pool so workers are
    /// shared *across* concurrent queries; when `None` each pipeline scopes
    /// its own thread pool (the historical one-shot behaviour).
    pub pool: Option<std::sync::Arc<crate::scheduler::WorkerPool>>,
    /// Label stamped on the pipeline spans this execution records on the
    /// shared pool (typically the query name, e.g. `"17e"`).  `None` falls
    /// back to `"pipeline"`.  Purely cosmetic: spans are recorded either
    /// way whenever a pool is attached.
    pub trace_tag: Option<std::sync::Arc<str>>,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        ExecutionOptions {
            enable_rehash: true,
            timeout: Some(Duration::from_secs(30)),
            max_intermediate_slots: 200_000_000,
            threads: default_threads(),
            morsel_size: DEFAULT_MORSEL_SIZE,
            pool: None,
            trace_tag: None,
        }
    }
}

impl ExecutionOptions {
    /// The options with `threads` workers and everything else default.
    pub fn with_threads(threads: usize) -> Self {
        ExecutionOptions { threads: threads.max(1), ..Default::default() }
    }

    /// Returns a copy with a different wall-clock budget (`None` disables
    /// the guard) — the per-session override of the serve path.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Returns a copy attached to a shared worker pool (the serve path; see
    /// [`crate::scheduler::WorkerPool`]).
    pub fn with_pool(mut self, pool: Option<std::sync::Arc<crate::scheduler::WorkerPool>>) -> Self {
        self.pool = pool;
        self
    }

    /// Returns a copy whose shared-pool pipeline spans are stamped with
    /// `tag` (typically the query name) in Chrome trace exports.
    pub fn with_trace_tag(mut self, tag: Option<std::sync::Arc<str>>) -> Self {
        self.trace_tag = tag;
        self
    }
}

/// Errors and aborts produced by the executor.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionError {
    /// The wall-clock timeout was exceeded.
    Timeout {
        /// Time spent before the abort.
        elapsed: Duration,
    },
    /// An intermediate grew past the configured memory guard.
    IntermediateTooLarge {
        /// Row-id slots produced.
        slots: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A join node carried no keys (the optimizer never produces cross
    /// products, so this indicates a malformed plan).
    CrossProduct,
    /// An index-nested-loop join referenced an index that is not built under
    /// the current physical design.
    MissingIndex {
        /// Table whose index is missing.
        table: String,
        /// The column that would need an index.
        column: ColumnId,
    },
    /// The plan references relations inconsistently.
    InvalidPlan(String),
    /// A worker thread panicked mid-execution.  The panic is contained to
    /// the statement: the coordinator reaps the poisoned worker, aborts the
    /// execution and reports this error instead of unwinding — one bad
    /// statement cannot take down a warm `qob serve` process.
    WorkerPanicked,
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::Timeout { elapsed } => {
                write!(f, "execution timed out after {elapsed:?}")
            }
            ExecutionError::IntermediateTooLarge { slots, limit } => {
                write!(f, "intermediate result too large: {slots} slots (limit {limit})")
            }
            ExecutionError::CrossProduct => write!(f, "join without keys (cross product)"),
            ExecutionError::MissingIndex { table, column } => {
                write!(f, "no index on {table} column {}", column.0)
            }
            ExecutionError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            ExecutionError::WorkerPanicked => {
                write!(f, "a worker thread panicked; the statement was aborted")
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

/// Runtime telemetry of one join operator, collected through the same
/// always-on atomic counters as its output cardinality — so instrumented
/// and uninstrumented reads observe the identical execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OperatorTiming {
    /// Wall-clock nanoseconds spent inside the operator: probe-chain work
    /// summed across workers, plus the operator's breaker work (hash build,
    /// merge) where it has any.  With `threads: 1` the per-operator times
    /// sum to at most the total elapsed time; with more workers the sum can
    /// exceed it (busy time is added across threads).
    pub busy_nanos: u64,
    /// Operator invocations: one per morsel pushed through the probe chain
    /// (breaker-only operators such as sort-merge count their merge as one).
    pub morsels: u64,
}

/// The outcome of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Number of result tuples (after all joins and selections; JOB queries
    /// wrap their outputs in `MIN(...)`, which does not change this count's
    /// meaning as "work performed").
    pub rows: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Output cardinality of every join operator, keyed by the relation set
    /// it produced (useful for diagnostics and tests).
    pub operator_cardinalities: Vec<(RelSet, u64)>,
    /// Per-operator wall time and morsel counts, in the same order as
    /// [`ExecutionResult::operator_cardinalities`].  Empty when execution
    /// was assembled from adaptive rounds (the splice loses per-round
    /// attribution).
    pub operator_timings: Vec<(RelSet, OperatorTiming)>,
}

/// Executes `plan` for `query` against `db` on the morsel-driven pipeline
/// engine (see [`crate::pipeline`]).
///
/// `build_size_hint` supplies the optimizer's cardinality estimate for any
/// subexpression — the executor uses it only to size hash-join tables,
/// mirroring how PostgreSQL consumes its own estimates at runtime.
pub fn execute_plan(
    db: &Database,
    query: &QuerySpec,
    plan: &PhysicalPlan,
    build_size_hint: &dyn Fn(RelSet) -> f64,
    options: &ExecutionOptions,
) -> Result<ExecutionResult, ExecutionError> {
    execute_plan_with(db, query, plan, build_size_hint, options, &Materialized::new())
}

/// [`execute_plan`] with a store of already-materialised intermediates: any
/// subtree whose relation set is in `premat` is served from the store
/// instead of being re-executed.  This is how adaptive execution resumes a
/// re-planned remainder on top of the work already done — the counters of
/// joins inside pre-materialised subtrees report 0 (they did not run here);
/// the adaptive driver overlays the counts recorded when they actually ran.
pub fn execute_plan_with(
    db: &Database,
    query: &QuerySpec,
    plan: &PhysicalPlan,
    build_size_hint: &dyn Fn(RelSet) -> f64,
    options: &ExecutionOptions,
    premat: &Materialized,
) -> Result<ExecutionResult, ExecutionError> {
    plan.validate(query).map_err(ExecutionError::InvalidPlan)?;
    let guard = ExecGuard::new(options);
    let (out, operator_cardinalities, operator_timings) =
        crate::pipeline::run_plan(db, query, plan, build_size_hint, options, &guard, premat)?;
    Ok(ExecutionResult {
        rows: out.len() as u64,
        elapsed: guard.elapsed(),
        operator_cardinalities,
        operator_timings,
    })
}

/// Materialises the full output of a *subplan* (a prefix of a larger plan),
/// returning the intermediate plus the output cardinality of every join it
/// executed.  Subtrees found in `premat` are served from the store, exactly
/// as in [`execute_plan_with`].
///
/// This is the adaptive driver's workhorse: it executes one pipeline
/// breaker at a time, observes the true cardinality of the result, and
/// decides whether the rest of the plan is still worth running as planned.
pub fn materialize_plan(
    db: &Database,
    query: &QuerySpec,
    plan: &PhysicalPlan,
    build_size_hint: &dyn Fn(RelSet) -> f64,
    options: &ExecutionOptions,
    premat: &Materialized,
) -> Result<(Intermediate, Vec<(RelSet, u64)>), ExecutionError> {
    plan.validate_partial(query).map_err(ExecutionError::InvalidPlan)?;
    let guard = ExecGuard::new(options);
    crate::pipeline::run_plan(db, query, plan, build_size_hint, options, &guard, premat)
        .map(|(out, cards, _)| (out, cards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::{BaseRelation, JoinAlgorithm, JoinEdge, JoinKey};
    use qob_storage::{CmpOp, ColumnMeta, DataType, IndexConfig, Predicate, TableBuilder, Value};

    #[test]
    fn option_builders_compose() {
        let options = ExecutionOptions::with_threads(3).with_timeout(None);
        assert_eq!(options.threads, 3);
        assert_eq!(options.timeout, None);
        let options =
            ExecutionOptions::with_threads(0).with_timeout(Some(Duration::from_millis(250)));
        assert_eq!(options.threads, 1, "zero threads clamps to the sequential engine");
        assert_eq!(options.timeout, Some(Duration::from_millis(250)));
    }

    /// Two tables: `movies(id, year)` with 100 rows and `info(id, movie_id)`
    /// with 3 rows per movie.
    fn setup(index_config: IndexConfig) -> (Database, QuerySpec) {
        let mut movies = TableBuilder::new(
            "movies",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("year", DataType::Int)],
        );
        for i in 0..100i64 {
            movies.push_row(vec![Value::Int(i + 1), Value::Int(1950 + i % 60)]).unwrap();
        }
        let mut info = TableBuilder::new(
            "info",
            vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("movie_id", DataType::Int)],
        );
        let mut id = 1;
        for i in 0..100i64 {
            for _ in 0..3 {
                info.push_row(vec![Value::Int(id), Value::Int(i + 1)]).unwrap();
                id += 1;
            }
        }
        let mut db = Database::new();
        let m = db.add_table(movies.finish()).unwrap();
        let inf = db.add_table(info.finish()).unwrap();
        db.declare_primary_key(m, "id").unwrap();
        db.declare_primary_key(inf, "id").unwrap();
        db.declare_foreign_key(inf, "movie_id", m).unwrap();
        db.build_indexes(index_config).unwrap();

        let q = QuerySpec::new(
            "q",
            vec![
                BaseRelation::filtered(
                    m,
                    "m",
                    vec![Predicate::IntCmp { column: ColumnId(1), op: CmpOp::Ge, value: 2000 }],
                ),
                BaseRelation::unfiltered(inf, "i"),
            ],
            vec![JoinEdge {
                left: 0,
                left_column: ColumnId(0),
                right: 1,
                right_column: ColumnId(1),
            }],
        );
        (db, q)
    }

    fn key01() -> JoinKey {
        JoinKey { left_rel: 0, left_column: ColumnId(0), right_rel: 1, right_column: ColumnId(1) }
    }

    /// 10 movies have year >= 2000 (years 1950..2009, i%60 >= 50 → 10 of each 60,
    /// for 100 rows: i in 50..60 → 10 movies), each with 3 info rows → 30.
    const EXPECTED_ROWS: u64 = 30;

    #[test]
    fn hash_join_produces_correct_count() {
        let (db, q) = setup(IndexConfig::PrimaryKeyOnly);
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key01()],
        );
        let r = execute_plan(&db, &q, &plan, &|_| 100.0, &ExecutionOptions::default()).unwrap();
        assert_eq!(r.rows, EXPECTED_ROWS);
        assert_eq!(r.operator_cardinalities.len(), 1);
        assert_eq!(r.operator_cardinalities[0].1, EXPECTED_ROWS);
    }

    #[test]
    fn all_join_algorithms_agree() {
        let (db, q) = setup(IndexConfig::PrimaryAndForeignKey);
        let algorithms = [
            JoinAlgorithm::Hash,
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::SortMerge,
            JoinAlgorithm::IndexNestedLoop,
        ];
        for alg in algorithms {
            let plan = PhysicalPlan::join(
                alg,
                PhysicalPlan::scan(0),
                PhysicalPlan::scan(1),
                vec![key01()],
            );
            let r = execute_plan(&db, &q, &plan, &|_| 10.0, &ExecutionOptions::default())
                .unwrap_or_else(|e| panic!("{alg:?} failed: {e}"));
            assert_eq!(r.rows, EXPECTED_ROWS, "{alg:?}");
        }
    }

    #[test]
    fn undersized_hash_table_still_correct_without_rehash() {
        let (db, q) = setup(IndexConfig::PrimaryKeyOnly);
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(1),
            PhysicalPlan::scan(0),
            vec![JoinKey {
                left_rel: 1,
                left_column: ColumnId(1),
                right_rel: 0,
                right_column: ColumnId(0),
            }],
        );
        let opts = ExecutionOptions { enable_rehash: false, ..Default::default() };
        // Hint of 1 row forces a severely undersized table.
        let r = execute_plan(&db, &q, &plan, &|_| 1.0, &opts).unwrap();
        assert_eq!(r.rows, EXPECTED_ROWS);
    }

    #[test]
    fn index_nested_loop_requires_index() {
        let (db, q) = setup(IndexConfig::PrimaryKeyOnly);
        // INL into info.movie_id needs an FK index, which PK-only lacks.
        let plan = PhysicalPlan::join(
            JoinAlgorithm::IndexNestedLoop,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key01()],
        );
        let err =
            execute_plan(&db, &q, &plan, &|_| 10.0, &ExecutionOptions::default()).unwrap_err();
        assert!(matches!(err, ExecutionError::MissingIndex { .. }));
        assert!(err.to_string().contains("info"));
    }

    #[test]
    fn index_nested_loop_applies_inner_predicates() {
        let (db, q) = setup(IndexConfig::PrimaryAndForeignKey);
        // Flip the query: outer = info (unfiltered), inner = movies (filtered on year).
        let q2 = QuerySpec::new(
            "q2",
            vec![q.relations[1].clone(), q.relations[0].clone()],
            vec![JoinEdge {
                left: 0,
                left_column: ColumnId(1),
                right: 1,
                right_column: ColumnId(0),
            }],
        );
        let plan = PhysicalPlan::join(
            JoinAlgorithm::IndexNestedLoop,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![JoinKey {
                left_rel: 0,
                left_column: ColumnId(1),
                right_rel: 1,
                right_column: ColumnId(0),
            }],
        );
        let r = execute_plan(&db, &q2, &plan, &|_| 10.0, &ExecutionOptions::default()).unwrap();
        assert_eq!(r.rows, EXPECTED_ROWS, "inner predicate must be applied after the index lookup");
    }

    #[test]
    fn parallel_engine_matches_sequential_tuple_for_tuple() {
        let (db, q) = setup(IndexConfig::PrimaryAndForeignKey);
        let algorithms = [
            JoinAlgorithm::Hash,
            JoinAlgorithm::NestedLoop,
            JoinAlgorithm::SortMerge,
            JoinAlgorithm::IndexNestedLoop,
        ];
        for alg in algorithms {
            let plan = PhysicalPlan::join(
                alg,
                PhysicalPlan::scan(0),
                PhysicalPlan::scan(1),
                vec![key01()],
            );
            // A tiny morsel forces genuine multi-morsel scheduling even on
            // this small input.
            let seq = ExecutionOptions { threads: 1, morsel_size: 16, ..Default::default() };
            let par = ExecutionOptions { threads: 4, morsel_size: 16, ..Default::default() };
            let a = execute_plan(&db, &q, &plan, &|_| 10.0, &seq).unwrap();
            let b = execute_plan(&db, &q, &plan, &|_| 10.0, &par).unwrap();
            assert_eq!(a.rows, EXPECTED_ROWS, "{alg:?}");
            assert_eq!(a.rows, b.rows, "{alg:?}");
            assert_eq!(a.operator_cardinalities, b.operator_cardinalities, "{alg:?}");
        }

        // The Figure 6 pathology path: a severely undersized, never-rehashed
        // table must stay correct under the partitioned parallel build too.
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(1),
            PhysicalPlan::scan(0),
            vec![JoinKey {
                left_rel: 1,
                left_column: ColumnId(1),
                right_rel: 0,
                right_column: ColumnId(0),
            }],
        );
        for threads in [1usize, 4] {
            let opts = ExecutionOptions {
                enable_rehash: false,
                threads,
                morsel_size: 16,
                ..Default::default()
            };
            let r = execute_plan(&db, &q, &plan, &|_| 1.0, &opts).unwrap();
            assert_eq!(r.rows, EXPECTED_ROWS, "undersized fixed table, threads={threads}");
        }
    }

    #[test]
    fn parallel_guards_still_abort() {
        let (db, q) = setup(IndexConfig::PrimaryKeyOnly);
        let nl = PhysicalPlan::join(
            JoinAlgorithm::NestedLoop,
            PhysicalPlan::scan(1),
            PhysicalPlan::scan(0),
            vec![JoinKey {
                left_rel: 1,
                left_column: ColumnId(1),
                right_rel: 0,
                right_column: ColumnId(0),
            }],
        );
        let opts = ExecutionOptions {
            timeout: Some(Duration::from_nanos(1)),
            threads: 4,
            morsel_size: 16,
            ..Default::default()
        };
        let err = execute_plan(&db, &q, &nl, &|_| 10.0, &opts).unwrap_err();
        assert!(matches!(err, ExecutionError::Timeout { .. }), "got {err:?}");

        let hj = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key01()],
        );
        let opts = ExecutionOptions {
            max_intermediate_slots: 10,
            threads: 4,
            morsel_size: 16,
            ..Default::default()
        };
        let err = execute_plan(&db, &q, &hj, &|_| 10.0, &opts).unwrap_err();
        assert!(matches!(err, ExecutionError::IntermediateTooLarge { .. }), "got {err:?}");
    }

    #[test]
    fn timeout_aborts_execution() {
        let (db, q) = setup(IndexConfig::PrimaryKeyOnly);
        let plan = PhysicalPlan::join(
            JoinAlgorithm::NestedLoop,
            PhysicalPlan::scan(1),
            PhysicalPlan::scan(0),
            vec![JoinKey {
                left_rel: 1,
                left_column: ColumnId(1),
                right_rel: 0,
                right_column: ColumnId(0),
            }],
        );
        let opts =
            ExecutionOptions { timeout: Some(Duration::from_nanos(1)), ..Default::default() };
        let err = execute_plan(&db, &q, &plan, &|_| 10.0, &opts).unwrap_err();
        assert!(matches!(err, ExecutionError::Timeout { .. }), "got {err:?}");
    }

    #[test]
    fn intermediate_size_guard() {
        let (db, q) = setup(IndexConfig::PrimaryKeyOnly);
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key01()],
        );
        let opts = ExecutionOptions { max_intermediate_slots: 10, ..Default::default() };
        let err = execute_plan(&db, &q, &plan, &|_| 10.0, &opts).unwrap_err();
        assert!(matches!(err, ExecutionError::IntermediateTooLarge { .. }));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let (db, q) = setup(IndexConfig::PrimaryKeyOnly);
        // Plan missing relation 1.
        let plan = PhysicalPlan::scan(0);
        let err = execute_plan(&db, &q, &plan, &|_| 1.0, &ExecutionOptions::default()).unwrap_err();
        assert!(matches!(err, ExecutionError::InvalidPlan(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn error_display_strings() {
        let errs: Vec<ExecutionError> = vec![
            ExecutionError::Timeout { elapsed: Duration::from_secs(1) },
            ExecutionError::IntermediateTooLarge { slots: 10, limit: 5 },
            ExecutionError::CrossProduct,
            ExecutionError::MissingIndex { table: "t".into(), column: ColumnId(2) },
            ExecutionError::InvalidPlan("oops".into()),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
