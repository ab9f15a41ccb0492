//! The serve path: a shared warm context plus per-session state.
//!
//! One [`BenchmarkContext`] is expensive to build (datagen + ANALYZE) but
//! cheap to share: everything it exposes is either immutable after
//! construction (database, statistics, workload) or internally synchronised
//! (the ground-truth cache behind a `parking_lot` mutex).  [`ServerContext`]
//! wraps the context in an [`Arc`] so any number of connections can hold it,
//! and [`Session`] layers the *per-connection* state on top: which estimator
//! to plan with, how many worker threads to execute on, the statement
//! timeout, and whether to execute at all.
//!
//! The `qob` CLI and the `qob-server` wire protocol both run queries through
//! [`Session::run_script`], so a query answered over a socket is
//! tuple-identical to the same query answered by a one-shot CLI run.
//!
//! ## Prepared statements and the plan cache
//!
//! A session can [`Session::prepare`] a (possibly parameterized) statement
//! once and [`Session::execute_prepared`] it many times, skipping the parse
//! on every repeat.  Orthogonally, [`SessionOptions::plan_cache`] switches on
//! the shared cardinality-fenced plan cache (`qob-cache`): `run_query`
//! fingerprints each bound statement, reuses a cached plan when the
//! session's fresh estimates stay within the [`SessionOptions::cache_fence`]
//! q-error band of the estimates the plan was optimized under, and
//! re-optimizes (installing a new variant) when a parameter shift crosses
//! the fence.  The cache is server-wide — every session shares it — while
//! the enable switch and the fence are per-session.
//!
//! # Examples
//!
//! ```no_run
//! use qob_core::{BenchmarkContext, ServerContext};
//!
//! let ctx = BenchmarkContext::load_snapshot("db.qob").unwrap();
//! let server = ServerContext::new(ctx);
//! let mut session = server.session(); // one per connection
//! let outcomes = session
//!     .run_script("SELECT COUNT(*) FROM title t, movie_companies mc WHERE mc.movie_id = t.id")
//!     .unwrap();
//! let report = outcomes[0].as_query().unwrap();
//! println!("{} rows", report.execution.as_ref().unwrap().rows);
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use qob_cache::{fingerprint_query, CacheCounters, CachedVariant, Lookup, PlanCache};
use qob_cardest::q_error;
use qob_enumerate::PlannerConfig;
use qob_exec::{AdaptiveOptions, ExecutionOptions, OperatorTiming};
use qob_obs::{Event, EventLog, Exposition, MetricsRegistry};
use qob_plan::{PhysicalPlan, QuerySpec, RelSet};
use qob_sql::{ParamValue, ScriptStatement, SelectStatement};
use qob_workload::{parse_script, ParsedStatement};

use crate::context::{BenchmarkContext, EstimatorKind};

/// Per-session (per-connection) execution state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOptions {
    /// The estimator profile plans are optimized with.
    pub estimator: EstimatorKind,
    /// Worker threads driving execution (`0` is normalised to all cores by
    /// [`SessionOptions::set`]).
    pub threads: usize,
    /// Per-statement wall-clock timeout (`None` disables the guard).
    pub timeout: Option<Duration>,
    /// When `false`, statements stop after planning (the `explain` path).
    pub execute: bool,
    /// Tuples per morsel pulled by pipeline workers (the CLI's
    /// `--morsel-size`; `0` is normalised to the engine default by
    /// [`SessionOptions::set`]).
    pub morsel_size: usize,
    /// Adaptive mid-execution re-optimization knobs.
    pub adaptive: AdaptiveOptions,
    /// When `true`, `run_query` consults the server-wide plan cache: the
    /// optimize step is skipped whenever a cached plan for the statement's
    /// fingerprint passes the cardinality fence.
    pub plan_cache: bool,
    /// Reuse fence: a cached plan is reused only if every per-subplan
    /// cardinality estimate under the current parameters is within this
    /// q-error factor of the estimate the plan was optimized under.
    pub cache_fence: f64,
    /// Fingerprint capacity of the shared plan cache.  The cache is
    /// server-wide: the value is applied when the option is *set* (via
    /// [`Session::set_option`]), so the most recent `set` wins and probes
    /// never resize; `0` is normalised to the default by
    /// [`SessionOptions::set`].
    pub cache_capacity: usize,
    /// When `true`, query reports expose trace spans: per-phase timings in
    /// [`QueryReport::trace`] and per-operator wall time / morsel counts on
    /// each [`OperatorReport`].  Tracing never changes what executes — the
    /// counters are collected unconditionally; this option only controls
    /// whether reports carry them.
    pub tracing: bool,
    /// Slow-query threshold in milliseconds.  `0` disables the threshold
    /// and (when set via [`Session::set_option`]) the server's structured
    /// event log; any positive value enables both.
    pub slow_query_ms: u64,
    /// Per-statement intermediate-tuple budget: the executor aborts a
    /// statement whose intermediates grow past this many tuple slots.  `0`
    /// keeps the engine's (very large) default guard.  Under admission
    /// control this is the per-session memory budget: a runaway join burns
    /// its own budget instead of the whole server's.
    pub mem_budget: usize,
    /// When `true` (the default), every executed statement records one
    /// sample into the server-wide per-fingerprint query history
    /// ([`qob_obs::QueryHistory`]).  Recording is a handful of counter
    /// updates after the result exists — it never changes what executes —
    /// but the switch lets differential tests pin history-on ≡ history-off.
    pub history: bool,
    /// Regression-detector threshold: a `regression` event fires for a
    /// fingerprint when the median latency of its recent window exceeds
    /// `regression_ratio ×` the median of the preceding baseline window.
    /// `0` disables detection; values in `(0, 1]` force it (useful in CI).
    pub regression_ratio: f64,
}

/// The default plan-cache reuse fence (q-error factor).
pub const DEFAULT_CACHE_FENCE: f64 = 10.0;

/// The default regression-detector ratio: a fingerprint's recent-window
/// median latency must double over its baseline-window median to fire.
pub const DEFAULT_REGRESSION_RATIO: f64 = 2.0;

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            estimator: EstimatorKind::Postgres,
            threads: qob_exec::default_threads(),
            timeout: Some(Duration::from_secs(30)),
            execute: true,
            morsel_size: qob_exec::DEFAULT_MORSEL_SIZE,
            adaptive: AdaptiveOptions::default(),
            plan_cache: false,
            cache_fence: DEFAULT_CACHE_FENCE,
            cache_capacity: PlanCache::DEFAULT_CAPACITY,
            tracing: false,
            slow_query_ms: 0,
            mem_budget: 0,
            history: true,
            regression_ratio: DEFAULT_REGRESSION_RATIO,
        }
    }
}

impl SessionOptions {
    /// Sets one option by its wire-protocol name: `threads` (integer, `0` =
    /// all cores), `timeout_ms` (integer, `0` = no timeout), `estimator`
    /// (profile name), `execute` (`true`/`false`), `morsel_size` (integer,
    /// `0` = engine default), `adaptive` (`true`/`false`),
    /// `adaptive_threshold` (q-error factor > 1), `max_replans` (integer),
    /// `plan_cache` (`true`/`false`), `cache_fence` (q-error factor > 1),
    /// `cache_capacity` (integer, `0` = default), `tracing`
    /// (`true`/`false`), `slow_query_ms` (integer, `0` = off),
    /// `mem_budget` (intermediate tuple slots, `0` = engine default),
    /// `history` (`true`/`false`) or `regression_ratio` (number ≥ 0, `0` =
    /// detector off).  Returns a description of the rejection otherwise.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let flag = |value: &str| match value {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("{name} needs true or false, got `{other}`")),
        };
        match name {
            "threads" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("threads needs an integer, got `{value}`"))?;
                self.threads = if n == 0 { qob_exec::default_threads() } else { n };
            }
            "timeout_ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("timeout_ms needs an integer, got `{value}`"))?;
                self.timeout = if ms == 0 { None } else { Some(Duration::from_millis(ms)) };
            }
            "estimator" => {
                self.estimator = EstimatorKind::parse(value)
                    .ok_or_else(|| format!("unknown estimator `{value}`"))?;
            }
            "execute" => self.execute = flag(value)?,
            "morsel_size" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("morsel_size needs an integer, got `{value}`"))?;
                self.morsel_size = if n == 0 { qob_exec::DEFAULT_MORSEL_SIZE } else { n };
            }
            "adaptive" => self.adaptive.enabled = flag(value)?,
            "adaptive_threshold" => {
                let t: f64 = value
                    .parse()
                    .map_err(|_| format!("adaptive_threshold needs a number, got `{value}`"))?;
                if t.is_nan() || t <= 1.0 {
                    return Err(format!(
                        "adaptive_threshold is a q-error factor and must exceed 1, got `{value}`"
                    ));
                }
                self.adaptive.divergence_threshold = t;
            }
            "max_replans" => {
                self.adaptive.max_replans = value
                    .parse()
                    .map_err(|_| format!("max_replans needs an integer, got `{value}`"))?;
            }
            "plan_cache" => self.plan_cache = flag(value)?,
            "cache_fence" => {
                let f: f64 = value
                    .parse()
                    .map_err(|_| format!("cache_fence needs a number, got `{value}`"))?;
                if f.is_nan() || f <= 1.0 {
                    return Err(format!(
                        "cache_fence is a q-error factor and must exceed 1, got `{value}`"
                    ));
                }
                self.cache_fence = f;
            }
            "cache_capacity" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| format!("cache_capacity needs an integer, got `{value}`"))?;
                self.cache_capacity = if n == 0 { PlanCache::DEFAULT_CAPACITY } else { n };
            }
            "tracing" => self.tracing = flag(value)?,
            "slow_query_ms" => {
                self.slow_query_ms = value
                    .parse()
                    .map_err(|_| format!("slow_query_ms needs an integer, got `{value}`"))?;
            }
            "mem_budget" => {
                self.mem_budget = value
                    .parse()
                    .map_err(|_| format!("mem_budget needs an integer, got `{value}`"))?;
            }
            "history" => self.history = flag(value)?,
            "regression_ratio" => {
                let r: f64 = value
                    .parse()
                    .map_err(|_| format!("regression_ratio needs a number, got `{value}`"))?;
                if r.is_nan() || r < 0.0 {
                    return Err(format!(
                        "regression_ratio needs a number >= 0 (0 disables), got `{value}`"
                    ));
                }
                self.regression_ratio = r;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        Ok(())
    }

    /// The execution options this session state implies.
    pub fn execution_options(&self) -> ExecutionOptions {
        let mut options = ExecutionOptions::with_threads(self.threads).with_timeout(self.timeout);
        options.morsel_size = self.morsel_size.max(1);
        options.adaptive = self.adaptive;
        if self.mem_budget > 0 {
            options.max_intermediate_slots = self.mem_budget;
        }
        options
    }
}

/// What went wrong while answering a statement, tagged by pipeline stage so
/// protocol errors can carry a machine-readable code.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The statement failed to parse or bind (rendered diagnostic).
    Sql(String),
    /// Join-order enumeration failed.
    Optimize(String),
    /// Execution aborted (timeout, memory guard, malformed plan).
    Execute(String),
    /// Admission control turned the statement away: the run queue was
    /// already at capacity.  The statement never started executing, so
    /// clients can safely retry.
    Rejected(String),
}

impl SessionError {
    /// A short machine-readable code (`sql_error`, `optimize_error`,
    /// `execute_error`, `rejected`) used by the wire protocol.
    pub fn code(&self) -> &'static str {
        match self {
            SessionError::Sql(_) => "sql_error",
            SessionError::Optimize(_) => "optimize_error",
            SessionError::Execute(_) => "execute_error",
            SessionError::Rejected(_) => "rejected",
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sql(msg) => write!(f, "{msg}"),
            SessionError::Optimize(msg) => write!(f, "optimization failed: {msg}"),
            SessionError::Execute(msg) => write!(f, "execution failed: {msg}"),
            SessionError::Rejected(msg) => write!(f, "admission rejected: {msg}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// One operator of an executed plan: its estimated vs. true output
/// cardinality and the q-error between them.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorReport {
    /// The relation set the operator produced, rendered as `{t,mc,cn}`.
    pub relations: String,
    /// The estimator's cardinality estimate for that set.
    pub estimated: f64,
    /// The true cardinality observed during execution.
    pub true_rows: u64,
    /// `q_error(estimated, true_rows)`.
    pub q_error: f64,
    /// Wall-clock busy time charged to the operator across all workers, in
    /// microseconds.  `None` unless the session traces
    /// ([`SessionOptions::tracing`]); `Some(0)` when the run carried no
    /// per-operator timings (adaptive splices).
    pub time_us: Option<u64>,
    /// Morsels (work units) the operator processed.  Present under the same
    /// conditions as [`OperatorReport::time_us`].
    pub morsels: Option<u64>,
}

/// Per-phase wall-clock timings for one traced statement, in microseconds.
///
/// `parse_us` covers the script parse the statement arrived in (the parse
/// is per-script, so multi-statement scripts repeat it on every report):
/// [`Session::run_script`] times it, and hosts that parse scripts
/// themselves hand their parse time to [`Session::run_statement`].  It is
/// `0` for prepared execution and [`Session::run_query`], whose statements
/// arrive already parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Script parse time.
    pub parse_us: u64,
    /// Bind (name resolution + predicate compilation) time.
    pub bind_us: u64,
    /// Optimize time, including the plan-cache lookup when caching is on.
    pub optimize_us: u64,
    /// Time spent waiting in the admission queue before execution began
    /// (`0` when the server runs without a concurrency limit).
    pub queue_us: u64,
    /// Execute time (`0` for explain-only statements).
    pub execute_us: u64,
}

/// One adaptive re-planning round, as reported to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanReport {
    /// The materialised subexpression that diverged, rendered as `{t,mc}`.
    pub after: String,
    /// The cardinality the running plan was optimized with.
    pub estimated: f64,
    /// The true cardinality observed at the pipeline breaker.
    pub observed: u64,
    /// The divergence factor (`q_error(estimated, observed)`).
    pub factor: f64,
    /// True if the round produced a different remainder plan.
    pub changed: bool,
    /// The plan execution resumed on.
    pub resumed_plan: String,
}

/// The runtime half of a [`QueryReport`], present when the session executed
/// the plan (not just planned it).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Result tuples produced.
    pub rows: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Per-operator cardinalities in execution order.
    pub operators: Vec<OperatorReport>,
    /// The largest per-operator q-error.
    pub worst_q_error: f64,
    /// Adaptive re-planning rounds, in order (empty when adaptivity is off
    /// or nothing diverged).
    pub replans: Vec<ReplanReport>,
}

/// How the plan cache treated one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanCacheStatus {
    /// A cached plan passed the fence and was executed without optimizing.
    Hit,
    /// The fingerprint was not cached; the statement optimized cold and the
    /// plan was installed.
    Miss,
    /// The fingerprint was cached but the current parameters' estimates
    /// crossed the fence on every variant: the statement re-optimized and
    /// the fresh plan was installed as a new variant.
    FenceRejected,
}

impl PlanCacheStatus {
    /// Wire/display label (`hit`, `miss`, `fence-reject`).
    pub fn label(&self) -> &'static str {
        match self {
            PlanCacheStatus::Hit => "hit",
            PlanCacheStatus::Miss => "miss",
            PlanCacheStatus::FenceRejected => "fence-reject",
        }
    }
}

/// Everything one answered statement reports: the chosen plan and, when the
/// session executes, the runtime cardinality comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// Statement name (`-- name:` annotation or `q<N>`).
    pub name: String,
    /// Number of relations joined.
    pub relations: usize,
    /// Number of equality join predicates.
    pub join_predicates: usize,
    /// Number of base-table selection predicates.
    pub selections: usize,
    /// Display label of the estimator that planned it.
    pub estimator: String,
    /// The optimizer's cost for the chosen plan.
    pub cost: f64,
    /// Worker threads the session would execute with.
    pub threads: usize,
    /// The chosen plan rendered as an indented tree.
    pub plan: String,
    /// What the plan cache concluded for this statement (`None` when the
    /// session runs with caching disabled).
    pub plan_cache: Option<PlanCacheStatus>,
    /// Runtime results, or `None` for explain-only sessions.
    pub execution: Option<ExecutionReport>,
    /// Per-phase timings, present when the session traces (or the statement
    /// was an `EXPLAIN ANALYZE`, which forces tracing for itself).
    pub trace: Option<TraceReport>,
}

/// The result of one script statement: a query report, or the
/// acknowledgement of a prepared-statement command.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptOutcome {
    /// A `SELECT` (or `EXECUTE`) answered with a full report (boxed:
    /// a report is an order of magnitude larger than the acknowledgements).
    Query(Box<QueryReport>),
    /// A `PREPARE` registered a statement.
    Prepared {
        /// The statement name.
        name: String,
        /// Number of parameter slots it declares.
        params: usize,
    },
    /// A `DEALLOCATE` dropped a statement.
    Deallocated {
        /// The statement name.
        name: String,
    },
}

impl ScriptOutcome {
    /// The query report, if this outcome is one.
    pub fn as_query(&self) -> Option<&QueryReport> {
        match self {
            ScriptOutcome::Query(report) => Some(report),
            _ => None,
        }
    }

    /// Consumes the outcome into its query report, if it is one.
    pub fn into_query(self) -> Option<QueryReport> {
        match self {
            ScriptOutcome::Query(report) => Some(*report),
            _ => None,
        }
    }
}

/// Server-wide execution scheduling: the shared worker pool and the
/// admission limits in front of it.
///
/// The default (`workers == 0`, `max_concurrent == 0`) is a context without
/// a scheduler: every statement executes immediately on query-private
/// scoped threads, as in one-shot runs.  `qob serve` always sets both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Shared worker-pool size.  `0` disables the shared pool: each
    /// statement spawns its own scoped workers, sized by the session's
    /// `threads` option.
    pub workers: usize,
    /// Statements allowed to execute concurrently.  `0` means unlimited
    /// (no admission control at all — statements never queue).
    pub max_concurrent: usize,
    /// Statements allowed to *wait* for an execution slot before new
    /// arrivals are rejected outright.  Only consulted when
    /// `max_concurrent > 0`.
    pub max_queued: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { workers: 0, max_concurrent: 0, max_queued: 256 }
    }
}

/// A counting semaphore with a bounded wait queue: at most `max_concurrent`
/// permits out, at most `max_queued` waiters, arrivals beyond both rejected
/// immediately.  `std::sync` primitives, not `parking_lot`: waiters block
/// for whole statement executions, not microseconds, so fairness and OS
/// parking beat spin speed.
#[derive(Debug)]
struct AdmissionController {
    max_concurrent: usize,
    max_queued: usize,
    state: std::sync::Mutex<AdmissionState>,
    freed: std::sync::Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    running: usize,
    queued: usize,
}

impl AdmissionController {
    fn new(max_concurrent: usize, max_queued: usize) -> AdmissionController {
        AdmissionController {
            max_concurrent: max_concurrent.max(1),
            max_queued,
            state: std::sync::Mutex::new(AdmissionState::default()),
            freed: std::sync::Condvar::new(),
        }
    }

    /// Blocks until an execution slot frees up, or rejects immediately when
    /// the wait queue is already full.  The permit releases on drop.
    fn acquire(&self) -> Result<AdmissionPermit<'_>, String> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.running < self.max_concurrent {
            state.running += 1;
            return Ok(AdmissionPermit { controller: self });
        }
        if state.queued >= self.max_queued {
            return Err(format!(
                "server at capacity: {} executing, {} queued",
                state.running, state.queued
            ));
        }
        state.queued += 1;
        while state.running >= self.max_concurrent {
            state = self.freed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.queued -= 1;
        state.running += 1;
        Ok(AdmissionPermit { controller: self })
    }

    fn gauges(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.running, state.queued)
    }
}

/// An execution slot held for the duration of one statement's execute
/// phase; dropping it wakes one queued waiter.
#[derive(Debug)]
struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let controller = self.controller;
        let mut state = controller.state.lock().unwrap_or_else(|e| e.into_inner());
        state.running -= 1;
        drop(state);
        controller.freed.notify_one();
    }
}

struct ServerShared {
    ctx: BenchmarkContext,
    defaults: SessionOptions,
    /// The scheduling shape the server was built with (immutable, like the
    /// pool below: sizing is a start-time decision, not a `SET`).
    scheduler: SchedulerConfig,
    /// The shared worker pool every statement's morsels execute on, or
    /// `None` for per-query scoped pools.
    exec_pool: Option<Arc<qob_exec::WorkerPool>>,
    /// Admission control in front of the execute phase, or `None` when the
    /// concurrency limit is off.
    admission: Option<AdmissionController>,
    queries_served: AtomicU64,
    /// The server-wide plan cache, shared by every session (the enable
    /// switch and fence are per-session options).
    plan_cache: Mutex<PlanCache>,
    /// The server-wide metrics registry every session records into.
    metrics: MetricsRegistry,
    /// The server-wide structured event log (off until some session sets a
    /// positive `slow_query_ms`).
    events: EventLog,
    /// The server-wide per-fingerprint query history (see
    /// [`qob_obs::QueryHistory`]): every session with
    /// [`SessionOptions::history`] on records executed statements here.
    history: qob_obs::QueryHistory,
}

/// The long-lived, shareable wrapper around one warm [`BenchmarkContext`]:
/// every connection gets a [`Session`] cloned from the same underlying
/// context, so plan caches and ground truths are computed once and reused by
/// everyone.
#[derive(Clone)]
pub struct ServerContext {
    shared: Arc<ServerShared>,
}

impl ServerContext {
    /// Wraps a context with default per-session options.
    pub fn new(ctx: BenchmarkContext) -> Self {
        Self::with_defaults(ctx, SessionOptions::default())
    }

    /// Wraps a context with explicit default options for new sessions and
    /// no shared scheduler (query-private scoped workers, unlimited
    /// concurrency — what one-shot runs use).
    pub fn with_defaults(ctx: BenchmarkContext, defaults: SessionOptions) -> Self {
        Self::with_scheduler(ctx, defaults, SchedulerConfig::default())
    }

    /// Wraps a context with explicit session defaults *and* a server-wide
    /// scheduler: a shared worker pool (`scheduler.workers > 0`) that every
    /// statement's morsels execute on, and admission control
    /// (`scheduler.max_concurrent > 0`) in front of the execute phase.
    pub fn with_scheduler(
        ctx: BenchmarkContext,
        defaults: SessionOptions,
        scheduler: SchedulerConfig,
    ) -> Self {
        let capacity = defaults.cache_capacity;
        let events = EventLog::new();
        events.set_enabled(defaults.slow_query_ms > 0);
        let exec_pool =
            (scheduler.workers > 0).then(|| Arc::new(qob_exec::WorkerPool::new(scheduler.workers)));
        let admission = (scheduler.max_concurrent > 0)
            .then(|| AdmissionController::new(scheduler.max_concurrent, scheduler.max_queued));
        ServerContext {
            shared: Arc::new(ServerShared {
                ctx,
                defaults,
                scheduler,
                exec_pool,
                admission,
                queries_served: AtomicU64::new(0),
                plan_cache: Mutex::new(PlanCache::new(capacity)),
                metrics: MetricsRegistry::new(),
                events,
                history: qob_obs::QueryHistory::new(),
            }),
        }
    }

    /// The scheduling shape the server was built with.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        self.shared.scheduler
    }

    /// Shared-pool gauges `(workers, busy, queued_tasks)`, all zero when
    /// the context has no scheduler.
    pub fn pool_gauges(&self) -> (usize, usize, usize) {
        match &self.shared.exec_pool {
            Some(pool) => (pool.workers(), pool.busy(), pool.queued()),
            None => (0, 0, 0),
        }
    }

    /// Admission gauges `(executing, queued)`, both zero when the
    /// concurrency limit is off.
    pub fn admission_gauges(&self) -> (usize, usize) {
        match &self.shared.admission {
            Some(ctl) => ctl.gauges(),
            None => (0, 0),
        }
    }

    /// The shared warm context.
    pub fn context(&self) -> &BenchmarkContext {
        &self.shared.ctx
    }

    /// Opens a new session with the server's default options.
    pub fn session(&self) -> Session {
        Session {
            server: self.clone(),
            options: self.shared.defaults.clone(),
            prepared: HashMap::new(),
        }
    }

    /// Total statements answered across all sessions since start.
    pub fn queries_served(&self) -> u64 {
        self.shared.queries_served.load(Ordering::Relaxed)
    }

    /// Total adaptive re-planning rounds fired across all sessions.
    pub fn replans_total(&self) -> u64 {
        self.shared.metrics.replans_total.get()
    }

    /// The shared plan cache's lifetime event counters.
    pub fn plan_cache_counters(&self) -> CacheCounters {
        self.shared.plan_cache.lock().counters()
    }

    /// Number of fingerprints currently cached server-wide.
    pub fn plan_cache_len(&self) -> usize {
        self.shared.plan_cache.lock().len()
    }

    /// The shared plan cache's fingerprint capacity.
    pub fn plan_cache_capacity(&self) -> usize {
        self.shared.plan_cache.lock().capacity()
    }

    /// Drops every cached plan (counters are preserved).
    pub fn clear_plan_cache(&self) {
        self.shared.plan_cache.lock().clear();
    }

    /// The server-wide runtime metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The server-wide structured event log.
    pub fn events(&self) -> &EventLog {
        &self.shared.events
    }

    /// The server-wide per-fingerprint query history.
    pub fn history(&self) -> &qob_obs::QueryHistory {
        &self.shared.history
    }

    /// Per-worker busy/idle/steal accumulators of the shared execution
    /// pool, one entry per worker — empty when the server runs per-query
    /// pools (there are no long-lived workers to profile).
    pub fn worker_timelines(&self) -> Vec<qob_exec::WorkerTimelineSnapshot> {
        self.shared.exec_pool.as_ref().map(|p| p.timelines()).unwrap_or_default()
    }

    /// The shared pool's retained pipeline spans (most recent
    /// [`qob_exec::SPAN_RING_CAPACITY`] participant stints), oldest first —
    /// empty for a context without a scheduler.
    pub fn pipeline_spans(&self) -> Vec<qob_exec::PipelineSpan> {
        self.shared.exec_pool.as_ref().map(|p| p.spans()).unwrap_or_default()
    }

    /// Renders the full Prometheus text exposition: the registry's counters
    /// and latency histograms, plus the plan-cache event counters and a few
    /// server gauges.  The body round-trips through
    /// [`qob_obs::validate_exposition`].
    pub fn metrics_exposition(&self) -> String {
        let mut ex = Exposition::new();
        self.shared.metrics.render(&mut ex);
        let c = self.plan_cache_counters();
        ex.counter("qob_plan_cache_hits_total", "Cached plans reused past the fence", c.hits);
        ex.counter("qob_plan_cache_misses_total", "Fingerprints optimized cold", c.misses);
        ex.counter(
            "qob_plan_cache_fence_rejections_total",
            "Cached plans rejected by the cardinality fence",
            c.fence_rejections,
        );
        ex.counter(
            "qob_plan_cache_evictions_total",
            "Fingerprints evicted by capacity pressure",
            c.evictions,
        );
        ex.counter("qob_plan_cache_installs_total", "Plans installed into the cache", c.installs);
        ex.gauge(
            "qob_plan_cache_entries",
            "Fingerprints currently cached",
            self.plan_cache_len() as u64,
        );
        ex.gauge(
            "qob_plan_cache_capacity",
            "Fingerprint capacity of the shared plan cache",
            self.plan_cache_capacity() as u64,
        );
        ex.gauge(
            "qob_truth_cache_entries",
            "Queries with cached ground-truth cardinalities",
            self.shared.ctx.truth_cache_len() as u64,
        );
        let (workers, busy, queued_tasks) = self.pool_gauges();
        ex.gauge(
            "qob_pool_workers",
            "Shared execution pool size (0 = no scheduler)",
            workers as u64,
        );
        ex.gauge("qob_pool_busy", "Shared-pool workers currently running morsels", busy as u64);
        ex.gauge(
            "qob_pool_queue_depth",
            "Tasks waiting in the shared-pool queue",
            queued_tasks as u64,
        );
        let (executing, queued) = self.admission_gauges();
        ex.gauge(
            "qob_admission_executing",
            "Statements holding an execution slot",
            executing as u64,
        );
        ex.gauge("qob_admission_queued", "Statements waiting for an execution slot", queued as u64);
        let sizes = self.shared.ctx.storage_sizes();
        let encoded: usize = sizes.iter().map(|t| t.encoded_bytes).sum();
        let plain: usize = sizes.iter().map(|t| t.plain_bytes).sum();
        // One labelled sample per table; Prometheus sums the series back
        // into the old unlabelled totals (`sum(qob_storage_encoded_bytes)`).
        for table in &sizes {
            ex.gauge_with(
                "qob_storage_encoded_bytes",
                "Encoded column-page bytes, per table",
                &[("table", &table.table)],
                table.encoded_bytes as u64,
            );
        }
        for table in &sizes {
            ex.gauge_with(
                "qob_storage_plain_bytes",
                "Bytes the same columns would occupy un-encoded, per table",
                &[("table", &table.table)],
                table.plain_bytes as u64,
            );
        }
        let ratio_x100 =
            if encoded == 0 { 100 } else { (plain as f64 / encoded as f64 * 100.0) as u64 };
        ex.gauge(
            "qob_storage_compression_ratio_x100",
            "plain_bytes / encoded_bytes, times 100",
            ratio_x100,
        );
        ex.finish()
    }
}

/// A statement registered by `PREPARE`: the parsed (parse-once) body plus
/// its parameter slot count.
#[derive(Debug, Clone, PartialEq)]
struct PreparedStatement {
    statement: SelectStatement,
    params: usize,
}

/// One connection's view of the server: the shared context plus private
/// [`SessionOptions`] and the session's prepared-statement registry.
#[derive(Clone)]
pub struct Session {
    server: ServerContext,
    /// This session's private option state, mutated by `SET` requests.
    pub options: SessionOptions,
    /// Prepared statements, by name (session-private, like the options).
    prepared: HashMap<String, PreparedStatement>,
}

impl Session {
    /// The shared warm context behind this session.
    pub fn context(&self) -> &BenchmarkContext {
        self.server.context()
    }

    /// Parses, binds, plans and (unless the session is explain-only)
    /// executes a `;`-separated script, returning one outcome per statement
    /// (`PREPARE name AS ...`, `EXECUTE name(...)` and `DEALLOCATE name`
    /// are handled alongside plain queries).
    ///
    /// The first error aborts the script: statements before it have already
    /// been answered, so callers that want partial results run statements
    /// one at a time via [`Session::run_statement`].
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<ScriptOutcome>, SessionError> {
        let parse_started = Instant::now();
        let parsed =
            self.counted(parse_script(sql).map_err(|e| SessionError::Sql(e.to_string())))?;
        let parse_elapsed = parse_started.elapsed();
        self.server.shared.metrics.parse_latency.record(parse_elapsed);
        if parsed.is_empty() {
            return Err(SessionError::Sql("the input contains no statements".into()));
        }
        parsed.iter().map(|statement| self.run_statement(statement, parse_elapsed)).collect()
    }

    /// Runs one already-parsed script statement (the unit [`run_script`]
    /// iterates; the CLI drives it directly for partial-result reporting).
    /// `parse_elapsed` is the parse time of the script the statement arrived
    /// in, which traced reports attribute as `parse_us`.
    ///
    /// [`run_script`]: Session::run_script
    pub fn run_statement(
        &mut self,
        parsed: &ParsedStatement,
        parse_elapsed: Duration,
    ) -> Result<ScriptOutcome, SessionError> {
        let out = self.answer_statement(parsed, parse_elapsed);
        self.counted(out)
    }

    /// Counts a failed statement in `qob_query_errors_total`.  Each public
    /// entry point passes its result through here exactly once — the
    /// parse of [`Session::run_script`], [`Session::run_statement`],
    /// [`Session::run_query`], [`Session::prepare`],
    /// [`Session::execute_prepared`] and [`Session::deallocate`] — and the
    /// private steps beneath them never count.
    fn counted<T>(&self, out: Result<T, SessionError>) -> Result<T, SessionError> {
        if out.is_err() {
            self.server.shared.metrics.query_errors_total.inc();
        }
        out
    }

    fn answer_statement(
        &mut self,
        parsed: &ParsedStatement,
        parse_elapsed: Duration,
    ) -> Result<ScriptOutcome, SessionError> {
        let bind = |this: &Self, statement: &SelectStatement| {
            let bind_started = Instant::now();
            let bound = qob_sql::bind(this.context().db(), statement, parsed.name.clone())
                .map_err(|e| SessionError::Sql(parsed.error(e).to_string()))?;
            let bind_elapsed = bind_started.elapsed();
            this.server.shared.metrics.bind_latency.record(bind_elapsed);
            Ok((bound, bind_elapsed))
        };
        match &parsed.statement {
            ScriptStatement::Select(statement) => {
                let (query, bind_elapsed) = bind(self, statement)?;
                let mode = RunMode::from_options(&self.options);
                let spans = PhaseSpans { parse: parse_elapsed, bind: bind_elapsed };
                Ok(ScriptOutcome::Query(Box::new(self.run_query_traced(&query, mode, spans)?)))
            }
            ScriptStatement::Explain { analyze, statement } => {
                let (query, bind_elapsed) = bind(self, statement)?;
                // Plain EXPLAIN stops after planning; EXPLAIN ANALYZE
                // executes with tracing forced on and renders the plan
                // annotated with est vs true cardinality and wall time.
                let mode = RunMode {
                    execute: *analyze && self.options.execute,
                    tracing: self.options.tracing || *analyze,
                    annotate: *analyze,
                };
                let spans = PhaseSpans { parse: parse_elapsed, bind: bind_elapsed };
                Ok(ScriptOutcome::Query(Box::new(self.run_query_traced(&query, mode, spans)?)))
            }
            ScriptStatement::Prepare { name, statement, params } => {
                self.install_prepared(name, statement.clone(), *params)?;
                Ok(ScriptOutcome::Prepared { name: name.clone(), params: *params })
            }
            ScriptStatement::Execute { name, args } => {
                let values = args
                    .iter()
                    .map(ParamValue::from_literal)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| SessionError::Sql(parsed.error(e).to_string()))?;
                Ok(ScriptOutcome::Query(Box::new(self.answer_prepared(name, &values)?)))
            }
            ScriptStatement::Deallocate { name } => {
                self.drop_prepared(name)?;
                Ok(ScriptOutcome::Deallocated { name: name.clone() })
            }
        }
    }

    /// Registers a (possibly parameterized) statement under `name`,
    /// parsing it once.  Returns the number of parameter slots.
    pub fn prepare(&mut self, name: &str, sql: &str) -> Result<usize, SessionError> {
        let out = qob_sql::parse_statement(sql)
            .map_err(|e| SessionError::Sql(e.render(sql)))
            .and_then(|statement| {
                let params = qob_sql::param_count(&statement);
                self.install_prepared(name, statement, params).map(|()| params)
            });
        self.counted(out)
    }

    fn install_prepared(
        &mut self,
        name: &str,
        statement: SelectStatement,
        params: usize,
    ) -> Result<(), SessionError> {
        if self.prepared.contains_key(name) {
            return Err(SessionError::Sql(format!(
                "prepared statement `{name}` already exists; DEALLOCATE it first"
            )));
        }
        self.prepared.insert(name.to_owned(), PreparedStatement { statement, params });
        Ok(())
    }

    /// Executes a prepared statement with concrete parameter values: the
    /// stored AST is substituted and bound (no parse), then runs through
    /// [`Session::run_query`] — where the plan cache, when enabled, skips
    /// the optimize step too.
    pub fn execute_prepared(
        &mut self,
        name: &str,
        values: &[ParamValue],
    ) -> Result<QueryReport, SessionError> {
        let out = self.answer_prepared(name, values);
        self.counted(out)
    }

    fn answer_prepared(
        &self,
        name: &str,
        values: &[ParamValue],
    ) -> Result<QueryReport, SessionError> {
        let prepared = self
            .prepared
            .get(name)
            .ok_or_else(|| SessionError::Sql(format!("no prepared statement named `{name}`")))?;
        let filled = qob_sql::substitute_params(&prepared.statement, values)
            .map_err(|e| SessionError::Sql(e.to_string()))?;
        let bind_started = Instant::now();
        let query = qob_sql::bind(self.context().db(), &filled, name)
            .map_err(|e| SessionError::Sql(e.to_string()))?;
        let bind_elapsed = bind_started.elapsed();
        self.server.shared.metrics.bind_latency.record(bind_elapsed);
        self.run_query_traced(
            &query,
            RunMode::from_options(&self.options),
            PhaseSpans { parse: Duration::ZERO, bind: bind_elapsed },
        )
    }

    /// Drops a prepared statement.
    pub fn deallocate(&mut self, name: &str) -> Result<(), SessionError> {
        let out = self.drop_prepared(name);
        self.counted(out)
    }

    fn drop_prepared(&mut self, name: &str) -> Result<(), SessionError> {
        self.prepared
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SessionError::Sql(format!("no prepared statement named `{name}`")))
    }

    /// Sets one session option by its wire name (see
    /// [`SessionOptions::set`]), applying the few options with server-wide
    /// side effects: `cache_capacity` resizes the shared plan cache at set
    /// time (the most recent `set` wins; probes never resize, so sessions
    /// with different defaults cannot thrash each other's entries), and
    /// `slow_query_ms` switches the server's structured event log on
    /// (positive) or off (`0`).
    pub fn set_option(&mut self, name: &str, value: &str) -> Result<(), String> {
        self.options.set(name, value)?;
        if name == "cache_capacity" {
            self.server.shared.plan_cache.lock().set_capacity(self.options.cache_capacity);
        }
        if name == "slow_query_ms" {
            // The event log is server-wide, like the cache capacity: the
            // most recent set wins.
            self.server.shared.events.set_enabled(self.options.slow_query_ms > 0);
        }
        Ok(())
    }

    /// The names of this session's prepared statements, with their
    /// parameter counts (sorted by name).
    pub fn prepared_statements(&self) -> Vec<(String, usize)> {
        let mut names: Vec<(String, usize)> =
            self.prepared.iter().map(|(n, p)| (n.clone(), p.params)).collect();
        names.sort();
        names
    }

    /// Picks the plan for `query`: through the shared plan cache when the
    /// session has it enabled (fingerprint probe → fence → reuse or
    /// re-optimize-and-install), otherwise a plain cold optimization.
    fn choose_plan(
        &self,
        query: &QuerySpec,
        estimator: &dyn qob_cardest::CardinalityEstimator,
    ) -> Result<(qob_plan::PhysicalPlan, f64, Option<PlanCacheStatus>), SessionError> {
        let ctx = self.context();
        let optimize = || {
            ctx.optimize(query, estimator, PlannerConfig::default())
                .map_err(|e| SessionError::Optimize(e.to_string()))
        };
        if !self.options.plan_cache {
            let optimized = optimize()?;
            return Ok((optimized.plan, optimized.cost, None));
        }
        // The estimator profile is part of the key: plans optimized under
        // different estimate sources are not interchangeable.
        let key = fingerprint_query(query).mix(self.options.estimator as u64);
        // Memoize fresh estimates per subplan set: variants of one
        // fingerprint overlap heavily in their subplans, and the probe
        // below runs under the shared cache lock — each set is estimated
        // at most once, keeping the critical section to a handful of
        // histogram lookups.  (The optimize step itself always runs
        // outside the lock.)
        let memo = std::cell::RefCell::new(HashMap::<qob_plan::RelSet, f64>::new());
        let estimate = |set: qob_plan::RelSet| {
            *memo.borrow_mut().entry(set).or_insert_with(|| estimator.estimate(query, set))
        };
        let probe = {
            let mut cache = self.server.shared.plan_cache.lock();
            cache.lookup(key, self.options.cache_fence, &estimate)
        };
        let status = match probe {
            Lookup::Hit { variant, .. } => {
                return Ok((variant.plan, variant.cost, Some(PlanCacheStatus::Hit)));
            }
            Lookup::Miss => PlanCacheStatus::Miss,
            Lookup::FenceRejected { .. } => {
                self.server.shared.events.emit(
                    Event::new("fence_reject")
                        .str("query", &query.name)
                        .float("fence", self.options.cache_fence),
                );
                PlanCacheStatus::FenceRejected
            }
        };
        // Optimize outside the cache lock — enumeration is the expensive
        // step, and other sessions' probes must not serialise behind it.
        let optimized = optimize()?;
        let variant = CachedVariant::capture(&optimized.plan, optimized.cost, &estimate);
        let evicted = {
            let mut cache = self.server.shared.plan_cache.lock();
            let before = cache.counters().evictions;
            cache.install(key, variant);
            cache.counters().evictions - before
        };
        if evicted > 0 {
            self.server
                .shared
                .events
                .emit(Event::new("eviction").str("query", &query.name).num("evicted", evicted));
        }
        Ok((optimized.plan, optimized.cost, Some(status)))
    }

    /// Plans (and, per [`SessionOptions::execute`], executes) one bound
    /// query against the shared context.
    pub fn run_query(&self, query: &QuerySpec) -> Result<QueryReport, SessionError> {
        self.counted(self.run_query_traced(
            query,
            RunMode::from_options(&self.options),
            PhaseSpans::ZERO,
        ))
    }

    /// The answer path behind [`Session::run_query`]: wraps
    /// [`Session::answer_query`] with the registry's query count and
    /// end-to-end latency.
    fn run_query_traced(
        &self,
        query: &QuerySpec,
        mode: RunMode,
        spans: PhaseSpans,
    ) -> Result<QueryReport, SessionError> {
        let shared = &self.server.shared;
        let started = Instant::now();
        let out = self.answer_query(query, mode, spans);
        shared.metrics.queries_total.inc();
        shared.metrics.query_latency.record(started.elapsed());
        out
    }

    /// Plans, executes per `mode`, feeds the metrics registry and event
    /// log, and attaches trace spans when the mode asks for them.
    fn answer_query(
        &self,
        query: &QuerySpec,
        mode: RunMode,
        spans: PhaseSpans,
    ) -> Result<QueryReport, SessionError> {
        let shared = &self.server.shared;
        let ctx = self.context();
        let estimator = ctx.estimator(self.options.estimator);
        let optimize_started = Instant::now();
        let (plan, cost, cache_status) = self.choose_plan(query, estimator.as_ref())?;
        let optimize_elapsed = optimize_started.elapsed();
        shared.metrics.optimize_latency.record(optimize_elapsed);

        let mut report = QueryReport {
            name: query.name.clone(),
            relations: query.rel_count(),
            join_predicates: query.join_predicate_count(),
            selections: query.base_predicate_count(),
            estimator: estimator.name().to_owned(),
            cost,
            threads: self.options.threads.max(1),
            plan: plan.render(query),
            plan_cache: cache_status,
            execution: None,
            trace: None,
        };

        let mut execute_elapsed = Duration::ZERO;
        let mut queue_wait = Duration::ZERO;
        if mode.execute {
            let exec_options = self
                .options
                .execution_options()
                .with_pool(shared.exec_pool.clone())
                .with_trace_tag(Some(Arc::from(query.name.as_str())));
            // Admission: hold an execution slot for the whole execute
            // phase.  Parse/bind/optimize never queue — a point query's
            // plan is ready the moment a slot frees up.
            let _permit = match &shared.admission {
                Some(controller) => {
                    let wait_started = Instant::now();
                    match controller.acquire() {
                        Ok(permit) => {
                            queue_wait = wait_started.elapsed();
                            shared.metrics.admitted_total.inc();
                            shared.metrics.queue_wait_latency.record(queue_wait);
                            Some(permit)
                        }
                        Err(msg) => {
                            shared.metrics.rejected_total.inc();
                            shared
                                .events
                                .emit(Event::new("admission_reject").str("query", &query.name));
                            return Err(SessionError::Rejected(msg));
                        }
                    }
                }
                None => {
                    shared.metrics.admitted_total.inc();
                    None
                }
            };
            let execute_started = Instant::now();
            let (result, replans) = if self.options.adaptive.enabled {
                let outcome = crate::adaptive::execute_adaptive(
                    ctx,
                    query,
                    &plan,
                    estimator.as_ref(),
                    &exec_options,
                    PlannerConfig::default(),
                )
                .map_err(|e| self.execution_error(&query.name, e))?;
                let replans = outcome
                    .replans
                    .iter()
                    .map(|e| ReplanReport {
                        after: relset_label(query, e.trigger),
                        estimated: e.estimated,
                        observed: e.observed,
                        factor: e.factor,
                        changed: e.changed,
                        resumed_plan: e.resumed_plan.clone(),
                    })
                    .collect::<Vec<_>>();
                shared.metrics.replans_total.add(replans.len() as u64);
                for replan in &replans {
                    shared.events.emit(
                        Event::new("replan")
                            .str("query", &query.name)
                            .str("after", &replan.after)
                            .float("factor", replan.factor)
                            .num("changed", replan.changed as u64),
                    );
                }
                (outcome.result, replans)
            } else {
                let result = ctx
                    .execute(query, &plan, estimator.as_ref(), &exec_options)
                    .map_err(|e| self.execution_error(&query.name, e))?;
                (result, Vec::new())
            };
            execute_elapsed = execute_started.elapsed();
            shared.metrics.execute_latency.record(execute_elapsed);

            let timings: HashMap<RelSet, OperatorTiming> =
                result.operator_timings.iter().copied().collect();
            let mut worst: f64 = 1.0;
            let operators = result
                .operator_cardinalities
                .iter()
                .map(|(set, true_rows)| {
                    let estimated = estimator.estimate(query, *set);
                    let qerr = q_error(estimated, *true_rows as f64);
                    worst = worst.max(qerr);
                    let timing = timings.get(set);
                    OperatorReport {
                        relations: relset_label(query, *set),
                        estimated,
                        true_rows: *true_rows,
                        q_error: qerr,
                        time_us: mode.tracing.then(|| timing.map_or(0, |t| t.busy_nanos / 1_000)),
                        morsels: mode.tracing.then(|| timing.map_or(0, |t| t.morsels)),
                    }
                })
                .collect();
            if mode.annotate {
                let cards: HashMap<RelSet, u64> =
                    result.operator_cardinalities.iter().copied().collect();
                report.plan = render_analyzed(query, &plan, estimator.as_ref(), &cards, &timings);
            }
            let threshold = self.options.slow_query_ms;
            if threshold > 0 && result.elapsed >= Duration::from_millis(threshold) {
                shared.metrics.slow_queries_total.inc();
                shared.events.emit(
                    Event::new("slow_query")
                        .str("query", &query.name)
                        .num("elapsed_ms", result.elapsed.as_millis().min(u64::MAX as u128) as u64)
                        .num("threshold_ms", threshold)
                        .num("rows", result.rows),
                );
            }
            report.execution = Some(ExecutionReport {
                rows: result.rows,
                elapsed: result.elapsed,
                operators,
                worst_q_error: worst,
                replans,
            });
            if self.options.history {
                self.record_history(query, &report, optimize_elapsed, queue_wait, execute_elapsed);
            }
        }
        if mode.tracing {
            report.trace = Some(TraceReport {
                parse_us: micros(spans.parse),
                bind_us: micros(spans.bind),
                optimize_us: micros(optimize_elapsed),
                queue_us: micros(queue_wait),
                execute_us: micros(execute_elapsed),
            });
        }

        shared.queries_served.fetch_add(1, Ordering::Relaxed);
        Ok(report)
    }

    /// Records one executed statement into the server-wide query history
    /// and, when the detector fires, counts and logs the regression.
    /// Pure post-processing: the result already exists, so recording (and
    /// the switch that skips it) can never change what a statement returns.
    fn record_history(
        &self,
        query: &QuerySpec,
        report: &QueryReport,
        optimize_elapsed: Duration,
        queue_wait: Duration,
        execute_elapsed: Duration,
    ) {
        let shared = &self.server.shared;
        let exec = match &report.execution {
            Some(exec) => exec,
            None => return,
        };
        // The same key the plan cache uses: structure fingerprint mixed
        // with the estimator profile, so the same SQL planned by different
        // estimators tracks as separate latency series.  The history keys
        // by 64 bits; folding the two independent FNV lanes keeps both
        // lanes' entropy.
        let key = fingerprint_query(query).mix(self.options.estimator as u64);
        let fingerprint = key.0 ^ key.1.rotate_left(32);
        let sample = qob_obs::HistorySample {
            seq: 0, // assigned by the history on record
            total_us: micros(optimize_elapsed + queue_wait + execute_elapsed),
            optimize_us: micros(optimize_elapsed),
            queue_us: micros(queue_wait),
            execute_us: micros(execute_elapsed),
            rows: exec.rows,
            max_q_error: exec.worst_q_error,
            replans: exec.replans.len() as u64,
            cache: match report.plan_cache {
                None => qob_obs::CacheOutcome::Off,
                Some(PlanCacheStatus::Hit) => qob_obs::CacheOutcome::Hit,
                Some(PlanCacheStatus::Miss) => qob_obs::CacheOutcome::Miss,
                Some(PlanCacheStatus::FenceRejected) => qob_obs::CacheOutcome::FenceRejected,
            },
        };
        let fired =
            shared.history.record(fingerprint, &query.name, sample, self.options.regression_ratio);
        if let Some(regression) = fired {
            shared.metrics.regressions_total.inc();
            shared.events.emit(
                Event::new("regression")
                    .str("query", &regression.name)
                    .float("baseline_us", regression.baseline_us)
                    .float("recent_us", regression.recent_us)
                    .float("factor", regression.factor)
                    .float("ratio", regression.ratio),
            );
        }
    }

    /// Maps an executor error into a [`SessionError`], counting worker
    /// panics in the registry and event log on the way.
    fn execution_error(&self, name: &str, e: qob_exec::ExecutionError) -> SessionError {
        if matches!(e, qob_exec::ExecutionError::WorkerPanicked) {
            let shared = &self.server.shared;
            shared.metrics.worker_panics_total.inc();
            shared.events.emit(Event::new("worker_panic").str("query", name));
        }
        SessionError::Execute(e.to_string())
    }
}

/// How one statement should be answered: the session's options, possibly
/// overridden by the statement form (`EXPLAIN` stops after planning,
/// `EXPLAIN ANALYZE` forces tracing and annotation for itself).
#[derive(Debug, Clone, Copy)]
struct RunMode {
    /// Execute the plan (vs. stop after planning).
    execute: bool,
    /// Attach trace spans and per-operator times to the report.
    tracing: bool,
    /// Replace the plan rendering with the est/true/time-annotated tree.
    annotate: bool,
}

impl RunMode {
    fn from_options(options: &SessionOptions) -> RunMode {
        RunMode { execute: options.execute, tracing: options.tracing, annotate: false }
    }
}

/// Parse/bind wall time measured before the query runner took over.
#[derive(Debug, Clone, Copy)]
struct PhaseSpans {
    parse: Duration,
    bind: Duration,
}

impl PhaseSpans {
    const ZERO: PhaseSpans = PhaseSpans { parse: Duration::ZERO, bind: Duration::ZERO };
}

/// Saturating `Duration` → whole microseconds.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Renders a plan tree with every operator annotated: estimated vs true
/// cardinality, the q-error between them, and (for operators the executor
/// timed) busy time and morsel count — the body of an `EXPLAIN ANALYZE`
/// report.  Scan leaves only carry the estimate; the executor counts join
/// outputs.
fn render_analyzed(
    query: &QuerySpec,
    plan: &PhysicalPlan,
    estimator: &dyn qob_cardest::CardinalityEstimator,
    cards: &HashMap<RelSet, u64>,
    timings: &HashMap<RelSet, OperatorTiming>,
) -> String {
    let mut out = String::new();
    render_analyzed_rec(query, plan, estimator, cards, timings, 0, &mut out);
    out
}

fn render_analyzed_rec(
    query: &QuerySpec,
    plan: &PhysicalPlan,
    estimator: &dyn qob_cardest::CardinalityEstimator,
    cards: &HashMap<RelSet, u64>,
    timings: &HashMap<RelSet, OperatorTiming>,
    depth: usize,
    out: &mut String,
) {
    use std::fmt::Write as _;
    for _ in 0..depth {
        out.push_str("  ");
    }
    match plan {
        PhysicalPlan::Scan { rel } => {
            let alias = query.relations.get(*rel).map(|r| r.alias.as_str()).unwrap_or("?");
            let _ = write!(out, "Scan {alias}");
        }
        PhysicalPlan::Join { algorithm, keys, .. } => {
            let _ = write!(out, "{} [{} keys]", algorithm.label(), keys.len());
        }
    }
    let set = plan.rels();
    let est = estimator.estimate(query, set);
    match cards.get(&set) {
        Some(&true_rows) => {
            let _ = write!(
                out,
                "  (est={est:.0} true={true_rows} q={:.2}",
                q_error(est, true_rows as f64)
            );
            if let Some(t) = timings.get(&set) {
                let _ = write!(out, " time={}us morsels={}", t.busy_nanos / 1_000, t.morsels);
            }
            out.push(')');
        }
        None => {
            let _ = write!(out, "  (est={est:.0})");
        }
    }
    out.push('\n');
    if let PhysicalPlan::Join { left, right, .. } = plan {
        render_analyzed_rec(query, left, estimator, cards, timings, depth + 1, out);
        render_analyzed_rec(query, right, estimator, cards, timings, depth + 1, out);
    }
}

/// Human label for a relation set: the aliases it covers, e.g. `{t,mc,cn}`.
pub fn relset_label(query: &QuerySpec, set: qob_plan::RelSet) -> String {
    let aliases: Vec<&str> = set.iter().map(|rel| query.relations[rel].alias.as_str()).collect();
    format!("{{{}}}", aliases.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_datagen::Scale;
    use qob_storage::IndexConfig;

    fn server() -> ServerContext {
        ServerContext::new(
            BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap(),
        )
    }

    const THREE_WAY: &str = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
                             WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                               AND cn.country_code = '[us]'";

    /// A 5-way join: 3-way plans have no mid-plan breaker, so adaptive
    /// divergence (and thus replans) can only fire with more relations.
    const FIVE_WAY: &str = "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, \
                            movie_keyword mk, keyword k \
                            WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                              AND mk.movie_id = t.id AND mk.keyword_id = k.id \
                              AND cn.country_code = '[us]'";

    fn query_reports(outcomes: Vec<ScriptOutcome>) -> Vec<QueryReport> {
        outcomes.into_iter().filter_map(ScriptOutcome::into_query).collect()
    }

    #[test]
    fn sessions_share_one_context_and_count_queries() {
        let server = server();
        let mut a = server.session();
        let mut b = server.session();
        assert!(std::ptr::eq(a.context(), b.context()), "both sessions see one context");

        let ra: Vec<QueryReport> = query_reports(a.run_script(THREE_WAY).unwrap())
            .into_iter()
            .map(strip_elapsed)
            .collect();
        let rb: Vec<QueryReport> = query_reports(b.run_script(THREE_WAY).unwrap())
            .into_iter()
            .map(strip_elapsed)
            .collect();
        assert_eq!(ra, rb, "reports differ only in timing");
        assert_eq!(server.queries_served(), 2);
        // The shared truth cache is visible (and fillable) from any session.
        let q = server.context().queries()[0].clone();
        server.context().true_cardinalities(&q);
        assert_eq!(server.context().truth_cache_len(), 1);
    }

    fn strip_elapsed(mut r: QueryReport) -> QueryReport {
        if let Some(exec) = &mut r.execution {
            exec.elapsed = Duration::ZERO;
        }
        r
    }

    #[test]
    fn per_session_options_are_private() {
        let server = server();
        let mut a = server.session();
        let b = server.session();
        a.options.set("threads", "2").unwrap();
        a.options.set("estimator", "hyper").unwrap();
        assert_eq!(a.options.threads, 2);
        assert_eq!(a.options.estimator, EstimatorKind::HyPer);
        assert_eq!(b.options, SessionOptions::default(), "b is untouched");
    }

    #[test]
    fn option_parsing_accepts_and_rejects() {
        let mut o = SessionOptions::default();
        o.set("timeout_ms", "1500").unwrap();
        assert_eq!(o.timeout, Some(Duration::from_millis(1500)));
        o.set("timeout_ms", "0").unwrap();
        assert_eq!(o.timeout, None);
        o.set("threads", "0").unwrap();
        assert_eq!(o.threads, qob_exec::default_threads());
        o.set("execute", "false").unwrap();
        assert!(!o.execute);
        assert!(o.set("threads", "four").is_err());
        assert!(o.set("estimator", "oracle").is_err());
        assert!(o.set("execute", "maybe").is_err());
        assert!(o.set("bogus", "1").is_err());
        let exec = o.execution_options();
        assert_eq!(exec.threads, qob_exec::default_threads());
        assert_eq!(exec.timeout, None);
    }

    #[test]
    fn morsel_and_adaptive_options_parse_and_flow_into_execution() {
        let mut o = SessionOptions::default();
        assert!(!o.adaptive.enabled, "adaptivity defaults off");
        o.set("morsel_size", "128").unwrap();
        o.set("adaptive", "true").unwrap();
        o.set("adaptive_threshold", "2.5").unwrap();
        o.set("max_replans", "7").unwrap();
        assert_eq!(o.morsel_size, 128);
        assert!(o.adaptive.enabled);
        assert_eq!(o.adaptive.divergence_threshold, 2.5);
        assert_eq!(o.adaptive.max_replans, 7);
        let exec = o.execution_options();
        assert_eq!(exec.morsel_size, 128);
        assert!(exec.adaptive.enabled);
        assert_eq!(exec.adaptive.divergence_threshold, 2.5);

        o.set("morsel_size", "0").unwrap();
        assert_eq!(o.morsel_size, qob_exec::DEFAULT_MORSEL_SIZE);
        o.set("adaptive", "false").unwrap();
        assert!(!o.adaptive.enabled);
        assert!(o.set("morsel_size", "lots").is_err());
        assert!(o.set("adaptive", "maybe").is_err());
        assert!(o.set("adaptive_threshold", "0.5").is_err());
        assert!(o.set("adaptive_threshold", "NaN").is_err());
        assert!(o.set("max_replans", "-1").is_err());
    }

    #[test]
    fn adaptive_session_reports_replans_and_matches_plain_rows() {
        let server = server();
        let mut plain = server.session();
        plain.options.threads = 1;
        let mut adaptive = server.session();
        adaptive.options.threads = 1;
        adaptive.options.set("adaptive", "true").unwrap();
        adaptive.options.set("adaptive_threshold", "1.5").unwrap();
        // DBMS C's magic constants misestimate almost everything, so the
        // runtime divergence check reliably fires.
        adaptive.options.set("estimator", "dbms-c").unwrap();
        plain.options.set("estimator", "dbms-c").unwrap();

        let a = query_reports(plain.run_script(FIVE_WAY).unwrap());
        let b = query_reports(adaptive.run_script(FIVE_WAY).unwrap());
        let (pa, pb) = (a[0].execution.as_ref().unwrap(), b[0].execution.as_ref().unwrap());
        assert_eq!(pa.rows, pb.rows, "adaptivity must not change results");
        assert!(pa.replans.is_empty());
        assert!(!pb.replans.is_empty(), "dbms-c misestimates enough to replan a 5-way join");
        assert_eq!(server.replans_total(), pb.replans.len() as u64);
        for replan in &pb.replans {
            assert!(replan.factor > 1.5);
            assert!(replan.after.starts_with('{'));
            assert!(!replan.resumed_plan.is_empty());
        }
    }

    #[test]
    fn explain_only_sessions_skip_execution() {
        let server = server();
        let mut session = server.session();
        session.options.execute = false;
        let reports = query_reports(session.run_script(THREE_WAY).unwrap());
        assert_eq!(reports.len(), 1);
        assert!(reports[0].execution.is_none());
        assert!(reports[0].plan.contains("Scan"));
        assert!(reports[0].cost > 0.0);
        assert!(reports[0].plan_cache.is_none(), "caching defaults off");
    }

    #[test]
    fn session_errors_carry_stage_codes() {
        let server = server();
        let mut session = server.session();
        let err = session.run_script("SELECT * FROM no_such_table").unwrap_err();
        assert_eq!(err.code(), "sql_error");
        assert!(err.to_string().contains("no_such_table"));
        let err = session.run_script("   ").unwrap_err();
        assert_eq!(err.code(), "sql_error");

        let mut strict = server.session();
        strict.options.timeout = Some(Duration::from_nanos(1));
        let queries = qob_workload::load_sql_str(server.context().db(), THREE_WAY).unwrap();
        let err = strict.run_query(&queries[0]).unwrap_err();
        assert_eq!(err.code(), "execute_error");
    }

    #[test]
    fn cache_options_parse_and_reject() {
        let mut o = SessionOptions::default();
        assert!(!o.plan_cache, "plan caching defaults off");
        assert_eq!(o.cache_fence, DEFAULT_CACHE_FENCE);
        assert_eq!(o.cache_capacity, PlanCache::DEFAULT_CAPACITY);
        o.set("plan_cache", "true").unwrap();
        o.set("cache_fence", "2.5").unwrap();
        o.set("cache_capacity", "32").unwrap();
        assert!(o.plan_cache);
        assert_eq!(o.cache_fence, 2.5);
        assert_eq!(o.cache_capacity, 32);
        o.set("cache_capacity", "0").unwrap();
        assert_eq!(o.cache_capacity, PlanCache::DEFAULT_CAPACITY);
        assert!(o.set("plan_cache", "maybe").is_err());
        assert!(o.set("cache_fence", "1.0").is_err());
        assert!(o.set("cache_fence", "NaN").is_err());
        assert!(o.set("cache_fence", "wide").is_err());
        assert!(o.set("cache_capacity", "lots").is_err());
    }

    #[test]
    fn mem_budget_option_flows_into_the_executor_guard() {
        let mut o = SessionOptions::default();
        assert_eq!(o.mem_budget, 0, "budget defaults to the engine guard");
        let engine_default = o.execution_options().max_intermediate_slots;
        o.set("mem_budget", "5000").unwrap();
        assert_eq!(o.execution_options().max_intermediate_slots, 5000);
        o.set("mem_budget", "0").unwrap();
        assert_eq!(o.execution_options().max_intermediate_slots, engine_default);
        assert!(o.set("mem_budget", "infinite").is_err());
    }

    #[test]
    fn mem_budget_aborts_an_oversized_statement() {
        let server = server();
        let mut session = server.session();
        session.set_option("mem_budget", "3").unwrap();
        let queries = qob_workload::load_sql_str(server.context().db(), THREE_WAY).unwrap();
        let err = session.run_query(&queries[0]).unwrap_err();
        assert_eq!(err.code(), "execute_error");
        assert!(err.to_string().contains("too large"), "{err}");
    }

    #[test]
    fn admission_controller_limits_blocks_and_rejects() {
        let controller = Arc::new(AdmissionController::new(1, 1));
        let first = controller.acquire().expect("free slot admits immediately");
        assert_eq!(controller.gauges(), (1, 0));

        // One waiter fits in the queue; it must block until `first` drops.
        let entered = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let waiter = {
            let entered = Arc::clone(&entered);
            let controller = Arc::clone(&controller);
            std::thread::spawn(move || {
                let permit = controller.acquire().expect("queued waiter is admitted");
                entered.store(true, Ordering::SeqCst);
                drop(permit);
            })
        };
        // Wait for the thread to actually queue up.
        let deadline = Instant::now() + Duration::from_secs(5);
        while controller.gauges().1 == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(controller.gauges(), (1, 1), "the waiter queued");
        assert!(!entered.load(Ordering::SeqCst), "the waiter has not executed");

        // A second arrival finds the queue full and is rejected.
        let err = controller.acquire().expect_err("queue is full");
        assert!(err.contains("capacity"), "{err}");

        drop(first);
        waiter.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
        assert_eq!(controller.gauges(), (0, 0));
    }

    #[test]
    fn scheduler_context_executes_identically_and_reports_gauges() {
        let plain = server();
        let scheduled = ServerContext::with_scheduler(
            BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap(),
            SessionOptions::default(),
            SchedulerConfig { workers: 3, max_concurrent: 2, max_queued: 8 },
        );
        assert_eq!(plain.pool_gauges(), (0, 0, 0), "defaults run without a scheduler");
        assert_eq!(scheduled.pool_gauges().0, 3);
        assert_eq!(scheduled.scheduler_config().max_concurrent, 2);

        let a = query_reports(plain.session().run_script(THREE_WAY).unwrap());
        let b = query_reports(scheduled.session().run_script(THREE_WAY).unwrap());
        assert_eq!(
            a[0].execution.as_ref().unwrap().rows,
            b[0].execution.as_ref().unwrap().rows,
            "shared-pool execution is answer-identical"
        );
        let ops_a: Vec<_> = a[0].execution.as_ref().unwrap().operators.clone();
        let ops_b: Vec<_> = b[0].execution.as_ref().unwrap().operators.clone();
        assert_eq!(ops_a.len(), ops_b.len());
        assert_eq!(scheduled.metrics().admitted_total.get(), 1);
        assert_eq!(scheduled.metrics().rejected_total.get(), 0);
        assert_eq!(scheduled.metrics().queue_wait_latency.snapshot().count, 1);
        let body = scheduled.metrics_exposition();
        assert!(body.contains("qob_pool_workers 3"), "{body}");
        assert!(body.contains("qob_admission_executing 0"), "{body}");
        qob_obs::validate_exposition(&body).expect("exposition still validates");
    }

    #[test]
    fn cache_capacity_applies_at_set_time_and_probes_never_resize() {
        let server = server();
        assert_eq!(server.plan_cache_capacity(), PlanCache::DEFAULT_CAPACITY);
        let mut a = server.session();
        a.set_option("cache_capacity", "8").unwrap();
        assert_eq!(server.plan_cache_capacity(), 8, "set resizes the shared cache");

        // A second session with default options probing the cache must NOT
        // drag the capacity back to its own default.
        let mut b = server.session();
        b.set_option("plan_cache", "true").unwrap();
        b.run_script(THREE_WAY).unwrap();
        assert_eq!(server.plan_cache_capacity(), 8, "probes never resize");
        assert!(b.set_option("cache_capacity", "no").is_err());
    }

    #[test]
    fn plan_cache_hits_repeat_queries_and_reports_match() {
        let server = server();
        let mut cold = server.session();
        cold.options.threads = 1;
        let mut cached = server.session();
        cached.options.threads = 1;
        cached.options.set("plan_cache", "true").unwrap();

        let baseline = strip_elapsed(query_reports(cold.run_script(THREE_WAY).unwrap()).remove(0));
        let first = strip_elapsed(query_reports(cached.run_script(THREE_WAY).unwrap()).remove(0));
        let second = strip_elapsed(query_reports(cached.run_script(THREE_WAY).unwrap()).remove(0));
        assert_eq!(first.plan_cache, Some(PlanCacheStatus::Miss));
        assert_eq!(second.plan_cache, Some(PlanCacheStatus::Hit));
        // Everything but the cache annotation is identical to a cold run.
        let strip = |mut r: QueryReport| {
            r.plan_cache = None;
            r
        };
        assert_eq!(strip(first), strip(baseline.clone()));
        assert_eq!(strip(second), strip(baseline));

        let counters = server.plan_cache_counters();
        assert_eq!(counters.hits, 1);
        assert_eq!(counters.misses, 1);
        assert_eq!(counters.installs, 1);
        assert_eq!(server.plan_cache_len(), 1);

        // A different literal under the same structure reuses the same
        // fingerprint (automatic parameterization) — whether it hits or
        // fences depends on how far the estimates move, but it never
        // misses.
        let shifted = THREE_WAY.replace("'[us]'", "'[gb]'");
        let report = query_reports(cached.run_script(&shifted).unwrap()).remove(0);
        assert_ne!(report.plan_cache, Some(PlanCacheStatus::Miss));
        // A different estimator profile keys separately.
        cached.options.set("estimator", "hyper").unwrap();
        let other = query_reports(cached.run_script(THREE_WAY).unwrap()).remove(0);
        assert_eq!(other.plan_cache, Some(PlanCacheStatus::Miss));
    }

    #[test]
    fn tracing_and_slow_query_options_parse() {
        let mut o = SessionOptions::default();
        assert!(!o.tracing, "tracing defaults off");
        assert_eq!(o.slow_query_ms, 0, "slow-query log defaults off");
        o.set("tracing", "true").unwrap();
        o.set("slow_query_ms", "250").unwrap();
        assert!(o.tracing);
        assert_eq!(o.slow_query_ms, 250);
        assert!(o.set("tracing", "maybe").is_err());
        assert!(o.set("slow_query_ms", "fast").is_err());
    }

    #[test]
    fn tracing_exposes_spans_without_changing_results() {
        let server = server();
        let mut plain = server.session();
        plain.options.threads = 1;
        let mut traced = server.session();
        traced.options.threads = 1;
        traced.options.set("tracing", "true").unwrap();

        let p = query_reports(plain.run_script(THREE_WAY).unwrap()).remove(0);
        let t = query_reports(traced.run_script(THREE_WAY).unwrap()).remove(0);
        assert!(p.trace.is_none(), "untraced reports look exactly as before");
        let trace = t.trace.expect("traced reports carry phase spans");
        assert!(trace.optimize_us > 0, "optimization takes measurable time");
        let (pe, te) = (p.execution.as_ref().unwrap(), t.execution.as_ref().unwrap());
        assert_eq!(pe.rows, te.rows, "tracing never changes results");
        for (a, b) in pe.operators.iter().zip(&te.operators) {
            assert!(a.time_us.is_none() && a.morsels.is_none());
            assert!(b.time_us.is_some() && b.morsels.is_some());
            assert_eq!(a.true_rows, b.true_rows, "cardinalities agree");
        }
        // At threads=1 every charge is a disjoint slice of the execute
        // window, so the per-operator times sum to at most the total.
        let total_us: u64 = te.operators.iter().map(|o| o.time_us.unwrap()).sum();
        assert!(
            total_us <= micros(te.elapsed),
            "operator times ({total_us}us) fit the execute window ({:?})",
            te.elapsed
        );
    }

    #[test]
    fn explain_statements_report_plans_and_annotations() {
        let server = server();
        let mut session = server.session();
        session.options.threads = 1;
        let plain =
            query_reports(session.run_script(&format!("EXPLAIN {THREE_WAY}")).unwrap()).remove(0);
        assert!(plain.execution.is_none(), "EXPLAIN stops after planning");
        assert!(plain.plan.contains("Scan"), "{}", plain.plan);

        let analyzed =
            query_reports(session.run_script(&format!("EXPLAIN ANALYZE {THREE_WAY}")).unwrap())
                .remove(0);
        let exec = analyzed.execution.as_ref().expect("EXPLAIN ANALYZE executes");
        assert!(analyzed.trace.is_some(), "EXPLAIN ANALYZE forces tracing for itself");
        for needle in ["est=", "true=", "q=", "time=", "morsels="] {
            assert!(analyzed.plan.contains(needle), "`{needle}` in:\n{}", analyzed.plan);
        }

        let direct = query_reports(session.run_script(THREE_WAY).unwrap()).remove(0);
        assert_eq!(exec.rows, direct.execution.as_ref().unwrap().rows);
        assert!(direct.trace.is_none(), "forced tracing is statement-scoped");
    }

    #[test]
    fn metrics_expose_counters_that_match_reports() {
        let server = server();
        let mut session = server.session();
        session.run_script(THREE_WAY).unwrap();
        session.run_script(THREE_WAY).unwrap();
        assert!(session.run_script("SELECT * FROM no_such_table").is_err());

        let m = server.metrics();
        assert_eq!(m.queries_total.get(), 2, "bind errors never reach the runner");
        assert_eq!(m.query_errors_total.get(), 1);
        assert_eq!(m.query_latency.snapshot().count, 2);
        assert_eq!(m.execute_latency.snapshot().count, 2);

        let body = server.metrics_exposition();
        qob_obs::validate_exposition(&body).expect("exposition parses");
        assert!(body.contains("qob_queries_total 2"), "{body}");
        assert!(body.contains("qob_query_errors_total 1"), "{body}");
        assert!(body.contains("qob_execute_seconds_count 2"), "{body}");
        assert!(body.contains("qob_plan_cache_entries 0"), "{body}");
    }

    #[test]
    fn every_failed_statement_counts_exactly_once() {
        let server = server();
        let mut session = server.session();
        session.options.execute = false;
        let errors = || {
            let body = server.metrics_exposition();
            let line = body.lines().find(|l| l.starts_with("qob_query_errors_total ")).unwrap();
            line["qob_query_errors_total ".len()..].parse::<u64>().unwrap()
        };
        session.prepare("p", "SELECT COUNT(*) FROM title t WHERE t.production_year > ?").unwrap();
        // Parses (PREPARE never binds), fails to bind at EXECUTE.
        session.prepare("unbindable", "SELECT COUNT(*) FROM nope n WHERE n.a = ?").unwrap();
        type Failure = (&'static str, fn(&mut Session) -> bool);
        let failures: [Failure; 13] = [
            ("script: EXECUTE of an unknown name", |s| s.run_script("EXECUTE nope(1)").is_err()),
            ("script: wrong arity", |s| s.run_script("EXECUTE p(1, 2)").is_err()),
            ("script: bad argument", |s| s.run_script("EXECUTE p($1)").is_err()),
            ("script: bind error at EXECUTE", |s| s.run_script("EXECUTE unbindable(1)").is_err()),
            ("script: duplicate PREPARE", |s| {
                s.run_script("PREPARE p AS SELECT COUNT(*) FROM title t").is_err()
            }),
            ("script: DEALLOCATE of an unknown name", |s| s.run_script("DEALLOCATE nope").is_err()),
            ("script: SELECT that fails to bind", |s| {
                s.run_script("SELECT COUNT(*) FROM no_such_table x").is_err()
            }),
            ("script: SELECT that fails to parse", |s| {
                s.run_script("SELECT COUNT(* FROM").is_err()
            }),
            ("wire: EXECUTE of an unknown name", |s| s.execute_prepared("nope", &[]).is_err()),
            ("wire: wrong arity", |s| s.execute_prepared("p", &[]).is_err()),
            ("wire: bind error at EXECUTE", |s| {
                s.execute_prepared("unbindable", &[ParamValue::Int(1)]).is_err()
            }),
            ("wire: duplicate PREPARE", |s| s.prepare("p", THREE_WAY).is_err()),
            ("wire: DEALLOCATE of an unknown name", |s| s.deallocate("nope").is_err()),
        ];
        for (label, fails) in failures {
            let before = errors();
            assert!(fails(&mut session), "{label} fails");
            assert_eq!(errors(), before + 1, "{label} counts exactly once");
        }
        // Successes count nothing.
        let before = errors();
        session.run_script("EXECUTE p(2000); DEALLOCATE p;").unwrap();
        assert_eq!(errors(), before);
    }

    #[test]
    fn event_log_captures_replans_and_evictions_behind_the_switch() {
        let server = server();
        server.events().capture();
        let mut session = server.session();
        session.options.threads = 1;
        session.set_option("adaptive", "true").unwrap();
        session.set_option("adaptive_threshold", "1.5").unwrap();
        session.set_option("estimator", "dbms-c").unwrap();

        // Log disabled: replans fire, but nothing is written.
        let r = query_reports(session.run_script(FIVE_WAY).unwrap()).remove(0);
        assert!(!r.execution.unwrap().replans.is_empty(), "dbms-c reliably replans");
        assert!(server.events().drain().is_empty(), "disabled log writes nothing");

        // A positive slow_query_ms enables the log server-wide.
        session.set_option("slow_query_ms", "60000").unwrap();
        assert!(server.events().is_enabled());
        session.run_script(FIVE_WAY).unwrap();
        let lines = server.events().drain();
        assert!(lines.iter().all(|l| l.starts_with("{\"event\":")), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("\"event\":\"replan\"")), "{lines:?}");

        // Capacity-1 cache: the second distinct fingerprint evicts the
        // first, which the log records.
        session.set_option("plan_cache", "true").unwrap();
        session.set_option("cache_capacity", "1").unwrap();
        session.run_script(THREE_WAY).unwrap();
        session
            .run_script("SELECT COUNT(*) FROM title t, movie_companies mc WHERE mc.movie_id = t.id")
            .unwrap();
        let lines = server.events().drain();
        assert!(lines.iter().any(|l| l.contains("\"event\":\"eviction\"")), "{lines:?}");

        session.set_option("slow_query_ms", "0").unwrap();
        assert!(!server.events().is_enabled(), "zero switches the log back off");
    }

    #[test]
    fn history_and_regression_options_parse() {
        let mut o = SessionOptions::default();
        assert!(o.history, "history recording defaults on");
        assert_eq!(o.regression_ratio, DEFAULT_REGRESSION_RATIO);
        o.set("history", "false").unwrap();
        o.set("regression_ratio", "1.5").unwrap();
        assert!(!o.history);
        assert_eq!(o.regression_ratio, 1.5);
        o.set("regression_ratio", "0").unwrap();
        assert_eq!(o.regression_ratio, 0.0, "zero disables the detector");
        o.set("regression_ratio", "0.01").unwrap();
        assert_eq!(o.regression_ratio, 0.01, "sub-1 ratios force-fire for CI");
        assert!(o.set("history", "maybe").is_err());
        assert!(o.set("regression_ratio", "-1").is_err());
        assert!(o.set("regression_ratio", "NaN").is_err());
        assert!(o.set("regression_ratio", "steep").is_err());
    }

    #[test]
    fn executed_statements_record_per_fingerprint_history() {
        let server = server();
        let mut session = server.session();
        session.options.threads = 1;
        session.run_script(THREE_WAY).unwrap();
        session.run_script(THREE_WAY).unwrap();
        session.run_script(FIVE_WAY).unwrap();
        assert_eq!(server.history().recorded(), 3);
        let snap = server.history().snapshot();
        assert_eq!(snap.fingerprints.len(), 2, "two distinct statement structures");
        let hottest = &snap.fingerprints[0];
        assert_eq!(hottest.count, 2, "the repeated statement is hottest");
        assert!(hottest.p50_us > 0.0 && hottest.p50_us <= hottest.p99_us);
        assert!(hottest.last_rows > 0 || hottest.last_seq > 0);
        assert!(snap.regressions.is_empty(), "nothing regressed at the default ratio");

        // The per-session switch stops recording without changing answers.
        let mut off = server.session();
        off.options.threads = 1;
        off.set_option("history", "false").unwrap();
        let r = query_reports(off.run_script(THREE_WAY).unwrap()).remove(0);
        assert!(r.execution.is_some());
        assert_eq!(server.history().recorded(), 3, "history-off sessions record nothing");

        // Explain-only statements never reach the history either.
        let mut explain = server.session();
        explain.options.execute = false;
        explain.run_script(THREE_WAY).unwrap();
        assert_eq!(server.history().recorded(), 3);
    }

    #[test]
    fn forced_regression_fires_the_event_and_counter_once() {
        let server = server();
        server.events().capture();
        let mut session = server.session();
        session.options.threads = 1;
        session.set_option("slow_query_ms", "60000").unwrap();
        // A sub-1 ratio makes any flat latency series count as a
        // regression the moment both windows are full — the CI forcing
        // path.
        session.set_option("regression_ratio", "0.01").unwrap();
        let windows = qob_obs::BASELINE_WINDOW + qob_obs::RECENT_WINDOW;
        for _ in 0..windows + 2 {
            session.run_script(THREE_WAY).unwrap();
        }
        assert_eq!(
            server.metrics().regressions_total.get(),
            1,
            "the detector latches: one crossing, one regression"
        );
        let snap = server.history().snapshot();
        assert_eq!(snap.regressions.len(), 1);
        assert_eq!(snap.fingerprints[0].regressions, 1);
        let lines = server.events().drain();
        let regression: Vec<&String> =
            lines.iter().filter(|l| l.contains("\"event\":\"regression\"")).collect();
        assert_eq!(regression.len(), 1, "{lines:?}");
        for field in ["\"query\":", "\"baseline_us\":", "\"recent_us\":", "\"factor\":", "\"seq\":"]
        {
            assert!(regression[0].contains(field), "`{field}` in {}", regression[0]);
        }
        let body = server.metrics_exposition();
        assert!(body.contains("qob_regressions_total 1"), "{body}");
    }

    #[test]
    fn storage_gauges_are_labelled_per_table() {
        let server = server();
        let body = server.metrics_exposition();
        qob_obs::validate_exposition(&body).expect("labelled exposition validates");
        assert!(body.contains("qob_storage_encoded_bytes{table=\"title\"}"), "{body}");
        assert!(body.contains("qob_storage_plain_bytes{table=\"movie_companies\"}"), "{body}");
        assert_eq!(
            body.matches("# TYPE qob_storage_encoded_bytes gauge").count(),
            1,
            "one family header however many tables"
        );
        assert!(body.contains("qob_storage_compression_ratio_x100"), "{body}");
    }

    #[test]
    fn prepared_statements_roundtrip_through_the_session() {
        let server = server();
        let mut session = server.session();
        session.options.threads = 1;
        let params = session
            .prepare(
                "by_country",
                "SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn \
                 WHERE mc.movie_id = t.id AND mc.company_id = cn.id \
                   AND cn.country_code = ?",
            )
            .unwrap();
        assert_eq!(params, 1);
        assert_eq!(session.prepared_statements(), vec![("by_country".to_owned(), 1)]);

        let report =
            session.execute_prepared("by_country", &[ParamValue::Str("[us]".into())]).unwrap();
        let direct = query_reports(session.run_script(THREE_WAY).unwrap()).remove(0);
        assert_eq!(
            report.execution.as_ref().unwrap().rows,
            direct.execution.as_ref().unwrap().rows,
            "prepared execution answers exactly like the inline statement"
        );
        assert_eq!(report.name, "by_country");

        // Wrong arity and unknown names are session errors.
        assert!(session.execute_prepared("by_country", &[]).is_err());
        assert!(session.execute_prepared("nope", &[]).is_err());
        // Duplicate names are rejected until deallocated.
        assert!(session.prepare("by_country", THREE_WAY).is_err());
        session.deallocate("by_country").unwrap();
        assert!(session.deallocate("by_country").is_err());
        assert!(session.prepared_statements().is_empty());
    }

    #[test]
    fn scripts_drive_prepare_execute_deallocate() {
        let server = server();
        let mut session = server.session();
        session.options.threads = 1;
        let script = "\
            PREPARE by_year AS SELECT COUNT(*) FROM title t, movie_companies mc \
            WHERE mc.movie_id = t.id AND t.production_year > $1;\n\
            EXECUTE by_year(2000);\n\
            EXECUTE by_year(1990);\n\
            DEALLOCATE by_year;";
        let outcomes = session.run_script(script).unwrap();
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0], ScriptOutcome::Prepared { name: "by_year".into(), params: 1 });
        let r1 = outcomes[1].as_query().unwrap();
        let r2 = outcomes[2].as_query().unwrap();
        assert_eq!(r1.name, "by_year");
        assert!(
            r1.execution.as_ref().unwrap().rows <= r2.execution.as_ref().unwrap().rows,
            "`> 2000` is at least as selective as `> 1990`"
        );
        assert_eq!(outcomes[3], ScriptOutcome::Deallocated { name: "by_year".into() });
        // The prepared name is gone afterwards.
        assert!(session.run_script("EXECUTE by_year(1950)").is_err());
    }

    #[test]
    fn sessions_prepared_statements_are_private() {
        let server = server();
        let mut a = server.session();
        let b = server.session();
        a.prepare("mine", "SELECT COUNT(*) FROM title t WHERE t.production_year > ?").unwrap();
        assert_eq!(a.prepared_statements().len(), 1);
        assert!(b.prepared_statements().is_empty(), "b never sees a's statements");
        let mut b = b;
        assert!(b.execute_prepared("mine", &[ParamValue::Int(2000)]).is_err());
    }

    #[test]
    fn run_statement_attributes_the_given_parse_time() {
        let server = server();
        let mut session = server.session();
        session.options.tracing = true;
        let parsed = parse_script(THREE_WAY).unwrap();
        let parse_elapsed = Duration::from_micros(1_234);
        let outcome = session.run_statement(&parsed[0], parse_elapsed).unwrap();
        let trace = outcome.as_query().unwrap().trace.expect("traced report");
        assert_eq!(u128::from(trace.parse_us), parse_elapsed.as_micros());
    }
}
