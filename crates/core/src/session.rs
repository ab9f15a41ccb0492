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
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qob_cache::{fingerprint_query, CachedVariant, Lookup};
use qob_cardest::q_error;
use qob_cost::SimpleCostModel;
use qob_enumerate::{Planner, PlannerConfig};
use qob_exec::OperatorTiming;
use qob_obs::{CacheOutcome, Event};
use qob_plan::{PhysicalPlan, QuerySpec, RelSet};
use qob_sql::{ParamValue, ScriptStatement, SelectStatement};
use qob_workload::{parse_script, ParsedStatement};

use crate::adaptive::execute_adaptive;
use crate::context::BenchmarkContext;
use crate::options::SessionOptions;
use crate::report::{
    relset_label, render_analyzed, ExecutionReport, OperatorReport, QueryReport, ScriptOutcome,
    SessionError, TraceReport,
};
use crate::server::ServerContext;

/// A statement registered by `PREPARE`: the parsed (parse-once) body plus
/// its parameter slot count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PreparedStatement {
    statement: SelectStatement,
    params: usize,
}

/// One connection's view of the server: the shared context plus private
/// [`SessionOptions`] and the session's prepared-statement registry.
#[derive(Clone)]
pub struct Session {
    pub(crate) server: ServerContext,
    /// This session's private option state, mutated by `SET` requests.
    pub options: SessionOptions,
    /// Prepared statements, by name (session-private, like the options).
    pub(crate) prepared: HashMap<String, PreparedStatement>,
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
            return self.counted(Err(SessionError::Sql("the input contains no statements".into())));
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
        let (statement, mode) = match &parsed.statement {
            ScriptStatement::Select(statement) => (statement, RunMode::from_options(&self.options)),
            // Plain EXPLAIN stops after planning; EXPLAIN ANALYZE executes
            // with tracing forced on and renders the plan annotated with
            // est vs true cardinality and wall time.
            ScriptStatement::Explain { analyze, statement } => (
                statement,
                RunMode {
                    execute: *analyze && self.options.execute,
                    tracing: self.options.tracing || *analyze,
                    annotate: *analyze,
                },
            ),
            ScriptStatement::Prepare { name, statement, params } => {
                self.install_prepared(name, statement.clone(), *params)?;
                return Ok(ScriptOutcome::Prepared { name: name.clone(), params: *params });
            }
            ScriptStatement::Execute { name, args } => {
                let values = args
                    .iter()
                    .map(ParamValue::from_literal)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| SessionError::Sql(parsed.error(e).to_string()))?;
                return Ok(ScriptOutcome::Query(Box::new(self.answer_prepared(name, &values)?)));
            }
            ScriptStatement::Deallocate { name } => {
                self.drop_prepared(name)?;
                return Ok(ScriptOutcome::Deallocated { name: name.clone() });
            }
        };
        let bind_started = Instant::now();
        let query = qob_sql::bind(self.context().db(), statement, parsed.name.clone())
            .map_err(|e| SessionError::Sql(parsed.error(e).to_string()))?;
        let bind_elapsed = bind_started.elapsed();
        self.server.shared.metrics.bind_latency.record(bind_elapsed);
        let spans = PhaseSpans { parse: parse_elapsed, bind: bind_elapsed };
        Ok(ScriptOutcome::Query(Box::new(self.run_query_traced(&query, mode, spans)?)))
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

    /// Picks the statement's plan: through the shared plan cache when the
    /// session has it enabled (fingerprint probe → fence → reuse or
    /// re-optimize-and-install), otherwise a plain cold optimization.
    fn choose_plan(
        &self,
        planner: &Planner<'_>,
    ) -> Result<(PhysicalPlan, f64, CacheOutcome), SessionError> {
        let query = planner.query;
        let optimize = || {
            qob_enumerate::dpccp::optimize_bushy(planner)
                .map_err(|e| SessionError::Optimize(e.to_string()))
        };
        if !self.options.plan_cache {
            let optimized = optimize()?;
            return Ok((optimized.plan, optimized.cost, CacheOutcome::Off));
        }
        // The estimator profile is part of the key: plans optimized under
        // different estimate sources are not interchangeable.
        let key = fingerprint_query(query).mix(self.options.estimator as u64);
        // The probe runs under the shared cache lock; the planner estimates
        // each set once, so the critical section stays a handful of
        // histogram lookups, which the optimize step below then reuses.
        let estimate = |set: RelSet| planner.rows(set);
        let probe = {
            let mut cache = self.server.shared.plan_cache.lock();
            cache.lookup(key, self.options.cache_fence, &estimate)
        };
        let status = match probe {
            Lookup::Hit { variant, .. } => {
                return Ok((variant.plan, variant.cost, CacheOutcome::Hit));
            }
            Lookup::Miss => CacheOutcome::Miss,
            Lookup::FenceRejected { .. } => {
                self.server.shared.events.emit(
                    Event::new("fence_reject")
                        .str("query", &query.name)
                        .float("fence", self.options.cache_fence),
                );
                CacheOutcome::FenceRejected
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
        Ok((optimized.plan, optimized.cost, status))
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

    /// Builds the statement's one [`Planner`] — the only door to the
    /// session's estimator for this statement — and answers through it.
    fn answer_query(
        &self,
        query: &QuerySpec,
        mode: RunMode,
        spans: PhaseSpans,
    ) -> Result<QueryReport, SessionError> {
        let ctx = self.context();
        let estimator = ctx.estimator(self.options.estimator);
        let model = SimpleCostModel::new();
        let config = PlannerConfig::default();
        let planner = Planner::new(ctx.db(), query, &model, estimator.as_ref(), config);
        self.answer_planned(&planner, mode, spans)
    }

    /// Plans, executes per `mode`, feeds the metrics registry and event
    /// log, and attaches trace spans when the mode asks for them.  Every
    /// estimate comes from `planner`, so each relation set is estimated once.
    fn answer_planned(
        &self,
        planner: &Planner<'_>,
        mode: RunMode,
        spans: PhaseSpans,
    ) -> Result<QueryReport, SessionError> {
        let shared = &self.server.shared;
        let ctx = self.context();
        let query = planner.query;
        let optimize_started = Instant::now();
        let (mut plan, cost, cache_status) = self.choose_plan(planner)?;
        let optimize_elapsed = optimize_started.elapsed();
        shared.metrics.optimize_latency.record(optimize_elapsed);

        let mut report = QueryReport {
            name: query.name.clone(),
            relations: query.rel_count(),
            join_predicates: query.join_predicate_count(),
            selections: query.base_predicate_count(),
            estimator: planner.cards.name().to_owned(),
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
            let adaptive = self.options.adaptive;
            let (result, replans, final_cost) = if adaptive.enabled {
                let outcome = execute_adaptive(planner, &plan, adaptive, &exec_options)
                    .map_err(|e| self.execution_error(&query.name, e))?;
                shared.metrics.replans_total.add(outcome.replans.len() as u64);
                for replan in &outcome.replans {
                    shared.events.emit(
                        Event::new("replan")
                            .str("query", &query.name)
                            .str("after", &replan.after)
                            .float("factor", replan.factor)
                            .num("changed", replan.changed as u64),
                    );
                }
                // `EXPLAIN ANALYZE` annotates the plan execution finished on,
                // priced on the same basis as the chosen plan's `cost`.
                let final_cost = (outcome.plans_changed() > 0).then(|| {
                    ctx.plan_cost(query, &outcome.final_plan, planner.cost_model, planner)
                });
                plan = outcome.final_plan;
                (outcome.result, outcome.replans, final_cost)
            } else {
                let result = ctx
                    .execute(query, &plan, planner, &exec_options)
                    .map_err(|e| self.execution_error(&query.name, e))?;
                (result, Vec::new(), None)
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
                    let estimated = planner.rows(*set);
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
                report.plan = render_analyzed(query, &plan, planner, &cards, &timings);
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
                final_cost,
            });
            self.record_history(query, &report, optimize_elapsed, queue_wait, execute_elapsed);
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
    /// Pure post-processing: the result already exists, so recording can
    /// never change what a statement returns.
    fn record_history(
        &self,
        query: &QuerySpec,
        report: &QueryReport,
        optimize_elapsed: Duration,
        queue_wait: Duration,
        execute_elapsed: Duration,
    ) {
        let shared = &self.server.shared;
        let Some(exec) = &report.execution else { return };
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
            cache: report.plan_cache,
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

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::HashSet;

    use qob_cardest::CardinalityEstimator;
    use qob_datagen::Scale;
    use qob_storage::IndexConfig;

    use super::*;
    use crate::context::EstimatorKind;

    /// Records every raw estimate the wrapped profile is asked for.
    struct Counting<'a> {
        profile: Box<dyn CardinalityEstimator + 'a>,
        asked: RefCell<Vec<RelSet>>,
    }

    impl CardinalityEstimator for Counting<'_> {
        fn name(&self) -> &str {
            self.profile.name()
        }
        fn estimate(&self, query: &QuerySpec, set: RelSet) -> f64 {
            self.asked.borrow_mut().push(set);
            self.profile.estimate(query, set)
        }
    }

    /// Cache probe and capture, optimizer, hash sizing, operator report,
    /// `EXPLAIN ANALYZE` annotation and adaptive re-planning all ask the
    /// statement's planner: the profile sees each set once, and only the
    /// sets the optimizer estimates.
    #[test]
    fn estimator_is_asked_once_per_set_per_statement() {
        let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
        let server = ServerContext::new(ctx);
        let ctx = server.context();
        let profile = ctx.estimator(EstimatorKind::Postgres);
        let counting = Counting { profile, asked: RefCell::default() };
        let model = SimpleCostModel::new();
        let mode = RunMode { execute: true, tracing: true, annotate: true };
        for plan_cache in ["false", "true"] {
            let mut session = server.session();
            for (name, value) in [
                ("threads", "1"),
                ("adaptive", "true"),
                ("adaptive_threshold", "2.0"),
                ("plan_cache", plan_cache),
            ] {
                session.options.set(name, value).unwrap();
            }
            let (mut asked, mut replans) = (0, 0);
            for query in ctx.queries() {
                let config = PlannerConfig::default();
                let planner = Planner::new(ctx.db(), query, &model, &counting, config);
                let report = session.answer_planned(&planner, mode, PhaseSpans::ZERO).unwrap();
                let calls = counting.asked.take();
                let sets: HashSet<RelSet> = calls.iter().copied().collect();
                assert_eq!(calls.len(), sets.len(), "{}: a set was estimated twice", query.name);
                let optimizer: HashSet<RelSet> =
                    query.connected_subexpressions().into_iter().collect();
                if report.plan_cache == CacheOutcome::Hit {
                    assert!(
                        sets.is_subset(&optimizer),
                        "{}: a set the optimizer never sees",
                        query.name
                    );
                } else {
                    assert_eq!(sets, optimizer, "{}: the optimizer's sets, no others", query.name);
                }
                asked += calls.len();
                replans += report.execution.expect("executed").replans.len();
            }
            assert!(replans > 0, "a 2x threshold re-plans somewhere in JOB");
            if plan_cache == "false" {
                assert_eq!(asked, 46_202, "one raw estimate per JOB connected subexpression");
            }
        }
    }
}
