//! What a session answers: the per-statement reports, the script outcome
//! that wraps them, the stage-tagged [`SessionError`], and the
//! `EXPLAIN ANALYZE` plan renderer.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use qob_cardest::q_error;
use qob_exec::OperatorTiming;
use qob_obs::CacheOutcome;
use qob_plan::{PhysicalPlan, QuerySpec, RelSet};

use crate::adaptive::ReplanEvent;

#[cfg(doc)]
use crate::{Session, SessionOptions};

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
    pub replans: Vec<ReplanEvent>,
    /// The cost of the plan execution finished on, priced like
    /// [`QueryReport::cost`] (the planner's cost model and estimates);
    /// `Some` only when a re-plan changed the plan.
    pub final_cost: Option<f64>,
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
    /// What the plan cache concluded for this statement
    /// ([`CacheOutcome::Off`] when the session runs with caching disabled).
    pub plan_cache: CacheOutcome,
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

/// Renders a plan tree with every operator annotated: estimated vs true
/// cardinality, the q-error between them, and (for operators the executor
/// timed) busy time and morsel count — the body of an `EXPLAIN ANALYZE`
/// report.  Scan leaves only carry the estimate; the executor counts join
/// outputs.
pub(crate) fn render_analyzed(
    query: &QuerySpec,
    plan: &PhysicalPlan,
    estimator: &dyn qob_cardest::CardinalityEstimator,
    cards: &HashMap<RelSet, u64>,
    timings: &HashMap<RelSet, OperatorTiming>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // Pre-order, left child first: pop the left child before the right.
    let mut stack = vec![(plan, 0)];
    while let Some((plan, depth)) = stack.pop() {
        out.push_str(&"  ".repeat(depth));
        match plan {
            PhysicalPlan::Scan { rel } => {
                let alias = query.relations.get(*rel).map(|r| r.alias.as_str()).unwrap_or("?");
                let _ = write!(out, "Scan {alias}");
            }
            PhysicalPlan::Join { algorithm, keys, left, right } => {
                let _ = write!(out, "{} [{} keys]", algorithm.label(), keys.len());
                stack.push((right, depth + 1));
                stack.push((left, depth + 1));
            }
        }
        let set = plan.rels();
        let est = estimator.estimate(query, set);
        let _ = write!(out, "  (est={est:.0}");
        if let Some(&true_rows) = cards.get(&set) {
            let _ = write!(out, " true={true_rows} q={:.2}", q_error(est, true_rows as f64));
            if let Some(t) = timings.get(&set) {
                let _ = write!(out, " time={}us morsels={}", t.busy_nanos / 1_000, t.morsels);
            }
        }
        out.push_str(")\n");
    }
    out
}

/// Human label for a relation set: the aliases it covers, e.g. `{t,mc,cn}`.
pub fn relset_label(query: &QuerySpec, set: qob_plan::RelSet) -> String {
    let aliases: Vec<&str> = set.iter().map(|rel| query.relations[rel].alias.as_str()).collect();
    format!("{{{}}}", aliases.join(","))
}
