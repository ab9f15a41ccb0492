//! Per-session options: the state one connection's `SET` changes, and the
//! execution options that state implies.  A `SET` changes its own session
//! and nothing else: server-wide state (the plan cache's capacity, whether
//! the event log is on) is fixed when the server is built.

use std::time::Duration;

use qob_exec::ExecutionOptions;

use crate::context::EstimatorKind;
#[cfg(doc)]
use crate::{OperatorReport, QueryReport};

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
    /// When `true`, query reports expose trace spans: per-phase timings in
    /// [`QueryReport::trace`] and per-operator wall time / morsel counts on
    /// each [`OperatorReport`].  Tracing never changes what executes — the
    /// counters are collected unconditionally; this option only controls
    /// whether reports carry them.
    pub tracing: bool,
    /// Slow-query threshold in milliseconds (`0` = off).  The server's
    /// structured event log is on exactly when the *server default* is
    /// positive; a session's own value only moves its threshold.
    pub slow_query_ms: u64,
    /// Per-statement intermediate-tuple budget: the executor aborts a
    /// statement whose intermediates grow past this many tuple slots.  `0`
    /// keeps the engine's (very large) default guard.  Under admission
    /// control this is the per-session memory budget: a runaway join burns
    /// its own budget instead of the whole server's.
    pub mem_budget: usize,
    /// Regression-detector threshold: a `regression` event fires for a
    /// fingerprint when the median latency of its recent window exceeds
    /// `regression_ratio ×` the median of the preceding baseline window.
    /// `0` disables detection; values in `(0, 1]` force it (useful in CI).
    pub regression_ratio: f64,
}

/// Adaptive mid-execution re-optimization knobs for [`crate::execute_adaptive`]:
/// when enabled, an intermediate whose observed cardinality diverges from its
/// estimate by more than `divergence_threshold` re-plans the remainder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveOptions {
    /// Whether mid-execution re-optimization runs at all.
    pub enabled: bool,
    /// Re-plan when `q_error(estimate, observed)` exceeds this factor.
    pub divergence_threshold: f64,
    /// Upper bound on re-planning rounds per statement (re-planning is
    /// cheap next to a disastrous join order, but unbounded rounds would
    /// let a pathological estimator thrash).
    pub max_replans: usize,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions { enabled: false, divergence_threshold: 10.0, max_replans: 3 }
    }
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
            tracing: false,
            slow_query_ms: 0,
            mem_budget: 0,
            regression_ratio: DEFAULT_REGRESSION_RATIO,
        }
    }
}

impl SessionOptions {
    /// Sets one option by its wire-protocol name.  The `set` table in
    /// `docs/PROTOCOL.md` lists every name with the values it takes (the
    /// session tests pin the table to this parser).  Returns a description
    /// of the rejection otherwise.
    pub fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        let flag = || match value {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(format!("{name} needs true or false, got `{other}`")),
        };
        let int = || {
            value.parse::<usize>().map_err(|_| format!("{name} needs an integer, got `{value}`"))
        };
        let number =
            || value.parse::<f64>().map_err(|_| format!("{name} needs a number, got `{value}`"));
        let factor = || match number()? {
            f if f > 1.0 => Ok(f),
            _ => Err(format!("{name} is a q-error factor and must exceed 1, got `{value}`")),
        };
        match name {
            "threads" => {
                let n = int()?;
                self.threads = if n == 0 { qob_exec::default_threads() } else { n };
            }
            "timeout_ms" => {
                let ms = int()? as u64;
                self.timeout = if ms == 0 { None } else { Some(Duration::from_millis(ms)) };
            }
            "estimator" => {
                self.estimator = EstimatorKind::parse(value)
                    .ok_or_else(|| format!("unknown estimator `{value}`"))?;
            }
            "execute" => self.execute = flag()?,
            "morsel_size" => {
                let n = int()?;
                self.morsel_size = if n == 0 { qob_exec::DEFAULT_MORSEL_SIZE } else { n };
            }
            "adaptive" => self.adaptive.enabled = flag()?,
            "adaptive_threshold" => self.adaptive.divergence_threshold = factor()?,
            "max_replans" => self.adaptive.max_replans = int()?,
            "plan_cache" => self.plan_cache = flag()?,
            "cache_fence" => self.cache_fence = factor()?,
            "tracing" => self.tracing = flag()?,
            "slow_query_ms" => self.slow_query_ms = int()? as u64,
            "mem_budget" => self.mem_budget = int()?,
            "regression_ratio" => match number()? {
                r if r >= 0.0 => self.regression_ratio = r,
                _ => {
                    return Err(format!(
                        "regression_ratio needs a number >= 0 (0 disables), got `{value}`"
                    ))
                }
            },
            other => return Err(format!("unknown option `{other}`")),
        }
        Ok(())
    }

    /// The execution options this session state implies.
    pub fn execution_options(&self) -> ExecutionOptions {
        let mut options = ExecutionOptions::with_threads(self.threads).with_timeout(self.timeout);
        options.morsel_size = self.morsel_size.max(1);
        if self.mem_budget > 0 {
            options.max_intermediate_slots = self.mem_budget;
        }
        options
    }
}
