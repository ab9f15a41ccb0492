//! # qob-core
//!
//! The public facade of the reproduction of *"How Good Are Query Optimizers,
//! Really?"* (Leis et al., VLDB 2015).
//!
//! The crate ties the substrates together behind two entry points:
//!
//! * [`BenchmarkContext`] — owns a synthetic IMDB-like database, its
//!   statistics, the 113-query JOB workload, the estimator profiles and the
//!   ground-truth cardinality cache, and exposes optimize/execute primitives.
//!   Contexts persist to disk ([`BenchmarkContext::save_snapshot`]) and
//!   reload in milliseconds ([`BenchmarkContext::load_snapshot`]).
//! * [`experiments`] — one driver per table/figure of the paper, returning
//!   plain data structures that the `qob-bench` binaries print.
//!
//! For long-lived use (the `qob serve` server, or any host that answers many
//! queries against one warm database) the [`session`] module wraps a context
//! in a shareable [`ServerContext`] and hands each connection a [`Session`]
//! with private options — see its module docs for the locking model.
//!
//! ## Quick start
//!
//! ```
//! use qob_core::{BenchmarkContext, EstimatorKind};
//! use qob_datagen::Scale;
//! use qob_storage::IndexConfig;
//!
//! let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryKeyOnly).unwrap();
//! let query = ctx.query("13d").expect("JOB query 13d exists");
//! let estimates = ctx.estimator(EstimatorKind::Postgres);
//! let plan = ctx.optimize(&query, estimates.as_ref(), Default::default()).unwrap();
//! let result = ctx.execute(&query, &plan.plan, estimates.as_ref(), &Default::default()).unwrap();
//! println!("query 13d returned {} rows in {:?}", result.rows, result.elapsed);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod context;
pub mod experiments;
pub mod session;
pub mod slowdown;

/// Deprecated alias of [`slowdown`]: the paper's slowdown buckets were
/// renamed so they cannot be confused with the runtime metrics registry
/// (`qob-obs`).
#[deprecated(since = "0.1.0", note = "renamed to `qob_core::slowdown`")]
pub mod metrics {
    pub use crate::slowdown::{geometric_mean, SlowdownBucket, SlowdownDistribution};
}

pub use adaptive::{execute_adaptive, AdaptiveOutcome, ReplanEvent};
pub use context::{BenchmarkContext, ColumnStorageSize, EstimatorKind, TableStorageSize};
pub use qob_cardest::percentile;
pub use session::{
    ExecutionReport, OperatorReport, PlanCacheStatus, QueryReport, ReplanReport, SchedulerConfig,
    ScriptOutcome, ServerContext, Session, SessionError, SessionOptions, TraceReport,
    DEFAULT_CACHE_FENCE, DEFAULT_REGRESSION_RATIO,
};
pub use slowdown::{geometric_mean, SlowdownBucket, SlowdownDistribution};
