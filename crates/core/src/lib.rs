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
//! queries against one warm database) the serve path wraps a context in a
//! shareable [`ServerContext`] and hands each connection a [`Session`] with
//! private options — see the [`session`] module docs for the locking model.
//! It spans five modules, one per layer:
//!
//! * [`options`] — [`SessionOptions`], the per-connection state a `SET`
//!   changes, and its one parser.
//! * [`report`] — what a statement answers: [`QueryReport`] and its parts,
//!   [`ScriptOutcome`], [`SessionError`] and the `EXPLAIN ANALYZE` renderer.
//! * [`admission`] — [`SchedulerConfig`] and the admission queue in front
//!   of the execute phase (the `queue_us` span).
//! * [`server`] — [`ServerContext`]: the state every session shares and the
//!   Prometheus exposition.
//! * [`session`] — [`Session`]: script and prepared dispatch, plan choice
//!   through the plan cache, execution and history recording.
//!
//! [`adaptive`] holds the mid-execution re-planner and [`slowdown`] the
//! paper's slowdown buckets.
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
pub mod admission;
pub mod context;
pub mod experiments;
pub mod options;
pub mod report;
pub mod server;
pub mod session;
pub mod slowdown;

pub use adaptive::{execute_adaptive, AdaptiveOutcome, ReplanEvent};
pub use admission::SchedulerConfig;
pub use context::{BenchmarkContext, ColumnStorageSize, EstimatorKind, TableStorageSize};
pub use options::{AdaptiveOptions, SessionOptions, DEFAULT_CACHE_FENCE, DEFAULT_REGRESSION_RATIO};
pub use qob_obs::CacheOutcome;
pub use report::{
    ExecutionReport, OperatorReport, QueryReport, ScriptOutcome, SessionError, TraceReport,
};
pub use server::ServerContext;
pub use session::Session;
pub use slowdown::{geometric_mean, SlowdownBucket, SlowdownDistribution};
