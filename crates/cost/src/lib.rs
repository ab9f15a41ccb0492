//! # qob-cost
//!
//! The cost models of the paper's Section 5:
//!
//! * [`PostgresCostModel`] — a disk-oriented model in the style of
//!   PostgreSQL's: a weighted sum of sequential page accesses, random page
//!   accesses and per-tuple/per-operator CPU costs,
//! * [`PostgresCostModel::tuned_for_main_memory`] — the same model with the
//!   CPU cost parameters multiplied by 50, the paper's main-memory tuning
//!   (Section 5.3),
//! * [`SimpleCostModel`] — the paper's `C_mm` function (Section 5.4), which
//!   only counts tuples flowing through operators, with `τ = 0.2` discounting
//!   scans and `λ = 2` penalising index lookups.
//!
//! A model prices one operator at a time — a scan from its relation, a join
//! from its algorithm, its inputs' rows and base-relation status, and its
//! output rows — and never a whole plan.  The planner
//! (`qob_enumerate::Planner`) supplies those rows from whatever cardinality
//! source it holds (estimates or injected true cardinalities) and adds the
//! prices up under one rule, which is how the paper isolates cost-model
//! error from cardinality error.

pub mod model;
pub mod postgres;
pub mod simple;

pub use model::{CostContext, CostModel, SubPlanInfo};
pub use postgres::PostgresCostModel;
pub use simple::SimpleCostModel;
