//! # qob-plan
//!
//! The query model shared by the optimizer components of the JOB
//! reproduction:
//!
//! * [`RelSet`] — a bitset of base relations identifying every join
//!   subexpression (the key under which cardinalities are estimated,
//!   injected and memoised),
//! * [`QuerySpec`] — a select-project-join query: base relations with their
//!   selection predicates plus equality join edges (the join graph),
//! * [`PhysicalPlan`] — operator trees (scans, hash joins, index-nested-loop
//!   joins, plain nested-loop joins, sort-merge joins) produced by the plan
//!   enumerators and consumed by the cost models and the executor.
//!
//! The crate is purely logical: it knows about tables and columns through the
//! catalog of [`qob_storage`], but holds no data and performs no execution.

pub mod physical;
pub mod query;
pub mod relset;

pub use physical::{JoinAlgorithm, JoinKey, PhysicalPlan, PlanShape};
pub use query::{BaseRelation, JoinEdge, QuerySpec, QueryValidationError};
pub use relset::{RelSet, RelSetHasher, RelSetMap};
