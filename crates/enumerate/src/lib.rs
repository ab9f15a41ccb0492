//! # qob-enumerate
//!
//! Join-order enumeration for the JOB reproduction (Section 6 of the paper):
//!
//! * [`dpccp`] — exhaustive dynamic programming over connected
//!   subgraph/complement pairs (bushy trees, no cross products), the paper's
//!   "Dynamic Programming" configuration,
//! * [`restricted`] — the same dynamic programming restricted to left-deep,
//!   right-deep or zig-zag trees (Table 2),
//! * [`quickpick`] — the randomised Quickpick algorithm used both to
//!   visualise the plan-space cost distribution (Figure 9) and, as
//!   "Quickpick-1000", as a heuristic competitor (Table 3),
//! * [`goo`] — Greedy Operator Ordering (Table 3),
//! * [`space`] — exhaustive or uniformly-sampled enumeration of the *whole*
//!   bushy plan space, for ranking any plan against the true optimum
//!   (OptMark-style effectiveness metrics).
//!
//! All enumerators share one [`planner::Planner`], parameterised by a cost
//! model, a cardinality source, and the availability of join algorithms and
//! indexes — so the same machinery answers "optimal plan under true
//! cardinalities" and "plan the optimizer would pick from system X's
//! estimates".  [`Planner::rows`] is the only caller of the cardinality
//! source and estimates each relation set once; [`Planner::join`] prices the
//! enumerators' joins from relation sets and row counts alone.  The dynamic
//! programs therefore keep `{cost, rows, winning split}` per set and build
//! one operator tree, top-down, at the end.  [`Planner::cost_of`] re-costs
//! any fixed tree — a plan chosen from estimates, under a planner over true
//! cardinalities — and one private function, `planner::compose`, adds costs
//! for it, for [`Planner::join`] and for [`space`], so all three agree to
//! the bit.

pub mod dpccp;
pub mod goo;
pub mod planner;
pub mod quickpick;
pub mod restricted;
pub mod space;

pub use dpccp::{
    ccp_pairs, fill_table, for_each_ccp_pair, optimize_bushy_table, optimize_bushy_with_prefixes,
    PrefixGroup,
};
pub use planner::{
    Entry, EnumerationError, OptimizedPlan, PlanTable, Planner, PlannerConfig, ShapeRestriction,
};
pub use space::{count_plans, explore, PlanSpace, PlanSpaceOptions};
