//! Adaptive mid-execution re-optimization.
//!
//! The paper's central finding is that cardinality *misestimates* — not cost
//! models or enumeration — are what destroy plan quality.  The executor is
//! in a unique position to act on that: at every pipeline breaker it holds
//! the materialised intermediate in its hands and therefore knows its true
//! cardinality *before* the rest of the plan runs.  This module closes the
//! loop:
//!
//! ```text
//!   plan ──▶ materialise next breaker ──▶ observe true cardinality
//!    ▲                                         │
//!    │        diverged more than the threshold?│
//!    │   no: keep going ◀──────────────────────┤
//!    │                                         ▼ yes
//!    └── splice re-planned remainder ◀── re-enumerate with truth
//!        (materialised prefixes stay          injected into the estimator
//!         atomic, their cost is sunk)         (FeedbackEstimator)
//! ```
//!
//! Execution proceeds breaker by breaker ([`qob_exec::materialize_plan`]),
//! exactly in the order the morsel engine would materialise them.  Every
//! observation feeds a [`FeedbackEstimator`] overlay; when the observed
//! count diverges from what the current plan was optimized with by more
//! than [`qob_exec::AdaptiveOptions::divergence_threshold`] (a q-error
//! factor), the
//! remainder is re-planned by [`qob_enumerate::optimize_bushy_with_prefixes`]
//! — materialised intermediates enter the enumeration as atomic, zero-cost
//! virtual base relations — and execution resumes on the spliced plan with
//! [`qob_exec::execute_plan_with`] serving the finished prefixes from the
//! [`Materialized`] store.
//!
//! Because every join is an inner equi-join, any valid join order produces
//! the same result multiset: adaptive execution is **tuple-identical** to
//! non-adaptive execution, whichever plans it switches between
//! (`tests/adaptive_execution.rs` pins this on all 113 JOB queries).

use std::time::Instant;

use qob_cardest::{q_error, CardinalityEstimator, FeedbackEstimator, TrueCardinalities};
use qob_cost::SimpleCostModel;
use qob_enumerate::{optimize_bushy_with_prefixes, Planner, PlannerConfig, PrefixGroup};
use qob_exec::{ExecutionError, ExecutionOptions, ExecutionResult, Materialized};
use qob_plan::{PhysicalPlan, QuerySpec, RelSet};

use crate::context::BenchmarkContext;
use crate::report::relset_label;

/// One re-planning round: what diverged, by how much, and what came of it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplanEvent {
    /// The materialised subexpression whose cardinality triggered the
    /// round, rendered as its aliases (`{t,mc}`).
    pub after: String,
    /// The cardinality the current plan was optimized with.
    pub estimated: f64,
    /// The true cardinality observed at the breaker.
    pub observed: u64,
    /// `q_error(estimated, observed)` — the divergence factor.
    pub factor: f64,
    /// True if re-planning produced a different remainder (false when the
    /// enumerator confirmed the current plan, or failed).
    pub changed: bool,
    /// The full plan execution resumed on, rendered with relation aliases.
    pub resumed_plan: String,
}

/// The outcome of an adaptive execution: the ordinary execution result plus
/// the re-planning history.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveOutcome {
    /// Rows, elapsed time and per-operator cardinalities of the *final*
    /// (possibly spliced) plan, reported exactly like a non-adaptive run.
    pub result: ExecutionResult,
    /// The plan execution finished on (equals the input plan when no
    /// re-plan changed it).
    pub final_plan: PhysicalPlan,
    /// Every divergence that triggered a re-planning round, in order.
    pub replans: Vec<ReplanEvent>,
}

impl AdaptiveOutcome {
    /// Number of rounds that actually changed the plan.
    pub fn plans_changed(&self) -> usize {
        self.replans.iter().filter(|e| e.changed).count()
    }
}

/// Executes `plan` adaptively against the context (see the module docs for
/// the loop).  With `options.adaptive.enabled == false` the divergence check
/// never fires and this degrades to plain breaker-by-breaker execution of
/// the given plan — same rows, same operator cardinalities.
///
/// `estimator` is the profile the plan was optimized with; it seeds both the
/// feedback overlay and hash-table sizing (observed sets size exactly,
/// everything else sizes from the corrected estimate).
pub fn execute_adaptive(
    ctx: &BenchmarkContext,
    query: &QuerySpec,
    plan: &PhysicalPlan,
    estimator: &dyn CardinalityEstimator,
    options: &ExecutionOptions,
    planner_config: PlannerConfig,
) -> Result<AdaptiveOutcome, ExecutionError> {
    plan.validate(query).map_err(ExecutionError::InvalidPlan)?;
    let adaptive = options.adaptive;
    let started = Instant::now();
    let model = SimpleCostModel::new();

    let mut current = plan.clone();
    let mut mat = Materialized::new();
    let mut observed = TrueCardinalities::with_name("observed at runtime");
    // The observations the *running plan* was optimized with: empty for the
    // initial plan (built from raw estimates), snapshotted at every re-plan.
    // Divergence is judged against this planning-time knowledge — judging
    // against the live overlay would let corrections from earlier breakers
    // mask exactly the misestimates the running join order was built on.
    let mut planned_with = TrueCardinalities::with_name("planned with");
    // True output counts of every join executed so far, for overlaying onto
    // the final report (joins inside pre-materialised subtrees report 0 on
    // the resumed run — they ran earlier).
    let mut recorded: Vec<(RelSet, u64)> = Vec::new();
    let mut replans = Vec::new();

    loop {
        // Per-round budget: the statement timeout covers the whole adaptive
        // loop, not each round separately.
        let round_options = remaining_budget(options, started)?;
        let overlay = FeedbackEstimator::new(&observed, estimator);
        let hint = |set: RelSet| overlay.estimate(query, set);

        let Some(breaker) = first_breaker(&current, &mat).cloned() else {
            // Only the top pipeline remains: run it over the stored
            // intermediates and assemble the final report.
            let res = qob_exec::execute_plan_with(
                ctx.db(),
                query,
                &current,
                &hint,
                &round_options,
                &mat,
            )?;
            let operator_cardinalities = overlay_recorded(res.operator_cardinalities, &recorded);
            return Ok(AdaptiveOutcome {
                result: ExecutionResult {
                    rows: res.rows,
                    elapsed: started.elapsed(),
                    operator_cardinalities,
                    // Per-operator times are not carried across adaptive
                    // rounds: the splice would mis-attribute earlier
                    // rounds' work to the final plan's operators.
                    operator_timings: Vec::new(),
                },
                final_plan: current,
                replans,
            });
        };

        let set = breaker.rels();
        // What the *running* plan believed this intermediate would hold:
        // the estimate at the plan's own planning time (raw estimates for
        // the initial plan, the feedback state as of the last re-plan).
        let believed = FeedbackEstimator::new(&planned_with, estimator).estimate(query, set);
        let (intermediate, cards) =
            qob_exec::materialize_plan(ctx.db(), query, &breaker, &hint, &round_options, &mat)?;
        let observed_rows = intermediate.len() as u64;

        // Feed every newly executed join's truth back, not just the
        // breaker's own output.
        for (sub_set, count) in &cards {
            if !recorded.iter().any(|(s, _)| s == sub_set) && !mat.contains(*sub_set) {
                recorded.push((*sub_set, *count));
                observed.insert(*sub_set, *count as f64);
            }
        }
        observed.insert(set, observed_rows as f64);
        mat.insert(intermediate);

        let factor = q_error(believed, observed_rows as f64);
        if adaptive.enabled
            && factor > adaptive.divergence_threshold
            && replans.len() < adaptive.max_replans
        {
            let overlay = FeedbackEstimator::new(&observed, estimator);
            let planner = Planner::new(ctx.db(), query, &model, &overlay, planner_config);
            // Every maximal materialised set is, by construction, a subtree
            // of the running plan — that subtree is the group's fixed
            // prefix.  (The store prunes subsumed sets, so the sets are
            // disjoint and maximal.)
            let groups: Option<Vec<PrefixGroup>> = mat
                .sets()
                .into_iter()
                .map(|s| {
                    Some(PrefixGroup {
                        set: s,
                        plan: current.subplan(s)?.clone(),
                        rows: observed.get(s).unwrap_or(1.0),
                    })
                })
                .collect();
            let replanned = groups
                .as_deref()
                .map(|groups| optimize_bushy_with_prefixes(&planner, groups))
                .and_then(Result::ok)
                // A sound re-plan keeps every materialised prefix as an
                // unchanged subtree; anything else must not be resumed on.
                .filter(|replanned| {
                    mat.sets().iter().all(|s| replanned.plan.subplan(*s).is_some())
                });
            let (changed, resumed) = match replanned {
                Some(replanned) => {
                    // Chosen (or confirmed) with everything observed so far:
                    // that is now the plan's planning-time knowledge.
                    planned_with = observed.clone();
                    if replanned.plan != current {
                        current = replanned.plan;
                        (true, current.render(query))
                    } else {
                        (false, current.render(query))
                    }
                }
                None => (false, current.render(query)),
            };
            replans.push(ReplanEvent {
                after: relset_label(query, set),
                estimated: believed,
                observed: observed_rows,
                factor,
                changed,
                resumed_plan: resumed,
            });
        }
    }
}

/// The options for one round, with the statement timeout shrunk by the time
/// already spent (so the whole adaptive loop honours one budget).
fn remaining_budget(
    options: &ExecutionOptions,
    started: Instant,
) -> Result<ExecutionOptions, ExecutionError> {
    let Some(timeout) = options.timeout else {
        return Ok(options.clone());
    };
    let spent = started.elapsed();
    if spent >= timeout {
        return Err(ExecutionError::Timeout { elapsed: spent });
    }
    Ok(ExecutionOptions { timeout: Some(timeout - spent), ..options.clone() })
}

/// The next subplan the morsel engine would materialise as a unit, skipping
/// everything already in the store.  Mirrors the engine's compile order:
/// hash joins materialise their build (left) side after the probe side's own
/// breakers, nested-loop joins their inner (right) side after the outer's,
/// sort-merge joins both sides left first; index-nested-loop inners are
/// index lookups and never materialise.  Returns `None` once only the top
/// pipeline remains.
fn first_breaker<'p>(plan: &'p PhysicalPlan, mat: &Materialized) -> Option<&'p PhysicalPlan> {
    if mat.contains(plan.rels()) {
        return None;
    }
    let PhysicalPlan::Join { algorithm, left, right, .. } = plan else {
        return None;
    };
    let unit = |side: &'p PhysicalPlan| {
        if mat.contains(side.rels()) {
            None
        } else {
            Some(first_breaker(side, mat).unwrap_or(side))
        }
    };
    match algorithm {
        qob_plan::JoinAlgorithm::Hash => first_breaker(right, mat).or_else(|| unit(left)),
        qob_plan::JoinAlgorithm::NestedLoop => first_breaker(left, mat).or_else(|| unit(right)),
        qob_plan::JoinAlgorithm::IndexNestedLoop => first_breaker(left, mat),
        qob_plan::JoinAlgorithm::SortMerge => unit(left).or_else(|| unit(right)),
    }
}

/// Overlays the true counts recorded in earlier rounds onto a resumed run's
/// cardinality report (joins served from the store report 0 there).  Join
/// output cardinalities are plan-invariant, so a recorded count is always
/// the correct value for its set.
fn overlay_recorded(
    mut cards: Vec<(RelSet, u64)>,
    recorded: &[(RelSet, u64)],
) -> Vec<(RelSet, u64)> {
    for (set, count) in &mut cards {
        if let Some((_, r)) = recorded.iter().find(|(s, _)| s == set) {
            *count = *r;
        }
    }
    cards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::EstimatorKind;
    use qob_datagen::Scale;
    use qob_exec::AdaptiveOptions;
    use qob_plan::JoinAlgorithm;
    use qob_storage::IndexConfig;

    fn ctx() -> BenchmarkContext {
        BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap()
    }

    /// A deliberately wrong estimator: everything has 1 row.  Forces maximal
    /// divergence at the first filtered breaker.
    struct OneRow;
    impl CardinalityEstimator for OneRow {
        fn name(&self) -> &str {
            "one-row"
        }
        fn estimate(&self, _q: &QuerySpec, _s: RelSet) -> f64 {
            1.0
        }
    }

    #[test]
    fn disabled_adaptivity_reproduces_plain_execution() {
        let ctx = ctx();
        let pg = ctx.estimator(EstimatorKind::Postgres);
        for name in ["2a", "6a", "13b"] {
            let query = ctx.query(name).unwrap();
            let plan = ctx.optimize(&query, pg.as_ref(), PlannerConfig::default()).unwrap().plan;
            let options = ExecutionOptions::with_threads(1);
            let plain = ctx.execute(&query, &plan, pg.as_ref(), &options).unwrap();
            let adaptive = execute_adaptive(
                &ctx,
                &query,
                &plan,
                pg.as_ref(),
                &options,
                PlannerConfig::default(),
            )
            .unwrap();
            assert_eq!(plain.rows, adaptive.result.rows, "{name}");
            assert!(adaptive.replans.is_empty(), "{name}: disabled adaptivity never re-plans");
            assert_eq!(adaptive.final_plan, plan, "{name}");
            // Same operators, same true counts — breaker-by-breaker
            // execution is the same computation the fused engine performs.
            assert_eq!(
                plain.operator_cardinalities, adaptive.result.operator_cardinalities,
                "{name}"
            );
        }
    }

    #[test]
    fn wild_misestimates_trigger_a_replan_and_results_stay_identical() {
        let ctx = ctx();
        let pg = ctx.estimator(EstimatorKind::Postgres);
        let bad = OneRow;
        let query = ctx.query("6a").unwrap();
        // Plan with the broken estimator so the plan really was built on the
        // misestimate the runtime then observes.
        let plan = ctx.optimize(&query, &bad, PlannerConfig::default()).unwrap().plan;
        let options = ExecutionOptions {
            threads: 1,
            adaptive: AdaptiveOptions { enabled: true, divergence_threshold: 2.0, max_replans: 3 },
            ..ExecutionOptions::default()
        };
        let reference =
            ctx.execute(&query, &plan, pg.as_ref(), &ExecutionOptions::with_threads(1)).unwrap();
        let adaptive =
            execute_adaptive(&ctx, &query, &plan, &bad, &options, PlannerConfig::default())
                .unwrap();
        assert!(!adaptive.replans.is_empty(), "a 1-row estimator must diverge somewhere");
        let event = &adaptive.replans[0];
        assert!(event.factor > 2.0);
        assert!(event.observed as f64 > event.estimated || event.estimated > 1.0);
        assert!(!event.resumed_plan.is_empty());
        assert_eq!(adaptive.result.rows, reference.rows, "adaptivity must not change results");
        assert!(adaptive.final_plan.validate(&query).is_ok());
        // The final cardinality (all relations joined) matches too.
        let all = query.all_rels();
        let final_card =
            |cards: &[(RelSet, u64)]| cards.iter().find(|(s, _)| *s == all).map(|(_, c)| *c);
        assert_eq!(
            final_card(&reference.operator_cardinalities),
            final_card(&adaptive.result.operator_cardinalities),
        );
    }

    #[test]
    fn replanned_operator_cardinalities_match_ground_truth() {
        let ctx = ctx();
        let bad = OneRow;
        let query = ctx.query("3a").unwrap();
        let plan = ctx.optimize(&query, &bad, PlannerConfig::default()).unwrap().plan;
        let options = ExecutionOptions {
            threads: 1,
            adaptive: AdaptiveOptions { enabled: true, divergence_threshold: 2.0, max_replans: 5 },
            ..ExecutionOptions::default()
        };
        let outcome =
            execute_adaptive(&ctx, &query, &plan, &bad, &options, PlannerConfig::default())
                .unwrap();
        let truth = ctx.try_true_cardinalities(&query).unwrap();
        assert!(!outcome.result.operator_cardinalities.is_empty());
        for (set, count) in &outcome.result.operator_cardinalities {
            let expected = truth.get(*set).expect("every join subexpression has ground truth");
            assert_eq!(
                *count as f64, expected,
                "operator {set} must report its true cardinality even across splices"
            );
        }
    }

    #[test]
    fn max_replans_bounds_the_rounds() {
        let ctx = ctx();
        let bad = OneRow;
        let query = ctx.query("13b").unwrap();
        let plan = ctx.optimize(&query, &bad, PlannerConfig::default()).unwrap().plan;
        let options = ExecutionOptions {
            threads: 1,
            adaptive: AdaptiveOptions { enabled: true, divergence_threshold: 1.1, max_replans: 1 },
            ..ExecutionOptions::default()
        };
        let outcome =
            execute_adaptive(&ctx, &query, &plan, &bad, &options, PlannerConfig::default())
                .unwrap();
        assert!(outcome.replans.len() <= 1, "got {} rounds", outcome.replans.len());
    }

    #[test]
    fn timeout_covers_the_whole_adaptive_loop() {
        let ctx = ctx();
        let pg = ctx.estimator(EstimatorKind::Postgres);
        let query = ctx.query("6a").unwrap();
        let plan = ctx.optimize(&query, pg.as_ref(), PlannerConfig::default()).unwrap().plan;
        let options = ExecutionOptions {
            threads: 1,
            timeout: Some(std::time::Duration::from_nanos(1)),
            adaptive: AdaptiveOptions::on(),
            ..ExecutionOptions::default()
        };
        let err =
            execute_adaptive(&ctx, &query, &plan, pg.as_ref(), &options, PlannerConfig::default())
                .unwrap_err();
        assert!(matches!(err, ExecutionError::Timeout { .. }), "got {err:?}");
    }

    #[test]
    fn first_breaker_follows_engine_compile_order() {
        use qob_plan::JoinKey;
        let key = |l: usize, r: usize| JoinKey {
            left_rel: l,
            left_column: qob_storage::ColumnId(1),
            right_rel: r,
            right_column: qob_storage::ColumnId(0),
        };
        // ((0 HJ 1) HJ 2): the engine compiles the probe side (scan 2)
        // first, then materialises the build side (0 HJ 1), whose own build
        // (scan 0) materialises before it.
        let inner = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key(0, 1)],
        );
        let plan = PhysicalPlan::join(
            JoinAlgorithm::Hash,
            inner.clone(),
            PhysicalPlan::scan(2),
            vec![key(1, 2)],
        );
        let mut mat = Materialized::new();
        assert_eq!(first_breaker(&plan, &mat).unwrap().rels(), RelSet::single(0));
        mat.insert(qob_exec::Intermediate::from_scan(0, vec![]));
        assert_eq!(first_breaker(&plan, &mat).unwrap().rels(), RelSet::from_iter([0, 1]));
        let mut joined = qob_exec::Intermediate::empty(vec![0, 1]);
        joined.push_tuple(&[0, 0]);
        mat.insert(joined);
        assert!(first_breaker(&plan, &mat).is_none(), "only the top pipeline remains");

        // Sort-merge materialises both sides, left before right.
        let smj = PhysicalPlan::join(
            JoinAlgorithm::SortMerge,
            PhysicalPlan::scan(0),
            PhysicalPlan::scan(1),
            vec![key(0, 1)],
        );
        let mat = Materialized::new();
        assert_eq!(first_breaker(&smj, &mat).unwrap().rels(), RelSet::single(0));
    }
}
