//! Differential tests for the cardinality-fenced plan cache.
//!
//! The contract under test is the paper's own warning applied to plan
//! reuse: a cached plan is a bet that the cardinality estimates it was
//! optimized under still hold.  So (1) executing through a cache **hit**
//! must be tuple-for-tuple identical to a cold optimization — for every one
//! of the 113 JOB queries; (2) a parameter shift that moves the estimates
//! past the fence must demonstrably trigger a re-optimization that can
//! land on a *different join order*; and (3) the cache's counters must
//! match exactly what the workload observed.

use qob_core::{BenchmarkContext, CacheOutcome, QueryReport, ServerContext, SessionOptions};
use qob_datagen::Scale;
use qob_sql::ParamValue;
use qob_storage::IndexConfig;

fn server() -> ServerContext {
    let ctx = BenchmarkContext::new(Scale::tiny(), IndexConfig::PrimaryAndForeignKey).unwrap();
    let defaults = SessionOptions { threads: 1, ..SessionOptions::default() };
    ServerContext::with_defaults(ctx, defaults)
}

/// Rows and per-operator cardinalities — the tuple-identity the suite pins.
fn observables(report: &QueryReport) -> (u64, Vec<(String, u64)>) {
    let exec = report.execution.as_ref().expect("executed");
    (exec.rows, exec.operators.iter().map(|o| (o.relations.clone(), o.true_rows)).collect())
}

#[test]
fn cache_hits_execute_tuple_identical_to_cold_on_all_113_job_queries() {
    let server = server();
    let cold = server.session();
    let mut warm = server.session();
    warm.options.set("plan_cache", "true").unwrap();
    // JOB variants of one family (1a, 1b, …) share a fingerprint on
    // purpose — they are the same statement with different parameters.  A
    // near-exact fence forces every variant whose estimates differ at all
    // to re-optimize, which keeps this differential exact: each executed
    // plan was optimized under precisely the estimates of its own literals,
    // i.e. the cold plan.
    warm.options.set("cache_fence", "1.000001").unwrap();

    let queries: Vec<_> = server.context().queries().to_vec();
    assert_eq!(queries.len(), 113);
    let mut seen_fingerprints = std::collections::HashSet::new();
    let (mut hits, mut misses, mut rejections) = (0u64, 0u64, 0u64);
    for query in &queries {
        let baseline = cold.run_query(query).unwrap();
        assert_eq!(baseline.plan_cache, CacheOutcome::Off, "cold session never touches the cache");

        let first = warm.run_query(query).unwrap();
        let fresh = seen_fingerprints.insert(qob_cache::fingerprint_query(query));
        match first.plan_cache {
            CacheOutcome::Miss => {
                assert!(fresh, "{}: missed a fingerprint another variant installed", query.name);
                misses += 1;
            }
            CacheOutcome::FenceRejected => {
                assert!(!fresh, "{}: rejected without a cached variant", query.name);
                rejections += 1;
            }
            CacheOutcome::Hit => {
                // A sibling variant with identical estimates: its cached
                // plan is the deterministic optimum for these estimates
                // too, so the differential below still pins it.
                assert!(!fresh, "{}: hit without a cached variant", query.name);
                hits += 1;
            }
            CacheOutcome::Off => panic!("{}: caching session must report a status", query.name),
        }

        let second = warm.run_query(query).unwrap();
        assert_eq!(
            second.plan_cache,
            CacheOutcome::Hit,
            "{}: identical repeat must hit",
            query.name
        );
        hits += 1;

        // The cached plan is the cold plan, and executing it answers
        // identically: same rows, same operator cardinalities, same plan
        // tree, same cost.
        assert_eq!(second.plan, baseline.plan, "{}: plan drifted through the cache", query.name);
        assert_eq!(second.cost, baseline.cost, "{}", query.name);
        assert_eq!(observables(&second), observables(&baseline), "{}", query.name);
        assert_eq!(observables(&first), observables(&baseline), "{}", query.name);
    }

    // The counters agree exactly with what this test observed.
    let counters = server.plan_cache_counters();
    assert_eq!(counters.hits, hits);
    assert_eq!(counters.misses, misses);
    assert_eq!(counters.fence_rejections, rejections);
    assert_eq!(counters.installs, misses + rejections, "every cold optimization installed");
    assert_eq!(counters.evictions, 0);
    assert_eq!(server.plan_cache_len() as u64, misses, "one entry per distinct fingerprint");
    assert_eq!(misses, seen_fingerprints.len() as u64);
}

/// The pinned fence regression: a five-relation JOB-shaped statement whose
/// best join order genuinely depends on the `production_year` parameter.
/// Empirically, under PostgreSQL-profile estimates at tiny scale the
/// optimizer builds `(t ⋈ mi ⋈ it) ⋈ (ci ⋈ n)` for a non-selective year
/// and `(t ⋈ ci ⋈ n) ⋈ (mi ⋈ it)` for a highly selective one.
const PARAM_SHIFT: &str = "SELECT COUNT(*) FROM title t, movie_info mi, info_type it, \
                           cast_info ci, name n \
                           WHERE mi.movie_id = t.id AND mi.info_type_id = it.id \
                             AND ci.movie_id = t.id AND ci.person_id = n.id \
                             AND t.production_year > ?";

#[test]
fn fence_crossing_parameter_shift_reoptimizes_to_a_different_join_order() {
    let server = server();
    let mut session = server.session();
    session.options.set("plan_cache", "true").unwrap();
    // A tight fence so the selectivity cliff between the two parameters
    // reliably crosses it.
    session.options.set("cache_fence", "1.5").unwrap();

    session.prepare("by_year", PARAM_SHIFT).unwrap();

    let loose = session.execute_prepared("by_year", &[ParamValue::Int(1885)]).unwrap();
    assert_eq!(loose.plan_cache, CacheOutcome::Miss);

    let selective = session.execute_prepared("by_year", &[ParamValue::Int(2009)]).unwrap();
    assert_eq!(
        selective.plan_cache,
        CacheOutcome::FenceRejected,
        "the parameter shift must cross the fence, not silently reuse"
    );
    assert_ne!(
        selective.plan, loose.plan,
        "re-optimization under the shifted estimates lands on a different join order"
    );

    // Both parameter regimes are now variants of one fingerprint: each
    // repeat hits, each keeps its own join order.
    let loose_again = session.execute_prepared("by_year", &[ParamValue::Int(1885)]).unwrap();
    assert_eq!(loose_again.plan_cache, CacheOutcome::Hit);
    assert_eq!(loose_again.plan, loose.plan);
    let selective_again = session.execute_prepared("by_year", &[ParamValue::Int(2009)]).unwrap();
    assert_eq!(selective_again.plan_cache, CacheOutcome::Hit);
    assert_eq!(selective_again.plan, selective.plan);

    // Cached answers equal cold answers for both regimes.
    let mut cold = server.session();
    cold.prepare("by_year", PARAM_SHIFT).unwrap();
    let cold_loose = cold.execute_prepared("by_year", &[ParamValue::Int(1885)]).unwrap();
    let cold_selective = cold.execute_prepared("by_year", &[ParamValue::Int(2009)]).unwrap();
    assert_eq!(observables(&loose_again), observables(&cold_loose));
    assert_eq!(observables(&selective_again), observables(&cold_selective));

    let counters = server.plan_cache_counters();
    assert_eq!(counters.fence_rejections, 1);
    assert_eq!(counters.hits, 2);
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.installs, 2, "one install per parameter regime");
}

#[test]
fn literal_shifts_within_the_fence_reuse_the_plan() {
    let server = server();
    let mut session = server.session();
    session.options.set("plan_cache", "true").unwrap();
    // A generous fence: nearby parameters estimate similarly and reuse.
    session.options.set("cache_fence", "1000000").unwrap();
    session.prepare("by_year", PARAM_SHIFT).unwrap();

    let first = session.execute_prepared("by_year", &[ParamValue::Int(1980)]).unwrap();
    assert_eq!(first.plan_cache, CacheOutcome::Miss);
    let nearby = session.execute_prepared("by_year", &[ParamValue::Int(1981)]).unwrap();
    assert_eq!(
        nearby.plan_cache,
        CacheOutcome::Hit,
        "a nearby parameter reuses the plan through automatic parameterization"
    );
    // Same plan, but the *answer* reflects the new parameter — reuse never
    // bleeds results across parameter values.
    assert_eq!(nearby.plan, first.plan);
    let cold = {
        let mut s = server.session();
        s.prepare("by_year", PARAM_SHIFT).unwrap();
        s.execute_prepared("by_year", &[ParamValue::Int(1981)]).unwrap()
    };
    assert_eq!(observables(&nearby), observables(&cold));
}
