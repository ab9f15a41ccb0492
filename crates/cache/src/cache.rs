//! The cardinality-fenced plan cache.
//!
//! The cache maps a structural [`Fingerprint`] to a small **variant set** of
//! optimized physical plans.  Each [`CachedVariant`] stores, next to the plan
//! itself, the per-subplan cardinality estimates it was optimized under —
//! because a cached plan is only a good plan *for the estimates that chose
//! it* (the paper's central result: plan quality is dominated by cardinality
//! estimates).
//!
//! On lookup the caller supplies the estimates the current parameters imply
//! (via a closure over the session's estimator), and the cache applies the
//! **reuse fence**: a variant is reused only if *every* stored estimate is
//! within a q-error band of the fresh one.  A parameter shift that moves any
//! subplan's estimate past the fence forces a re-optimization, whose result
//! is installed as a new variant of the same fingerprint — so a statement
//! whose best join order genuinely depends on its parameters ends up with one
//! plan per parameter regime instead of one stale plan for all of them.
//!
//! Entries are evicted LRU by fingerprint; variants within an entry are
//! kept most-recently-used-first and capped at
//! [`PlanCache::MAX_VARIANTS`].

use std::collections::HashMap;

use qob_cardest::q_error;
use qob_plan::{PhysicalPlan, RelSet};

use crate::fingerprint::Fingerprint;

/// One cached plan plus the estimates that justified it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVariant {
    /// The optimized physical plan.
    pub plan: PhysicalPlan,
    /// The optimizer's cost for the plan at optimize time.
    pub cost: f64,
    /// The cardinality estimate of every subplan (each operator's output
    /// set, scans included) at optimize time — the fence's baseline.
    pub estimates: Vec<(RelSet, f64)>,
}

impl CachedVariant {
    /// Captures a variant from an optimized plan: records `estimate(set)`
    /// for every subplan set the plan produces.
    pub fn capture(plan: &PhysicalPlan, cost: f64, estimate: &dyn Fn(RelSet) -> f64) -> Self {
        let mut estimates = Vec::with_capacity(2 * plan.leaf_count());
        plan.visit(&mut |node| {
            let set = node.rels();
            estimates.push((set, estimate(set)));
        });
        CachedVariant { plan: plan.clone(), cost, estimates }
    }

    /// The worst q-error between the stored estimates and the fresh ones a
    /// new parameter binding implies — the fence's decision value.
    pub fn divergence(&self, estimate: &dyn Fn(RelSet) -> f64) -> f64 {
        let mut worst: f64 = 1.0;
        for &(set, cached) in &self.estimates {
            worst = worst.max(q_error(cached, estimate(set)));
        }
        worst
    }
}

/// What a cache probe concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// A cached variant passed the fence and can be executed as-is.
    Hit {
        /// The reusable variant (cloned out of the cache).
        variant: CachedVariant,
        /// Its worst estimate divergence (≤ the fence).
        divergence: f64,
    },
    /// The fingerprint is cached but every variant diverged past the fence:
    /// the caller must re-optimize and [`PlanCache::install`] the result.
    FenceRejected {
        /// The smallest divergence over the rejected variants (how close
        /// the best one came).
        divergence: f64,
    },
    /// The fingerprint has never been cached (or was evicted).
    Miss,
}

/// Monotonic event counters, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned a reusable plan.
    pub hits: u64,
    /// Lookups for a fingerprint the cache did not hold.
    pub misses: u64,
    /// Lookups where every cached variant diverged past the fence.
    pub fence_rejections: u64,
    /// Fingerprint entries evicted by the LRU policy.
    pub evictions: u64,
    /// Variants installed (fresh optimizations added to the cache).
    pub installs: u64,
}

struct Entry {
    /// Most-recently-used first.
    variants: Vec<CachedVariant>,
    /// Intrusive recency links: the neighbouring fingerprints toward the
    /// MRU head and the LRU tail.  Touch and eviction are O(1) pointer
    /// surgery instead of an O(n) stamp scan.
    newer: Option<Fingerprint>,
    older: Option<Fingerprint>,
}

/// An LRU plan cache with a q-error reuse fence.
///
/// The cache itself is single-threaded (`&mut self`); hosts that share it
/// across sessions wrap it in a mutex (see `qob-core`).
pub struct PlanCache {
    entries: HashMap<Fingerprint, Entry>,
    capacity: usize,
    /// Most recently used fingerprint (the intrusive list's head).
    head: Option<Fingerprint>,
    /// Least recently used fingerprint (the eviction victim).
    tail: Option<Fingerprint>,
    counters: CacheCounters,
}

impl PlanCache {
    /// Variants retained per fingerprint: enough for a parameter-sensitive
    /// statement's few genuine plan regimes, small enough that probing every
    /// variant stays trivial.
    pub const MAX_VARIANTS: usize = 4;

    /// The default entry capacity of a server's shared cache.
    pub const DEFAULT_CAPACITY: usize = 256;

    /// Creates a cache holding at most `capacity` fingerprints (clamped to
    /// at least 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            head: None,
            tail: None,
            counters: CacheCounters::default(),
        }
    }

    /// The configured fingerprint capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The event counters so far.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Detaches `key` from the recency list (its entry must exist).
    fn unlink(&mut self, key: Fingerprint) {
        let entry = self.entries.get_mut(&key).expect("unlink of resident entry");
        let (newer, older) = (entry.newer.take(), entry.older.take());
        match newer {
            Some(n) => self.entries.get_mut(&n).expect("linked neighbour").older = older,
            None => self.head = older,
        }
        match older {
            Some(o) => self.entries.get_mut(&o).expect("linked neighbour").newer = newer,
            None => self.tail = newer,
        }
    }

    /// Makes `key` the MRU head (its entry must exist and be detached).
    fn push_front(&mut self, key: Fingerprint) {
        let old_head = self.head;
        {
            let entry = self.entries.get_mut(&key).expect("push of resident entry");
            entry.newer = None;
            entry.older = old_head;
        }
        if let Some(h) = old_head {
            self.entries.get_mut(&h).expect("linked head").newer = Some(key);
        }
        self.head = Some(key);
        if self.tail.is_none() {
            self.tail = Some(key);
        }
    }

    /// O(1) recency refresh: detach and re-attach at the MRU head.
    fn touch(&mut self, key: Fingerprint) {
        if self.head == Some(key) {
            return;
        }
        self.unlink(key);
        self.push_front(key);
    }

    /// Probes the cache for `key` under the given `fence` (a q-error
    /// factor ≥ 1): re-estimates each cached variant's subplan
    /// cardinalities through `estimate` and returns the first variant
    /// whose worst divergence stays within the fence.
    pub fn lookup(
        &mut self,
        key: Fingerprint,
        fence: f64,
        estimate: &dyn Fn(RelSet) -> f64,
    ) -> Lookup {
        let Some(entry) = self.entries.get_mut(&key) else {
            self.counters.misses += 1;
            return Lookup::Miss;
        };
        let mut best = f64::INFINITY;
        let mut winner = None;
        for i in 0..entry.variants.len() {
            let divergence = entry.variants[i].divergence(estimate);
            if divergence <= fence {
                winner = Some((i, divergence));
                break;
            }
            best = best.min(divergence);
        }
        let Some((i, divergence)) = winner else {
            // A fence rejection deliberately does *not* refresh recency:
            // the entry was probed but not useful under these parameters.
            self.counters.fence_rejections += 1;
            return Lookup::FenceRejected { divergence: best };
        };
        // Move the winning variant to the front: parameter regimes cluster
        // in time, so the next lookup probes it first.
        let variant = entry.variants.remove(i);
        entry.variants.insert(0, variant);
        let variant = entry.variants[0].clone();
        self.counters.hits += 1;
        self.touch(key);
        Lookup::Hit { variant, divergence }
    }

    /// Installs a freshly optimized variant for `key`.
    ///
    /// If an identical plan is already cached under the key, its estimates
    /// and cost are refreshed in place (the new parameters' estimates
    /// become the fence baseline); otherwise the variant is added at the
    /// front of the set, dropping the least-recently-used variant past
    /// [`PlanCache::MAX_VARIANTS`].
    pub fn install(&mut self, key: Fingerprint, variant: CachedVariant) {
        self.counters.installs += 1;
        let is_new = !self.entries.contains_key(&key);
        let entry = self.entries.entry(key).or_insert_with(|| Entry {
            variants: Vec::new(),
            newer: None,
            older: None,
        });
        if let Some(i) = entry.variants.iter().position(|v| v.plan == variant.plan) {
            entry.variants.remove(i);
        }
        entry.variants.insert(0, variant);
        entry.variants.truncate(Self::MAX_VARIANTS);
        if is_new {
            self.push_front(key);
        } else {
            self.touch(key);
        }
        self.evict_to_capacity();
    }

    fn evict_to_capacity(&mut self) {
        // O(1) per eviction: the victim is always the recency list's tail.
        while self.entries.len() > self.capacity {
            let Some(victim) = self.tail else { return };
            self.unlink(victim);
            self.entries.remove(&victim);
            self.counters.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qob_plan::{JoinAlgorithm, JoinKey};
    use qob_storage::ColumnId;

    fn key(n: u64) -> Fingerprint {
        Fingerprint(n, n.wrapping_mul(31))
    }

    fn plan(order: &[usize]) -> PhysicalPlan {
        let mut iter = order.iter();
        let mut p = PhysicalPlan::scan(*iter.next().expect("non-empty"));
        for &rel in iter {
            let prev = p.rels().iter().next().expect("non-empty");
            p = PhysicalPlan::join(
                JoinAlgorithm::Hash,
                p,
                PhysicalPlan::scan(rel),
                vec![JoinKey {
                    left_rel: prev,
                    left_column: ColumnId(0),
                    right_rel: rel,
                    right_column: ColumnId(0),
                }],
            );
        }
        p
    }

    /// An estimate function assigning `base * 10^|set|` rows.
    fn flat(base: f64) -> impl Fn(RelSet) -> f64 {
        move |set: RelSet| base * 10f64.powi(set.len() as i32)
    }

    #[test]
    fn capture_records_every_subplan() {
        let p = plan(&[0, 1, 2]);
        let v = CachedVariant::capture(&p, 42.0, &flat(1.0));
        // 3 scans + 2 joins.
        assert_eq!(v.estimates.len(), 5);
        assert!(v.estimates.iter().any(|(s, e)| s.len() == 3 && *e == 1000.0));
        assert_eq!(v.divergence(&flat(1.0)), 1.0, "same estimates → no divergence");
        assert_eq!(v.divergence(&flat(3.0)), 3.0, "uniform 3x shift → q-error 3");
    }

    #[test]
    fn miss_then_install_then_hit() {
        let mut cache = PlanCache::new(8);
        let est = flat(1.0);
        assert_eq!(cache.lookup(key(1), 2.0, &est), Lookup::Miss);
        let v = CachedVariant::capture(&plan(&[0, 1]), 10.0, &est);
        cache.install(key(1), v.clone());
        match cache.lookup(key(1), 2.0, &est) {
            Lookup::Hit { variant, divergence } => {
                assert_eq!(variant.plan, v.plan);
                assert_eq!(divergence, 1.0);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.installs), (1, 1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn fence_rejects_diverged_estimates_and_new_variant_joins_the_set() {
        let mut cache = PlanCache::new(8);
        cache.install(key(1), CachedVariant::capture(&plan(&[0, 1]), 10.0, &flat(1.0)));
        // Fresh estimates 5x off: fence 2 rejects, fence 5 reuses.
        match cache.lookup(key(1), 2.0, &flat(5.0)) {
            Lookup::FenceRejected { divergence } => assert_eq!(divergence, 5.0),
            other => panic!("expected fence rejection, got {other:?}"),
        }
        assert_eq!(cache.counters().fence_rejections, 1);
        assert!(matches!(cache.lookup(key(1), 5.0, &flat(5.0)), Lookup::Hit { .. }));

        // Install the re-optimized plan for the new regime: both variants
        // now live under one fingerprint and each serves its own regime.
        cache.install(key(1), CachedVariant::capture(&plan(&[1, 0]), 12.0, &flat(5.0)));
        let hit_new = cache.lookup(key(1), 2.0, &flat(5.0));
        let Lookup::Hit { variant, .. } = hit_new else { panic!("got {hit_new:?}") };
        assert_eq!(variant.plan, plan(&[1, 0]));
        let hit_old = cache.lookup(key(1), 2.0, &flat(1.0));
        let Lookup::Hit { variant, .. } = hit_old else { panic!("got {hit_old:?}") };
        assert_eq!(variant.plan, plan(&[0, 1]));
    }

    #[test]
    fn reinstalling_the_same_plan_refreshes_its_baseline() {
        let mut cache = PlanCache::new(8);
        cache.install(key(1), CachedVariant::capture(&plan(&[0, 1]), 10.0, &flat(1.0)));
        cache.install(key(1), CachedVariant::capture(&plan(&[0, 1]), 11.0, &flat(4.0)));
        // One variant, with the *new* estimates as its fence baseline.
        match cache.lookup(key(1), 1.5, &flat(4.0)) {
            Lookup::Hit { variant, divergence } => {
                assert_eq!(divergence, 1.0);
                assert_eq!(variant.cost, 11.0);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(cache.lookup(key(1), 1.5, &flat(1.0)), Lookup::FenceRejected { .. }));
    }

    #[test]
    fn variant_sets_are_capped_mru_first() {
        let mut cache = PlanCache::new(8);
        for i in 0..PlanCache::MAX_VARIANTS + 2 {
            let order: Vec<usize> = (0..=i + 1).collect();
            cache.install(key(1), CachedVariant::capture(&plan(&order), i as f64, &flat(1.0)));
        }
        // The oldest variants fell off; the newest survives at the front.
        let Lookup::Hit { variant, .. } = cache.lookup(key(1), 10.0, &flat(1.0)) else {
            panic!("expected hit")
        };
        assert_eq!(variant.plan.leaf_count(), PlanCache::MAX_VARIANTS + 3);
    }

    #[test]
    fn lru_eviction_by_fingerprint() {
        let mut cache = PlanCache::new(2);
        let est = flat(1.0);
        cache.install(key(1), CachedVariant::capture(&plan(&[0, 1]), 1.0, &est));
        cache.install(key(2), CachedVariant::capture(&plan(&[0, 1]), 2.0, &est));
        // Touch 1 so 2 becomes the LRU.
        assert!(matches!(cache.lookup(key(1), 2.0, &est), Lookup::Hit { .. }));
        cache.install(key(3), CachedVariant::capture(&plan(&[0, 1]), 3.0, &est));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.counters().evictions, 1);
        assert!(matches!(cache.lookup(key(2), 2.0, &est), Lookup::Miss), "2 was evicted");
        assert!(matches!(cache.lookup(key(1), 2.0, &est), Lookup::Hit { .. }));
        assert!(matches!(cache.lookup(key(3), 2.0, &est), Lookup::Hit { .. }));
        assert_eq!(PlanCache::new(0).capacity(), 1, "capacity clamps to 1");
    }

    /// Differential check of the intrusive recency list: a long churn of
    /// installs, hits and fence rejections must keep the cache's population
    /// and eviction count identical to a naive recency-vector model with the
    /// historical touch rules (hit → touch, install → touch, fence
    /// rejection / miss → no touch).
    #[test]
    fn intrusive_lru_matches_naive_recency_model_under_churn() {
        const CAPACITY: usize = 4;
        let mut cache = PlanCache::new(CAPACITY);
        // Naive model: most-recent-first vector of resident fingerprints.
        let mut model: Vec<u64> = Vec::new();
        let mut model_evictions = 0u64;
        let touch_model = |model: &mut Vec<u64>, k: u64| {
            model.retain(|&x| x != k);
            model.insert(0, k);
        };
        let est = flat(1.0);
        let mut x: u64 = 12345;
        for step in 0..2000 {
            // Deterministic pseudo-random op stream (xorshift).
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x >> 8) % 9;
            if x.is_multiple_of(3) {
                cache.install(key(k), CachedVariant::capture(&plan(&[0, 1]), k as f64, &est));
                touch_model(&mut model, k);
                while model.len() > CAPACITY {
                    model.pop();
                    model_evictions += 1;
                }
            } else {
                // Fence 2.0 always admits the flat(1.0) baseline, so resident
                // keys hit (touch) and absent keys miss (no touch).
                match cache.lookup(key(k), 2.0, &est) {
                    Lookup::Hit { .. } => {
                        assert!(model.contains(&k), "step {step}: hit for non-resident {k}");
                        touch_model(&mut model, k);
                    }
                    Lookup::Miss => {
                        assert!(!model.contains(&k), "step {step}: miss for resident {k}");
                    }
                    Lookup::FenceRejected { .. } => unreachable!("flat estimates never diverge"),
                }
            }
            assert_eq!(cache.len(), model.len(), "population diverged at step {step}");
            assert_eq!(cache.counters().evictions, model_evictions, "evictions at step {step}");
            // Every resident model key must still hit; eviction order is
            // checked implicitly by population equality on every step.
            for &r in &model {
                assert!(cache.entries.contains_key(&key(r)), "step {step}: {r} missing");
            }
        }
        assert!(model_evictions > 100, "churn actually evicted ({model_evictions})");
    }
}
