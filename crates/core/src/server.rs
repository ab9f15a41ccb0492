//! The shared half of the serve path: [`ServerContext`] wraps one warm
//! context together with what every session shares — the worker pool,
//! admission control, the plan cache, the metrics registry, the event log
//! and the query history.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use qob_cache::{CacheCounters, PlanCache};
use qob_obs::{EventLog, Exposition, MetricsRegistry};

use crate::admission::{AdmissionController, SchedulerConfig};
use crate::context::BenchmarkContext;
use crate::options::SessionOptions;
use crate::session::Session;

pub(crate) struct ServerShared {
    pub(crate) ctx: BenchmarkContext,
    pub(crate) defaults: SessionOptions,
    /// The shared worker pool every statement's morsels execute on.
    pub(crate) exec_pool: Arc<qob_exec::WorkerPool>,
    /// Admission control in front of the execute phase, or `None` when the
    /// concurrency limit is off.
    pub(crate) admission: Option<AdmissionController>,
    pub(crate) queries_served: AtomicU64,
    /// The server-wide plan cache, shared by every session and sized at
    /// [`PlanCache::DEFAULT_CAPACITY`] (the enable switch and fence are
    /// per-session options).
    pub(crate) plan_cache: Mutex<PlanCache>,
    /// The server-wide metrics registry every session records into.
    pub(crate) metrics: MetricsRegistry,
    /// The server-wide structured event log, on exactly when the server's
    /// default `slow_query_ms` is positive.
    pub(crate) events: EventLog,
    /// The server-wide per-fingerprint query history (see
    /// [`qob_obs::QueryHistory`]): every executed statement records here.
    pub(crate) history: qob_obs::QueryHistory,
}

/// The long-lived, shareable wrapper around one warm [`BenchmarkContext`]:
/// every connection gets a [`Session`] cloned from the same underlying
/// context, so plan caches and ground truths are computed once and reused by
/// everyone.
#[derive(Clone)]
pub struct ServerContext {
    pub(crate) shared: Arc<ServerShared>,
}

impl ServerContext {
    /// Wraps a context with default per-session options.
    pub fn new(ctx: BenchmarkContext) -> Self {
        Self::with_defaults(ctx, SessionOptions::default())
    }

    /// Wraps a context with explicit default options for new sessions, a
    /// worker pool of `defaults.threads − 1` workers and unlimited
    /// concurrency — what one-shot runs use.
    pub fn with_defaults(ctx: BenchmarkContext, defaults: SessionOptions) -> Self {
        Self::with_scheduler(ctx, defaults, SchedulerConfig::default())
    }

    /// Wraps a context with explicit session defaults *and* a server-wide
    /// scheduler: the shared worker pool every statement's morsels execute
    /// on (`scheduler.workers` workers, or `defaults.threads − 1` when that
    /// is `0`), and admission control (`scheduler.max_concurrent > 0`) in
    /// front of the execute phase.
    pub fn with_scheduler(
        ctx: BenchmarkContext,
        defaults: SessionOptions,
        scheduler: SchedulerConfig,
    ) -> Self {
        let events = EventLog::new();
        events.set_enabled(defaults.slow_query_ms > 0);
        let workers = match scheduler.workers {
            0 => defaults.threads.max(1) - 1,
            n => n,
        };
        let exec_pool = Arc::new(qob_exec::WorkerPool::new(workers));
        let admission = (scheduler.max_concurrent > 0)
            .then(|| AdmissionController::new(scheduler.max_concurrent, scheduler.max_queued));
        ServerContext {
            shared: Arc::new(ServerShared {
                ctx,
                defaults,
                exec_pool,
                admission,
                queries_served: AtomicU64::new(0),
                plan_cache: Mutex::new(PlanCache::new(PlanCache::DEFAULT_CAPACITY)),
                metrics: MetricsRegistry::new(),
                events,
                history: qob_obs::QueryHistory::new(),
            }),
        }
    }

    /// Shared-pool gauges `(workers, busy, queued_tasks)`.
    pub fn pool_gauges(&self) -> (usize, usize, usize) {
        let pool = &self.shared.exec_pool;
        (pool.workers(), pool.busy(), pool.queued())
    }

    /// Admission gauges `(executing, queued)`, both zero when the
    /// concurrency limit is off.
    pub fn admission_gauges(&self) -> (usize, usize) {
        match &self.shared.admission {
            Some(ctl) => ctl.gauges(),
            None => (0, 0),
        }
    }

    /// The shared warm context.
    pub fn context(&self) -> &BenchmarkContext {
        &self.shared.ctx
    }

    /// Opens a new session with the server's default options.
    pub fn session(&self) -> Session {
        Session {
            server: self.clone(),
            options: self.shared.defaults.clone(),
            prepared: HashMap::new(),
        }
    }

    /// Total statements answered across all sessions since start.
    pub fn queries_served(&self) -> u64 {
        self.shared.queries_served.load(Ordering::Relaxed)
    }

    /// Total adaptive re-planning rounds fired across all sessions.
    pub fn replans_total(&self) -> u64 {
        self.shared.metrics.replans_total.get()
    }

    /// The shared plan cache's lifetime event counters.
    pub fn plan_cache_counters(&self) -> CacheCounters {
        self.shared.plan_cache.lock().counters()
    }

    /// Number of fingerprints currently cached server-wide.
    pub fn plan_cache_len(&self) -> usize {
        self.shared.plan_cache.lock().len()
    }

    /// The shared plan cache's fingerprint capacity.
    pub fn plan_cache_capacity(&self) -> usize {
        self.shared.plan_cache.lock().capacity()
    }

    /// The server-wide runtime metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.shared.metrics
    }

    /// The server-wide structured event log.
    pub fn events(&self) -> &EventLog {
        &self.shared.events
    }

    /// The server-wide per-fingerprint query history.
    pub fn history(&self) -> &qob_obs::QueryHistory {
        &self.shared.history
    }

    /// Per-worker busy/idle/steal accumulators of the shared execution
    /// pool, one entry per worker.
    pub fn worker_timelines(&self) -> Vec<qob_exec::WorkerTimelineSnapshot> {
        self.shared.exec_pool.timelines()
    }

    /// The shared pool's retained pipeline spans (most recent
    /// [`qob_exec::SPAN_RING_CAPACITY`] participant stints), oldest first.
    pub fn pipeline_spans(&self) -> Vec<qob_exec::PipelineSpan> {
        self.shared.exec_pool.spans()
    }

    /// Renders the full Prometheus text exposition: the registry's counters
    /// and latency histograms, plus the plan-cache event counters and a few
    /// server gauges.  The body round-trips through
    /// [`qob_obs::validate_exposition`].
    pub fn metrics_exposition(&self) -> String {
        let mut ex = Exposition::new();
        self.shared.metrics.render(&mut ex);
        let c = self.plan_cache_counters();
        for (name, help, value) in [
            ("qob_plan_cache_hits_total", "Cached plans reused past the fence", c.hits),
            ("qob_plan_cache_misses_total", "Fingerprints optimized cold", c.misses),
            (
                "qob_plan_cache_fence_rejections_total",
                "Cached plans rejected by the cardinality fence",
                c.fence_rejections,
            ),
            (
                "qob_plan_cache_evictions_total",
                "Fingerprints evicted by capacity pressure",
                c.evictions,
            ),
            ("qob_plan_cache_installs_total", "Plans installed into the cache", c.installs),
        ] {
            ex.counter(name, help, value);
        }
        let (workers, busy, queued_tasks) = self.pool_gauges();
        let (executing, queued) = self.admission_gauges();
        for (name, help, value) in [
            ("qob_plan_cache_entries", "Fingerprints currently cached", self.plan_cache_len()),
            (
                "qob_plan_cache_capacity",
                "Fingerprint capacity of the shared plan cache",
                self.plan_cache_capacity(),
            ),
            (
                "qob_truth_cache_entries",
                "Queries with cached ground-truth cardinalities",
                self.shared.ctx.truth_cache_len(),
            ),
            ("qob_pool_workers", "Worker threads in the shared execution pool", workers),
            ("qob_pool_busy", "Shared-pool workers currently running morsels", busy),
            ("qob_pool_queue_depth", "Tasks waiting in the shared-pool queue", queued_tasks),
            ("qob_admission_executing", "Statements holding an execution slot", executing),
            ("qob_admission_queued", "Statements waiting for an execution slot", queued),
        ] {
            ex.gauge(name, help, value as u64);
        }
        let sizes = self.shared.ctx.storage_sizes();
        let encoded: usize = sizes.iter().map(|t| t.encoded_bytes).sum();
        let plain: usize = sizes.iter().map(|t| t.plain_bytes).sum();
        // One labelled sample per table; Prometheus sums the series back
        // into the old unlabelled totals (`sum(qob_storage_encoded_bytes)`).
        for table in &sizes {
            ex.gauge_with(
                "qob_storage_encoded_bytes",
                "Encoded column-page bytes, per table",
                &[("table", &table.table)],
                table.encoded_bytes as u64,
            );
        }
        for table in &sizes {
            ex.gauge_with(
                "qob_storage_plain_bytes",
                "Bytes the same columns would occupy un-encoded, per table",
                &[("table", &table.table)],
                table.plain_bytes as u64,
            );
        }
        let ratio_x100 =
            if encoded == 0 { 100 } else { (plain as f64 / encoded as f64 * 100.0) as u64 };
        ex.gauge(
            "qob_storage_compression_ratio_x100",
            "plain_bytes / encoded_bytes, times 100",
            ratio_x100,
        );
        ex.finish()
    }
}
