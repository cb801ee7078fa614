//! Feed metrics: throughput and refresh periods (the quantities
//! Figures 24–31 report).
//!
//! Since the observability rework these are *views over the metrics
//! registry*: every counter a `FeedMetrics` exposes is a registry
//! instrument under `feed/<name>/...`, so the same numbers that drive
//! [`IngestionReport`] appear in registry snapshots (and, via
//! `Snapshot::to_adm`, in SQL++). Pipeline operators keep their cheap
//! one-atomic-op recording path: the handles are resolved once at feed
//! start.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idea_obs::{Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry, MetricsScope};
use parking_lot::Mutex;

/// Live per-feed instruments updated by pipeline operators. All handles
/// point into a [`MetricsRegistry`]; see [`FeedMetrics::in_scope`] for
/// the naming scheme.
#[derive(Debug)]
pub struct FeedMetrics {
    /// Raw records pulled in by adapters (`intake/records`).
    pub records_ingested: Arc<Counter>,
    /// Malformed or type-invalid records dropped (`parse/errors`).
    pub parse_errors: Arc<Counter>,
    /// Records dropped because the attached UDF failed on them (the feed
    /// keeps running — a poison record must not kill the pipeline)
    /// (`enrich/errors`).
    pub enrich_errors: Arc<Counter>,
    /// Records that passed UDF evaluation (`enrich/records`).
    pub records_enriched: Arc<Counter>,
    /// Records persisted by the storage job (`store/records`).
    pub records_stored: Arc<Counter>,
    /// CDC tombstones applied as primary-key deletes (`store/deletes`).
    pub records_deleted: Arc<Counter>,
    /// Latest event-time watermark (millis) announced by any source
    /// partition (`intake/watermark_ms`).
    pub watermark_ms: Arc<Gauge>,
    /// Computing-job invocations (`computing/jobs`).
    pub computing_jobs: Arc<Counter>,
    /// Records acknowledged as durably upserted (`store/acked`); drives
    /// the checkpoint quiescence check.
    pub storage_acked: Arc<Counter>,
    /// Records captured in the dead-letter dataset (`faults/dead_letters`).
    pub dead_letters: Arc<Counter>,
    /// Per-record retry attempts across all stages (`faults/retries`).
    pub retries: Arc<Counter>,
    /// Whole-feed restarts by the supervisor (`faults/restarts`).
    pub restarts: Arc<Counter>,
    /// Committed ingestion checkpoints (`faults/checkpoints`).
    pub checkpoints: Arc<Counter>,
    /// Per-batch computing-job latency (`batch_latency`).
    batch_latency: Arc<Histogram>,
    timing: Mutex<Timing>,
}

#[derive(Debug, Default)]
struct Timing {
    started: Option<Instant>,
    finished: Option<Instant>,
}

impl FeedMetrics {
    /// Registers this feed's instruments under `scope` (normally
    /// `feed/<name>`) and returns handles bound to them.
    pub fn in_scope(scope: &MetricsScope) -> FeedMetrics {
        FeedMetrics {
            records_ingested: scope.counter("intake/records"),
            parse_errors: scope.counter("parse/errors"),
            enrich_errors: scope.counter("enrich/errors"),
            records_enriched: scope.counter("enrich/records"),
            records_stored: scope.counter("store/records"),
            records_deleted: scope.counter("store/deletes"),
            watermark_ms: scope.gauge("intake/watermark_ms"),
            computing_jobs: scope.counter("computing/jobs"),
            storage_acked: scope.counter("store/acked"),
            dead_letters: scope.counter("faults/dead_letters"),
            retries: scope.counter("faults/retries"),
            restarts: scope.counter("faults/restarts"),
            checkpoints: scope.counter("faults/checkpoints"),
            batch_latency: scope.histogram("batch_latency"),
            timing: Mutex::new(Timing::default()),
        }
    }

    /// Standalone metrics backed by a private throwaway registry — for
    /// unit tests and detached use.
    pub fn detached() -> FeedMetrics {
        FeedMetrics::in_scope(&MetricsRegistry::new().scope("feed/detached"))
    }

    pub fn mark_started(&self) {
        self.timing.lock().started.get_or_insert_with(Instant::now);
    }

    pub fn mark_finished(&self) {
        self.timing.lock().finished = Some(Instant::now());
    }

    pub fn record_batch(&self, took: Duration) {
        self.computing_jobs.inc();
        self.batch_latency.record(took);
    }

    /// Builds the final report.
    pub fn report(&self) -> IngestionReport {
        let timing = self.timing.lock();
        let elapsed = match (timing.started, timing.finished) {
            (Some(s), Some(f)) => f - s,
            (Some(s), None) => s.elapsed(),
            _ => Duration::ZERO,
        };
        let stored = self.records_stored.get();
        let batch_latency = self.batch_latency.summarize();
        IngestionReport {
            records_ingested: self.records_ingested.get(),
            parse_errors: self.parse_errors.get(),
            enrich_errors: self.enrich_errors.get(),
            records_enriched: self.records_enriched.get(),
            records_stored: stored,
            records_deleted: self.records_deleted.get(),
            computing_jobs: self.computing_jobs.get(),
            dead_letters: self.dead_letters.get(),
            retries: self.retries.get(),
            restarts: self.restarts.get(),
            checkpoints: self.checkpoints.get(),
            elapsed,
            throughput: if elapsed.is_zero() { 0.0 } else { stored as f64 / elapsed.as_secs_f64() },
            avg_refresh_period: batch_latency.mean(),
            batch_latency,
        }
    }
}

impl Default for FeedMetrics {
    fn default() -> Self {
        FeedMetrics::detached()
    }
}

/// Final summary of one feed run.
#[derive(Debug, Clone)]
pub struct IngestionReport {
    /// Raw records pulled in by adapters.
    pub records_ingested: u64,
    /// Records dropped as malformed JSON (or failing type validation).
    pub parse_errors: u64,
    /// Records dropped because the UDF failed on them.
    pub enrich_errors: u64,
    /// Records that passed UDF evaluation.
    pub records_enriched: u64,
    /// Records persisted by the storage job.
    pub records_stored: u64,
    /// CDC tombstones applied as primary-key deletes.
    pub records_deleted: u64,
    /// Computing-job invocations (0 for static pipelines).
    pub computing_jobs: u64,
    /// Records captured in the dead-letter dataset.
    pub dead_letters: u64,
    /// Per-record retry attempts across all stages.
    pub retries: u64,
    /// Whole-feed restarts performed by the supervisor.
    pub restarts: u64,
    /// Ingestion checkpoints committed.
    pub checkpoints: u64,
    pub elapsed: Duration,
    /// Stored records per second.
    pub throughput: f64,
    /// Mean computing-job execution time — the paper's "refresh period"
    /// (Figure 26).
    pub avg_refresh_period: Duration,
    /// Distribution of computing-job execution times, from the feed's
    /// `batch_latency` histogram (bounded memory however many jobs run;
    /// quantiles are bucket upper bounds).
    pub batch_latency: HistogramSummary,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_aggregates() {
        let m = FeedMetrics::default();
        m.mark_started();
        m.records_stored.add(100);
        m.record_batch(Duration::from_millis(10));
        m.record_batch(Duration::from_millis(30));
        m.mark_finished();
        let r = m.report();
        assert_eq!(r.records_stored, 100);
        assert_eq!(r.computing_jobs, 2);
        assert_eq!(r.avg_refresh_period, Duration::from_millis(20));
        assert!(r.throughput > 0.0);
        assert_eq!(r.batch_latency.count, 2);
        assert_eq!(r.batch_latency.max(), Duration::from_millis(30));
    }

    #[test]
    fn counters_surface_in_registry_snapshot() {
        let registry = MetricsRegistry::new();
        let m = FeedMetrics::in_scope(&registry.scope("feed/t"));
        m.records_ingested.add(7);
        m.record_batch(Duration::from_millis(5));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("feed/t/intake/records"), Some(7));
        assert_eq!(snap.histogram("feed/t/batch_latency").unwrap().count, 1);
    }
}
