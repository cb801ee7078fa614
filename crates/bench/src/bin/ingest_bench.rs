//! `scripts/bench.sh` entry point: measures the execution-model change
//! (resident task pool vs spawn-per-run) and writes `BENCH_ingest.json`.
//!
//! Two sections:
//!
//! 1. **Invoke overhead** — the same two-stage job invoked repeatedly
//!    as a predeployed (pooled) job and as spawn-per-run `run_job`,
//!    reporting mean / p50 / p99 latency per invocation and the
//!    pooled-vs-spawned speedup (the PR's ≥2× acceptance bar).
//! 2. **Ingestion** — a fixed-seed end-to-end enrichment run in both
//!    predeployed and spawn-per-run modes, reporting records/sec and
//!    the per-batch invoke latency p50 / p99.
//!
//! `--smoke` (or `IDEA_BENCH_SMOKE=1`) shrinks iteration counts and the
//! tweet stream so CI can run the whole thing in seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idea_adm::Value;
use idea_bench::EnrichmentRun;
use idea_hyracks::operator::{FnOperator, FnSource};
use idea_hyracks::{
    run_job, Cluster, ConnectorSpec, Frame, FrameSink, JobSpec, Operator, TaskContext,
};
use idea_workload::WorkloadScale;

/// Same shape as the `invoke_overhead` criterion bench: source →
/// round-robin → counting sink.
fn emit_count_spec(records: usize, counter: Arc<AtomicU64>) -> JobSpec {
    JobSpec::new("invoke-overhead")
        .stage(
            "emit",
            ConnectorSpec::RoundRobin,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(FnSource(move |sink: &mut dyn FrameSink, _ctx: &mut TaskContext| {
                    sink.push(Frame::from_records((0..records as i64).map(Value::Int).collect()))
                })) as Box<dyn Operator>
            }),
        )
        .stage(
            "count",
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                let counter = counter.clone();
                Box::new(FnOperator(
                    move |f: Frame, _sink: &mut dyn FrameSink, _ctx: &mut TaskContext| {
                        counter.fetch_add(f.len() as u64, Ordering::Relaxed);
                        Ok(())
                    },
                )) as Box<dyn Operator>
            }),
        )
}

#[derive(Debug)]
struct LatencyStats {
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn stats(samples: &[Duration]) -> LatencyStats {
    let mut us: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = us.iter().sum::<f64>() / us.len().max(1) as f64;
    LatencyStats { mean_us: mean, p50_us: percentile(&us, 0.50), p99_us: percentile(&us, 0.99) }
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 * q).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

struct InvokeOverhead {
    iterations: usize,
    tasks: usize,
    pooled: LatencyStats,
    spawned: LatencyStats,
    speedup: f64,
}

/// Times `iterations` warm invocations of the same job through the
/// resident pool and through spawn-per-run.
fn measure_invoke_overhead(iterations: usize) -> InvokeOverhead {
    const NODES: usize = 4;
    const RECORDS: usize = 64;
    let warmup = (iterations / 10).max(3);

    let cluster = Cluster::with_nodes(NODES);
    let counter = Arc::new(AtomicU64::new(0));
    let id = cluster.deploy_job(emit_count_spec(RECORDS, counter.clone()));
    let mut pooled = Vec::with_capacity(iterations);
    for i in 0..warmup + iterations {
        let t = Instant::now();
        cluster.invoke_deployed(id, Value::Missing).unwrap().join().unwrap();
        if i >= warmup {
            pooled.push(t.elapsed());
        }
    }

    let spec = emit_count_spec(RECORDS, counter);
    let mut spawned = Vec::with_capacity(iterations);
    for i in 0..warmup + iterations {
        let t = Instant::now();
        run_job(&cluster, &spec, Value::Missing).unwrap().join().unwrap();
        if i >= warmup {
            spawned.push(t.elapsed());
        }
    }

    let pooled = stats(&pooled);
    let spawned = stats(&spawned);
    let speedup = spawned.mean_us / pooled.mean_us;
    InvokeOverhead { iterations, tasks: NODES * 2, pooled, spawned, speedup }
}

struct UndeployOverhead {
    iterations: usize,
    workers: usize,
    sync: LatencyStats,
    deferred: LatencyStats,
    speedup: f64,
}

/// Times what the feed driver pays to tear a predeployed job down —
/// the synchronous `undeploy_job` (joins every pool worker before
/// returning) against `undeploy_job_deferred` (sends shutdown, hands
/// the joins to a reaper thread). This sits on the feed's timed window
/// once per feed run, so it is the direct measure of the deferred-
/// teardown fix.
fn measure_undeploy(iterations: usize) -> UndeployOverhead {
    const NODES: usize = 6;
    let cluster = Cluster::with_nodes(NODES);
    let counter = Arc::new(AtomicU64::new(0));
    let mut sync = Vec::with_capacity(iterations);
    let mut deferred = Vec::with_capacity(iterations);
    let mut workers = 0;
    for _ in 0..iterations {
        let id = cluster.deploy_job(emit_count_spec(16, counter.clone()));
        workers = cluster.deployed_jobs().resident_workers();
        cluster.invoke_deployed(id, Value::Missing).unwrap().join().unwrap();
        let t = Instant::now();
        cluster.undeploy_job(id);
        sync.push(t.elapsed());

        let id = cluster.deploy_job(emit_count_spec(16, counter.clone()));
        cluster.invoke_deployed(id, Value::Missing).unwrap().join().unwrap();
        let t = Instant::now();
        cluster.undeploy_job_deferred(id);
        deferred.push(t.elapsed());
        // Wait for the reaper so the next deploy's spawns don't contend
        // with exiting workers (that interference is real, but it would
        // land in the *deploy* sample, muddying both columns).
        while cluster.deployed_jobs().resident_workers() > 0 {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let sync = stats(&sync);
    let deferred = stats(&deferred);
    let speedup = sync.mean_us / deferred.mean_us;
    UndeployOverhead { iterations, workers, sync, deferred, speedup }
}

struct IngestResult {
    mode: &'static str,
    tweets: u64,
    records_stored: u64,
    elapsed_ms: f64,
    records_per_sec: f64,
    computing_jobs: u64,
    batch: LatencyStats,
    /// Per-repeat throughput, ascending — the reported run is the
    /// median of these.
    samples_rps: Vec<f64>,
}

/// Fixed-seed end-to-end ingestion (no UDF, decoupled pipeline); the
/// per-batch durations are the computing job's invoke latencies.
///
fn run_ingestion_once(tweets: u64, predeploy: bool) -> IngestResult {
    let mut run = EnrichmentRun::new(None, tweets, WorkloadScale::scaled(0.01));
    run.predeploy = predeploy;
    // Cut batches so the run spans ~12 computing-job invocations —
    // enough samples for the p50/p99 invoke-latency columns.
    run.batch_size = (tweets / (run.nodes as u64 * 12)).max(16);
    let report = idea_bench::run_enrichment(&run);
    IngestResult {
        mode: if predeploy { "predeployed" } else { "spawn_per_run" },
        tweets,
        records_stored: report.records_stored,
        elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
        records_per_sec: report.throughput,
        computing_jobs: report.computing_jobs,
        // Histogram quantiles are bucket upper bounds: up to 2x high.
        batch: LatencyStats {
            mean_us: report.batch_latency.mean().as_secs_f64() * 1e6,
            p50_us: report.batch_latency.p50().as_secs_f64() * 1e6,
            p99_us: report.batch_latency.p99().as_secs_f64() * 1e6,
        },
        samples_rps: Vec::new(),
    }
}

fn median_run(mut results: Vec<IngestResult>) -> IngestResult {
    results.sort_by(|a, b| a.records_per_sec.partial_cmp(&b.records_per_sec).unwrap());
    let samples: Vec<f64> = results.iter().map(|r| r.records_per_sec).collect();
    let mut median = results.swap_remove(results.len() / 2);
    median.samples_rps = samples;
    median
}

/// One end-to-end run is a single wall-clock sample and each run stands
/// up a fresh engine (dozens of thread spawns), so scheduler noise on a
/// small host easily swamps a ~15% effect. Run `repeats` times per mode
/// — *interleaved*, so slow host drift lands on both modes equally —
/// and report the median-throughput run of each, with every sample in
/// the JSON.
fn measure_ingestion(tweets: u64, repeats: usize) -> (IngestResult, IngestResult) {
    let mut pooled = Vec::with_capacity(repeats);
    let mut spawned = Vec::with_capacity(repeats);
    for _ in 0..repeats.max(1) {
        pooled.push(run_ingestion_once(tweets, true));
        spawned.push(run_ingestion_once(tweets, false));
    }
    (median_run(pooled), median_run(spawned))
}

struct LogfileResult {
    mode: &'static str,
    records: u64,
    records_per_sec: f64,
    elapsed_ms: f64,
    checkpoints: u64,
    samples_rps: Vec<f64>,
}

/// One bounded feed run to EOF: either the offset-aware logfile
/// connector (with or without interval offset commits) or the
/// in-memory `GeneratorSource` as the no-source-I/O baseline.
fn run_logfile_once(
    records: u64,
    mode: &'static str,
    log_root: Option<&std::path::Path>,
    checkpoint_interval: Option<u64>,
) -> LogfileResult {
    use idea_core::{FeedSpec, GeneratorSource, IngestionEngine, SourceFactory};
    use idea_query::SessionConfig;

    const NODES: usize = 2;
    let engine = IngestionEngine::with_nodes(NODES);
    engine
        .new_session(SessionConfig::new())
        .run_script(
            r#"
            CREATE TYPE EventType AS OPEN { id: int64 };
            CREATE DATASET Events(EventType) PRIMARY KEY id;
            "#,
        )
        .expect("DDL");
    let source = match log_root {
        Some(root) => SourceFactory::logfile(root),
        None => {
            let per_part = records / NODES as u64;
            SourceFactory::new(move |partition, _partitions| {
                let base = (partition as u64) * per_part;
                Ok(GeneratorSource::new(per_part, move |i| format!(r#"{{"id": {}}}"#, base + i)))
            })
        }
    };
    let mut spec = FeedSpec::new("bench", "Events", source)
        .with_batch_size(64)
        .with_intake_nodes((0..NODES).collect());
    spec.supervision.checkpoint_interval = checkpoint_interval;
    let report = engine.start_feed(spec).expect("start").wait().expect("run");
    LogfileResult {
        mode,
        records: report.records_ingested,
        records_per_sec: report.throughput,
        elapsed_ms: report.elapsed.as_secs_f64() * 1e3,
        checkpoints: report.checkpoints,
        samples_rps: Vec::new(),
    }
}

/// The connector section: logfile source with offset commits off and
/// on (the commit overhead is the pause→drain→commit→resume cycle per
/// interval), against the `GeneratorSource` baseline — interleaved
/// repeats, median reported, like the ingestion section.
fn measure_logfile(records: u64, repeats: usize) -> Vec<LogfileResult> {
    let tmp = idea_storage::TempDir::new("ingest-bench-log");
    let root = tmp.path().join("log");
    let mut log = idea_core::PartitionedLog::create(&root, 2).expect("create log");
    for i in 0..records {
        log.append((i % 2) as usize, &format!(r#"{{"id": {i}}}"#)).expect("append");
    }
    log.seal().expect("seal");

    let mut runs: [Vec<LogfileResult>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..repeats.max(1) {
        runs[0].push(run_logfile_once(records, "logfile_commit_off", Some(&root), None));
        runs[1].push(run_logfile_once(records, "logfile_commit_on", Some(&root), Some(8)));
        runs[2].push(run_logfile_once(records, "generator_baseline", None, None));
    }
    runs.into_iter()
        .map(|mut rs| {
            rs.sort_by(|a, b| a.records_per_sec.partial_cmp(&b.records_per_sec).unwrap());
            let samples: Vec<f64> = rs.iter().map(|r| r.records_per_sec).collect();
            let mut median = rs.swap_remove(rs.len() / 2);
            median.samples_rps = samples;
            median
        })
        .collect()
}

fn json_logfile(r: &LogfileResult) -> String {
    format!(
        concat!(
            "{{\"mode\": \"{}\", \"records\": {}, \"records_per_sec\": {:.1}, ",
            "\"elapsed_ms\": {:.2}, \"checkpoints\": {}, \"throughput_samples\": [{}]}}"
        ),
        r.mode,
        r.records,
        r.records_per_sec,
        r.elapsed_ms,
        r.checkpoints,
        r.samples_rps.iter().map(|s| format!("{s:.1}")).collect::<Vec<_>>().join(", ")
    )
}

fn json_latency(s: &LatencyStats) -> String {
    format!(
        "{{\"mean_us\": {:.2}, \"p50_us\": {:.2}, \"p99_us\": {:.2}}}",
        s.mean_us, s.p50_us, s.p99_us
    )
}

fn json_ingest(r: &IngestResult) -> String {
    format!(
        concat!(
            "{{\"mode\": \"{}\", \"tweets\": {}, \"records_stored\": {}, ",
            "\"elapsed_ms\": {:.2}, \"records_per_sec\": {:.1}, ",
            "\"computing_jobs\": {}, \"invoke_latency\": {}, ",
            "\"throughput_samples\": [{}]}}"
        ),
        r.mode,
        r.tweets,
        r.records_stored,
        r.elapsed_ms,
        r.records_per_sec,
        r.computing_jobs,
        json_latency(&r.batch),
        r.samples_rps.iter().map(|s| format!("{s:.1}")).collect::<Vec<_>>().join(", ")
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke")
        || std::env::var("IDEA_BENCH_SMOKE").map(|v| v == "1").unwrap_or(false);
    let (iterations, tweets, repeats) = if smoke { (50, 1_200, 2) } else { (300, 10_000, 7) };

    eprintln!("== invoke overhead ({iterations} iterations) ==");
    let overhead = measure_invoke_overhead(iterations);
    eprintln!(
        "pooled   mean {:.1}us  p50 {:.1}us  p99 {:.1}us",
        overhead.pooled.mean_us, overhead.pooled.p50_us, overhead.pooled.p99_us
    );
    eprintln!(
        "spawned  mean {:.1}us  p50 {:.1}us  p99 {:.1}us",
        overhead.spawned.mean_us, overhead.spawned.p50_us, overhead.spawned.p99_us
    );
    eprintln!("speedup  {:.2}x", overhead.speedup);

    eprintln!("== undeploy overhead ({} iterations) ==", iterations / 10);
    let undeploy = measure_undeploy(iterations / 10);
    eprintln!(
        "sync     mean {:.1}us  p50 {:.1}us  p99 {:.1}us  ({} workers joined inline)",
        undeploy.sync.mean_us, undeploy.sync.p50_us, undeploy.sync.p99_us, undeploy.workers
    );
    eprintln!(
        "deferred mean {:.1}us  p50 {:.1}us  p99 {:.1}us  (joins on reaper thread)",
        undeploy.deferred.mean_us, undeploy.deferred.p50_us, undeploy.deferred.p99_us
    );
    eprintln!("speedup  {:.2}x", undeploy.speedup);

    eprintln!("== ingestion ({tweets} tweets, seed 42, interleaved median of {repeats}) ==");
    let (pooled_run, spawned_run) = measure_ingestion(tweets, repeats);
    for r in [&pooled_run, &spawned_run] {
        eprintln!(
            "{:<14} {:>9.1} rec/s  invoke p50 {:.1}us p99 {:.1}us  ({} jobs)",
            r.mode, r.records_per_sec, r.batch.p50_us, r.batch.p99_us, r.computing_jobs
        );
    }

    let log_records = tweets; // same stream size as the ingestion section
    eprintln!("== logfile connector ({log_records} records, interleaved median of {repeats}) ==");
    let logfile_runs = measure_logfile(log_records, repeats);
    for r in &logfile_runs {
        eprintln!(
            "{:<20} {:>9.1} rec/s  ({} checkpoints)",
            r.mode, r.records_per_sec, r.checkpoints
        );
    }

    let out = std::env::args().nth(1).filter(|a| a != "--smoke");
    let path = out.unwrap_or_else(|| "BENCH_ingest.json".to_string());
    let json = format!(
        concat!(
            "{{\n",
            "  \"smoke\": {},\n",
            "  \"invoke_overhead\": {{\n",
            "    \"iterations\": {}, \"tasks\": {},\n",
            "    \"pooled\": {},\n",
            "    \"spawn_per_run\": {},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"undeploy_overhead\": {{\n",
            "    \"iterations\": {}, \"workers\": {},\n",
            "    \"sync\": {},\n",
            "    \"deferred\": {},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"ingestion\": [\n    {},\n    {}\n  ],\n",
            "  \"logfile\": [\n{}\n  ]\n",
            "}}\n"
        ),
        smoke,
        overhead.iterations,
        overhead.tasks,
        json_latency(&overhead.pooled),
        json_latency(&overhead.spawned),
        overhead.speedup,
        undeploy.iterations,
        undeploy.workers,
        json_latency(&undeploy.sync),
        json_latency(&undeploy.deferred),
        undeploy.speedup,
        json_ingest(&pooled_run),
        json_ingest(&spawned_run),
        logfile_runs
            .iter()
            .map(|r| format!("    {}", json_logfile(r)))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    std::fs::write(&path, json).expect("write BENCH_ingest.json");
    eprintln!("wrote {path}");

    // The PR's acceptance bar: predeployed invocation must be at least
    // 2x cheaper than spawn-per-run on the same job.
    assert!(
        overhead.speedup >= 2.0,
        "pooled invoke speedup {:.2}x is below the 2x acceptance bar",
        overhead.speedup
    );
}
