//! One run of one workload: set-up, the three measured segments, the
//! oracle, and — traced — the sampler and the layer replay.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idea::adm::{json, Value};
use idea::prelude::*;

use crate::engine::{load, verify_drain, Counters, LIVE_FEED};
use crate::inputs::{self, QueryMix, Reference};
use crate::segments::{client, live, ClientOut};
use crate::spec::unit_of;
use crate::stats::{mean, median, percentile};
use crate::trace::{replay, Sample, Sampler};
use crate::workloads::{Workload, LIVE_RATE, SERVICE_KEYS, TIMED_PASSES};

/// The generator ran too late for its latencies to mean anything.
const LATE_LIMIT_MS: f64 = 50.0;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, unit: unit_of(name), value }
}

pub struct RunOut {
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// No oracle mismatch, generator on time, feed kept up.
    pub correct: bool,
    /// Human-readable detail lines, printed under the metrics.
    pub notes: Vec<String>,
}

fn round3(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", parts.join(", "))
}

/// Runs `body` on this thread while one TCP client runs the query mix
/// until `stop` is set, then joins it.
fn beside_client<T>(
    addr: SocketAddr,
    mix: &QueryMix,
    stop: &AtomicBool,
    body: impl FnOnce() -> T,
) -> (T, ClientOut) {
    std::thread::scope(|s| {
        let handle = s.spawn(|| client(addr, mix, stop));
        let out = body();
        (out, handle.join().expect("client thread"))
    })
}

pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool, out_dir: &Path) -> RunOut {
    let wall = Instant::now();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scratch = out_dir.join(format!("scratch.{}.{}", w.name, std::process::id()));
    let drain_records = ((w.drain_records_per_second as f64 * seconds) as u64).max(SERVICE_KEYS);
    let tweets = inputs::tweets(seed, drain_records);
    let mut reference = Reference::new(seed);
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counters = Counters::default();
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let (mut feed_window_s, mut drain_samples) = (0.0, Vec::new());

    // Segment 1: backlog drains, each into a fresh engine. Pass 0 warms
    // the page cache and the allocator and is discarded.
    for pass in 0..=TIMED_PASSES {
        let dir = scratch.join(format!("pass{pass}"));
        let (stage, drain) = load(&dir, &tweets, w.udf, seed, traced);
        let (checked, bad) = verify_drain(&stage, &tweets, &reference);
        attempted += checked;
        failed += bad;
        setups.push(stage.setup_s);
        feed_window_s += drain.wall_s;
        if pass > 0 {
            rates.push(drain.rec_s);
            drain_samples = drain.samples;
        }
        stage.close(&mut counters);
    }

    // The service dataset the live and serve segments work on.
    let service_tweets = &tweets[..SERVICE_KEYS as usize];
    let (mut stage, drain) = load(&scratch.join("service"), service_tweets, w.udf, seed, false);
    feed_window_s += drain.wall_s;
    let (checked, bad) = verify_drain(&stage, service_tweets, &reference);
    attempted += checked;
    failed += bad;
    let mix = QueryMix::new(stage.dataset_name(), service_tweets);
    let t = Instant::now();
    let server =
        Server::start(stage.engine.clone(), ServerConfig::default()).expect("start server");
    stage.setup_s += t.elapsed().as_secs_f64();
    let addr = server.local_addr();

    // Segments 2 and 3: live feed and query mix, overlapped or in turn.
    let live_secs = seconds * w.live_share;
    let serve_secs = seconds * w.serve_share;
    let stop = AtomicBool::new(false);
    let mut serve_samples: Vec<Sample> = Vec::new();
    let (live_out, queries) = if w.mixed {
        beside_client(addr, &mix, &stop, || {
            live(&mut stage, service_tweets, &mut reference, live_secs, true, traced, &stop)
        })
    } else {
        let closed = AtomicBool::new(false);
        let out =
            live(&mut stage, service_tweets, &mut reference, live_secs, false, traced, &closed);
        stage.quiesce();
        let sampler = traced.then(|| {
            let sent = Arc::new(AtomicU64::new(out.sent));
            Sampler::start(stage.engine.clone(), LIVE_FEED, stage.dataset_name(), sent)
        });
        let ((), queries) = beside_client(addr, &mix, &stop, || {
            std::thread::sleep(Duration::from_secs_f64(serve_secs));
            stop.store(true, Ordering::Relaxed);
        });
        serve_samples = sampler.map(Sampler::stop).unwrap_or_default();
        (out, queries)
    };
    feed_window_s += live_out.window_s;
    attempted += live_out.sent + live_out.probes;
    failed += live_out.wrong + live_out.probes_lost;
    let rounds = &queries.round_ms;
    attempted += queries.queries;
    failed += queries.failed;

    // Traced: the single-threaded layer replay on the same engine.
    let replayed = traced.then(|| replay(&stage, &server, &mix));
    server.shutdown();
    setups.push(stage.setup_s);
    stage.close(&mut counters);
    let _ = std::fs::remove_dir(&scratch);

    let late_p95 = percentile(&live_out.late_ms, 0.95);
    let on_time = late_p95 <= LATE_LIMIT_MS;
    let sustained = live_out.backlog_end <= LIVE_RATE;
    let ingest_rec_s = median(&rates);
    let end_to_end = vec![
        metric("ingest_rec_s", ingest_rec_s),
        metric("fresh_p50_ms", percentile(&live_out.fresh_ms, 0.50)),
        metric("fresh_p95_ms", percentile(&live_out.fresh_ms, 0.95)),
        metric("qmix_p50_ms", percentile(rounds, 0.50)),
        metric("qmix_p90_ms", percentile(rounds, 0.90)),
        metric("setup_s", median(&setups)),
    ];
    notes.push(format!(
        "drain: {drain_records} records x {TIMED_PASSES} timed passes, rec/s samples {}",
        round3(&rates)
    ));
    notes.push(format!(
        "live: {} records at {LIVE_RATE}/s over {live_secs:.1} s, {} freshness samples, {} lost",
        live_out.sent,
        live_out.fresh_ms.len(),
        live_out.probes_lost
    ));
    notes.push(format!(
        "gen_late_p95_ms {late_p95:.3} ms ({}), backlog_end_records {} ({})",
        if on_time { "valid" } else { "INVALID: generator ran late" },
        live_out.backlog_end,
        if sustained { "sustained" } else { "UNSUSTAINED: over one second of input" }
    ));
    notes.push(format!(
        "qmix: {} rounds from one client over {:.1} s{}",
        rounds.len(),
        if w.mixed { live_secs } else { serve_secs },
        if w.mixed { ", beside the live feed" } else { ", dataset flushed and merged" }
    ));
    notes.push(format!("setup_s samples {}", round3(&setups)));

    let mut per_layer = Vec::new();
    if let Some((tracer, r)) = replayed {
        let stored = counters.stored.max(1.0);
        let depth = |s: &[Sample]| s.iter().map(|x| x.queue_depth).fold(0.0, f64::max);
        let components = if w.mixed { &live_out.samples } else { &serve_samples };
        let lookups = counters.cache_hits + counters.cache_misses;
        let wall_us = 1e6 / ingest_rec_s;
        let unattributed = cores as f64 * wall_us - r.ingest_us_per_rec();
        per_layer = vec![
            metric("connect_read_us_per_rec", r.connect_read_us_per_rec),
            metric(
                "connect_lag_records",
                mean(&live_out.samples.iter().map(|s| s.lag_records).collect::<Vec<_>>()),
            ),
            metric("adm_parse_us_per_rec", r.adm_parse_us_per_rec),
            metric("hyracks_holder_us_per_rec", r.hyracks_holder_us_per_rec),
            metric("hyracks_blocked_pushes", counters.blocked_pushes),
            metric("hyracks_queue_depth_max", depth(&drain_samples).max(depth(&live_out.samples))),
            metric("core_jobs", counters.jobs),
            metric("core_batch_period_ms", live_out.window_s * 1e3 / live_out.jobs.max(1) as f64),
            metric("core_unattributed_us_per_rec", unattributed),
            metric("query_udf_us_per_rec", r.query_udf_us_per_rec),
            metric("query_udf_build_us_per_batch", r.query_udf_build_us_per_batch),
            metric("storage_upsert_us_per_rec", r.storage_upsert_us_per_rec),
            metric("storage_stall_share", counters.stall_nanos / (feed_window_s * 1e9) * 100.0),
            metric("storage_write_amp", counters.bytes_written / counters.bytes_ingested.max(1.0)),
            metric("storage_flushes", counters.flushes),
            metric("storage_merges", counters.merges),
            metric("wal_bytes_per_rec", counters.wal_bytes / stored),
            metric("storage_scan_us_per_rec", r.storage_scan_us_per_rec),
            metric(
                "storage_components_at_query",
                mean(&components.iter().map(|s| s.components).collect::<Vec<_>>()),
            ),
            metric(
                "storage_cache_hit_ratio",
                if lookups > 0.0 { counters.cache_hits / lookups } else { 0.0 },
            ),
            metric("serve_overhead_ms", r.serve_overhead_ms),
            metric("serve_frame_us_per_row", r.serve_frame_us_per_row),
            metric("serve_shed", counters.shed),
            metric("query_exec_ms.count", r.query_exec_ms[0]),
            metric("query_exec_ms.group", r.query_exec_ms[1]),
            metric("query_exec_ms.range", r.query_exec_ms[2]),
        ];

        notes.push(format!("layer replay: {} records, us/rec by layer", r.records));
        for (layer, us) in [
            ("connect", r.connect_read_us_per_rec),
            ("adm", r.adm_parse_us_per_rec),
            ("hyracks", r.hyracks_holder_us_per_rec),
            ("query", r.query_udf_us_per_rec),
            ("storage", r.storage_upsert_us_per_rec),
            ("sum of layers", r.ingest_us_per_rec()),
            ("1e6 / ingest_rec_s", wall_us),
        ] {
            notes.push(format!("  {layer:<20} {us:>9.3}"));
        }
        notes.push(format!(
            "  cores {cores}: {cores} x {wall_us:.3} - {:.3} = core_unattributed_us_per_rec {unattributed:.3}",
            r.ingest_us_per_rec()
        ));
        let self_us = tracer.self_us_by_layer();
        notes.push(format!(
            "span self time by layer, us: {}",
            self_us
                .iter()
                .map(|(l, us)| format!("{l} {us:.0}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));

        let samples = |s: &[Sample]| {
            Value::Array(
                s.iter()
                    .map(|x| {
                        Value::object([
                            ("at_ms", Value::Double(x.at_ms)),
                            ("lag_records", Value::Double(x.lag_records)),
                            ("queue_depth", Value::Double(x.queue_depth)),
                            ("components", Value::Double(x.components)),
                        ])
                    })
                    .collect(),
            )
        };
        let doc = Value::object([
            ("workload", Value::str(w.name)),
            ("seed", Value::Int(seed as i64)),
            ("seconds", Value::Double(seconds)),
            (
                "self_us_by_layer",
                Value::object(self_us.into_iter().map(|(l, us)| (l, Value::Double(us)))),
            ),
            ("samples_last_drain", samples(&drain_samples)),
            ("samples_live", samples(&live_out.samples)),
            ("samples_serve", samples(&serve_samples)),
            ("spans", tracer.to_value()),
        ]);
        let path = out_dir.join(format!("trace.{}.json", w.name));
        std::fs::write(&path, json::to_string(&doc)).expect("write the trace file");
        notes.push(format!("{} spans written to {}", tracer.spans.len(), path.display()));
    }
    notes.push(format!("nproc {cores}, wall {:.1} s", wall.elapsed().as_secs_f64()));

    RunOut {
        end_to_end,
        per_layer,
        attempted,
        failed: failed.min(attempted),
        correct: failed == 0 && on_time && sustained,
        notes,
    }
}
