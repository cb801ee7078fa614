//! The observability layer, end to end: after a real feed run the
//! registry snapshot must agree with the `IngestionReport`, expose the
//! holder/storage/hyracks instruments, and render as an ADM value that
//! survives the JSON round trip.

use std::sync::Arc;
use std::time::Duration;

use idea::prelude::*;
use idea::workload::scenarios::{setup_scenario, setup_tweet_datasets};
use idea::workload::{ScenarioKey, TweetGenerator, WorkloadScale};

fn run_feed(nodes: usize, n: u64, batch: usize) -> (Arc<IngestionEngine>, IngestionReport) {
    let engine = IngestionEngine::with_nodes(nodes);
    setup_tweet_datasets(engine.catalog()).unwrap();
    let sc = setup_scenario(engine.catalog(), ScenarioKey::SafetyCheck, &WorkloadScale::tiny(), 7)
        .unwrap();
    let tweets = TweetGenerator::new(5).batch(0, n);
    let spec = FeedSpec::new("obs", "Tweets", SourceFactory::records(tweets))
        .with_function(&sc.function)
        .with_batch_size(batch);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    (engine, report)
}

#[test]
fn snapshot_agrees_with_ingestion_report() {
    let (engine, report) = run_feed(2, 150, 25);
    let snap = engine.metrics().snapshot();

    // The report is a view over the same instruments, so the snapshot
    // must reproduce it exactly.
    assert_eq!(snap.counter("feed/obs/intake/records"), Some(report.records_ingested));
    assert_eq!(snap.counter("feed/obs/parse/errors"), Some(report.parse_errors));
    assert_eq!(snap.counter("feed/obs/enrich/errors"), Some(report.enrich_errors));
    assert_eq!(snap.counter("feed/obs/enrich/records"), Some(report.records_enriched));
    assert_eq!(snap.counter("feed/obs/store/records"), Some(report.records_stored));
    assert_eq!(snap.counter("feed/obs/computing/jobs"), Some(report.computing_jobs));

    // Pipeline accounting: everything ingested is either enriched or
    // dropped, and everything enriched is stored.
    assert_eq!(
        report.records_ingested,
        report.records_enriched + report.enrich_errors + report.parse_errors
    );
    assert_eq!(report.records_stored, report.records_enriched);
    assert_eq!(report.records_stored, 150);

    // One histogram sample per computing-job invocation.
    let h = snap.histogram("feed/obs/batch_latency").expect("batch-latency histogram");
    assert_eq!(h.count, report.computing_jobs);
    assert!(h.max() >= h.p50(), "percentiles are ordered");

    // Hyracks instruments: intake + storage jobs plus one computing job
    // per batch, all tasks finished.
    let jobs = snap.counter("hyracks/jobs_started").expect("jobs counter");
    assert!(jobs >= 2 + report.computing_jobs, "{jobs} jobs");
    assert_eq!(snap.gauge("hyracks/tasks_active"), Some(0), "all tasks exited");
}

#[test]
fn holder_and_storage_instruments_appear() {
    let (engine, _) = run_feed(2, 100, 20);
    let snap = engine.metrics().snapshot();

    // Per-node holder gauges exist and read 0 after the drain.
    for node in 0..2 {
        for side in ["intake", "storage"] {
            let name = format!("feed/obs/holder/{side}/node{node}/queue_depth");
            assert_eq!(snap.gauge(&name), Some(0), "{name}");
        }
    }

    // Storage probes: flush twice with fresh data in between (an empty
    // memtable makes flush a no-op) so each partition gains two
    // components, then merge them back into one.
    let gen = TweetGenerator::new(9);
    let ds = engine.catalog().dataset("Tweets").unwrap();
    for (i, p) in ds.partitions().iter().enumerate() {
        for k in 0..2 {
            let id = 1_000_000 + (2 * i + k) as u64;
            let tweet = idea::adm::json::parse(gen.generate(id).as_bytes()).unwrap();
            p.upsert(tweet).unwrap();
            p.flush();
        }
        p.merge();
    }
    let snap = engine.metrics().snapshot();
    assert!(snap.gauge("storage/Tweets/flushes").unwrap() >= 2 * 2, "two flushes per node");
    assert!(snap.gauge("storage/Tweets/merges").unwrap() >= 2, "one merge per node");
    assert!(snap.gauge("storage/Tweets/components").is_some());
}

#[test]
fn snapshot_renders_as_table_and_round_trips_as_adm() {
    let (engine, _) = run_feed(1, 60, 15);
    let snap = engine.metrics().snapshot();

    let table = snap.to_table();
    assert!(table.contains("feed/obs/intake/records"), "table:\n{table}");
    assert!(table.contains("hyracks/jobs_started"), "table:\n{table}");

    let adm = snap.to_adm();
    let feed = adm.as_object().unwrap().get("feed").unwrap();
    let obs = feed.as_object().unwrap().get("obs").unwrap().as_object().unwrap();
    assert!(obs.get("intake").is_some());
    let text = idea::adm::json::to_string(&adm);
    let back = idea::adm::json::parse(text.as_bytes()).unwrap();
    assert_eq!(back, adm, "snapshot must survive the ADM JSON round trip");
}

#[test]
fn restarted_feed_gets_fresh_counters() {
    let engine = IngestionEngine::with_nodes(1);
    setup_tweet_datasets(engine.catalog()).unwrap();
    let sc = setup_scenario(engine.catalog(), ScenarioKey::SafetyCheck, &WorkloadScale::tiny(), 7)
        .unwrap();
    for _ in 0..2 {
        let tweets = TweetGenerator::new(5).batch(0, 40);
        let spec = FeedSpec::new("again", "Tweets", SourceFactory::records(tweets))
            .with_function(&sc.function)
            .with_batch_size(10);
        engine.start_feed(spec).unwrap().wait().unwrap();
        engine.afm().remove("again");
        // Not cumulative: each run re-registers its scope from zero.
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.counter("feed/again/intake/records"), Some(40));
    }
}

#[test]
fn queue_depth_gauge_tracks_stalled_consumer() {
    use idea::hyracks::{Frame, HolderMode, PartitionHolderManager};

    let registry = MetricsRegistry::new();
    let manager = PartitionHolderManager::new();
    let holder = manager.register("q", HolderMode::Passive, 8).unwrap();
    holder.attach_obs(&registry.scope("holder/q"));

    let depth = || registry.snapshot().gauge("holder/q/queue_depth").unwrap();
    assert_eq!(depth(), 0);

    // A stalled consumer: frames pile up and the gauge rises.
    holder.push_frame(Frame::from_records(vec![Value::Int(1)])).unwrap();
    holder.push_frame(Frame::from_records(vec![Value::Int(2)])).unwrap();
    assert_eq!(depth(), 2);

    // Fill the queue; a further push must block and count as blocked.
    for i in 0..6 {
        holder.push_frame(Frame::from_records(vec![Value::Int(i)])).unwrap();
    }
    let h2 = holder.clone();
    let pusher = std::thread::spawn(move || {
        h2.push_frame(Frame::from_records(vec![Value::Int(99)])).unwrap();
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while registry.snapshot().counter("holder/q/blocked_pushes").unwrap() == 0 {
        assert!(std::time::Instant::now() < deadline, "blocked push never observed");
        std::thread::sleep(Duration::from_millis(1));
    }

    // One pull frees a slot, so the blocked producer completes. Drain
    // fully before EOF — push_eof is a stream message and honours the
    // same back-pressure as frames.
    let mut drained = holder.pull_frame().unwrap().unwrap().len();
    pusher.join().unwrap();
    drained += holder.try_pull_all().len();
    holder.push_eof().unwrap();
    assert!(holder.pull_frame().unwrap().is_none(), "EOF after drain");
    assert_eq!(drained, 9, "2 + 6 queued + 1 blocked frame, 1 record each");
    assert_eq!(depth(), 0);
}

/// The vectorized query path's `query/batch/*` instruments: the batch
/// counter and rows-per-batch histogram record vectorized scans, the
/// fallback counter records row-path demotions, and the plan-cache
/// probe is weak-ref'd (reads 0 once the session drops).
#[test]
fn query_batch_metrics_appear() {
    use idea::obs::names;
    use idea::query::{Catalog, SessionConfig};

    let registry = MetricsRegistry::new();
    let session = SessionConfig::new().build_on(Catalog::new(2), registry.clone());
    session
        .run_script(
            r#"
            CREATE TYPE PType AS OPEN { id: int64 };
            CREATE DATASET Points(PType) PRIMARY KEY id;
            CREATE FUNCTION double_it(x) { x.score * 2 };
            "#,
        )
        .unwrap();
    let points = session.catalog().dataset("Points").unwrap();
    for id in 0..500i64 {
        points
            .insert(Value::object([("id", Value::Int(id)), ("score", Value::Int(id % 7))]))
            .unwrap();
    }

    // Vectorized scan: batches counted, row histogram fed, and the
    // weak-ref probe sees the cached vectorized plan.
    session.query("SELECT VALUE p.id FROM Points p WHERE p.score > 3").unwrap();
    let snap = registry.snapshot();
    let built = snap.counter(names::QUERY_BATCHES_BUILT).expect("batches counter");
    assert!(built > 0, "no batches recorded");
    let rows = snap.histogram(names::QUERY_BATCH_ROWS).expect("rows-per-batch histogram");
    assert_eq!(rows.count, built, "one histogram sample per batch");
    assert_eq!(rows.sum_nanos, 500, "every record flowed through a batch");
    assert!(snap.gauge(names::QUERY_VEC_PLANS).unwrap_or_default() >= 1, "vec-plan probe");

    // A UDF in the projection cannot vectorize: the fallback counter
    // moves, the batch counter does not.
    session.query("SELECT VALUE double_it(p) FROM Points p").unwrap();
    let snap = registry.snapshot();
    assert!(snap.counter(names::QUERY_BATCH_FALLBACKS).unwrap_or_default() >= 1);
    assert_eq!(snap.counter(names::QUERY_BATCHES_BUILT), Some(built), "fallback built batches");

    // Weak ref: dropping the session (and with it the plan cache) must
    // not leave a live probe behind.
    drop(session);
    assert_eq!(registry.snapshot().gauge(names::QUERY_VEC_PLANS), Some(0));
}

/// `query/scan/pk_range` counts every partition scan a primary-key bound
/// seeked, in each executor, and mirrors `ExecStats::pk_range_scans`; a
/// `noindex` hint keeps the scan whole and the counter still.
#[test]
fn pk_range_scan_counter_appears() {
    use idea::obs::names;
    use idea::query::SessionConfig;

    let registry = MetricsRegistry::new();
    let session = SessionConfig::new().build_on(idea::query::Catalog::new(2), registry.clone());
    session
        .run_script(
            r#"
            CREATE TYPE PType AS OPEN { id: int64 };
            CREATE DATASET Points(PType) PRIMARY KEY id;
            "#,
        )
        .unwrap();
    let points = session.catalog().dataset("Points").unwrap();
    for id in 0..500i64 {
        points.insert(Value::object([("id", Value::Int(id))])).unwrap();
    }
    let ranged = |registry: &MetricsRegistry| {
        registry.snapshot().counter(names::QUERY_SCAN_PK_RANGE).unwrap_or(0)
    };
    let q = "SELECT VALUE p.id FROM Points p WHERE p.id >= 100 AND p.id < 150";

    // Sequential vectorized scan: one bounded scan per partition.
    assert_eq!(session.query(q).unwrap().as_array().unwrap().len(), 50);
    assert_eq!(session.last_stats().pk_range_scans, 2);
    assert_eq!(ranged(&registry), 2);

    // The lazy scan stream (the serving path) counts the same way.
    let mut stream = session.query_stream(q).unwrap();
    while stream.next_batch().unwrap().is_some() {}
    assert_eq!(stream.exec_stats().unwrap().pk_range_scans, 2);
    assert_eq!(ranged(&registry), 4);

    // `noindex` forbids the bound.
    session
        .query("SELECT VALUE p.id FROM Points /*+ noindex */ p WHERE p.id < 10")
        .unwrap();
    assert_eq!(session.last_stats().pk_range_scans, 0);
    assert_eq!(ranged(&registry), 4);
}

/// The computing job's `query/*` instruments reach the engine registry:
/// a SQL++ UDF over reference data that no one writes reuses its hash
/// build across computing jobs and nodes instead of rebuilding per job.
#[test]
fn udf_build_reuse_counter_appears() {
    use idea::obs::names;

    let (engine, report) = run_feed(2, 150, 25);
    let reused = engine.metrics().snapshot().counter(names::QUERY_BUILD_REUSED).unwrap_or(0);
    assert!(reused > 0, "no build reused over {} computing jobs", report.computing_jobs);
    // At most one context per node per job, each reusing its one build.
    assert!(reused <= 2 * report.computing_jobs, "{reused} reuses");
}

/// Sessions from `IngestionEngine::new_session` — the path the server
/// and the benchmark take — record their `query/*` instruments into
/// the engine's own registry.
#[test]
fn engine_sessions_report_into_engine_metrics() {
    use idea::obs::names;

    let engine = IngestionEngine::with_nodes(2);
    engine
        .run_sqlpp(
            r#"
            CREATE TYPE PType AS OPEN { id: int64 };
            CREATE DATASET Points(PType) PRIMARY KEY id;
            "#,
        )
        .unwrap();
    let points = engine.catalog().dataset("Points").unwrap();
    for id in 0..300i64 {
        points
            .insert(Value::object([("id", Value::Int(id)), ("score", Value::Int(id % 7))]))
            .unwrap();
    }
    let counter = |name: &str| engine.metrics().snapshot().counter(name).unwrap_or(0);
    let session = engine.new_session(SessionConfig::new());

    // A vectorized filter builds batches into the engine's registry.
    let built = counter(names::QUERY_BATCHES_BUILT);
    let v = session.query("SELECT VALUE p.id FROM Points p WHERE p.score > 3").unwrap();
    assert_eq!(v.as_array().unwrap().len(), (0..300).filter(|id| id % 7 > 3).count());
    assert!(session.last_stats().batches_built > 0, "filter did not vectorize");
    assert!(counter(names::QUERY_BATCHES_BUILT) > built, "query/batch/built did not move");

    // A pk-bounded stream counts one bounded scan per partition.
    let ranged = counter(names::QUERY_SCAN_PK_RANGE);
    let mut stream = session
        .query_stream("SELECT VALUE p.id FROM Points p WHERE p.id >= 10 AND p.id < 20")
        .unwrap();
    let mut rows = 0;
    while let Some(b) = stream.next_batch().unwrap() {
        rows += b.len();
    }
    assert_eq!(rows, 10);
    assert_eq!(counter(names::QUERY_SCAN_PK_RANGE), ranged + 2, "query/scan/pk_range did not move");
}
