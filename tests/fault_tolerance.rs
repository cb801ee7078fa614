//! Fault-tolerance integration tests: deterministic fault injection,
//! supervised feeds, dead-letter capture, and checkpointed restart.
//!
//! The chaos test at the bottom exercises the ISSUE acceptance
//! scenario: a 6-node feed surviving an adapter disconnect, poison
//! records, a UDF failure and a node kill, with
//! `stored = generated - dead-lettered` at the end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idea::adm::Value;
use idea::ft::CheckpointStore;
use idea::prelude::*;
use idea::storage::TempDir;

fn setup(nodes: usize) -> Arc<IngestionEngine> {
    with_tweets(IngestionEngine::with_nodes(nodes))
}

fn with_tweets(engine: Arc<IngestionEngine>) -> Arc<IngestionEngine> {
    engine
        .new_session(SessionConfig::new())
        .run_script(
            r#"
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        "#,
        )
        .unwrap();
    engine
}

fn tweet(i: usize) -> String {
    format!(r#"{{"id": {i}, "text": "t{i}"}}"#)
}

/// An identity enrichment UDF (so the computing job has an enrich
/// stage for the injector to target).
fn register_identity(engine: &IngestionEngine, name: &str) {
    engine
        .catalog()
        .register_native_function(
            name,
            1,
            Arc::new(|| {
                Box::new(|args: &[Value]| Ok(Value::Array(vec![args[0].clone()])))
                    as Box<dyn idea::query::NativeUdf>
            }),
        )
        .unwrap();
}

#[test]
fn poison_records_land_in_queryable_dead_letter_dataset() {
    let engine = setup(1);
    let records: Vec<String> = (0..100).map(tweet).collect();
    let plan = FaultPlan::seeded(11).poison_record(0, 10).poison_record(0, 20);
    let sup = SupervisionSpec { parse: ErrorPolicy::SkipToDeadLetter, ..Default::default() };
    let spec = FeedSpec::new("pf", "Tweets", SourceFactory::records(records))
        .with_batch_size(16)
        .with_supervision(sup)
        .with_fault_plan(plan);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();

    assert_eq!(report.dead_letters, 2);
    assert_eq!(report.parse_errors, 2);
    assert_eq!(report.records_stored, 98);
    assert_eq!(engine.catalog().dataset("Tweets").unwrap().len(), 98);
    // The dead letters are real catalog data, queryable with SQL++.
    let dlq = engine.catalog().dataset("pf_dead_letters").unwrap();
    assert_eq!(dlq.len(), 2);
    let v = engine
        .new_session(SessionConfig::new())
        .query("SELECT VALUE d.stage FROM pf_dead_letters d")
        .unwrap();
    let stages = v.as_array().unwrap();
    assert_eq!(stages.len(), 2);
    assert!(stages.iter().all(|s| s.as_str() == Some("parse")), "{stages:?}");
}

#[test]
fn udf_retry_then_succeed_preserves_totals() {
    let engine = setup(2);
    register_identity(&engine, "ident");
    // One injected UDF failure per node; the injector fires each fault
    // once, so the first retry succeeds and no record is lost.
    let plan = FaultPlan::seeded(3).udf_error(0, 3).udf_error(1, 4);
    let sup = SupervisionSpec {
        enrich: ErrorPolicy::retry(
            RetryPolicy::new(2, std::time::Duration::from_millis(1)),
            Fallback::DeadLetter,
        ),
        ..Default::default()
    };
    let records: Vec<String> = (0..80).map(tweet).collect();
    let spec = FeedSpec::new("rf", "Tweets", SourceFactory::records(records))
        .with_function("ident")
        .with_batch_size(10)
        .with_supervision(sup)
        .with_fault_plan(plan);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();

    assert_eq!(report.records_stored, 80, "retries recover every record");
    assert_eq!(report.enrich_errors, 0);
    assert_eq!(report.dead_letters, 0);
    assert!(report.retries >= 2, "one retry per injected fault: {}", report.retries);
    assert_eq!(engine.catalog().dataset("Tweets").unwrap().len(), 80);
}

#[test]
fn kill_node_mid_feed_stores_every_record_exactly_once() {
    let engine = setup(4);
    let records: Vec<String> = (0..400).map(tweet).collect();
    let plan = FaultPlan::seeded(5).kill_node(2, 2);
    let mut sup = SupervisionSpec { checkpoint_interval: Some(1), ..Default::default() };
    sup.restart.max_restarts = 2;
    // Paced so the feed spans many computing batches.
    let spec = FeedSpec::new("kf", "Tweets", SourceFactory::records(records).paced(400.0))
        .with_batch_size(25)
        .with_intake_nodes(vec![0, 1])
        .with_supervision(sup)
        .with_fault_plan(plan);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();

    // At-least-once replay + primary-key upsert = exactly-once storage.
    assert_eq!(engine.catalog().dataset("Tweets").unwrap().len(), 400);
    assert!(report.restarts >= 1, "the kill forces a restart: {}", report.restarts);
    assert!(report.checkpoints >= 1, "checkpoints committed: {}", report.checkpoints);
    assert_eq!(engine.cluster().dead_nodes().len(), 0, "killed node restored on restart");
}

#[test]
fn socket_bind_failure_surfaces_through_wait() {
    let engine = setup(1);
    // Occupy a port, then point a socket feed at it: the bind error
    // must come back as a feed error, not a panic.
    let busy = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = busy.local_addr().unwrap();
    engine
        .run_sqlpp(&format!(
            r#"
            CREATE FEED bindfail WITH {{ "sockets": "{addr}" }};
            CONNECT FEED bindfail TO DATASET Tweets;
            START FEED bindfail;
            "#
        ))
        .unwrap();
    let err = engine.stop_feed("bindfail").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cannot bind"), "bind failure surfaces in wait(): {msg}");
}

/// The committed source position of a one-partition feed's persisted
/// checkpoint under `root`.
fn committed_position(root: &std::path::Path, feed: &str) -> u64 {
    let path = root.join("checkpoints").join(format!("{feed}.ckpt"));
    CheckpointStore::persistent(1, path).committed_offsets()[0].position
}

/// Connects to `addr` (retrying until the feed has bound it), sends one
/// line per record, then closes the connection.
fn send_lines(addr: std::net::SocketAddr, records: impl Iterator<Item = String>) {
    use std::io::Write;
    let mut peer = loop {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    for r in records {
        writeln!(peer, "{r}").unwrap();
    }
}

/// A socket cannot rewind: a restarted socket feed resumes at its
/// committed count and keeps everything the *new* peer sends, instead
/// of discarding that many of its first lines.
#[test]
fn restarted_socket_feed_keeps_the_new_peers_first_lines() {
    let tmp = TempDir::new("socket-restart");
    let engine = with_tweets(IngestionEngine::with_storage_root(1, tmp.path()).unwrap());
    let addr = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let spec = || {
        let mut spec =
            FeedSpec::new("sock", "Tweets", SourceFactory::socket(vec![addr.to_string()]));
        spec.supervision.checkpoint_interval = Some(1);
        spec
    };

    let handle = engine.start_feed(spec()).unwrap();
    send_lines(addr, (0..40).map(tweet));
    assert_eq!(handle.wait().unwrap().records_stored, 40);
    let committed = committed_position(tmp.path(), "sock");
    assert!(committed > 0, "the first run committed a checkpoint");

    // Same feed, new peer: all of its lines are new records.
    let handle = engine.start_feed(spec()).unwrap();
    send_lines(addr, (100..110).map(tweet));
    assert_eq!(handle.wait().unwrap().records_stored, 10, "resumed after {committed}");
    assert_eq!(engine.catalog().dataset("Tweets").unwrap().len(), 50);
}

/// Pacing delays reads, not resume: a paced feed restarted from a
/// committed checkpoint emits its next record at once instead of first
/// replaying the committed prefix at the paced rate.
#[test]
fn restarted_paced_feed_resumes_without_replaying_its_prefix() {
    let tmp = TempDir::new("paced-restart");
    let engine = with_tweets(IngestionEngine::with_storage_root(1, tmp.path()).unwrap());
    let records: Vec<String> = (0..5000).map(tweet).collect();
    let spec = |rate| {
        let source = SourceFactory::records(records.clone()).paced(rate);
        let mut spec = FeedSpec::new("paced", "Tweets", source);
        spec.supervision.checkpoint_interval = Some(1);
        spec
    };
    let ds = engine.catalog().dataset("Tweets").unwrap();

    // A fast run, stopped part-way.
    engine.start_feed(spec(2000.0)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while ds.len() < 200 {
        assert!(Instant::now() < deadline, "first run stored only {}", ds.len());
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.stop_feed("paced").unwrap();
    let committed = committed_position(tmp.path(), "paced");
    assert!(committed >= 10, "committed {committed}");

    // Restarted at 1 record/s, replaying the prefix would take at
    // least `committed` seconds.
    let t0 = Instant::now();
    let handle = engine.start_feed(spec(1.0)).unwrap();
    while handle.metrics().records_ingested.get() == 0 {
        assert!(t0.elapsed() < Duration::from_secs(5), "no record within 5 s of the restart");
        std::thread::sleep(Duration::from_millis(5));
    }
    engine.stop_feed("paced").unwrap();
    let next = Value::Int(committed as i64);
    assert!(ds.get(&next).unwrap().is_some(), "resumed at record {committed}");
}

/// The acceptance scenario: a 6-node feed with three intake partitions
/// riding out one adapter disconnect, two poison records, one injected
/// UDF failure and one node kill — all scheduled deterministically
/// from one seed.
#[test]
fn chaos_six_node_feed_survives_scripted_faults() {
    let engine = setup(6);
    register_identity(&engine, "chaos_ident");
    let generated = 600usize;
    let records: Vec<String> = (0..generated).map(tweet).collect();

    let plan = FaultPlan::seeded(42)
        .poison_record(1, 3)
        .poison_record(2, 4)
        .adapter_disconnect(0, 20)
        .udf_error(3, 5)
        .kill_node(4, 3);
    let (disconnects, poisons, udf_faults, _slow, kills) = plan.counts();

    let mut sup = SupervisionSpec {
        parse: ErrorPolicy::SkipToDeadLetter,
        adapter: ErrorPolicy::retry(
            RetryPolicy::new(2, std::time::Duration::from_millis(1)),
            Fallback::Abort,
        ),
        enrich: ErrorPolicy::retry(
            RetryPolicy::new(2, std::time::Duration::from_millis(1)),
            Fallback::DeadLetter,
        ),
        checkpoint_interval: Some(1),
        ..Default::default()
    };
    sup.restart.max_restarts = 3;

    // Paced so the feed spans many computing batches.
    let spec = FeedSpec::new("chaos", "Tweets", SourceFactory::records(records).paced(300.0))
        .with_function("chaos_ident")
        .with_batch_size(30)
        .with_intake_nodes(vec![0, 1, 2])
        .with_supervision(sup)
        .with_fault_plan(plan);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();

    // Every generated record is either stored or dead-lettered.
    let dlq = engine.catalog().dataset("chaos_dead_letters").unwrap().len();
    let stored = engine.catalog().dataset("Tweets").unwrap().len();
    assert_eq!(dlq as u64, poisons, "both poison records captured");
    assert_eq!(stored + dlq, generated, "stored = generated - dead-lettered");
    assert_eq!(report.dead_letters, poisons);
    assert!(report.restarts >= 1, "node kill forces a restart: {}", report.restarts);
    assert!(report.checkpoints >= 1, "restart resumed from a checkpoint");
    assert!(report.retries >= 2, "adapter + UDF retries: {}", report.retries);
    assert_eq!(engine.cluster().dead_nodes().len(), 0);

    // The injection counters under feed/chaos/faults/injected/* match
    // the plan: every scheduled fault fired exactly once.
    let snap = engine.metrics().snapshot();
    let injected = |k: &str| snap.counter(&format!("feed/chaos/faults/injected/{k}"));
    assert_eq!(injected("adapter_disconnects"), Some(disconnects));
    assert_eq!(injected("poison_records"), Some(poisons));
    assert_eq!(injected("udf_faults"), Some(udf_faults));
    assert_eq!(injected("node_kills"), Some(kills));

    // Dead letters carry the feed/stage metadata for SQL++ triage.
    let v = engine
        .new_session(SessionConfig::new())
        .query(r#"SELECT VALUE d.feed FROM chaos_dead_letters d WHERE d.stage = "parse""#)
        .unwrap();
    assert_eq!(v.as_array().unwrap().len(), poisons as usize);

    // Engine shutdown deterministically drains the background flush/
    // merge pool even after a chaos run: no queued task survives, every
    // submitted task ran, all worker threads are joined.
    engine.shutdown();
    let maint = engine.maintenance();
    assert!(maint.is_shut_down());
    assert_eq!(maint.queue_depth(), 0, "no maintenance task leaked past shutdown");
    assert_eq!(maint.completed(), maint.submitted(), "every maintenance task drained");
    assert_eq!(maint.running(), 0);
    // Storage stays fully usable (maintenance degrades to inline).
    let stored_after = engine.catalog().dataset("Tweets").unwrap().len();
    assert_eq!(stored_after, stored, "shutdown lost records");
}

#[test]
fn same_seed_gives_identical_fault_outcomes() {
    let run = || {
        let engine = setup(2);
        let records: Vec<String> = (0..120).map(tweet).collect();
        let plan = FaultPlan::seeded(99).poison_record(0, 7).poison_record(1, 9);
        let sup = SupervisionSpec { parse: ErrorPolicy::SkipToDeadLetter, ..Default::default() };
        let spec = FeedSpec::new("det", "Tweets", SourceFactory::records(records))
            .with_batch_size(20)
            .with_intake_nodes(vec![0, 1])
            .with_supervision(sup)
            .with_fault_plan(plan);
        let report = engine.start_feed(spec).unwrap().wait().unwrap();
        let mut ids: Vec<String> = engine
            .catalog()
            .dataset("det_dead_letters")
            .unwrap()
            .snapshot_all()
            .iter()
            .flat_map(|snap| snap.iter().map(|v| v.to_string()).collect::<Vec<_>>())
            .collect();
        ids.sort();
        (report.records_stored, report.dead_letters, ids)
    };
    assert_eq!(run(), run(), "same seed, same schedule, same outcome");
}
