//! Workspace-level integration tests: every crate working together —
//! workload generators → feeds → enrichment → storage → analytics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use idea::adm::Value;
use idea::ingestion::{ComputingModel, FeedSpec, IngestionEngine, PipelineMode, SourceFactory};
use idea::query::SessionConfig;
use idea::workload::scenarios::{setup_scenario, setup_tweet_datasets};
use idea::workload::{ScenarioKey, TweetGenerator, WorkloadScale};

fn engine_with(key: ScenarioKey, nodes: usize) -> (Arc<IngestionEngine>, String) {
    let engine = IngestionEngine::with_nodes(nodes);
    setup_tweet_datasets(engine.catalog()).unwrap();
    let sc = setup_scenario(engine.catalog(), key, &WorkloadScale::tiny(), 7).unwrap();
    (engine, sc.function)
}

fn feed_tweets(
    engine: &IngestionEngine,
    function: &str,
    n: u64,
    batch: usize,
) -> idea::ingestion::IngestionReport {
    let tweets = TweetGenerator::new(5).batch(0, n);
    let spec = FeedSpec::new("it", "Tweets", SourceFactory::records(tweets))
        .with_function(function)
        .with_batch_size(batch)
        .balanced(engine.cluster().node_count());
    engine.start_feed(spec).unwrap().wait().unwrap()
}

#[test]
fn every_scenario_feeds_end_to_end() {
    for key in [
        ScenarioKey::SafetyRating,
        ScenarioKey::ReligiousPopulation,
        ScenarioKey::LargestReligions,
        ScenarioKey::FuzzySuspects,
        ScenarioKey::NearbyMonuments,
        ScenarioKey::SuspiciousNames,
        ScenarioKey::TweetContext,
        ScenarioKey::WorrisomeTweets,
    ] {
        let (engine, function) = engine_with(key, 3);
        let report = feed_tweets(&engine, &function, 120, 20);
        assert_eq!(report.records_stored, 120, "{key:?}");
        assert_eq!(report.parse_errors, 0, "{key:?}");
        assert!(report.computing_jobs >= 2, "{key:?}: {} jobs", report.computing_jobs);
        let stored = engine.catalog().dataset("Tweets").unwrap().len();
        assert_eq!(stored, 120, "{key:?}");
    }
}

#[test]
fn enriched_data_supports_analytics_without_re_enrichment() {
    let (engine, function) = engine_with(ScenarioKey::SafetyRating, 2);
    feed_tweets(&engine, &function, 200, 32);
    // Option 2 of §4: the enrichment is persisted, so analytical queries
    // read it directly.
    let v = engine
        .new_session(SessionConfig::new())
        .query(
            "SELECT r AS rating, count(*) AS n
         FROM Tweets t LET r = t.safety_rating[0]
         GROUP BY t.safety_rating[0] AS r
         ORDER BY r",
        )
        .unwrap();
    let rows = v.as_array().unwrap();
    let total: i64 = rows
        .iter()
        .map(|r| r.as_object().unwrap().get("n").unwrap().as_int().unwrap())
        .sum();
    assert_eq!(total, 200);
    assert!(rows.len() >= 2, "several distinct ratings: {rows:?}");
}

#[test]
fn per_record_and_per_batch_agree_on_static_reference_data() {
    // With no reference updates, all three computing models must produce
    // identical enrichment (they only differ in state lifetime).
    let mut outputs = Vec::new();
    for model in [ComputingModel::PerRecord, ComputingModel::PerBatch, ComputingModel::Stream] {
        let (engine, function) = engine_with(ScenarioKey::SafetyCheck, 2);
        let tweets = TweetGenerator::new(5).batch(0, 80);
        let spec = FeedSpec::new("m", "Tweets", SourceFactory::records(tweets))
            .with_function(&function)
            .with_batch_size(16)
            .with_model(model);
        engine.start_feed(spec).unwrap().wait().unwrap();
        let mut reds: Vec<i64> = engine
            .new_session(SessionConfig::new())
            .query(r#"SELECT VALUE t.id FROM Tweets t WHERE t.safety_check_flag = "Red""#)
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        reds.sort_unstable();
        outputs.push(reds);
    }
    assert_eq!(outputs[0], outputs[1], "per-record vs per-batch");
    assert_eq!(outputs[1], outputs[2], "per-batch vs stream");
}

#[test]
fn predeploy_ablation_same_results_fewer_compilations() {
    let run = |predeploy: bool| {
        let (engine, function) = engine_with(ScenarioKey::SafetyRating, 2);
        let tweets = TweetGenerator::new(5).batch(0, 100);
        let spec = FeedSpec::new("p", "Tweets", SourceFactory::records(tweets))
            .with_function(&function)
            .with_batch_size(10)
            .with_predeploy(predeploy);
        let report = engine.start_feed(spec).unwrap().wait().unwrap();
        let invocations = engine.cluster().deployed_jobs().invocation_count();
        (report.records_stored, report.computing_jobs, invocations)
    };
    let (stored_p, jobs_p, invocations_p) = run(true);
    let (stored_n, _jobs_n, invocations_n) = run(false);
    assert_eq!(stored_p, 100);
    assert_eq!(stored_n, 100);
    assert!(invocations_p >= jobs_p, "predeployed path uses invocation messages");
    assert_eq!(invocations_n, 0, "no-predeploy path recompiles instead of invoking");
}

#[test]
fn static_and_decoupled_store_identical_enrichment() {
    let run = |mode: PipelineMode| -> Vec<(i64, String)> {
        let (engine, function) = engine_with(ScenarioKey::SafetyRating, 2);
        let tweets = TweetGenerator::new(5).batch(0, 60);
        let spec = FeedSpec::new("s", "Tweets", SourceFactory::records(tweets))
            .with_function(&function)
            .with_batch_size(16)
            .with_mode(mode);
        engine.start_feed(spec).unwrap().wait().unwrap();
        let mut rows: Vec<(i64, String)> = engine
            .new_session(SessionConfig::new())
            .query("SELECT VALUE [t.id, t.safety_rating[0]] FROM Tweets t")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|pair| {
                let p = pair.as_array().unwrap();
                (p[0].as_int().unwrap(), p[1].as_str().unwrap_or("?").to_owned())
            })
            .collect();
        rows.sort();
        rows
    };
    assert_eq!(run(PipelineMode::Static), run(PipelineMode::Decoupled));
}

#[test]
fn facade_reexports_are_usable() {
    // The `idea` facade exposes each layer.
    let v = idea::adm::json::parse(b"{\"x\": 1}").unwrap();
    assert_eq!(v.as_object().unwrap().get("x"), Some(&Value::Int(1)));
    let cluster = idea::hyracks::Cluster::with_nodes(2);
    assert_eq!(cluster.node_count(), 2);
    let sim = idea::clustersim::simulate(
        &idea::clustersim::CostModel::nominal(),
        &idea::clustersim::SimConfig::basic(4, true, 420, 10_000),
    );
    assert!(sim.throughput > 0.0);
    let dt = idea::adm::Datatype::new("T").field("id", idea::adm::TypeTag::Int64);
    let ds = idea::storage::Dataset::new("D", dt, "id", Default::default());
    ds.insert(Value::object([("id", Value::Int(1))])).unwrap();
    assert_eq!(ds.len(), 1);
}

/// `batch_size` is a ceiling, not a fill target: a feed far slower than
/// one batch per node per job must not wait for batches to fill. At
/// 200 records/s over two nodes a 2 × 420-record fill takes ≈4.2 s; a
/// work-conserving computing job picks the first record up within one
/// intake flush and one job.
#[test]
fn trickle_feed_is_readable_before_a_batch_fills() {
    let (engine, function) = engine_with(ScenarioKey::SafetyRating, 2);
    let n = 400;
    // 100 records/s per intake partition, 200 records/s in all.
    let factory = SourceFactory::records(TweetGenerator::new(5).batch(0, n)).paced(100.0);
    let spec = FeedSpec::new("trickle", "Tweets", factory)
        .with_function(&function)
        .with_batch_size(420)
        .balanced(2);
    let dataset = engine.catalog().dataset("Tweets").unwrap();
    let started = Instant::now();
    let handle = engine.start_feed(spec).unwrap();
    while dataset.get(&Value::Int(0)).unwrap().is_none() {
        assert!(started.elapsed() < Duration::from_secs(10), "first record never stored");
        std::thread::sleep(Duration::from_millis(1));
    }
    let first_readable = started.elapsed();
    let report = handle.wait().unwrap();
    assert!(
        first_readable < Duration::from_secs(1),
        "first record readable after {first_readable:?}"
    );
    assert_eq!(report.records_stored, n);
    assert_eq!(dataset.len(), n as usize);
    assert!(report.computing_jobs > 1, "{} jobs", report.computing_jobs);
}

/// Under backlog the ceiling is reached: with each node's batch four
/// times what its intake holder can queue (4 frames × 16 records), the
/// computing jobs still pull full batches, so the job count stays at
/// ⌈N / (nodes × batch)⌉ give or take a start-up job and an EOF job.
#[test]
fn backlogged_batches_fill_past_holder_capacity() {
    let (engine, function) = engine_with(ScenarioKey::SafetyRating, 2);
    let (n, batch) = (4096u64, 256usize);
    let mut spec = FeedSpec::new(
        "backlog",
        "Tweets",
        SourceFactory::records(TweetGenerator::new(5).batch(0, n)),
    )
    .with_function(&function)
    .with_batch_size(batch)
    .balanced(2);
    spec.holder_capacity = 4;
    spec.frame_capacity = 16;
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.records_stored, n);
    let full = n.div_ceil(2 * batch as u64);
    assert!(
        report.computing_jobs.abs_diff(full) <= 2,
        "{} jobs for {full} full batches per node",
        report.computing_jobs
    );
}
