//! End-to-end ingestion tests: the full intake → computing → storage
//! pipeline over a simulated cluster.

use std::sync::Arc;

use idea_adm::Value;
use idea_core::{
    ComputingModel, ExecOutcome, FeedSpec, GeneratorSource, IngestionEngine, PipelineMode,
    SourceFactory,
};
use idea_query::{Catalog, Session, StatementResult};

fn run_sqlpp(catalog: &Arc<Catalog>, text: &str) -> idea_query::Result<Vec<StatementResult>> {
    Session::new(catalog.clone()).run_script(text)
}

fn run_query(catalog: &Arc<Catalog>, text: &str) -> idea_query::Result<idea_adm::Value> {
    Session::new(catalog.clone()).query(text)
}

fn tweet_json(id: i64, country: &str, text: &str) -> String {
    format!(r#"{{"id": {id}, "text": "{text}", "country": "{country}"}}"#)
}

fn setup(nodes: usize) -> Arc<IngestionEngine> {
    let engine = IngestionEngine::with_nodes(nodes);
    run_sqlpp(
        engine.catalog(),
        r#"
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        CREATE TYPE WordType AS OPEN { wid: int64, country: string, word: string };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
        INSERT INTO SensitiveWords ([
            {"wid": 1, "country": "US", "word": "bomb"},
            {"wid": 2, "country": "FR", "word": "bombe"}
        ]);
        CREATE FUNCTION tweetSafetyCheck(tweet) {
            LET safety_check_flag = CASE
              EXISTS(SELECT s FROM SensitiveWords s
                     WHERE tweet.country = s.country AND contains(tweet.text, s.word))
              WHEN true THEN "Red" ELSE "Green"
            END
            SELECT tweet.*, safety_check_flag
        };
        "#,
    )
    .unwrap();
    engine
}

fn tweets(n: i64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let country = if i % 2 == 0 { "US" } else { "FR" };
            let text = if i % 3 == 0 { "bomb threat" } else { "sunny day" };
            tweet_json(i, country, text)
        })
        .collect()
}

fn red_count(engine: &IngestionEngine) -> usize {
    run_query(
        engine.catalog(),
        r#"SELECT VALUE t.id FROM Tweets t WHERE t.safety_check_flag = "Red""#,
    )
    .unwrap()
    .as_array()
    .unwrap()
    .len()
}

#[test]
fn decoupled_feed_ingests_and_enriches() {
    let engine = setup(3);
    let spec = FeedSpec::new("TweetFeed", "Tweets", SourceFactory::records(tweets(300)))
        .with_function("tweetSafetyCheck")
        .with_batch_size(40);
    let handle = engine.start_feed(spec).unwrap();
    let report = handle.wait().unwrap();
    engine.afm().remove("TweetFeed");

    assert_eq!(report.records_stored, 300);
    assert_eq!(report.parse_errors, 0);
    assert!(report.computing_jobs >= 1);
    let ds = engine.catalog().dataset("Tweets").unwrap();
    assert_eq!(ds.len(), 300);
    // US tweets (even ids) containing "bomb" (ids % 3 == 0): ids ≡ 0 mod 6 → 50.
    // FR tweets (odd ids) never contain "bombe".
    assert_eq!(red_count(&engine), 50);
    // Every record kept its enrichment field.
    let greens = run_query(
        engine.catalog(),
        r#"SELECT VALUE t.id FROM Tweets t WHERE t.safety_check_flag = "Green""#,
    )
    .unwrap();
    assert_eq!(greens.as_array().unwrap().len(), 250);
}

#[test]
fn static_feed_matches_decoupled_output() {
    let engine = setup(2);
    let spec = FeedSpec::new("StaticFeed", "Tweets", SourceFactory::records(tweets(120)))
        .with_function("tweetSafetyCheck")
        .with_mode(PipelineMode::Static);
    let handle = engine.start_feed(spec).unwrap();
    let report = handle.wait().unwrap();
    assert_eq!(report.records_stored, 120);
    assert_eq!(report.computing_jobs, 0, "static pipelines have no computing jobs");
    assert_eq!(red_count(&engine), 20);
}

#[test]
fn feed_without_udf_moves_data() {
    let engine = setup(2);
    let spec =
        FeedSpec::new("plain", "Tweets", SourceFactory::records(tweets(100))).with_batch_size(16);
    let handle = engine.start_feed(spec).unwrap();
    let report = handle.wait().unwrap();
    assert_eq!(report.records_stored, 100);
    assert_eq!(engine.catalog().dataset("Tweets").unwrap().len(), 100);
}

#[test]
fn malformed_records_counted_not_fatal() {
    let engine = setup(1);
    let mut recs = tweets(10);
    recs.insert(3, "{not json".to_owned());
    recs.insert(7, r#"{"text": "missing id"}"#.to_owned());
    let spec = FeedSpec::new("dirty", "Tweets", SourceFactory::records(recs));
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.records_stored, 10);
    assert_eq!(report.parse_errors, 2);
}

#[test]
fn per_batch_model_sees_reference_updates_between_batches() {
    let engine = setup(1);
    // Slow, rate-limited feed so the update lands mid-stream.
    let records: Vec<String> = (0..60).map(|i| tweet_json(i, "DE", "der zug")).collect();
    let factory = SourceFactory::records(records).paced(300.0);
    let spec = FeedSpec::new("updating", "Tweets", factory)
        .with_function("tweetSafetyCheck")
        .with_batch_size(10)
        .with_model(ComputingModel::PerBatch);
    let handle = engine.start_feed(spec).unwrap();
    // Mid-feed reference update: "zug" becomes sensitive for DE.
    std::thread::sleep(std::time::Duration::from_millis(80));
    run_sqlpp(
        engine.catalog(),
        r#"UPSERT INTO SensitiveWords ([{"wid": 50, "country": "DE", "word": "zug"}]);"#,
    )
    .unwrap();
    // Let the (finite) feed drain naturally — stopping early would
    // cancel pending input.
    let report = handle.wait().unwrap();
    assert_eq!(report.records_stored, 60);
    let reds = red_count(&engine);
    // Early batches enriched before the update → Green; later ones Red.
    assert!(reds > 0, "later batches must see the update (got {reds} red)");
    assert!(reds < 60, "earlier batches predate the update (got {reds} red)");
}

#[test]
fn stream_model_never_sees_updates() {
    let engine = setup(1);
    let records: Vec<String> = (0..40).map(|i| tweet_json(i, "DE", "der zug")).collect();
    let factory = SourceFactory::records(records).paced(300.0);
    let spec = FeedSpec::new("streamy", "Tweets", factory)
        .with_function("tweetSafetyCheck")
        .with_batch_size(10)
        .with_model(ComputingModel::Stream);
    let handle = engine.start_feed(spec).unwrap();
    // Force the first batch (which builds the stream state) to happen
    // before the update by letting some records flow.
    std::thread::sleep(std::time::Duration::from_millis(80));
    run_sqlpp(
        engine.catalog(),
        r#"UPSERT INTO SensitiveWords ([{"wid": 50, "country": "DE", "word": "zug"}]);"#,
    )
    .unwrap();
    let report = handle.wait().unwrap();
    assert_eq!(report.records_stored, 40);
    // Model 3 keeps the stale hash table built before the update.
    assert_eq!(red_count(&engine), 0, "stream model must not see the update");
}

#[test]
fn per_record_model_enriches_correctly() {
    let engine = setup(1);
    let spec = FeedSpec::new("rec", "Tweets", SourceFactory::records(tweets(30)))
        .with_function("tweetSafetyCheck")
        .with_batch_size(10)
        .with_model(ComputingModel::PerRecord);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.records_stored, 30);
    assert_eq!(red_count(&engine), 5);
}

#[test]
fn no_predeploy_ablation_still_correct() {
    let engine = setup(2);
    let spec = FeedSpec::new("nopredeploy", "Tweets", SourceFactory::records(tweets(100)))
        .with_function("tweetSafetyCheck")
        .with_batch_size(20)
        .with_predeploy(false);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.records_stored, 100);
    assert!(engine.cluster().deployed_jobs().invocation_count() == 0);
}

#[test]
fn balanced_intake_uses_all_nodes() {
    let engine = setup(3);
    let spec = FeedSpec::new("balanced", "Tweets", SourceFactory::records(tweets(90)))
        .balanced(3)
        .with_batch_size(10);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.records_stored, 90);
}

#[test]
fn duplicate_feed_name_rejected_and_cleaned_up() {
    let engine = setup(1);
    let spec = FeedSpec::new("dup", "Tweets", SourceFactory::records(tweets(5)));
    let h = engine.start_feed(spec.clone()).unwrap();
    assert!(engine.start_feed(spec.clone()).is_err());
    h.wait().unwrap();
    engine.afm().remove("dup");
    // After cleanup the name can be reused.
    let h2 = engine.start_feed(spec).unwrap();
    h2.wait().unwrap();
}

#[test]
fn unknown_dataset_or_function_fails_fast() {
    let engine = setup(1);
    let bad_ds = FeedSpec::new("f1", "Nope", SourceFactory::records(vec![]));
    assert!(engine.start_feed(bad_ds).is_err());
    let bad_fn =
        FeedSpec::new("f2", "Tweets", SourceFactory::records(vec![])).with_function("nope");
    assert!(engine.start_feed(bad_fn).is_err());
}

#[test]
fn feed_ddl_via_engine_with_socket_adapter() {
    let engine = setup(1);
    // Find a free port by binding and dropping.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);

    let outcomes = engine
        .run_sqlpp(&format!(
            r#"CREATE FEED TweetFeed WITH {{
                 "type-name": "TweetType",
                 "adapter-name": "socket_adapter",
                 "format": "JSON",
                 "sockets": "{addr}",
                 "address-type": "IP",
                 "batch-size": "8"
               }};
               CONNECT FEED TweetFeed TO DATASET Tweets APPLY FUNCTION tweetSafetyCheck;
               START FEED TweetFeed;"#
        ))
        .unwrap();
    assert!(matches!(outcomes[2], ExecOutcome::FeedStarted));

    // Feed 20 tweets over a real TCP socket.
    let writer = std::thread::spawn(move || {
        use std::io::Write;
        // The adapter binds inside the task; retry the connect briefly.
        let mut stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        for i in 0..20 {
            writeln!(stream, r#"{{"id": {i}, "text": "bomb", "country": "US"}}"#).unwrap();
        }
    });
    writer.join().unwrap();

    // Wait for the pipeline to drain the 20 records before stopping
    // (STOP cancels input still sitting in the adapter).
    let ds = engine.catalog().dataset("Tweets").unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while ds.len() < 20 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let outcome = engine.run_sqlpp("STOP FEED TweetFeed;").unwrap().pop().unwrap();
    let ExecOutcome::FeedStopped(report) = outcome else { panic!("expected FeedStopped") };
    assert_eq!(report.records_stored, 20);
    assert_eq!(red_count(&engine), 20);
}

/// A free loopback address (bind port 0, then release it).
fn free_addr() -> std::net::SocketAddr {
    std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap()
}

/// Declares, connects and starts a socket feed on `addr` via DDL.
fn start_socket_feed(engine: &IngestionEngine, name: &str, addr: std::net::SocketAddr) {
    engine
        .run_sqlpp(&format!(
            r#"CREATE FEED {name} WITH {{
                 "adapter-name": "socket_adapter", "sockets": "{addr}", "format": "JSON"
               }};
               CONNECT FEED {name} TO DATASET Tweets;
               START FEED {name};"#
        ))
        .unwrap();
}

/// Runs `STOP FEED name` and fails — rather than hangs — unless it
/// returns within 2 s.
fn stop_within_2s(engine: &Arc<IngestionEngine>, name: &str) -> idea_core::IngestionReport {
    let (tx, rx) = std::sync::mpsc::channel();
    let (engine, stmt) = (engine.clone(), format!("STOP FEED {name};"));
    let stopper = std::thread::spawn(move || {
        let _ = tx.send(engine.run_sqlpp(&stmt).map(|mut outcomes| outcomes.pop()));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(2)) {
        Ok(Ok(Some(ExecOutcome::FeedStopped(report)))) => {
            stopper.join().unwrap();
            report
        }
        Ok(other) => panic!("STOP FEED {name}: unexpected outcome {other:?}"),
        Err(_) => panic!("STOP FEED {name} did not return within 2 s"),
    }
}

#[test]
fn stop_feed_returns_promptly_on_an_idle_socket() {
    let engine = setup(1);

    // No peer ever connects.
    start_socket_feed(&engine, "Unheard", free_addr());
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert_eq!(stop_within_2s(&engine, "Unheard").records_stored, 0);

    // A peer connects, sends one record, then sits idle.
    let addr = free_addr();
    start_socket_feed(&engine, "Idle", addr);
    let mut peer = loop {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => break s,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    use std::io::Write;
    writeln!(peer, r#"{{"id": 1, "text": "hi", "country": "US"}}"#).unwrap();
    let ds = engine.catalog().dataset("Tweets").unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while ds.is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(stop_within_2s(&engine, "Idle").records_stored, 1);
    drop(peer);
}

#[test]
fn enriched_records_are_queryable_with_analytics() {
    let engine = setup(2);
    let spec = FeedSpec::new("an", "Tweets", SourceFactory::records(tweets(60)))
        .with_function("tweetSafetyCheck")
        .with_batch_size(15);
    engine.start_feed(spec).unwrap().wait().unwrap();
    // The paper's Figure 9 analytical query over the *enriched* data.
    let v = run_query(
        engine.catalog(),
        r#"SELECT t.country Country, count(t) Num
           FROM Tweets t
           WHERE t.safety_check_flag = "Red"
           GROUP BY t.country ORDER BY t.country"#,
    )
    .unwrap();
    let rows = v.as_array().unwrap();
    assert_eq!(rows.len(), 1, "only US tweets get flagged in this workload");
    let o = rows[0].as_object().unwrap();
    assert_eq!(o.get("Country"), Some(&Value::str("US")));
    assert_eq!(o.get("Num"), Some(&Value::Int(10)));
}

#[test]
fn stop_cancels_pending_input_promptly() {
    let engine = setup(1);
    // An effectively infinite feed: stopping is the only way it ends.
    let factory = SourceFactory::new(|_, _| {
        Ok(GeneratorSource::new(u64::MAX, |i| {
            format!(r#"{{"id": {i}, "text": "x", "country": "US"}}"#)
        }))
    })
    .paced(500.0);
    let spec = FeedSpec::new("endless", "Tweets", factory).with_batch_size(16);
    let handle = engine.start_feed(spec).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    let report = handle.stop_and_wait().unwrap();
    assert!(t0.elapsed() < std::time::Duration::from_secs(5), "stop must not hang");
    assert!(report.records_stored > 0);
    assert!(report.records_stored < 10_000, "stop must cut the endless feed short");
}

#[test]
fn refresh_period_recorded() {
    let engine = setup(1);
    let spec = FeedSpec::new("t", "Tweets", SourceFactory::records(tweets(100)))
        .with_function("tweetSafetyCheck")
        .with_batch_size(10);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert!(report.computing_jobs >= 10, "jobs: {}", report.computing_jobs);
    assert!(report.avg_refresh_period > std::time::Duration::ZERO);
    assert_eq!(report.batch_latency.count, report.computing_jobs);
}
