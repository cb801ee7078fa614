//! Failure-injection tests: poison records, failing UDFs, and shutdown
//! robustness.

use std::sync::Arc;

use idea_adm::Value;
use idea_core::{FeedSpec, IngestionEngine, SourceFactory};
use idea_query::{Catalog, Session, StatementResult};

fn run_sqlpp(catalog: &Arc<Catalog>, text: &str) -> idea_query::Result<Vec<StatementResult>> {
    Session::new(catalog.clone()).run_script(text)
}
use idea_query::QueryError;

fn setup() -> Arc<IngestionEngine> {
    let engine = IngestionEngine::with_nodes(2);
    run_sqlpp(
        engine.catalog(),
        r#"
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        "#,
    )
    .unwrap();
    engine
}

fn tweets(n: i64) -> Vec<String> {
    (0..n).map(|i| format!(r#"{{"id": {i}, "text": "t{i}"}}"#)).collect()
}

#[test]
fn poison_records_dropped_not_fatal() {
    let engine = setup();
    // A native UDF that fails on every 7th record.
    engine
        .catalog()
        .register_native_function(
            "flaky",
            1,
            Arc::new(|| {
                Box::new(|args: &[Value]| {
                    let id = args[0]
                        .as_object()
                        .and_then(|o| o.get("id"))
                        .and_then(Value::as_int)
                        .unwrap_or(0);
                    if id % 7 == 0 {
                        Err(QueryError::Eval("poison record".into()))
                    } else {
                        Ok(Value::Array(vec![args[0].clone()]))
                    }
                }) as Box<dyn idea_query::NativeUdf>
            }),
        )
        .unwrap();
    let spec = FeedSpec::new("flaky", "Tweets", SourceFactory::records(tweets(70)))
        .with_function("flaky")
        .with_batch_size(10);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.enrich_errors, 10, "ids 0,7,...,63 fail");
    assert_eq!(report.records_stored, 60);
    assert_eq!(engine.catalog().dataset("Tweets").unwrap().len(), 60);
}

#[test]
fn always_failing_udf_still_drains_feed() {
    let engine = setup();
    engine
        .catalog()
        .register_native_function(
            "alwaysfail",
            1,
            Arc::new(|| {
                Box::new(|_args: &[Value]| -> idea_query::Result<Value> {
                    Err(QueryError::Eval("nope".into()))
                }) as Box<dyn idea_query::NativeUdf>
            }),
        )
        .unwrap();
    let spec = FeedSpec::new("af", "Tweets", SourceFactory::records(tweets(50)))
        .with_function("alwaysfail")
        .with_batch_size(8);
    // The feed must terminate (no deadlock) and report the drops.
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.enrich_errors, 50);
    assert_eq!(report.records_stored, 0);
}

#[test]
fn missing_function_at_start_is_immediate_error() {
    let engine = setup();
    let spec = FeedSpec::new("nf", "Tweets", SourceFactory::records(tweets(5)))
        .with_function("doesNotExist");
    assert!(engine.start_feed(spec).is_err(), "fail fast, before any job starts");
}

#[test]
fn all_records_malformed_still_terminates() {
    let engine = setup();
    let junk: Vec<String> = (0..40).map(|i| format!("<<garbage {i}")).collect();
    let spec = FeedSpec::new("junk", "Tweets", SourceFactory::records(junk)).with_batch_size(8);
    let report = engine.start_feed(spec).unwrap().wait().unwrap();
    assert_eq!(report.parse_errors, 40);
    assert_eq!(report.records_stored, 0);
}

#[test]
fn two_feeds_run_concurrently_into_different_datasets() {
    let engine = setup();
    run_sqlpp(engine.catalog(), "CREATE DATASET Tweets2(TweetType) PRIMARY KEY id;").unwrap();
    let a = engine
        .start_feed(
            FeedSpec::new("fa", "Tweets", SourceFactory::records(tweets(150))).with_batch_size(16),
        )
        .unwrap();
    let b = engine
        .start_feed(
            FeedSpec::new("fb", "Tweets2", SourceFactory::records(tweets(120))).with_batch_size(16),
        )
        .unwrap();
    let ra = a.wait().unwrap();
    let rb = b.wait().unwrap();
    assert_eq!(ra.records_stored, 150);
    assert_eq!(rb.records_stored, 120);
    assert_eq!(engine.catalog().dataset("Tweets").unwrap().len(), 150);
    assert_eq!(engine.catalog().dataset("Tweets2").unwrap().len(), 120);
}

#[test]
fn stopping_twice_and_waiting_twice_is_safe() {
    let engine = setup();
    let spec = FeedSpec::new("tw", "Tweets", SourceFactory::records(tweets(20)));
    let handle = engine.start_feed(spec).unwrap();
    handle.stop();
    handle.stop(); // idempotent
    let first = handle.wait().unwrap();
    let second = handle.wait().expect("second wait returns the cached report");
    assert_eq!(first.records_stored, second.records_stored);
}
