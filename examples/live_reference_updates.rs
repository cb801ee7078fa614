//! The paper's core claim, demonstrated: a *stateful* SQL++ UDF on a
//! feed picks up reference-data updates while the feed is running —
//! because the per-batch computing model (Model 2) rebuilds the UDF's
//! intermediate state every batch. A stream-model (Model 3) feed run on
//! the same input stays blind to the update, which is exactly the old
//! framework's limitation (§4.3.4).
//!
//! Run with: `cargo run --example live_reference_updates`

use idea::prelude::*;

fn tweet(id: i64) -> String {
    format!(r#"{{"id": {id}, "text": "the train is leaving", "country": "DE"}}"#)
}

fn slow_feed(n: i64, per_second: f64) -> SourceFactory {
    SourceFactory::records((0..n).map(tweet).collect()).paced(per_second)
}

fn run(engine: &IngestionEngine, name: &str, model: ComputingModel) -> (u64, usize) {
    let session = engine.new_session(SessionConfig::new());
    // Reset the keyword list: "train" is NOT sensitive yet.
    session.run_script(r#"DELETE FROM SensitiveWords w;"#).unwrap();
    session.run_script(r#"DELETE FROM Tweets t;"#).unwrap();

    let spec = FeedSpec::new(name, "Tweets", slow_feed(200, 400.0))
        .with_function("tweetSafetyCheck")
        .with_batch_size(25)
        .with_model(model);
    let handle = engine.start_feed(spec).unwrap();

    // Mid-feed, the reference data changes: "train" becomes sensitive
    // for DE (an analyst reacting to events, §3.3's UPSERT path).
    std::thread::sleep(std::time::Duration::from_millis(150));
    session
        .run_script(
            r#"UPSERT INTO SensitiveWords ([{"wid": 1, "country": "DE", "word": "train"}]);"#,
        )
        .unwrap();

    let report = handle.wait().unwrap();
    let reds = session
        .query(r#"SELECT VALUE t.id FROM Tweets t WHERE t.safety_check_flag = "Red""#)
        .unwrap();
    (report.records_stored, reds.as_array().unwrap().len())
}

fn main() {
    let engine = IngestionEngine::with_nodes(2);
    engine
        .new_session(SessionConfig::new())
        .run_script(
            r#"
        CREATE TYPE TweetType AS OPEN { id: int64, text: string };
        CREATE DATASET Tweets(TweetType) PRIMARY KEY id;
        CREATE TYPE WordType AS OPEN { wid: int64, country: string, word: string };
        CREATE DATASET SensitiveWords(WordType) PRIMARY KEY wid;
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

    let (stored, reds) = run(&engine, "per-batch", ComputingModel::PerBatch);
    println!("Model 2 (per batch, the paper's design):");
    println!("  {stored} tweets stored, {reds} flagged Red");
    println!("  → tweets enriched after the mid-feed UPSERT saw the new keyword\n");

    let (stored, reds) = run(&engine, "stream", ComputingModel::Stream);
    println!("Model 3 (stream, the old framework's semantics):");
    println!("  {stored} tweets stored, {reds} flagged Red");
    println!("  → the hash table built at feed start never saw the update");
}
