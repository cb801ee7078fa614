//! Quickstart: the paper's introductory workflow, end to end.
//!
//! Creates a tweet dataset and a sensitive-keyword reference dataset,
//! attaches the Figure 8 safety-check UDF to a data feed, ingests a
//! thousand synthetic tweets through the decoupled pipeline, and runs
//! the Figure 9 analytical query over the *enriched* data.
//!
//! Run with: `cargo run --example quickstart`

use idea::prelude::*;
use idea::workload::scenarios::{setup_scenario, setup_tweet_datasets};
use idea::workload::{ScenarioKey, TweetGenerator, WorkloadScale};

fn main() {
    // A 4-node AsterixDB-like instance (simulated cluster + catalog +
    // Active Feed Manager).
    let engine = IngestionEngine::with_nodes(4);

    // DDL: tweet datasets plus the SensitiveWords reference data and the
    // tweetSafetyCheck SQL++ UDF (paper Figures 1 and 8).
    setup_tweet_datasets(engine.catalog()).expect("DDL");
    let scale = WorkloadScale { sensitive_words: 2_000, ..WorkloadScale::tiny() };
    let scenario =
        setup_scenario(engine.catalog(), ScenarioKey::SafetyCheck, &scale, 7).expect("scenario");

    // A feed over 1000 synthetic tweets with the UDF attached — the
    // DDL equivalent is:
    //   CONNECT FEED TweetFeed TO DATASET Tweets APPLY FUNCTION tweetSafetyCheck;
    let tweets = TweetGenerator::new(1).batch(0, 1_000);
    let spec = FeedSpec::new("TweetFeed", "Tweets", SourceFactory::records(tweets))
        .with_function(&scenario.function)
        .with_batch_size(100);
    let handle = engine.start_feed(spec).expect("start feed");
    let report = handle.wait().expect("feed run");

    println!(
        "ingested {} tweets in {:?} ({:.0} records/s) across {} computing jobs",
        report.records_stored, report.elapsed, report.throughput, report.computing_jobs
    );

    // Every number the report aggregates (and more: queue gauges, batch
    // latency percentiles, LSM flush counts) lives in the metrics
    // registry; snapshots also render as an ADM value for SQL++.
    let snapshot = engine.metrics().snapshot();
    println!("\nfeed metrics:");
    for entry in snapshot.under("feed/TweetFeed") {
        println!("  {}", entry.name);
    }
    let p99 = snapshot.histogram("feed/TweetFeed/batch_latency").expect("histogram").p99();
    println!("p99 batch latency: {p99:?}");

    // The paper's Figure 9 analytical query — over already-enriched data,
    // so no UDF evaluation at query time.
    let result = engine
        .new_session(SessionConfig::new())
        .query(
            r#"SELECT t.country Country, count(t) Num
           FROM Tweets t
           WHERE t.safety_check_flag = "Red"
           GROUP BY t.country
           ORDER BY count(t) DESC, t.country
           LIMIT 5"#,
        )
        .expect("analytical query");

    println!("top flagged countries:");
    for row in result.as_array().expect("rows") {
        println!("  {row}");
    }
}
