//! Ablations beyond the paper's own figures: what each design choice of
//! §5 buys, measured on the real engine.
//!
//! 1. **Predeployed jobs** (§5.1) vs recompiling the computing job per
//!    batch.
//! 2. **Computing models** (§4.3): per-record (Model 1) vs per-batch
//!    (Model 2) vs stream (Model 3) throughput on the same workload.
//! 3. **Partition-holder queue depth** (§5.3): back-pressure vs
//!    buffering.
//! 4. **Fault-tolerance overhead**: a supervised, checkpointed feed
//!    with zero injected faults vs an unsupervised one — the price of
//!    the safety net when nothing goes wrong.

use idea_bench::{run_enrichment, table::fmt_rate, EnrichmentRun, Table, BATCH_1X};
use idea_core::{
    ComputingModel, ErrorPolicy, Fallback, FeedSpec, IngestionEngine, RetryPolicy, SourceFactory,
    SupervisionSpec,
};
use idea_workload::scenarios::{setup_scenario, setup_tweet_datasets};
use idea_workload::{ScenarioKey, TweetGenerator, WorkloadScale};

fn main() {
    let tweets = idea_bench::env_tweets();
    let scale = WorkloadScale::scaled(idea_bench::env_ref_scale());

    // 1. Predeploy vs per-batch recompilation.
    let mut t1 = Table::new(["configuration", "throughput (rec/s)", "avg refresh (ms)"]);
    for (label, predeploy) in [("predeployed computing job", true), ("recompiled per batch", false)]
    {
        let mut run =
            EnrichmentRun::new(Some(ScenarioKey::SafetyRating), tweets, scale).batch_size(BATCH_1X);
        run.predeploy = predeploy;
        let r = run_enrichment(&run);
        t1.row([
            label.to_owned(),
            fmt_rate(r.throughput),
            format!("{:.2}", r.avg_refresh_period.as_secs_f64() * 1e3),
        ]);
    }
    t1.print("Ablation 1: parameterized predeployed jobs (§5.1)");

    // 2. Computing models on the safety-check workload.
    let mut t2 = Table::new(["computing model", "throughput (rec/s)", "jobs"]);
    for (label, model, n) in [
        ("Model 1: per record", ComputingModel::PerRecord, tweets / 10),
        ("Model 2: per batch (the framework's)", ComputingModel::PerBatch, tweets),
        ("Model 3: stream (stale state)", ComputingModel::Stream, tweets),
    ] {
        let mut run = EnrichmentRun::new(Some(ScenarioKey::SafetyCheck), n.max(200), scale)
            .batch_size(BATCH_1X);
        run.model = model;
        let r = run_enrichment(&run);
        t2.row([label.to_owned(), fmt_rate(r.throughput), r.computing_jobs.to_string()]);
    }
    t2.print("Ablation 2: computing models (§4.3; Model 1 runs 10% of the tweets)");

    // 3. Partition-holder capacity.
    let mut t3 = Table::new(["holder capacity (frames)", "throughput (rec/s)"]);
    for cap in [1usize, 4, 16, 64] {
        let engine = IngestionEngine::with_nodes(6);
        setup_tweet_datasets(engine.catalog()).unwrap();
        let sc = setup_scenario(engine.catalog(), ScenarioKey::SafetyRating, &scale, 7).unwrap();
        let records = TweetGenerator::new(42).batch(0, tweets);
        let mut spec = FeedSpec::new("holders", "Tweets", SourceFactory::records(records))
            .with_function(&sc.function)
            .with_batch_size(BATCH_1X as usize)
            .balanced(6);
        spec.holder_capacity = cap;
        let r = engine.start_feed(spec).unwrap().wait().unwrap();
        t3.row([cap.to_string(), fmt_rate(r.throughput)]);
    }
    t3.print("Ablation 3: partition-holder queue depth (§5.3)");

    // 4. Fault-tolerance overhead on a fault-free run.
    let mut t4 = Table::new(["configuration", "throughput (rec/s)", "checkpoints"]);
    for (label, supervised) in
        [("unsupervised", false), ("supervised + checkpoints every 2 batches", true)]
    {
        let engine = IngestionEngine::with_nodes(6);
        setup_tweet_datasets(engine.catalog()).unwrap();
        let sc = setup_scenario(engine.catalog(), ScenarioKey::SafetyRating, &scale, 7).unwrap();
        let records = TweetGenerator::new(42).batch(0, tweets);
        let mut spec = FeedSpec::new("ft", "Tweets", SourceFactory::records(records))
            .with_function(&sc.function)
            .with_batch_size(BATCH_1X as usize)
            .balanced(6);
        if supervised {
            let mut sup = SupervisionSpec {
                parse: ErrorPolicy::SkipToDeadLetter,
                enrich: ErrorPolicy::retry(RetryPolicy::default(), Fallback::DeadLetter),
                checkpoint_interval: Some(2),
                ..Default::default()
            };
            sup.restart.max_restarts = 2;
            spec = spec.with_supervision(sup);
        }
        let r = engine.start_feed(spec).unwrap().wait().unwrap();
        t4.row([label.to_owned(), fmt_rate(r.throughput), r.checkpoints.to_string()]);
    }
    t4.print("Ablation 4: fault-tolerance overhead (zero faults injected)");
}
