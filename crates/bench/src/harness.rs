//! Real-engine experiment runner: stand up a cluster+catalog, install a
//! scenario, feed tweets, optionally run a concurrent reference-update
//! feed, and report throughput / refresh periods.

use idea_core::{
    ComputingModel, FeedSpec, GeneratorSource, IngestionEngine, IngestionReport, PipelineMode,
    SourceFactory,
};
use idea_workload::scenarios::{setup_scenario, setup_tweet_datasets};
use idea_workload::{updates, ScenarioKey, TweetGenerator, WorkloadScale};

/// Which UDF implementation the feed applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdfFlavor {
    /// The SQL++ declarative UDF.
    Sqlpp,
    /// The native ("Java") equivalent.
    Native,
    /// No UDF: plain ingestion.
    None,
}

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct EnrichmentRun {
    pub nodes: usize,
    pub scenario: Option<ScenarioKey>,
    pub flavor: UdfFlavor,
    /// Static (old framework) vs decoupled (new framework).
    pub mode: PipelineMode,
    pub model: ComputingModel,
    /// Records per node per computing job (the paper's 1X = 420).
    pub batch_size: u64,
    pub tweets: u64,
    pub ref_scale: WorkloadScale,
    /// Run all intake on all nodes ("balanced").
    pub balanced: bool,
    /// Concurrent reference updates per second (§7.3); 0 = none.
    pub update_rate: f64,
    pub predeploy: bool,
    pub seed: u64,
}

impl EnrichmentRun {
    /// Defaults matching the §7.2 setup: 6 nodes, decoupled, per-batch,
    /// balanced intake.
    pub fn new(scenario: Option<ScenarioKey>, tweets: u64, ref_scale: WorkloadScale) -> Self {
        EnrichmentRun {
            nodes: 6,
            scenario,
            flavor: if scenario.is_some() { UdfFlavor::Sqlpp } else { UdfFlavor::None },
            mode: PipelineMode::Decoupled,
            model: ComputingModel::PerBatch,
            batch_size: crate::BATCH_1X,
            tweets,
            ref_scale,
            balanced: true,
            update_rate: 0.0,
            predeploy: true,
            seed: 42,
        }
    }

    pub fn flavor(mut self, f: UdfFlavor) -> Self {
        self.flavor = f;
        self
    }

    pub fn mode(mut self, m: PipelineMode) -> Self {
        self.mode = m;
        self
    }

    pub fn batch_size(mut self, b: u64) -> Self {
        self.batch_size = b;
        self
    }

    pub fn update_rate(mut self, r: f64) -> Self {
        self.update_rate = r;
        self
    }

    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }
}

/// Runs one configuration on the real engine and returns its report.
pub fn run_enrichment(run: &EnrichmentRun) -> IngestionReport {
    let engine = IngestionEngine::with_nodes(run.nodes);
    setup_tweet_datasets(engine.catalog()).expect("tweet datasets");
    let function = match run.scenario {
        None => None,
        Some(key) => {
            let sc = setup_scenario(engine.catalog(), key, &run.ref_scale, run.seed)
                .expect("scenario setup");
            match run.flavor {
                UdfFlavor::Sqlpp => Some(sc.function),
                UdfFlavor::Native => Some(
                    sc.native_function.unwrap_or_else(|| panic!("{key:?} has no native variant")),
                ),
                UdfFlavor::None => None,
            }
        }
    };

    // Pre-generate the tweet stream: generation cost must not pollute
    // ingestion throughput.
    let gen = TweetGenerator::new(run.seed)
        .with_suspect_rate(100, run.ref_scale.suspects_names.max(run.ref_scale.sensitive_names));
    let records: Vec<String> = gen.batch(0, run.tweets);

    let mut spec = FeedSpec::new("bench", "Tweets", SourceFactory::records(records))
        .with_batch_size(run.batch_size as usize)
        .with_model(run.model)
        .with_mode(run.mode)
        .with_predeploy(run.predeploy);
    if run.balanced {
        spec = spec.balanced(run.nodes);
    }
    if let Some(f) = function {
        spec = spec.with_function(f);
    }

    // Optional concurrent reference-update feed (§7.3), rate-limited to
    // `update_rate` records/second.
    let update_handle = match (run.update_rate > 0.0, run.scenario) {
        (true, Some(key)) => {
            let target = key.primary_reference().to_owned();
            let scale = run.ref_scale;
            let seed = run.seed ^ 0xDEAD;
            let rate = run.update_rate;
            let factory = SourceFactory::new(move |_p, _n| {
                // Lazily generated, effectively unbounded update stream.
                Ok(GeneratorSource::new(u64::MAX, move |i| {
                    updates::update_record(key, &scale, seed, i)
                }))
            })
            .paced(rate);
            let upd_spec = FeedSpec::new("bench-updates", &target, factory)
                .with_batch_size(64)
                .with_intake_nodes(vec![0]);
            Some(engine.start_feed(upd_spec).expect("update feed"))
        }
        _ => None,
    };

    let handle = engine.start_feed(spec).expect("bench feed");
    let report = handle.wait().expect("bench feed run");
    if let Some(h) = update_handle {
        let _ = h.stop_and_wait();
    }
    assert_eq!(report.records_stored, run.tweets, "all tweets must be stored");
    report
}
