//! One engine lifetime: scratch directory, source log, engine with
//! default settings, DDL, reference data — and the backlog drain that
//! loads it, which is also the `ingest_rec_s` measurement.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use idea::adm::{json, Value};
use idea::obs::{Snapshot, SnapshotValue};
use idea::prelude::*;
use idea::storage::PartitionedDataset;
use idea::workload::{setup_scenario, ScenarioKey};

use crate::inputs::{self, Reference};
use crate::trace::{Sample, Sampler};
use crate::workloads::{BATCH_SIZE, NODES};

/// A drain that stores nothing for this long has failed.
const STALL_LIMIT: Duration = Duration::from_secs(60);
pub const LOAD_FEED: &str = "load";
pub const LIVE_FEED: &str = "live";

/// Reads a counter, gauge or probe out of a snapshot; absent reads 0.
pub fn reading(snap: &Snapshot, name: &str) -> f64 {
    match snap.get(name) {
        Some(SnapshotValue::Counter(c)) => *c as f64,
        Some(SnapshotValue::Gauge(g)) => *g as f64,
        _ => 0.0,
    }
}

/// Public counters of one engine lifetime, read when it closes. Summed
/// over a run's engines they are the traced run's per-layer counts.
#[derive(Default)]
pub struct Counters {
    pub stored: f64,
    pub jobs: f64,
    pub blocked_pushes: f64,
    pub stall_nanos: f64,
    pub bytes_ingested: f64,
    pub bytes_written: f64,
    pub flushes: f64,
    pub merges: f64,
    pub wal_bytes: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub shed: f64,
}

impl Counters {
    fn add(&mut self, snap: &Snapshot, dataset: &str) {
        for feed in [LOAD_FEED, LIVE_FEED] {
            self.stored += reading(snap, &format!("feed/{feed}/store/records"));
            self.jobs += reading(snap, &format!("feed/{feed}/computing/jobs"));
            let holders = format!("feed/{feed}/holder");
            self.blocked_pushes += snap
                .under(&holders)
                .filter(|e| e.name.ends_with("/blocked_pushes"))
                .map(|e| reading(snap, &e.name))
                .sum::<f64>();
        }
        let storage = |leaf: &str| reading(snap, &format!("storage/{dataset}/{leaf}"));
        self.stall_nanos += storage("put_stall_nanos");
        self.bytes_ingested += storage("bytes_ingested");
        self.bytes_written += storage("bytes_written");
        self.flushes += storage("flushes");
        self.merges += storage("merges");
        self.wal_bytes += storage("wal/bytes");
        self.cache_hits += storage("cache/hits");
        self.cache_misses += storage("cache/misses");
        self.shed += snap.under("serve/shed").map(|e| reading(snap, &e.name)).sum::<f64>();
    }
}

/// An open engine with its target dataset created and, for an
/// enriching feed, `SafetyRatings` loaded and the UDF registered.
pub struct Stage {
    pub engine: Arc<IngestionEngine>,
    pub dir: PathBuf,
    pub udf: bool,
    /// Seconds of set-up this engine cost so far: building its source
    /// log, opening it, DDL, reference load, `sync`, quiescing.
    pub setup_s: f64,
}

/// What one backlog drain measured.
pub struct Drain {
    /// Records stored and readable per second over the 10 %–100 % part
    /// of the drain, so feed start-up is not in the rate.
    pub rec_s: f64,
    pub wall_s: f64,
    pub samples: Vec<Sample>,
}

impl Stage {
    pub fn dataset_name(&self) -> &'static str {
        if self.udf {
            "EnrichedTweets"
        } else {
            "Tweets"
        }
    }

    pub fn dataset(&self) -> Arc<PartitionedDataset> {
        self.engine
            .catalog()
            .dataset(self.dataset_name())
            .expect("the target dataset exists")
    }

    /// A pipeline spec reading the partitioned log at `log` into
    /// `dataset`, through the UDF when `enrich` is set.
    pub fn pipeline(
        &self,
        name: &str,
        log: &Path,
        dataset: &str,
        enrich: bool,
        batch: usize,
    ) -> String {
        let transform = if enrich { vec![Value::str("enrichSafetyRating")] } else { vec![] };
        json::to_string(&Value::object([
            ("name", Value::str(name)),
            (
                "source",
                Value::object([
                    ("type", Value::str("logfile")),
                    ("path", Value::str(log.display().to_string())),
                ]),
            ),
            ("transform", Value::Array(transform)),
            (
                "target",
                Value::object([
                    ("dataset", Value::str(dataset)),
                    ("batch-size", Value::Int(batch as i64)),
                ]),
            ),
        ]))
    }

    /// Flushes and merges the target dataset down to one component per
    /// partition; counted as set-up.
    pub fn quiesce(&mut self) {
        let t = Instant::now();
        for p in self.dataset().partitions() {
            p.flush();
            p.merge();
        }
        self.setup_s += t.elapsed().as_secs_f64();
    }

    /// Shuts the engine down, adds its counters to `into` and removes
    /// its scratch directory.
    pub fn close(self, into: &mut Counters) {
        into.add(&self.engine.metrics().snapshot(), self.dataset_name());
        self.engine.shutdown();
        drop(self.engine);
        std::fs::remove_dir_all(&self.dir).expect("scratch directory can be removed");
    }
}

/// Writes a sealed two-partition log of `tweets` at `root`; record `i`
/// goes to partition `i % 2`.
fn sealed_log(root: &Path, tweets: &[String]) {
    let mut log = PartitionedLog::create(root, NODES).expect("create source log");
    for (i, t) in tweets.iter().enumerate() {
        log.append(i % NODES, t).expect("append to source log");
    }
    log.seal().expect("seal source log");
}

/// Sets up a fresh engine under `dir` and drains a sealed log of
/// `tweets` into it through a logfile feed. With `sample` set the
/// public counters are sampled at 10 Hz while it drains.
pub fn load(dir: &Path, tweets: &[String], udf: bool, seed: u64, sample: bool) -> (Stage, Drain) {
    let t = Instant::now();
    std::fs::create_dir_all(dir).expect("create scratch directory");
    let log = dir.join("log");
    sealed_log(&log, tweets);
    let engine = IngestionEngine::with_storage_root(NODES, dir.join("store")).expect("open engine");
    let mut stage = Stage { engine, dir: dir.to_owned(), udf, setup_s: 0.0 };
    let dataset = stage.dataset_name();
    stage
        .engine
        .run_sqlpp(&format!(
            r#"CREATE TYPE TweetType AS OPEN {{ id: int64, text: string }};
               CREATE DATASET {dataset}(TweetType) PRIMARY KEY id
                   WITH {{"storage": "disk", "fsync": "never"}};"#
        ))
        .expect("DDL");
    if udf {
        setup_scenario(stage.engine.catalog(), ScenarioKey::SafetyRating, &inputs::scale(), seed)
            .expect("load SafetyRatings and register the UDF");
    }
    // Write back what set-up dirtied now, not inside the timed window.
    let _ = std::process::Command::new("sync").status();
    stage.setup_s = t.elapsed().as_secs_f64();

    let total = tweets.len() as u64;
    let doc = stage.pipeline(LOAD_FEED, &log, dataset, udf, BATCH_SIZE);
    let sampler = sample.then(|| {
        Sampler::start(stage.engine.clone(), LOAD_FEED, dataset, Arc::new(AtomicU64::new(total)))
    });
    let started = Instant::now();
    let feed = stage.engine.start_pipeline(&doc).expect("start load feed");
    let stored = feed.metrics().records_stored.clone();
    let (mut tenth, mut last, mut progress) = (None, 0, Instant::now());
    let done = loop {
        let (now, n) = (Instant::now(), stored.get());
        if tenth.is_none() && n >= total / 10 {
            tenth = Some((now, n));
        }
        if n >= total {
            break now;
        }
        if n > last {
            (last, progress) = (n, now);
        }
        assert!(now - progress < STALL_LIMIT, "drain stalled at {n} of {total} records");
        std::thread::sleep(Duration::from_millis(2));
    };
    feed.wait().expect("load feed ends at the seal");
    let (t10, n10) = tenth.expect("the drain passed its first tenth");
    let drain = Drain {
        rec_s: (total - n10) as f64 / (done - t10).as_secs_f64(),
        wall_s: (done - started).as_secs_f64(),
        samples: sampler.map(Sampler::stop).unwrap_or_default(),
    };
    (stage, drain)
}

/// The drain oracle: `COUNT(*)` equals the records sent, and every
/// hundredth record reads back exactly as ingesting its tweet must
/// leave it. Returns `(checked, failed)`; a short count fails every
/// missing record.
pub fn verify_drain(stage: &Stage, tweets: &[String], reference: &Reference) -> (u64, u64) {
    let dataset = stage.dataset_name();
    let count = stage
        .engine
        .new_session(SessionConfig::new())
        .query(&format!("SELECT VALUE COUNT(*) FROM {dataset} t"))
        .expect("COUNT(*) runs");
    let counted = count.as_array().and_then(|a| a.first()).and_then(Value::as_int).unwrap_or(0);
    let mut failed = (tweets.len() as i64 - counted).unsigned_abs();
    let ds = stage.dataset();
    let reference = stage.udf.then_some(reference);
    for (id, tweet) in tweets.iter().enumerate().step_by(100) {
        let stored = ds.get(&Value::Int(id as i64)).expect("point lookup");
        if !stored.is_some_and(|r| inputs::record_ok(&r, tweet, 0, reference)) {
            failed += 1;
        }
    }
    (tweets.len() as u64, failed)
}
