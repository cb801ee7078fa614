//! The traced run's instruments, all outside the engine: a 10 Hz
//! sampler of its public counters, a span recorder, and the
//! single-threaded layer replay that times calls into each layer's
//! public functions on the same input.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use idea::adm::{json, Value};
use idea::hyracks::{Frame, HolderMode, PartitionHolderManager};
use idea::prelude::*;
use idea::query::{apply_function, ExecContext, PlanCache};
use idea::serve::{read_frame, write_frame, Frame as WireFrame};

use crate::engine::{reading, Stage};
use crate::inputs::QueryMix;
use crate::stats::mean;
use crate::workloads::{BATCH_SIZE, NODES};

/// Defaults of `FeedSpec` the replay reproduces.
const FRAME_RECORDS: usize = 128;
const HOLDER_FRAMES: usize = 16;
/// `ServerConfig::default().result_batch_size`.
const RESULT_BATCH_ROWS: usize = 256;
const SCAN_BATCH_ROWS: usize = 1024;
const REPLAY_ROUNDS: u64 = 5;

// ---- sampler ----------------------------------------------------------

/// One 10 Hz reading of the engine's public counters.
#[derive(Clone)]
pub struct Sample {
    pub at_ms: f64,
    /// Records appended to the source minus `intake/records`.
    pub lag_records: f64,
    /// Deepest partition-holder queue of the feed, in frames.
    pub queue_depth: f64,
    /// Disk components of the target dataset, all partitions.
    pub components: f64,
}

pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Sample>>,
}

impl Sampler {
    /// Samples `feed` and `dataset` on `engine` every 100 ms until
    /// stopped; `appended` is the generator's count of records sent.
    pub fn start(
        engine: Arc<IngestionEngine>,
        feed: &str,
        dataset: &str,
        appended: Arc<AtomicU64>,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let (flag, feed, dataset) = (stop.clone(), feed.to_owned(), dataset.to_owned());
        let thread = std::thread::spawn(move || {
            let started = Instant::now();
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                let snap = engine.metrics().snapshot();
                let holders = format!("feed/{feed}/holder");
                samples.push(Sample {
                    at_ms: started.elapsed().as_secs_f64() * 1e3,
                    lag_records: appended.load(Ordering::Relaxed) as f64
                        - reading(&snap, &format!("feed/{feed}/intake/records")),
                    queue_depth: snap
                        .under(&holders)
                        .filter(|e| e.name.ends_with("/queue_depth"))
                        .map(|e| reading(&snap, &e.name))
                        .fold(0.0, f64::max),
                    components: reading(&snap, &format!("storage/{dataset}/components")),
                });
                std::thread::sleep(Duration::from_millis(100));
            }
            samples
        });
        Sampler { stop, thread }
    }

    pub fn stop(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("sampler thread ends cleanly")
    }
}

// ---- spans ------------------------------------------------------------

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Batch index or query-round index the span belongs to.
    pub trace_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for single-threaded code: the open spans
/// form a stack, so a span's parent is whatever was open when it began.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        trace_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied();
        self.spans
            .push(Span { name, layer, trace_id, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Total duration of the spans called `name`, in microseconds.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    }

    /// Self time per layer in microseconds: each span's duration minus
    /// the part its child spans cover.
    pub fn self_us_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| (s.end_ns - s.start_ns) as f64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as f64;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_layer.entry(s.layer).or_insert(0.0) += ns / 1e3;
        }
        by_layer
    }

    pub fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    Value::object([
                        ("name", Value::str(s.name)),
                        ("layer", Value::str(s.layer)),
                        ("trace_id", Value::Int(s.trace_id as i64)),
                        ("parent", s.parent.map_or(Value::Null, |p| Value::Int(p as i64))),
                        ("start_ns", Value::Int(s.start_ns as i64)),
                        ("end_ns", Value::Int(s.end_ns as i64)),
                    ])
                })
                .collect(),
        )
    }
}

// ---- layer replay -----------------------------------------------------

/// Per-layer times the replay measured.
#[derive(Default)]
pub struct Replay {
    pub records: u64,
    pub connect_read_us_per_rec: f64,
    pub adm_parse_us_per_rec: f64,
    pub hyracks_holder_us_per_rec: f64,
    pub query_udf_us_per_rec: f64,
    pub query_udf_build_us_per_batch: f64,
    pub storage_upsert_us_per_rec: f64,
    pub storage_scan_us_per_rec: f64,
    pub query_exec_ms: [f64; 3],
    pub serve_overhead_ms: f64,
    pub serve_frame_us_per_row: f64,
}

impl Replay {
    /// Layer microseconds per record along the ingest journey.
    pub fn ingest_us_per_rec(&self) -> f64 {
        self.connect_read_us_per_rec
            + self.adm_parse_us_per_rec
            + self.hyracks_holder_us_per_rec
            + self.query_udf_us_per_rec
            + self.storage_upsert_us_per_rec
    }
}

/// Replays the stage's sealed source log through the ingest layers one
/// batch at a time on this thread, writing into a scratch disk dataset
/// of the same engine.
fn replay_ingest(stage: &Stage, tracer: &mut Tracer, out: &mut Replay) {
    let catalog = stage.engine.catalog().clone();
    stage
        .engine
        .run_sqlpp(
            r#"CREATE DATASET ReplayTweets(TweetType) PRIMARY KEY id
                   WITH {"storage": "disk", "fsync": "never"};"#,
        )
        .expect("create the replay dataset");
    let target = catalog.dataset("ReplayTweets").expect("replay dataset exists");
    let datatype = catalog.get_type("TweetType").expect("tweet type exists");
    let holders = PartitionHolderManager::new();
    let intake = holders
        .register("replay::intake", HolderMode::Passive, HOLDER_FRAMES)
        .expect("register intake holder");
    let storage = holders
        .register("replay::storage", HolderMode::Active, HOLDER_FRAMES)
        .expect("register storage holder");
    let plans = PlanCache::new();
    let mut connectors: Vec<LogConnector> = (0..NODES)
        .map(|p| {
            let mut c = LogConnector::new(stage.dir.join("log"), p);
            c.open().expect("open the source log");
            c
        })
        .collect();
    let mut builds = Vec::new();
    let (mut batch_no, mut live) = (0u64, NODES);
    while live > 0 {
        live = 0;
        for conn in &mut connectors {
            let mut records = 0;
            tracer.span("batch", "bench", batch_no, |tr| {
                let read = tr.span("connect.read_batch", "connect", batch_no, |_| {
                    conn.read_batch(BATCH_SIZE).expect("read the source log")
                });
                records = read.records.len();
                if records == 0 {
                    return;
                }
                let raw: Vec<Value> =
                    read.records.into_iter().map(|r| Value::Str(r.payload)).collect();
                let pulled = tr.span("hyracks.intake_holder", "hyracks", batch_no, |_| {
                    for frame in Frame::chunked(raw, FRAME_RECORDS) {
                        intake.push_frame(frame).expect("push into the intake holder");
                    }
                    intake.try_pull_batch(BATCH_SIZE).expect("pull the batch").into_records()
                });
                let parsed: Vec<Value> = tr.span("adm.parse", "adm", batch_no, |_| {
                    pulled
                        .iter()
                        .map(|r| {
                            let text = r.as_str().expect("raw records are strings");
                            let v = json::parse(text.as_bytes()).expect("tweets parse");
                            datatype.validate(&v).expect("tweets conform to TweetType");
                            v
                        })
                        .collect()
                });
                // What the computing job does between parse and store:
                // open a fresh context (always), then either evaluate
                // the UDF per record or pass the batch through.
                let enriched = tr.span("query.udf", "query", batch_no, |tr| {
                    let t = Instant::now();
                    let mut ctx = ExecContext::with_plan_cache(catalog.clone(), plans.clone());
                    let fresh = t.elapsed().as_secs_f64();
                    if !stage.udf {
                        builds.push(fresh * 1e6);
                        return parsed.into_iter().collect::<Vec<Value>>();
                    }
                    let mut apply = |rec: &Value| match apply_function(
                        &mut ctx,
                        "enrichSafetyRating",
                        std::slice::from_ref(rec),
                    )
                    .expect("the UDF evaluates")
                    {
                        Value::Array(items) => items,
                        other => vec![other],
                    };
                    // The first call in a fresh context builds the
                    // hash-join state the rest of the batch probes.
                    let t = Instant::now();
                    let mut all =
                        tr.span("query.udf_first", "query", batch_no, |_| apply(&parsed[0]));
                    let first = t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    all.extend(parsed[1..].iter().flat_map(&mut apply));
                    let rest = t.elapsed().as_secs_f64() / (parsed.len() - 1).max(1) as f64;
                    builds.push((fresh + (first - rest).max(0.0)) * 1e6);
                    all
                });
                let to_store = tr.span("hyracks.storage_holder", "hyracks", batch_no, |_| {
                    for frame in Frame::chunked(enriched, FRAME_RECORDS) {
                        storage.push_frame(frame).expect("push into the storage holder");
                    }
                    storage.try_pull_batch(BATCH_SIZE).expect("pull the batch").into_records()
                });
                tr.span("storage.upsert", "storage", batch_no, |_| {
                    for rec in to_store {
                        target.upsert(rec).expect("upsert into the replay dataset");
                    }
                });
            });
            if records > 0 {
                live += 1;
                out.records += records as u64;
                batch_no += 1;
            }
        }
    }
    let n = out.records.max(1) as f64;
    out.connect_read_us_per_rec = tracer.total_us("connect.read_batch") / n;
    out.adm_parse_us_per_rec = tracer.total_us("adm.parse") / n;
    out.hyracks_holder_us_per_rec =
        (tracer.total_us("hyracks.intake_holder") + tracer.total_us("hyracks.storage_holder")) / n;
    out.query_udf_us_per_rec = tracer.total_us("query.udf") / n;
    out.query_udf_build_us_per_batch = mean(&builds);
    out.storage_upsert_us_per_rec = tracer.total_us("storage.upsert") / n;
}

/// Replays query rounds on this thread: each query of the mix over TCP
/// and in process on the same data, a bare storage scan, and the wire
/// framing of one result batch.
fn replay_queries(
    stage: &Stage,
    server: &Server,
    mix: &QueryMix,
    tracer: &mut Tracer,
    out: &mut Replay,
) {
    let mut conn = Client::connect(server.local_addr(), "bench").expect("connect to the server");
    let session = stage.engine.new_session(SessionConfig::new());
    let ds = stage.dataset();
    let rows_json =
        json::to_string(&Value::Array((0..RESULT_BATCH_ROWS as i64).map(Value::Int).collect()));
    let (mut overhead, mut scanned) = (Vec::new(), 0u64);
    let mut exec: [Vec<f64>; 3] = Default::default();
    for round in 0..REPLAY_ROUNDS {
        tracer.span("round", "bench", round, |tr| {
            for (q, text) in mix.texts.iter().enumerate() {
                let t = Instant::now();
                tr.span("serve.client_query", "serve", round, |_| {
                    conn.query(text).expect("query over TCP")
                });
                let wire = t.elapsed().as_secs_f64() * 1e3;
                let t = Instant::now();
                tr.span("query.exec", "query", round, |_| {
                    let mut stream = session.query_stream(text).expect("query in process");
                    let mut rows = 0;
                    while let Some(batch) = stream.next_batch().expect("stream batch") {
                        rows += batch.len();
                    }
                    rows
                });
                let inproc = t.elapsed().as_secs_f64() * 1e3;
                exec[q].push(inproc);
                overhead.push(wire - inproc);
            }
            scanned += tr.span("storage.scan", "storage", round, |_| {
                ds.snapshot_all()
                    .iter()
                    .flat_map(|s| s.iter_batches(SCAN_BATCH_ROWS).map(|b| b.len() as u64))
                    .sum::<u64>()
            });
            tr.span("serve.frame", "serve", round, |_| {
                let mut wire = Vec::new();
                write_frame(&mut wire, &WireFrame::Rows { json: rows_json.clone() })
                    .expect("encode a rows frame");
                read_frame(&mut wire.as_slice()).expect("decode a rows frame")
            });
        });
    }
    for (q, samples) in exec.iter().enumerate() {
        out.query_exec_ms[q] = mean(samples);
    }
    // Per round: three paired differences, summed.
    out.serve_overhead_ms = mean(&overhead) * mix.texts.len() as f64;
    out.storage_scan_us_per_rec = tracer.total_us("storage.scan") / scanned.max(1) as f64;
    out.serve_frame_us_per_row =
        tracer.total_us("serve.frame") / (REPLAY_ROUNDS as usize * RESULT_BATCH_ROWS) as f64;
}

/// Runs both replays against a loaded stage and its server.
pub fn replay(stage: &Stage, server: &Server, mix: &QueryMix) -> (Tracer, Replay) {
    let (mut tracer, mut out) = (Tracer::new(), Replay::default());
    replay_ingest(stage, &mut tracer, &mut out);
    replay_queries(stage, server, mix, &mut tracer, &mut out);
    (tracer, out)
}
