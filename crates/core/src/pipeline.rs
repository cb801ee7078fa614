//! Pipeline operators and job-spec builders (paper Figure 23).
//!
//! The decoupled framework builds three jobs:
//!
//! * **intake job** — `Source Connector → Round-robin Partitioner →
//!   Intake Partition Holder (passive)`; runs for the feed's lifetime;
//! * **computing job** — `Collector+Parser → UDF Evaluator → Feed
//!   Pipeline Sink`; deployed once, invoked per batch;
//! * **storage job** — `Storage Partition Holder (active) → Hash
//!   Partitioner → Storage Partition`; runs for the feed's lifetime.
//!
//! The old framework ("static ingestion") couples everything in one job:
//! `Adapter+Parser+UDF (intake nodes) → Hash Partitioner → Storage
//! Partition`, with UDF state built once per feed (Model 3).
//!
//! Fault-tolerance hooks (see `idea-ft`): the adapter source honours the
//! checkpoint [`PauseGate`] and replays from committed offsets after a
//! restart; parse/enrich/storage failures are dispatched through the
//! feed's per-stage [`ErrorPolicy`]; a [`FaultInjector`] (when a fault
//! plan is attached) deterministically injects disconnects, poison
//! records, UDF faults and slow storage.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use idea_adm::{Datatype, Value};
use idea_connect::{CdcOp, SourceConnector, SourceRecord};
use idea_ft::{
    CheckpointStore, DeadLetterSink, ErrorPolicy, Fallback, FaultInjector, PartitionOffset,
    PauseGate,
};
use idea_hyracks::{
    ConnectorSpec, Frame, FrameSink, HolderGroup, HolderMode, JobSpec, Operator, PartitionHolder,
    TaskContext,
};
use idea_obs::MetricsScope;
use idea_query::{apply_function, Catalog, ExecContext, PlanCache};
use parking_lot::Mutex;

use crate::error::IngestError;
use crate::metrics::FeedMetrics;
use crate::models::{ComputingModel, FeedSpec};

/// State shared by all operators of one feed attempt.
pub(crate) struct FeedShared {
    pub spec: Arc<FeedSpec>,
    pub catalog: Arc<Catalog>,
    pub metrics: Arc<FeedMetrics>,
    /// This feed's registry scope (`feed/<name>`); holder instruments
    /// hang off it.
    pub obs: MetricsScope,
    /// User-requested stop; survives supervisor restarts.
    pub stop: Arc<AtomicBool>,
    /// Supervisor-requested abort of *this attempt* (fresh per attempt).
    pub abort: Arc<AtomicBool>,
    /// Shared compiled plans and the UDF build sides memoized with them
    /// — the predeployed aspect of the computing job (reused across
    /// invocations and nodes when `spec.predeploy`).
    pub plan_cache: Arc<PlanCache>,
    /// Model-3 contexts, one per node, surviving across computing jobs.
    pub stream_ctxs: Arc<Mutex<HashMap<usize, ExecContext>>>,
    /// Target-dataset datatype for parse-time validation.
    pub datatype: Datatype,
    /// Deterministic fault injector (only when a fault plan is attached).
    pub injector: Option<Arc<FaultInjector>>,
    /// Dead-letter capture (only when a policy asks for it).
    pub dead_letter: Option<Arc<DeadLetterSink>>,
    /// Per-intake-partition emitted/committed offsets.
    pub ckpt: Arc<CheckpointStore>,
    /// Checkpoint pause barrier between the driver and the adapters
    /// (fresh per attempt).
    pub gate: Arc<PauseGate>,
    /// Committed offsets at attempt start: per partition, both the
    /// record count (the quiescence clock's zero point) and the source
    /// position each connector seeks back to before emitting.
    pub ckpt_base: Vec<PartitionOffset>,
}

/// Field marking a record as a CDC tombstone: `{pk: ..., marker: true}`
/// flows through the pipeline and is applied as a primary-key delete by
/// the storage writer.
pub const CDC_DELETE_MARKER: &str = "__idea_delete";

/// Builds the tombstone record a CDC delete envelope becomes.
pub(crate) fn tombstone(pk_field: &str, key: Value) -> Value {
    Value::object([(pk_field.to_owned(), key), (CDC_DELETE_MARKER.to_owned(), Value::Bool(true))])
}

/// Whether a pipeline record is a CDC tombstone.
pub(crate) fn is_tombstone(v: &Value) -> bool {
    v.as_object()
        .and_then(|o| o.get(CDC_DELETE_MARKER))
        .and_then(|m| m.as_bool())
        .unwrap_or(false)
}

impl FeedShared {
    fn holder(&self, ctx: &TaskContext, name: &str) -> idea_hyracks::Result<Arc<PartitionHolder>> {
        ctx.cluster.node(ctx.node).holders().lookup(name)
    }

    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed) || self.abort.load(Ordering::Relaxed)
    }

    fn push_dead_letter(&self, stage: &str, error: &str, payload: &str) {
        if let Some(sink) = &self.dead_letter {
            sink.push(stage, error, payload);
        }
    }
}

/// Leaves the pause gate when the adapter task exits by any path, so a
/// crashed adapter can never wedge quiescence.
struct GateGuard(Arc<PauseGate>);

impl GateGuard {
    fn join(gate: Arc<PauseGate>) -> GateGuard {
        gate.join();
        GateGuard(gate)
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        self.0.leave();
    }
}

// ---- intake job ------------------------------------------------------

/// Stage 0: the source connector, wrapped as a source operator.
///
/// The factory result is carried here (not unwrapped in the stage
/// closure) so connector construction errors fail the intake job instead
/// of panicking its task thread.
struct ConnectorSource {
    connector: Option<crate::Result<Box<dyn SourceConnector>>>,
    shared: Arc<FeedShared>,
}

fn flush_raw(
    shared: &FeedShared,
    buf: &mut Vec<Value>,
    out: &mut dyn FrameSink,
) -> idea_hyracks::Result<()> {
    if !buf.is_empty() {
        shared.metrics.records_ingested.add(buf.len() as u64);
        out.push(Frame::from_records(std::mem::take(buf)))?;
    }
    Ok(())
}

impl Operator for ConnectorSource {
    fn next_frame(
        &mut self,
        _f: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        unreachable!("connector is a source")
    }

    fn run_source(
        &mut self,
        out: &mut dyn FrameSink,
        ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        let shared = self.shared.clone();
        let mut connector = self.connector.take().expect("source runs once")?;
        let p = ctx.partition;
        connector.open().map_err(IngestError::from)?;
        // Resume: seek straight to the committed source position; every
        // connector repositions without re-reading anything before the
        // checkpoint.
        let base = shared.ckpt_base.get(p).copied().unwrap_or_default();
        connector.seek(base.position).map_err(IngestError::from)?;
        let _gate = GateGuard::join(shared.gate.clone());
        let mut last_ack = 0u64;
        let cap = shared.spec.frame_capacity;
        // Ship partial frames after this long so slow sources still
        // deliver promptly (real feed adapters flush on a timer too).
        const FLUSH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(10);
        let mut buf = Vec::with_capacity(cap);
        let mut last_flush = std::time::Instant::now();
        // Records pulled from the connector but not yet emitted — their
        // offsets are only noted as each record actually ships, so a
        // checkpoint never commits a position ahead of emission.
        let mut pending: VecDeque<SourceRecord> = VecDeque::new();
        let mut eof = false;
        loop {
            if shared.should_stop() {
                break;
            }
            if shared.gate.paused() {
                // Checkpoint in progress: flush, ack the epoch once,
                // and hold emission until the driver resumes.
                flush_raw(&shared, &mut buf, out)?;
                let epoch = shared.gate.epoch();
                if last_ack != epoch {
                    shared.gate.ack();
                    last_ack = epoch;
                }
                // Park on the gate's condvar: resume wakes us at once;
                // the timeout keeps the stop flag observable.
                shared.gate.wait_resume(std::time::Duration::from_millis(1));
                continue;
            }
            if pending.is_empty() {
                if eof {
                    break;
                }
                let batch = connector.read_batch(cap).map_err(IngestError::from)?;
                if let Some(wm) = batch.watermark {
                    shared.metrics.watermark_ms.set(wm);
                }
                eof = batch.eof;
                pending.extend(batch.records);
                if pending.is_empty() {
                    // No data right now (connectors nap before returning
                    // empty, so this loop does not spin hot); keep
                    // partial frames moving while idle.
                    if !buf.is_empty() && last_flush.elapsed() >= FLUSH_INTERVAL {
                        flush_raw(&shared, &mut buf, out)?;
                        last_flush = std::time::Instant::now();
                    }
                    continue;
                }
            }
            // Absolute index of the record about to be emitted — fault
            // coordinates survive restarts because they are offsets, not
            // per-attempt counts.
            let idx = shared.ckpt.live(p);
            if let Some(inj) = &shared.injector {
                if inj.take_adapter_disconnect(p, idx) {
                    match &shared.spec.supervision.adapter {
                        ErrorPolicy::Retry { policy, .. } => {
                            shared.metrics.retries.inc();
                            std::thread::sleep(policy.delay(0));
                            // Reconnected; resume emitting below.
                        }
                        ErrorPolicy::Skip | ErrorPolicy::SkipToDeadLetter => {}
                        ErrorPolicy::Abort | ErrorPolicy::RestartFeed => {
                            return Err(idea_hyracks::HyracksError::Operator(format!(
                                "adapter on intake partition {p} disconnected"
                            )));
                        }
                    }
                }
            }
            let rec = pending.pop_front().expect("checked non-empty");
            let mut raw = rec.payload;
            if let Some(inj) = &shared.injector {
                if inj.take_poison(p, idx) {
                    // NUL bytes can never start valid JSON, so this
                    // reliably fails the parser downstream.
                    raw = format!("\u{0}poison\u{0}{raw}");
                }
            }
            buf.push(Value::Str(raw));
            shared.ckpt.note_emitted(p);
            shared.ckpt.note_position(p, rec.offset);
            if buf.len() >= cap || (!buf.is_empty() && last_flush.elapsed() >= FLUSH_INTERVAL) {
                flush_raw(&shared, &mut buf, out)?;
                last_flush = std::time::Instant::now();
            }
        }
        flush_raw(&shared, &mut buf, out)
    }
}

/// Stage 1: forwards round-robin-partitioned raw frames into the local
/// passive intake holder; emits the EOF marker when the adapters finish.
struct IntakeSink {
    shared: Arc<FeedShared>,
    holder: Option<Arc<PartitionHolder>>,
}

impl Operator for IntakeSink {
    fn open(&mut self, ctx: &mut TaskContext) -> idea_hyracks::Result<()> {
        self.holder = Some(self.shared.holder(ctx, &self.shared.spec.intake_holder())?);
        Ok(())
    }

    fn next_frame(
        &mut self,
        frame: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        self.holder.as_ref().unwrap().push_frame(frame)
    }

    fn close(
        &mut self,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        // "the intake job ... adds a special 'EOF' data record into its
        // queue" (paper §6.1).
        self.holder.as_ref().unwrap().push_eof()
    }
}

/// Builds the intake job spec.
pub(crate) fn build_intake_spec(shared: &Arc<FeedShared>) -> JobSpec {
    let s0 = shared.clone();
    let s1 = shared.clone();
    let mut spec = JobSpec::new(format!("{}::intake", shared.spec.name))
        .stage_on(
            "adapter",
            shared.spec.intake_nodes.clone(),
            ConnectorSpec::RoundRobin,
            Arc::new(move |ctx: &TaskContext| {
                let connector = s0.spec.source.create(ctx.partition, ctx.partitions);
                Box::new(ConnectorSource { connector: Some(connector), shared: s0.clone() })
                    as Box<dyn Operator>
            }),
        )
        .stage(
            "intake-sink",
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(IntakeSink { shared: s1.clone(), holder: None }) as Box<dyn Operator>
            }),
        );
    spec.frame_capacity = shared.spec.frame_capacity;
    spec.channel_capacity = shared.spec.holder_capacity;
    spec
}

// ---- computing job ----------------------------------------------------

/// Stage 0: pulls one batch from the local intake holder and parses raw
/// JSON into ADM records (parsing lives in the computing job in the new
/// framework — that is what decouples intake from parsing, §7.1).
struct CollectorParser {
    shared: Arc<FeedShared>,
    /// Target dataset's primary-key field — CDC delete envelopes become
    /// `{pk: key, __idea_delete: true}` tombstones keyed on it.
    pk_field: String,
}

impl CollectorParser {
    /// Dispatches one unparseable record through the parse policy.
    /// Parsing is deterministic, so a `Retry` policy degrades straight
    /// to its fallback.
    fn parse_failure(&self, err: &str, raw: &str) -> idea_hyracks::Result<()> {
        let fallback = match &self.shared.spec.supervision.parse {
            ErrorPolicy::Skip => Fallback::Skip,
            ErrorPolicy::SkipToDeadLetter => Fallback::DeadLetter,
            ErrorPolicy::Retry { fallback, .. } => *fallback,
            ErrorPolicy::Abort | ErrorPolicy::RestartFeed => Fallback::Abort,
        };
        self.shared.metrics.parse_errors.inc();
        match fallback {
            Fallback::Skip => Ok(()),
            Fallback::DeadLetter => {
                self.shared.push_dead_letter("parse", err, raw);
                Ok(())
            }
            Fallback::Abort => Err(idea_hyracks::HyracksError::Operator(format!(
                "feed {}: parse error: {err}",
                self.shared.spec.name
            ))),
        }
    }
}

impl Operator for CollectorParser {
    fn next_frame(
        &mut self,
        _f: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        unreachable!("collector is a source")
    }

    fn run_source(
        &mut self,
        out: &mut dyn FrameSink,
        ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        let holder = self.shared.holder(ctx, &self.shared.spec.intake_holder())?;
        // `batch_size` is a ceiling: the pull waits for a full batch only
        // while the intake is backlogged, otherwise it takes what has
        // arrived (blocking only while the holder is empty). During a
        // checkpoint drain the adapters are paused and this node's
        // holder may stay empty until resume, so never block there.
        let batch = if self.shared.gate.paused() {
            holder.try_pull_batch(self.shared.spec.batch_size)?
        } else {
            holder.pull_batch(self.shared.spec.batch_size)?
        };
        let cap = self.shared.spec.frame_capacity;
        let mut buf = Vec::with_capacity(cap.min(batch.len()));
        for rec in batch.into_records() {
            let Some(text) = rec.as_str() else {
                self.parse_failure("raw record is not a string", &rec.to_string())?;
                continue;
            };
            let parsed = if self.shared.spec.update_stream {
                // CDC mode: records are upsert/delete envelopes. Deletes
                // become tombstones (not validated against the datatype —
                // they carry only the key).
                match idea_connect::parse_envelope(text) {
                    Ok(CdcOp::Upsert(record)) => record,
                    Ok(CdcOp::Delete(key)) => {
                        buf.push(tombstone(&self.pk_field, key));
                        if buf.len() >= cap {
                            out.push(Frame::from_records(std::mem::take(&mut buf)))?;
                        }
                        continue;
                    }
                    Err(e) => {
                        self.parse_failure(&e, text)?;
                        continue;
                    }
                }
            } else {
                match idea_adm::json::parse(text.as_bytes()) {
                    Ok(parsed) => parsed,
                    Err(e) => {
                        self.parse_failure(&e.to_string(), text)?;
                        continue;
                    }
                }
            };
            if let Err(e) = self.shared.datatype.validate(&parsed) {
                self.parse_failure(&e.to_string(), text)?;
                continue;
            }
            buf.push(parsed);
            if buf.len() >= cap {
                out.push(Frame::from_records(std::mem::take(&mut buf)))?;
            }
        }
        if !buf.is_empty() {
            out.push(Frame::from_records(buf))?;
        }
        Ok(())
    }
}

/// Stage 1: the UDF evaluator. Context lifetime enforces the computing
/// model (fresh per job = Model 2; refreshed per record = Model 1;
/// pulled from feed state = Model 3).
struct UdfEvaluator {
    shared: Arc<FeedShared>,
    ctx_: Option<ExecContext>,
}

impl UdfEvaluator {
    /// Runs the record through the whole UDF chain, in order; each UDF
    /// consumes the previous one's outputs.
    fn enrich(&mut self, record: &Value) -> Result<Vec<Value>, IngestError> {
        let ctx = self.ctx_.as_mut().expect("open() ran");
        if self.shared.spec.model == ComputingModel::PerRecord {
            // Model 1: intermediate state refreshed for every record.
            ctx.refresh();
        }
        let mut current = vec![record.clone()];
        for function in &self.shared.spec.functions {
            let bad = |got: &str| {
                Err(IngestError::Query(idea_query::QueryError::Eval(format!(
                    "UDF {function} must produce objects, got {got}"
                ))))
            };
            let mut next = Vec::with_capacity(current.len());
            for rec in &current {
                match apply_function(ctx, function, std::slice::from_ref(rec))? {
                    Value::Array(items) => {
                        for i in items {
                            if !matches!(i, Value::Object(_)) {
                                return bad(i.type_name());
                            }
                            next.push(i);
                        }
                    }
                    obj @ Value::Object(_) => next.push(obj),
                    other => return bad(other.type_name()),
                }
            }
            current = next;
        }
        Ok(current)
    }

    /// Evaluates the UDF on one record, injecting scheduled faults and
    /// dispatching failures through the enrich policy.
    fn process(
        &mut self,
        rec: &Value,
        node: usize,
        enriched: &mut Vec<Value>,
    ) -> idea_hyracks::Result<()> {
        let injected = self.shared.injector.as_ref().and_then(|inj| {
            let seq = inj.next_enrich_seq(node);
            inj.take_udf_fault(node, seq)
        });
        let first = match injected {
            Some(fault) => {
                if let Some(delay) = fault.delay {
                    std::thread::sleep(delay);
                }
                Err(IngestError::Feed("injected UDF fault".into()))
            }
            None => self.enrich(rec),
        };
        let err = match first {
            Ok(values) => {
                enriched.extend(values);
                return Ok(());
            }
            Err(e) => e,
        };
        let feed = self.shared.spec.name.clone();
        let abort = move |e: &IngestError| {
            Err(idea_hyracks::HyracksError::Operator(format!("feed {feed}: UDF failed: {e}")))
        };
        match self.shared.spec.supervision.enrich.clone() {
            ErrorPolicy::Abort | ErrorPolicy::RestartFeed => abort(&err),
            ErrorPolicy::Skip => {
                self.shared.metrics.enrich_errors.inc();
                Ok(())
            }
            ErrorPolicy::SkipToDeadLetter => {
                self.shared.metrics.enrich_errors.inc();
                self.shared.push_dead_letter("enrich", &err.to_string(), &rec.to_string());
                Ok(())
            }
            ErrorPolicy::Retry { policy, fallback } => {
                let mut last = err;
                for attempt in 0..policy.max_attempts {
                    self.shared.metrics.retries.inc();
                    std::thread::sleep(policy.delay(attempt));
                    match self.enrich(rec) {
                        Ok(values) => {
                            enriched.extend(values);
                            return Ok(());
                        }
                        Err(e) => last = e,
                    }
                }
                match fallback {
                    Fallback::Skip => {
                        self.shared.metrics.enrich_errors.inc();
                        Ok(())
                    }
                    Fallback::DeadLetter => {
                        self.shared.metrics.enrich_errors.inc();
                        self.shared.push_dead_letter("enrich", &last.to_string(), &rec.to_string());
                        Ok(())
                    }
                    Fallback::Abort => abort(&last),
                }
            }
        }
    }
}

impl Operator for UdfEvaluator {
    fn open(&mut self, ctx: &mut TaskContext) -> idea_hyracks::Result<()> {
        let fresh = || {
            let mut c = ExecContext::with_plan_cache(
                self.shared.catalog.clone(),
                self.shared.plan_cache.clone(),
            );
            c.attach_metrics(self.shared.obs.registry().clone());
            c
        };
        self.ctx_ = Some(match self.shared.spec.model {
            ComputingModel::PerBatch | ComputingModel::PerRecord => fresh(),
            ComputingModel::Stream => {
                self.shared.stream_ctxs.lock().remove(&ctx.node).unwrap_or_else(fresh)
            }
        });
        Ok(())
    }

    fn next_frame(
        &mut self,
        frame: Frame,
        out: &mut dyn FrameSink,
        ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        if self.shared.spec.functions.is_empty() {
            // No UDF attached: pass through (nothing to inject either —
            // UDF faults target enrichment calls).
            let records: Vec<Value> = frame.into_records().into_iter().collect();
            self.shared.metrics.records_enriched.add(records.len() as u64);
            if !records.is_empty() {
                out.push(Frame::from_records(records))?;
            }
            return Ok(());
        }
        let mut enriched = Vec::with_capacity(frame.len());
        for rec in frame.into_records() {
            if is_tombstone(&rec) {
                // CDC deletes are not enriched — they carry only a key.
                enriched.push(rec);
                continue;
            }
            self.process(&rec, ctx.node, &mut enriched)?;
        }
        self.shared.metrics.records_enriched.add(enriched.len() as u64);
        if !enriched.is_empty() {
            out.push(Frame::from_records(enriched))?;
        }
        Ok(())
    }

    fn close(
        &mut self,
        _out: &mut dyn FrameSink,
        ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        if self.shared.spec.model == ComputingModel::Stream {
            // Model 3: the context (and its stale intermediate state)
            // survives to the next computing job.
            if let Some(c) = self.ctx_.take() {
                self.shared.stream_ctxs.lock().insert(ctx.node, c);
            }
        }
        Ok(())
    }
}

/// Stage 2: the feed pipeline sink — pushes enriched frames into the
/// local *active* storage holder.
struct FeedPipelineSink {
    shared: Arc<FeedShared>,
    holder: Option<Arc<PartitionHolder>>,
}

impl Operator for FeedPipelineSink {
    fn open(&mut self, ctx: &mut TaskContext) -> idea_hyracks::Result<()> {
        self.holder = Some(self.shared.holder(ctx, &self.shared.spec.storage_holder())?);
        Ok(())
    }

    fn next_frame(
        &mut self,
        frame: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        self.holder.as_ref().unwrap().push_frame(frame)
    }
}

/// Builds the computing job spec. Invoked repeatedly; when predeployed,
/// this function runs once per feed.
pub(crate) fn build_computing_spec(shared: &Arc<FeedShared>) -> JobSpec {
    let s0 = shared.clone();
    let s1 = shared.clone();
    let s2 = shared.clone();
    let pk_field = pk_field_of(shared);
    let mut spec = JobSpec::new(format!("{}::computing", shared.spec.name))
        .stage(
            "collector-parser",
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(CollectorParser { shared: s0.clone(), pk_field: pk_field.clone() })
                    as Box<dyn Operator>
            }),
        )
        .stage(
            "udf-evaluator",
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(UdfEvaluator { shared: s1.clone(), ctx_: None }) as Box<dyn Operator>
            }),
        )
        .stage(
            "feed-pipeline-sink",
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(FeedPipelineSink { shared: s2.clone(), holder: None }) as Box<dyn Operator>
            }),
        );
    spec.frame_capacity = shared.spec.frame_capacity;
    spec.channel_capacity = shared.spec.holder_capacity;
    spec
}

// ---- storage job -------------------------------------------------------

/// Stage 0: drains the local active storage holder until EOF.
struct StorageHolderSource {
    shared: Arc<FeedShared>,
}

impl Operator for StorageHolderSource {
    fn next_frame(
        &mut self,
        _f: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        unreachable!("storage holder drain is a source")
    }

    fn run_source(
        &mut self,
        out: &mut dyn FrameSink,
        ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        let holder = self.shared.holder(ctx, &self.shared.spec.storage_holder())?;
        while let Some(frame) = holder.pull_frame()? {
            out.push(frame)?;
        }
        Ok(())
    }
}

/// Terminal stage: writes records into this node's storage partition.
struct StorageWriter {
    shared: Arc<FeedShared>,
    partition: Option<Arc<idea_storage::Dataset>>,
}

impl Operator for StorageWriter {
    fn open(&mut self, ctx: &mut TaskContext) -> idea_hyracks::Result<()> {
        let ds = self
            .shared
            .catalog
            .dataset(&self.shared.spec.dataset)
            .map_err(IngestError::from)?;
        self.partition = Some(ds.partition(ctx.partition).clone());
        Ok(())
    }

    fn next_frame(
        &mut self,
        frame: Frame,
        _out: &mut dyn FrameSink,
        ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        if let Some(inj) = &self.shared.injector {
            if let Some(delay) = inj.storage_delay(ctx.node) {
                std::thread::sleep(delay);
            }
        }
        let part = self.partition.as_ref().unwrap();
        let policy = self.shared.spec.supervision.storage.clone();
        // Only clone each record up front when a failure path would
        // still need it — the default (Abort) pays nothing.
        let keep = matches!(policy, ErrorPolicy::Retry { .. }) || policy.wants_dead_letter();
        // `stored` = successful upserts; `disposed` = records fully
        // handled (stored, skipped or dead-lettered) — the checkpoint
        // quiescence check balances `disposed` against `taken`.
        let mut stored = 0u64;
        let mut deleted = 0u64;
        let mut disposed = 0u64;
        for rec in frame.into_records() {
            disposed += 1;
            if is_tombstone(&rec) {
                // CDC tombstone: apply as a primary-key delete. Deleting
                // an absent key is a no-op (at-least-once replay deletes
                // twice); real failures follow the storage policy's
                // abort/skip decision.
                let key = rec
                    .as_object()
                    .and_then(|o| o.get(&part.primary_key_field().to_string()))
                    .cloned()
                    .unwrap_or(Value::Null);
                match part.delete(&key) {
                    Ok(true) => deleted += 1,
                    Ok(false) => {}
                    Err(e) => {
                        let err = IngestError::from(e);
                        match &policy {
                            ErrorPolicy::Abort | ErrorPolicy::RestartFeed => {
                                return Err(idea_hyracks::HyracksError::Operator(format!(
                                    "feed {}: storage delete failed: {err}",
                                    self.shared.spec.name
                                )));
                            }
                            ErrorPolicy::Skip | ErrorPolicy::Retry { .. } => {}
                            ErrorPolicy::SkipToDeadLetter => {
                                self.shared.push_dead_letter(
                                    "storage",
                                    &err.to_string(),
                                    &rec.to_string(),
                                );
                            }
                        }
                    }
                }
                continue;
            }
            let backup = keep.then(|| rec.clone());
            match part.upsert(rec) {
                Ok(()) => stored += 1,
                Err(e) => {
                    let err = IngestError::from(e);
                    let abort = |e: &IngestError| {
                        Err(idea_hyracks::HyracksError::Operator(format!(
                            "feed {}: storage write failed: {e}",
                            self.shared.spec.name
                        )))
                    };
                    match &policy {
                        ErrorPolicy::Abort | ErrorPolicy::RestartFeed => return abort(&err),
                        ErrorPolicy::Skip => {}
                        ErrorPolicy::SkipToDeadLetter => {
                            let payload =
                                backup.as_ref().map(|r| r.to_string()).unwrap_or_default();
                            self.shared.push_dead_letter("storage", &err.to_string(), &payload);
                        }
                        ErrorPolicy::Retry { policy: rp, fallback } => {
                            let backup = backup.as_ref().expect("kept for retry");
                            let mut last = err;
                            let mut retried_ok = false;
                            for attempt in 0..rp.max_attempts {
                                self.shared.metrics.retries.inc();
                                std::thread::sleep(rp.delay(attempt));
                                match part.upsert(backup.clone()) {
                                    Ok(()) => {
                                        stored += 1;
                                        retried_ok = true;
                                        break;
                                    }
                                    Err(e2) => last = IngestError::from(e2),
                                }
                            }
                            if !retried_ok {
                                match fallback {
                                    Fallback::Skip => {}
                                    Fallback::DeadLetter => {
                                        self.shared.push_dead_letter(
                                            "storage",
                                            &last.to_string(),
                                            &backup.to_string(),
                                        );
                                    }
                                    Fallback::Abort => return abort(&last),
                                }
                            }
                        }
                    }
                }
            }
        }
        self.shared.metrics.records_stored.add(stored);
        self.shared.metrics.records_deleted.add(deleted);
        self.shared.metrics.storage_acked.add(disposed);
        Ok(())
    }
}

/// Builds the storage job spec. Both stages are pinned to every node:
/// the hash partitioner's target set must stay aligned with the
/// dataset's partition numbering even while some nodes are down —
/// a storage job whose writers silently moved to the surviving nodes
/// would scatter records into the wrong partitions. A pinned stage on a
/// dead node fails the job instead, and the supervisor restarts the
/// feed once the node is restored.
pub(crate) fn build_storage_spec(shared: &Arc<FeedShared>, n_nodes: usize) -> JobSpec {
    let s0 = shared.clone();
    let s1 = shared.clone();
    let all_nodes: Vec<usize> = (0..n_nodes).collect();
    let pk_field = pk_field_of(shared);
    let mut spec = JobSpec::new(format!("{}::storage", shared.spec.name))
        .stage_on(
            "storage-holder",
            all_nodes.clone(),
            ConnectorSpec::hash_on_field(&pk_field),
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(StorageHolderSource { shared: s0.clone() }) as Box<dyn Operator>
            }),
        )
        .stage_on(
            "storage-writer",
            all_nodes,
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(StorageWriter { shared: s1.clone(), partition: None }) as Box<dyn Operator>
            }),
        );
    spec.frame_capacity = shared.spec.frame_capacity;
    spec.channel_capacity = shared.spec.holder_capacity;
    spec
}

fn pk_field_of(shared: &Arc<FeedShared>) -> String {
    shared
        .catalog
        .dataset(&shared.spec.dataset)
        .map(|ds| ds.partitions()[0].primary_key_field().to_string())
        .unwrap_or_else(|_| "id".to_owned())
}

// ---- static (old-framework) pipeline -------------------------------------

/// The coupled intake+parse+UDF source of the old framework: everything
/// on the intake node(s), UDF state built once per feed.
struct StaticSource {
    connector: Option<crate::Result<Box<dyn SourceConnector>>>,
    shared: Arc<FeedShared>,
    ctx_: Option<ExecContext>,
}

impl Operator for StaticSource {
    fn open(&mut self, _ctx: &mut TaskContext) -> idea_hyracks::Result<()> {
        // One context for the feed's lifetime: Model 3 — "the attached
        // UDF is initialized once for all incoming data" (§4.3.4).
        self.ctx_ = Some(ExecContext::with_plan_cache(
            self.shared.catalog.clone(),
            self.shared.plan_cache.clone(),
        ));
        Ok(())
    }

    fn next_frame(
        &mut self,
        _f: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        unreachable!("static source is a source")
    }

    fn run_source(
        &mut self,
        out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        let mut connector = self.connector.take().expect("source runs once")?;
        connector.open().map_err(IngestError::from)?;
        let cap = self.shared.spec.frame_capacity;
        let mut buf = Vec::with_capacity(cap);
        let mut pending: VecDeque<SourceRecord> = VecDeque::new();
        let mut eof = false;
        loop {
            if self.shared.should_stop() {
                break;
            }
            if pending.is_empty() {
                if eof {
                    break;
                }
                let batch = connector.read_batch(cap).map_err(IngestError::from)?;
                eof = batch.eof;
                pending.extend(batch.records);
                continue;
            }
            let raw = pending.pop_front().expect("checked non-empty").payload;
            self.shared.metrics.records_ingested.inc();
            let parsed = match idea_adm::json::parse(raw.as_bytes()) {
                Ok(p) if self.shared.datatype.validate(&p).is_ok() => p,
                _ => {
                    self.shared.metrics.parse_errors.inc();
                    continue;
                }
            };
            let mut enriched = vec![parsed];
            let mut failed = false;
            for f in &self.shared.spec.functions {
                let ctx = self.ctx_.as_mut().unwrap();
                let mut next = Vec::with_capacity(enriched.len());
                for rec in &enriched {
                    match apply_function(ctx, f, std::slice::from_ref(rec)) {
                        Ok(Value::Array(items))
                            if items.iter().all(|i| matches!(i, Value::Object(_))) =>
                        {
                            next.extend(items);
                        }
                        Ok(obj @ Value::Object(_)) => next.push(obj),
                        _ => {
                            failed = true;
                            break;
                        }
                    }
                }
                if failed {
                    break;
                }
                enriched = next;
            }
            if failed {
                self.shared.metrics.enrich_errors.inc();
                continue;
            }
            self.shared.metrics.records_enriched.add(enriched.len() as u64);
            for e in enriched {
                buf.push(e);
                if buf.len() >= cap {
                    out.push(Frame::from_records(std::mem::take(&mut buf)))?;
                }
            }
        }
        if !buf.is_empty() {
            out.push(Frame::from_records(buf))?;
        }
        Ok(())
    }
}

/// Builds the single-job static pipeline of the old framework.
pub(crate) fn build_static_spec(shared: &Arc<FeedShared>) -> JobSpec {
    let s0 = shared.clone();
    let s1 = shared.clone();
    let pk_field = pk_field_of(shared);
    let mut spec = JobSpec::new(format!("{}::static", shared.spec.name))
        .stage_on(
            "adapter-parser-udf",
            shared.spec.intake_nodes.clone(),
            ConnectorSpec::hash_on_field(&pk_field),
            Arc::new(move |ctx: &TaskContext| {
                let connector = s0.spec.source.create(ctx.partition, ctx.partitions);
                Box::new(StaticSource {
                    connector: Some(connector),
                    shared: s0.clone(),
                    ctx_: None,
                }) as Box<dyn Operator>
            }),
        )
        .stage(
            "storage-writer",
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(StorageWriter { shared: s1.clone(), partition: None }) as Box<dyn Operator>
            }),
        );
    spec.frame_capacity = shared.spec.frame_capacity;
    spec.channel_capacity = shared.spec.holder_capacity;
    spec
}

/// Registers the feed's partition holders on every node (done before any
/// job starts so jobs can look them up). Holders are per-attempt: a
/// restarting feed unregisters the failed attempt's holders and
/// registers fresh ones, which also resets the received/taken counters
/// the checkpoint quiescence check reads.
pub(crate) fn register_holders(
    cluster: &idea_hyracks::Cluster,
    shared: &Arc<FeedShared>,
) -> idea_hyracks::Result<()> {
    // The intake deals frames round-robin to every node's intake holder.
    let intakes = HolderGroup::new();
    for node in cluster.nodes() {
        let intake = node.holders().register(
            shared.spec.intake_holder(),
            HolderMode::Passive,
            shared.spec.holder_capacity,
        )?;
        intake.join_group(&intakes);
        intake.attach_obs(&shared.obs.scope(&format!("holder/intake/node{}", node.id())));
        let storage = node.holders().register(
            shared.spec.storage_holder(),
            HolderMode::Active,
            shared.spec.holder_capacity,
        )?;
        storage.attach_obs(&shared.obs.scope(&format!("holder/storage/node{}", node.id())));
    }
    Ok(())
}

/// Unregisters the feed's partition holders.
pub(crate) fn unregister_holders(cluster: &idea_hyracks::Cluster, shared: &Arc<FeedShared>) {
    for node in cluster.nodes() {
        node.holders().unregister(&shared.spec.intake_holder());
        node.holders().unregister(&shared.spec.storage_holder());
    }
}
