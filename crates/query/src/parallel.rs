//! Parallel partitioned query execution on the Hyracks runtime.
//!
//! The sequential evaluator walks every partition of the driving dataset
//! on one thread. This module compiles a [`SelectBlock`] plan into an
//! `idea-hyracks` [`JobSpec`] instead — the same lowering AsterixDB
//! performs when it compiles SQL++ to a parallel Hyracks job:
//!
//! * a **scan stage**, one task per storage partition, pinned to its
//!   node: each task pins *only its own partition's snapshot*
//!   ([`idea_storage::PartitionedDataset::snapshot_partition`]),
//!   applies the planner's
//!   pushed-down filters ([`crate::plan::FromPlan::self_filter`] /
//!   residuals), and
//!   completes the remaining join items and LET/WHERE pipeline with the
//!   same code the sequential evaluator uses (reference datasets build
//!   their hash tables per task — a replicated/broadcast build);
//! * for GROUP BY, a **hash-partitioned exchange** on the group key
//!   feeding a **group stage**: equal keys land on one partition, so
//!   each task groups, applies HAVING, and projects its disjoint share
//!   of the groups;
//! * a single-task **merge stage** (the collector) that sorts on the
//!   ORDER BY keys computed upstream, applies LIMIT/DISTINCT in the
//!   sequential evaluator's order, and hands the rows back through a
//!   [`ResultChannel`].
//!
//! Compiled jobs are **predeployed** through the cluster's resident task
//! pools, so repeated executions of the same block pay one activation
//! message instead of a job build. Any runtime failure (say, a node
//! killed under a pinned scan stage) surfaces as an error and the caller
//! falls back to the sequential evaluator — which is also the
//! differential-testing oracle for this module.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use idea_adm::Value;
use idea_hyracks::collector::CollectorOp;
use idea_hyracks::{
    Cluster, ConnectorSpec, DeployedJobId, Frame, FrameSink, HyracksError, JobHandle, JobSpec,
    Operator, ResultChannel, ResultMsg, TaskContext,
};
use idea_obs::names;
use parking_lot::Mutex;

use crate::ast::{FromSource, SelectBlock};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec::{
    apply_lets_and_post_filters, compare_order_keys, dedup_values, eval_groups_keyed, eval_limit,
    join_from, project, BindSlot, Env, ExecContext, PlanCache,
};
use crate::expr::eval_expr;
use crate::plan::{AccessPath, BlockPlan};
use crate::Result;

/// Encoded-record field names used on exchange edges.
const KEY_FIELD: &str = "k";
const BINDINGS_FIELD: &str = "b";
const SORT_FIELD: &str = "s";
const ROW_FIELD: &str = "r";

/// Records per frame pushed by scan/group tasks.
const EMIT_CHUNK: usize = 256;

/// How long the caller waits for the merge stage's result after a
/// successful join — generous, because a joined invocation has already
/// sent (this only guards against wiring bugs).
const RESULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Deployed query jobs kept resident per session before the
/// least-recently-deployed is undeployed (each job parks one worker
/// thread per task, so one-shot query texts must not accumulate pools).
const MAX_CACHED_JOBS: usize = 32;

/// The parallel topology chosen for a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelShape {
    /// scan ⇒ hash-exchange on the group key ⇒ group ⇒ merge.
    Grouped,
    /// Aggregates without GROUP BY: scan ships bindings, the merge task
    /// evaluates the single implicit group (correct on empty input).
    AggMerge,
    /// scan projects and computes sort keys; merge sorts/limits/dedups.
    Plain,
}

/// Decides whether `block` can run as a partitioned Hyracks job on
/// `cluster`, and with which topology. `None` means: use the sequential
/// evaluator (the fallback rules documented in DESIGN.md).
pub fn parallel_shape(
    block: &SelectBlock,
    plan: &BlockPlan,
    catalog: &Catalog,
    cluster: &Cluster,
) -> Option<ParallelShape> {
    if block.from.is_empty() {
        return None;
    }
    // The driver (first item in evaluation order) must be a full scan of
    // a catalog dataset whose partitioning matches the cluster.
    let fp0 = plan.from_order.first()?;
    if !matches!(fp0.path, AccessPath::Materialize) {
        return None;
    }
    let FromSource::Name(ds_name) = &block.from[fp0.item_idx].source else {
        return None;
    };
    let ds = catalog.dataset(ds_name).ok()?;
    if ds.partition_count() != cluster.node_count() {
        return None;
    }
    // Top-level blocks read only datasets from their environment; a free
    // identifier that is not a dataset needs the caller's bindings and
    // cannot be shipped to a task.
    for id in &plan.free_idents {
        if catalog.dataset(id).is_err() {
            return None;
        }
    }
    Some(if !block.group_by.is_empty() {
        ParallelShape::Grouped
    } else if plan.has_aggregates {
        ParallelShape::AggMerge
    } else {
        ParallelShape::Plain
    })
}

/// Whether the merge stage for `block` can stream: a [`Plain`] shape
/// with no global sort, limit or dedup needs no cross-batch state at
/// merge, so the collector forwards each upstream frame the moment it
/// arrives instead of buffering the result set.
///
/// [`Plain`]: ParallelShape::Plain
pub(crate) fn merge_streamable(block: &SelectBlock, shape: ParallelShape) -> bool {
    matches!(shape, ParallelShape::Plain)
        && block.order_by.is_empty()
        && block.limit.is_none()
        && !block.distinct
}

fn op_err(e: QueryError) -> HyracksError {
    HyracksError::Operator(e.to_string())
}

fn runtime_err(e: HyracksError) -> QueryError {
    QueryError::Eval(format!("parallel execution failed: {e}"))
}

/// Names whose bindings a scan task ships downstream: pre-LETs, FROM
/// aliases, LETs — everything a group/merge stage may reference.
fn binding_names(block: &SelectBlock) -> Vec<String> {
    let mut names = Vec::new();
    for (n, _) in &block.pre_lets {
        names.push(n.clone());
    }
    for item in &block.from {
        names.push(item.alias.clone());
    }
    for (n, _) in &block.lets {
        names.push(n.clone());
    }
    names
}

/// Captures a row environment as a flat object (innermost binding per
/// name, which is what downstream evaluation would observe anyway).
fn encode_bindings(env: &Env, names: &[String]) -> Value {
    let mut obj = idea_adm::value::Object::with_capacity(names.len());
    for name in names {
        if let Some(v) = env.get(name) {
            obj.set(name.clone(), (**v).clone());
        }
    }
    Value::Object(obj)
}

/// Rebuilds a row environment from a shipped bindings object.
fn decode_bindings(bindings: &Value, names: &[String], base: &Env) -> Env {
    let mut env = base.clone();
    if let Value::Object(obj) = bindings {
        for name in names {
            if let Some(v) = obj.get(name) {
                env = env.bind(name.clone(), Arc::new(v.clone()));
            }
        }
    }
    env
}

/// Applies the session's `$param` bindings carried in the invocation
/// parameter to a task-local execution context.
fn apply_params(ctx: &mut ExecContext, param: &Value) {
    if let Value::Object(obj) = param {
        for (k, v) in obj.iter() {
            ctx.set_param(k.to_owned(), v.clone());
        }
    }
}

/// Evaluates the block's pre-LETs into a fresh environment (each task
/// rebuilds them locally; they are bound before FROM).
fn prelet_env(block: &SelectBlock, ctx: &mut ExecContext) -> Result<Env> {
    let mut env = Env::new();
    for (name, e) in &block.pre_lets {
        let v = eval_expr(e, &env, ctx)?;
        env = env.bind_value(name.clone(), v);
    }
    Ok(env)
}

fn push_chunked(records: Vec<Value>, out: &mut dyn FrameSink) -> idea_hyracks::Result<()> {
    for frame in Frame::chunked(records, EMIT_CHUNK) {
        out.push(frame)?;
    }
    Ok(())
}

// ---- scan stage -----------------------------------------------------

/// What a scan task emits per surviving row.
#[derive(Clone, Copy)]
enum ScanEmit {
    /// `{k: [group keys], b: {bindings}}` into the hash exchange.
    Keyed,
    /// `{b: {bindings}}` (aggregate merge rebuilds environments).
    Bindings,
    /// `{s: [sort keys], r: projected}` (merge only sorts/limits).
    Finished,
}

/// Stage-0 source: scans this node's partition of the driving dataset
/// with the planner's pushed-down filters, completes the remaining join
/// items and LET/WHERE pipeline, and emits encoded rows.
struct ScanOp {
    block: Arc<SelectBlock>,
    catalog: Arc<Catalog>,
    plan_cache: Arc<PlanCache>,
    emit: ScanEmit,
}

impl ScanOp {
    fn scan_rows(&self, ctx: &mut TaskContext, xctx: &mut ExecContext) -> Result<Vec<Env>> {
        let block = &self.block;
        let plan = xctx.plan_for(block)?;
        let env = prelet_env(block, xctx)?;

        let fp0 = plan
            .from_order
            .first()
            .ok_or_else(|| QueryError::Eval("parallel scan with empty FROM".into()))?;
        let item = &block.from[fp0.item_idx];
        let FromSource::Name(ds_name) = &item.source else {
            return Err(QueryError::Eval("parallel scan driver must be a dataset".into()));
        };
        let ds = self.catalog.dataset(ds_name)?;
        if ds.partition_count() != ctx.partitions {
            return Err(QueryError::Eval(format!(
                "dataset {ds_name} has {} partitions but the scan stage has {}",
                ds.partition_count(),
                ctx.partitions
            )));
        }
        let snap = ds.snapshot_partition(ctx.partition);

        // Vectorized driver scan: when the block compiled to a columnar
        // plan, this partition's records stream through batches and the
        // driver filters run as kernels; survivors are re-bound as row
        // environments for the remaining pipeline. A joinless plan's
        // driver filters already include the post filters, so only join
        // blocks continue through the row-at-a-time stages.
        if let Some(vp) = plan.vec.clone() {
            let recs = crate::vector::scan_partition(&vp, &snap, xctx)?;
            let mut rows = Vec::with_capacity(recs.len());
            for rec in recs {
                rows.push(env.bind(item.alias.clone(), rec));
            }
            return if vp.has_join() {
                let rows = join_from(block, &plan, 1, rows, xctx)?;
                apply_lets_and_post_filters(block, &plan, rows, xctx)
            } else {
                Ok(rows)
            };
        }

        // Driver scan: self-filters see only the alias (same base the
        // sequential materialize path uses), residuals see the full row.
        let mut fslot = BindSlot::new(&Env::new(), item.alias.clone());
        let mut rows = Vec::new();
        let range = xctx.scan_range(fp0.key_range.as_ref(), 1);
        'rec: for rec in snap.iter_range(range) {
            xctx.stats.rows_scanned += 1;
            let rec = rec.clone();
            if !fp0.self_filter.is_empty() {
                let fenv = fslot.set(rec.clone());
                for f in &fp0.self_filter {
                    if !eval_expr(f, fenv, xctx)?.is_true() {
                        continue 'rec;
                    }
                }
            }
            let cenv = env.bind(item.alias.clone(), rec);
            for r in &fp0.residual {
                if !eval_expr(r, &cenv, xctx)?.is_true() {
                    continue 'rec;
                }
            }
            rows.push(cenv);
        }

        // Remaining join items + LETs + post-LET filters: the shared
        // sequential pipeline, operating on this partition's rows only.
        let rows = join_from(block, &plan, 1, rows, xctx)?;
        apply_lets_and_post_filters(block, &plan, rows, xctx)
    }

    fn encode_rows(&self, rows: Vec<Env>, xctx: &mut ExecContext) -> Result<Vec<Value>> {
        let block = &self.block;
        let names = binding_names(block);
        let mut out = Vec::with_capacity(rows.len());
        match self.emit {
            ScanEmit::Keyed => {
                for renv in rows {
                    let mut key = Vec::with_capacity(block.group_by.len());
                    for (e, _) in &block.group_by {
                        key.push(eval_expr(e, &renv, xctx)?);
                    }
                    out.push(Value::object([
                        (KEY_FIELD, Value::Array(key)),
                        (BINDINGS_FIELD, encode_bindings(&renv, &names)),
                    ]));
                }
            }
            ScanEmit::Bindings => {
                for renv in rows {
                    out.push(Value::object([(BINDINGS_FIELD, encode_bindings(&renv, &names))]));
                }
            }
            ScanEmit::Finished => {
                for renv in rows {
                    let mut keys = Vec::with_capacity(block.order_by.len());
                    for (e, _) in &block.order_by {
                        keys.push(eval_expr(e, &renv, xctx)?);
                    }
                    let v = project(block, &renv, xctx, None)?;
                    out.push(Value::object([(SORT_FIELD, Value::Array(keys)), (ROW_FIELD, v)]));
                }
            }
        }
        Ok(out)
    }
}

impl Operator for ScanOp {
    fn next_frame(
        &mut self,
        _frame: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        Err(HyracksError::Config("scan stage is a source".into()))
    }

    fn run_source(
        &mut self,
        out: &mut dyn FrameSink,
        ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        let mut xctx = ExecContext::with_plan_cache(self.catalog.clone(), self.plan_cache.clone());
        if let Some(m) = ctx.cluster.metrics() {
            xctx.attach_metrics(m);
        }
        apply_params(&mut xctx, &ctx.param);
        let rows = self.scan_rows(ctx, &mut xctx).map_err(op_err)?;
        let records = self.encode_rows(rows, &mut xctx).map_err(op_err)?;
        if let Some(m) = ctx.cluster.metrics() {
            m.counter(names::QUERY_SCAN_ROWS).add(xctx.stats.rows_scanned);
            m.counter(names::QUERY_EXCHANGE_ROWS).add(records.len() as u64);
        }
        push_chunked(records, out)
    }
}

// ---- group stage ----------------------------------------------------

/// Interior stage after the hash exchange: accumulates its share of the
/// rows, then groups / HAVINGs / projects them at close. Equal group
/// keys hash to one partition, so partitions own disjoint group sets.
struct GroupOp {
    block: Arc<SelectBlock>,
    catalog: Arc<Catalog>,
    plan_cache: Arc<PlanCache>,
    names: Vec<String>,
    rows: Vec<Env>,
    xctx: Option<ExecContext>,
}

impl Operator for GroupOp {
    fn open(&mut self, ctx: &mut TaskContext) -> idea_hyracks::Result<()> {
        let mut xctx = ExecContext::with_plan_cache(self.catalog.clone(), self.plan_cache.clone());
        apply_params(&mut xctx, &ctx.param);
        self.xctx = Some(xctx);
        self.rows.clear();
        Ok(())
    }

    fn next_frame(
        &mut self,
        frame: Frame,
        _out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        let base = Env::new();
        for rec in frame.records() {
            let bindings = rec
                .as_object()
                .and_then(|o| o.get(BINDINGS_FIELD))
                .ok_or_else(|| HyracksError::Operator("malformed exchange record".into()))?;
            self.rows.push(decode_bindings(bindings, &self.names, &base));
        }
        Ok(())
    }

    fn close(
        &mut self,
        out: &mut dyn FrameSink,
        _ctx: &mut TaskContext,
    ) -> idea_hyracks::Result<()> {
        let xctx = self.xctx.as_mut().expect("open ran");
        let rows = std::mem::take(&mut self.rows);
        let keyed = eval_groups_keyed(&self.block, &Env::new(), rows, xctx).map_err(op_err)?;
        let records = keyed
            .into_iter()
            .map(|(keys, v)| Value::object([(SORT_FIELD, Value::Array(keys)), (ROW_FIELD, v)]))
            .collect();
        push_chunked(records, out)
    }
}

// ---- merge stage ----------------------------------------------------

/// Builds the collector finisher for the final merge task: decodes the
/// upstream records, sorts on the ORDER BY keys, and applies LIMIT and
/// DISTINCT in the same order as the sequential evaluator.
fn merge_finisher(
    block: Arc<SelectBlock>,
    catalog: Arc<Catalog>,
    plan_cache: Arc<PlanCache>,
    shape: ParallelShape,
) -> idea_hyracks::collector::Finisher {
    Arc::new(move |rows: Vec<Value>, tctx: &TaskContext| {
        let mut xctx = ExecContext::with_plan_cache(catalog.clone(), plan_cache.clone());
        apply_params(&mut xctx, &tctx.param);
        if let Some(m) = tctx.cluster.metrics() {
            m.counter(names::QUERY_MERGE_ROWS).add(rows.len() as u64);
        }

        // Sort keys + row values, either shipped directly (Plain /
        // Grouped) or produced here by evaluating the single implicit
        // group over the reassembled row environments (AggMerge).
        let mut keyed: Vec<(Vec<Value>, Value)> = match shape {
            ParallelShape::AggMerge => {
                let names = binding_names(&block);
                let outer = prelet_env(&block, &mut xctx).map_err(op_err)?;
                let envs: Vec<Env> = rows
                    .iter()
                    .filter_map(|rec| rec.as_object().and_then(|o| o.get(BINDINGS_FIELD)))
                    .map(|b| decode_bindings(b, &names, &outer))
                    .collect();
                eval_groups_keyed(&block, &outer, envs, &mut xctx).map_err(op_err)?
            }
            ParallelShape::Grouped | ParallelShape::Plain => rows
                .into_iter()
                .map(|rec| {
                    let obj = rec
                        .as_object()
                        .ok_or_else(|| HyracksError::Operator("malformed merge record".into()))?;
                    let keys = match obj.get(SORT_FIELD) {
                        Some(Value::Array(k)) => k.clone(),
                        _ => Vec::new(),
                    };
                    let row = obj.get(ROW_FIELD).cloned().unwrap_or(Value::Missing);
                    Ok((keys, row))
                })
                .collect::<idea_hyracks::Result<_>>()?,
        };

        if !block.order_by.is_empty() {
            keyed.sort_by(|(a, _), (b, _)| compare_order_keys(a, b, &block.order_by));
        }
        let mut out: Vec<Value> = keyed.into_iter().map(|(_, v)| v).collect();

        let limit = match &block.limit {
            Some(l) => {
                let env = prelet_env(&block, &mut xctx).map_err(op_err)?;
                Some(eval_limit(l, &env, &mut xctx).map_err(op_err)?)
            }
            None => None,
        };
        let grouped = matches!(shape, ParallelShape::Grouped | ParallelShape::AggMerge);
        if grouped {
            // Sequential grouped order: ORDER → LIMIT (groups) → DISTINCT.
            if let Some(n) = limit {
                out.truncate(n);
            }
            if block.distinct {
                out = dedup_values(out);
            }
        } else {
            // Sequential plain order: ORDER → DISTINCT → LIMIT.
            if block.distinct {
                out = dedup_values(out);
            }
            if let Some(n) = limit {
                out.truncate(n);
            }
        }
        Ok(out)
    })
}

// ---- job spec + runtime ---------------------------------------------

/// Lowers a planned block into a Hyracks job spec writing into `chan`.
fn build_spec(
    block: &Arc<SelectBlock>,
    shape: ParallelShape,
    catalog: &Arc<Catalog>,
    plan_cache: &Arc<PlanCache>,
    chan: &Arc<ResultChannel>,
    nodes: usize,
) -> JobSpec {
    let all_nodes: Vec<usize> = (0..nodes).collect();
    let scan_emit = match shape {
        ParallelShape::Grouped => ScanEmit::Keyed,
        ParallelShape::AggMerge => ScanEmit::Bindings,
        ParallelShape::Plain => ScanEmit::Finished,
    };
    let scan_connector = match shape {
        // Equal group keys must meet in one group task.
        ParallelShape::Grouped => ConnectorSpec::hash_on_field(KEY_FIELD),
        // Everything funnels into the single merge task.
        ParallelShape::AggMerge | ParallelShape::Plain => ConnectorSpec::RoundRobin,
    };

    let scan = {
        let (block, catalog, plan_cache) = (block.clone(), catalog.clone(), plan_cache.clone());
        Arc::new(move |_ctx: &TaskContext| {
            Box::new(ScanOp {
                block: block.clone(),
                catalog: catalog.clone(),
                plan_cache: plan_cache.clone(),
                emit: scan_emit,
            }) as Box<dyn Operator>
        })
    };

    // Pinned stages: a dead node fails the invocation (NodeDown) instead
    // of silently dropping its partition — the caller then falls back to
    // the sequential evaluator, which reads storage directly.
    let mut spec = JobSpec::new(format!("query-block-{}", block.id)).stage_on(
        "scan",
        all_nodes.clone(),
        scan_connector,
        scan,
    );

    if matches!(shape, ParallelShape::Grouped) {
        let (block, catalog, plan_cache) = (block.clone(), catalog.clone(), plan_cache.clone());
        let names = binding_names(&block);
        spec = spec.stage_on(
            "group",
            all_nodes,
            ConnectorSpec::RoundRobin,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(GroupOp {
                    block: block.clone(),
                    catalog: catalog.clone(),
                    plan_cache: plan_cache.clone(),
                    names: names.clone(),
                    rows: Vec::new(),
                    xctx: None,
                }) as Box<dyn Operator>
            }),
        );
    }

    let chan = chan.clone();
    if merge_streamable(block, shape) {
        // No cross-batch state at merge: decode each frame's records and
        // forward them immediately, so callers can consume merge output
        // while the scan stage is still running.
        let mapper = streaming_decode_mapper();
        spec.stage_on(
            "merge",
            vec![0],
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(CollectorOp::streaming(chan.clone(), mapper.clone())) as Box<dyn Operator>
            }),
        )
    } else {
        let finisher = merge_finisher(block.clone(), catalog.clone(), plan_cache.clone(), shape);
        spec.stage_on(
            "merge",
            vec![0],
            ConnectorSpec::OneToOne,
            Arc::new(move |_ctx: &TaskContext| {
                Box::new(CollectorOp::with_finisher(chan.clone(), finisher.clone()))
                    as Box<dyn Operator>
            }),
        )
    }
}

/// Per-batch mapper for the streaming merge collector: strips the
/// `{s, r}` exchange encoding and counts merge rows. Stateless, so it
/// may legally run once per frame rather than once per invocation.
fn streaming_decode_mapper() -> idea_hyracks::collector::Finisher {
    Arc::new(move |rows: Vec<Value>, tctx: &TaskContext| {
        if let Some(m) = tctx.cluster.metrics() {
            m.counter(names::QUERY_MERGE_ROWS).add(rows.len() as u64);
        }
        rows.into_iter()
            .map(|rec| {
                let obj = rec
                    .as_object()
                    .ok_or_else(|| HyracksError::Operator("malformed merge record".into()))?;
                Ok(obj.get(ROW_FIELD).cloned().unwrap_or(Value::Missing))
            })
            .collect::<idea_hyracks::Result<_>>()
    })
}

#[derive(Debug)]
struct CachedJob {
    id: DeployedJobId,
    chan: Arc<ResultChannel>,
    catalog_version: u64,
}

#[derive(Debug, Default)]
struct JobCache {
    jobs: HashMap<u32, CachedJob>,
    /// Block ids in deployment order, oldest first (LRU-by-deployment).
    order: VecDeque<u32>,
}

/// Per-session runtime: compiles blocks to job specs, predeploys them on
/// the cluster's resident task pools, and invokes them per execution.
#[derive(Debug)]
pub struct ParallelRuntime {
    cluster: Arc<Cluster>,
    cache: Mutex<JobCache>,
}

impl ParallelRuntime {
    pub fn new(cluster: Arc<Cluster>) -> ParallelRuntime {
        ParallelRuntime { cluster, cache: Mutex::new(JobCache::default()) }
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Runs `block` as a partitioned job. `None`: not eligible, use the
    /// sequential evaluator. `Some(Err)`: eligible but the invocation
    /// failed — the caller should fall back (and count it).
    pub fn execute_block(
        &self,
        block: &Arc<SelectBlock>,
        catalog: &Arc<Catalog>,
        plan_cache: &Arc<PlanCache>,
        params: &HashMap<String, Value>,
    ) -> Option<Result<Vec<Value>>> {
        let plan = {
            let mut ctx = ExecContext::with_plan_cache(catalog.clone(), plan_cache.clone());
            // Planning errors fall through to the sequential evaluator,
            // which surfaces the identical error to the caller.
            ctx.plan_for(block).ok()?
        };
        parallel_shape(block, &plan, catalog, &self.cluster)?;
        Some(self.invoke(block, &plan, catalog, plan_cache, params))
    }

    fn invoke(
        &self,
        block: &Arc<SelectBlock>,
        plan: &BlockPlan,
        catalog: &Arc<Catalog>,
        plan_cache: &Arc<PlanCache>,
        params: &HashMap<String, Value>,
    ) -> Result<Vec<Value>> {
        let shape = parallel_shape(block, plan, catalog, &self.cluster)
            .expect("eligibility checked by caller");
        let (job, chan) = self.deployed_job(block, shape, catalog, plan_cache);

        let param = Value::Object(params.iter().map(|(k, v)| (k.clone(), v.clone())).collect());
        let started = Instant::now();
        let handle = self.cluster.invoke_deployed(job, param).map_err(runtime_err)?;
        if let Err(e) = handle.join() {
            // A failed invocation may have sent a partial result set;
            // drop it so the next invocation reads its own.
            chan.drain();
            return Err(runtime_err(e));
        }
        let rows = chan.recv_all(RESULT_TIMEOUT).map_err(runtime_err)?;
        if let Some(m) = self.cluster.metrics() {
            m.counter(names::QUERY_PARALLEL_INVOCATIONS).inc();
            m.histogram(names::QUERY_PARALLEL_LATENCY).record(started.elapsed());
        }
        Ok(rows)
    }

    /// Runs `block` as a partitioned job whose merge output is consumed
    /// incrementally. `None`: not eligible for *streaming* parallel
    /// execution (the caller picks another strategy); `Some(Err)`: the
    /// invocation could not be started.
    pub(crate) fn execute_block_stream(
        &self,
        block: &Arc<SelectBlock>,
        catalog: &Arc<Catalog>,
        plan_cache: &Arc<PlanCache>,
        params: &HashMap<String, Value>,
    ) -> Option<Result<ParallelStream>> {
        let plan = {
            let mut ctx = ExecContext::with_plan_cache(catalog.clone(), plan_cache.clone());
            ctx.plan_for(block).ok()?
        };
        let shape = parallel_shape(block, &plan, catalog, &self.cluster)?;
        if !merge_streamable(block, shape) {
            return None;
        }
        let (job, chan) = self.deployed_job(block, shape, catalog, plan_cache);
        let param = Value::Object(params.iter().map(|(k, v)| (k.clone(), v.clone())).collect());
        let started = Instant::now();
        let handle = match self.cluster.invoke_deployed(job, param) {
            Ok(h) => h,
            Err(e) => return Some(Err(runtime_err(e))),
        };
        Some(Ok(ParallelStream {
            chan,
            handle: Some(handle),
            cluster: self.cluster.clone(),
            started,
            done: false,
        }))
    }

    /// The predeployed job for `block`, deploying (or redeploying after
    /// DDL moved the catalog version) as needed.
    fn deployed_job(
        &self,
        block: &Arc<SelectBlock>,
        shape: ParallelShape,
        catalog: &Arc<Catalog>,
        plan_cache: &Arc<PlanCache>,
    ) -> (DeployedJobId, Arc<ResultChannel>) {
        let version = catalog.version();
        let mut cache = self.cache.lock();
        if let Some(j) = cache.jobs.get(&block.id) {
            if j.catalog_version == version {
                return (j.id, j.chan.clone());
            }
            // Stale: the plan (and thus the spec) may have changed.
            let stale = cache.jobs.remove(&block.id).expect("present");
            cache.order.retain(|b| *b != block.id);
            self.cluster.undeploy_job(stale.id);
        }
        while cache.jobs.len() >= MAX_CACHED_JOBS {
            let Some(oldest) = cache.order.pop_front() else { break };
            if let Some(evicted) = cache.jobs.remove(&oldest) {
                self.cluster.undeploy_job(evicted.id);
            }
        }
        let chan = ResultChannel::new();
        let spec = build_spec(block, shape, catalog, plan_cache, &chan, self.cluster.node_count());
        let id = self.cluster.deploy_job(spec);
        if let Some(m) = self.cluster.metrics() {
            m.counter(names::QUERY_PARALLEL_DEPLOYS).inc();
        }
        cache
            .jobs
            .insert(block.id, CachedJob { id, chan: chan.clone(), catalog_version: version });
        cache.order.push_back(block.id);
        (id, chan)
    }
}

impl Drop for ParallelRuntime {
    fn drop(&mut self) {
        // Tear down the resident pools this session deployed.
        let cache = self.cache.get_mut();
        for (_, job) in cache.jobs.drain() {
            self.cluster.undeploy_job(job.id);
        }
    }
}

/// A live parallel invocation consumed batch-by-batch: the caller pulls
/// merge output through the [`ResultChannel`] while scan tasks are still
/// running, and the job handle is joined when the stream ends.
///
/// Failure semantics: an upstream task failure still closes the merge
/// collector (workers drain and propagate EOS), so a failed invocation
/// can deliver a *truncated* stream followed by `End`. The handle join
/// at end-of-stream turns that into an error — consumers see the
/// failure after the last batch rather than silently-short results.
pub(crate) struct ParallelStream {
    chan: Arc<ResultChannel>,
    handle: Option<JobHandle>,
    cluster: Arc<Cluster>,
    started: Instant,
    done: bool,
}

impl ParallelStream {
    /// The next batch of merge output, or `None` once the invocation has
    /// completed successfully.
    pub(crate) fn next_batch(&mut self) -> Result<Option<Vec<Value>>> {
        if self.done {
            return Ok(None);
        }
        match self.chan.recv_msg(RESULT_TIMEOUT) {
            Ok(ResultMsg::Batch(rows)) => Ok(Some(rows)),
            Ok(ResultMsg::End) => {
                self.done = true;
                if let Some(h) = self.handle.take() {
                    h.join().map_err(runtime_err)?;
                }
                if let Some(m) = self.cluster.metrics() {
                    m.counter(names::QUERY_PARALLEL_INVOCATIONS).inc();
                    m.histogram(names::QUERY_PARALLEL_LATENCY).record(self.started.elapsed());
                }
                Ok(None)
            }
            Err(e) => {
                self.done = true;
                if let Some(h) = self.handle.take() {
                    // Prefer the job's own failure over the channel error.
                    h.join().map_err(runtime_err)?;
                }
                Err(runtime_err(e))
            }
        }
    }
}

impl Drop for ParallelStream {
    fn drop(&mut self) {
        if !self.done {
            // Abandoned mid-stream: wait the invocation out, then clear
            // its leftover messages so the channel (shared by the cached
            // deployed job) starts the next invocation empty.
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
            self.chan.drain();
        }
    }
}
