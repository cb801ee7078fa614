//! Block evaluation and per-execution state.
//!
//! [`ExecContext`] is the unit of *intermediate-state lifetime* from
//! paper §4.3: everything a stateful UDF builds while enriching —
//! hash-join build sides, materialized reference snapshots, cached
//! uncorrelated subquery results, instantiated native UDFs — lives in
//! one context. The computing model decides how long a context lives:
//!
//! * **Model 1 (per record)** — a fresh context per record: maximal
//!   freshness, maximal overhead;
//! * **Model 2 (per batch)** — a fresh context per computing job: the
//!   paper's chosen design;
//! * **Model 3 (stream/static)** — one context for the whole feed:
//!   fastest, but blind to reference-data updates.
//!
//! "Refreshed" means the state equals the reference snapshot the context
//! pinned at its first read, not that it is rebuilt from scratch. A
//! hash-join or materialized build side whose inputs are pure (see
//! [`FromPlan::pure_build`](crate::plan::FromPlan::pure_build)) is
//! memoized in the shared [`PlanCache`] next to its snapshot, and a later
//! context that pins exactly the same view
//! ([`DatasetSnapshot::same_view`]) reuses it: under Models 1 and 2 the
//! state is refreshed per record or per job, but rebuilt only when the
//! snapshot moved. Contexts with a private plan cache rebuild every time.

use std::collections::HashMap;
use std::sync::Arc;

use idea_adm::value::Circle;
use idea_adm::Value;
use idea_storage::dataset::DatasetSnapshot;
use idea_storage::KeyRange;
use parking_lot::RwLock;

use crate::ast::{Expr, FromSource, SelectBlock, SelectClause, SelectItem};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::expr::{eval_expr, eval_with_aggregates};
use crate::plan::{plan_block, AccessPath, BlockPlan, IndexTarget};
use crate::udf::NativeUdf;
use crate::Result;

/// An immutable binding environment (persistent chain; cheap to extend).
#[derive(Clone, Default)]
pub struct Env(Option<Arc<EnvNode>>);

struct EnvNode {
    name: String,
    value: Arc<Value>,
    parent: Option<Arc<EnvNode>>,
}

impl Env {
    pub fn new() -> Env {
        Env::default()
    }

    /// Extends the environment with `name = value`.
    pub fn bind(&self, name: impl Into<String>, value: Arc<Value>) -> Env {
        Env(Some(Arc::new(EnvNode { name: name.into(), value, parent: self.0.clone() })))
    }

    /// Convenience for owned values.
    pub fn bind_value(&self, name: impl Into<String>, value: Value) -> Env {
        self.bind(name, Arc::new(value))
    }

    /// Innermost binding of `name`.
    pub fn get(&self, name: &str) -> Option<&Arc<Value>> {
        let mut cur = self.0.as_deref();
        while let Some(node) = cur {
            if node.name == name {
                return Some(&node.value);
            }
            cur = node.parent.as_deref();
        }
        None
    }
}

/// A single rebindable environment slot for per-row hot loops (scan
/// filters, hash builds, streaming scans). Rebinding swaps the value in
/// place while this slot holds the node's only reference — no `EnvNode`
/// allocation or `Arc` churn per row — and degrades to clone-on-write
/// if an evaluation kept the environment alive.
pub(crate) struct BindSlot {
    env: Env,
}

impl BindSlot {
    /// A slot binding `name` on top of `parent` (one allocation).
    pub(crate) fn new(parent: &Env, name: impl Into<String>) -> BindSlot {
        BindSlot { env: parent.bind(name, Arc::new(Value::Missing)) }
    }

    /// Rebinds the slot to `value` and hands back the environment.
    pub(crate) fn set(&mut self, value: Arc<Value>) -> &Env {
        match self.env.0.as_mut().and_then(Arc::get_mut) {
            Some(node) => node.value = value,
            None => {
                let node = self.env.0.as_ref().expect("slot always holds a node");
                self.env = Env(Some(Arc::new(EnvNode {
                    name: node.name.clone(),
                    value,
                    parent: node.parent.clone(),
                })));
            }
        }
        &self.env
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names = Vec::new();
        let mut cur = self.0.as_deref();
        while let Some(node) = cur {
            names.push(node.name.as_str());
            cur = node.parent.as_deref();
        }
        write!(f, "Env[{}]", names.join(", "))
    }
}

/// Shared compiled-plan cache: the query-compiler work a *predeployed*
/// computing job performs once per feed rather than once per batch
/// (paper §5.1). Contexts created with a shared cache reuse plans across
/// batches; contexts with a private cache re-plan (the no-predeploy
/// ablation).
///
/// The cache also memoizes pure build sides (hash tables and
/// materialized rows) per build site — `(block id, FROM item)` — together
/// with the reference snapshots they were built from. A context that pins
/// the same view of the dataset reuses the build instead of scanning
/// again; any write to the dataset moves the view, and the next context
/// rebuilds and replaces the entry. Retention: one entry per build site,
/// at most 64 sites (the memo is cleared wholesale beyond that, so a
/// session's ad-hoc statements cannot grow it without bound), all
/// dropped on DDL.
///
/// Plans embed access-method choices (index vs. materialize), so the
/// cache tracks the [`Catalog::version`] it was filled against and
/// clears itself when DDL has moved the catalog past it.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: RwLock<HashMap<u32, Arc<BlockPlan>>>,
    builds: RwLock<HashMap<BuildSite, SharedBuild>>,
    validated_version: std::sync::atomic::AtomicU64,
}

/// Build sites a [`PlanCache`] memoizes before it clears its memo.
const MAX_SHARED_BUILDS: usize = 64;

/// A build site: `(block id, FROM-item index)`.
type BuildSite = (u32, usize);

/// A memoized build side and the snapshots it was built from (held, so
/// their storage cannot be freed and reused under a later pointer
/// comparison).
struct SharedBuild {
    snaps: Arc<Vec<DatasetSnapshot>>,
    state: Arc<BuildState>,
}

impl std::fmt::Debug for SharedBuild {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBuild")
            .field("rows", &self.state.len())
            .finish_non_exhaustive()
    }
}

impl PlanCache {
    pub fn new() -> Arc<PlanCache> {
        Arc::new(PlanCache::default())
    }

    pub fn len(&self) -> usize {
        self.plans.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many cached plans compiled a vectorized (columnar) plan.
    pub fn vectorized_plans(&self) -> usize {
        self.plans.read().values().filter(|p| p.vec.is_some()).count()
    }

    /// Drops every cached plan and memoized build if the catalog has
    /// seen DDL since the cache was last validated (CREATE/DROP INDEX or
    /// DATASET can change the right access path for any block, and a
    /// dropped dataset's builds must not stay pinned).
    pub fn validate(&self, catalog_version: u64) {
        use std::sync::atomic::Ordering;
        if self.validated_version.load(Ordering::Acquire) != catalog_version {
            let mut plans = self.plans.write();
            plans.clear();
            self.builds.write().clear();
            self.validated_version.store(catalog_version, Ordering::Release);
        }
    }

    /// The memoized build for `site` and the views it was built from.
    fn shared_build(
        &self,
        site: BuildSite,
    ) -> Option<(Arc<Vec<DatasetSnapshot>>, Arc<BuildState>)> {
        let builds = self.builds.read();
        let memo = builds.get(&site)?;
        Some((memo.snaps.clone(), memo.state.clone()))
    }

    /// Memoizes `state`, built from `snaps`, as `site`'s build.
    fn share_build(
        &self,
        site: BuildSite,
        snaps: Arc<Vec<DatasetSnapshot>>,
        state: Arc<BuildState>,
    ) {
        let mut builds = self.builds.write();
        if builds.len() >= MAX_SHARED_BUILDS && !builds.contains_key(&site) {
            builds.clear();
        }
        builds.insert(site, SharedBuild { snaps, state });
    }
}

/// Execution counters (used by tests, benchmarks and the cluster-model
/// calibration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub hash_builds: u64,
    pub hash_build_rows: u64,
    pub hash_probes: u64,
    pub materializations: u64,
    /// Build sides reused from the shared [`PlanCache`] because their
    /// reference snapshot had not moved (`hash_builds` and
    /// `materializations` count only real builds).
    pub build_reuses: u64,
    /// Hash build sides caught up from the shared [`PlanCache`]'s
    /// memoized build by the writes between its view and the one
    /// pinned, instead of rebuilt (not counted in `hash_builds`).
    pub build_deltas: u64,
    pub index_probes: u64,
    pub rows_scanned: u64,
    /// Partition scans bounded by a primary-key range.
    pub pk_range_scans: u64,
    pub blocks_evaluated: u64,
    pub udf_calls: u64,
    pub native_inits: u64,
    pub subquery_cache_hits: u64,
    /// Columnar batches built by vectorized scans.
    pub batches_built: u64,
    /// Rows packed into columnar batches.
    pub batch_rows: u64,
    /// Columnar storage pages read by transpose-free page slicing.
    pub columnar_pages_scanned: u64,
    /// Columnar storage pages skipped via footer min/max stats.
    pub columnar_pages_skipped: u64,
    /// Blocks that scanned a dataset but could not vectorize.
    pub vec_fallbacks: u64,
    /// Per-operator wall-clock of the vectorized path (scan / filter /
    /// join / aggregation / merge+projection), for bench breakdowns.
    pub vec_scan_nanos: u64,
    pub vec_filter_nanos: u64,
    pub vec_join_nanos: u64,
    pub vec_agg_nanos: u64,
    pub vec_merge_nanos: u64,
}

/// Build-side state cached per (block, from-item).
pub enum BuildState {
    /// Materialized (filtered) reference rows.
    Rows(Vec<Arc<Value>>),
    /// Hash table: build-key values → matching rows.
    Hash(HashBuild),
}

impl BuildState {
    /// Number of rows held (hash states count all bucket entries).
    pub fn len(&self) -> usize {
        match self {
            BuildState::Rows(r) => r.len(),
            BuildState::Hash(h) => h.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

type HashTable = HashMap<Vec<Value>, Vec<Arc<Value>>>;

/// A hash-join build side: build-key values → matching rows in scan
/// order. A build brought forward by a delta shares the table of the
/// full build it started from and holds the buckets changed since in a
/// small overlay, so a refresh costs the delta, not the table.
#[derive(Clone)]
pub struct HashBuild {
    base: Arc<HashTable>,
    base_rows: usize,
    /// Buckets that replace `base`'s; an empty one removes its key.
    overlay: HashTable,
}

/// Rows a delta may touch, and an overlay may hold, on top of an eighth
/// of the table before a full build is cheaper.
const DELTA_SLACK: usize = 16;

impl HashBuild {
    pub(crate) fn new(table: HashTable) -> HashBuild {
        let base_rows = table.values().map(Vec::len).sum();
        HashBuild { base: Arc::new(table), base_rows, overlay: HashTable::new() }
    }

    /// The rows whose build key is `key`.
    pub(crate) fn get(&self, key: &[Value]) -> &[Arc<Value>] {
        self.overlay.get(key).or_else(|| self.base.get(key)).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn len(&self) -> usize {
        let base: usize = self
            .base
            .iter()
            .filter(|(k, _)| !self.overlay.contains_key(*k))
            .map(|(_, rows)| rows.len())
            .sum();
        base + self.overlay.values().map(Vec::len).sum::<usize>()
    }

    /// Whether `rows` is too much to carry beside the table: a full
    /// build is then cheaper than copying or applying them.
    fn too_many(&self, rows: usize) -> bool {
        rows * 8 > self.base_rows + DELTA_SLACK
    }

    /// Replaces `before` (a row, keyed) by `after`. An update that keeps
    /// its key keeps its bucket position; a row leaving a bucket leaves
    /// the others in order. A row joining a non-empty bucket would need
    /// its scan position, which a bucket does not record: returns
    /// `false`, and the caller rebuilds.
    fn replace(&mut self, before: Option<Keyed>, after: Option<Keyed>) -> bool {
        // A record's primary key is unique, so equal content is the row.
        let position = |rows: &[Arc<Value>], row: &Arc<Value>| {
            rows.iter().position(|r| Arc::ptr_eq(r, row) || **r == **row)
        };
        match (before, after) {
            (Some((kb, rb)), Some((ka, ra))) if kb == ka => {
                let mut rows = self.get(&kb).to_vec();
                let Some(i) = position(&rows, &rb) else { return false };
                rows[i] = ra;
                self.overlay.insert(kb, rows);
            }
            (before, after) => {
                if let Some((kb, rb)) = before {
                    let mut rows = self.get(&kb).to_vec();
                    let Some(i) = position(&rows, &rb) else { return false };
                    rows.remove(i);
                    self.overlay.insert(kb, rows);
                }
                if let Some((ka, ra)) = after {
                    if !self.get(&ka).is_empty() {
                        return false;
                    }
                    self.overlay.insert(ka, vec![ra]);
                }
            }
        }
        true
    }
}

/// A build row with its build-key values.
type Keyed = (Vec<Value>, Arc<Value>);

/// Everything one enrichment execution scope holds.
pub struct ExecContext {
    catalog: Arc<Catalog>,
    plan_cache: Arc<PlanCache>,
    snapshots: HashMap<String, Arc<Vec<DatasetSnapshot>>>,
    builds: HashMap<(u32, usize), Arc<BuildState>>,
    uncorrelated: HashMap<u32, Arc<Vec<Value>>>,
    natives: HashMap<String, Box<dyn NativeUdf>>,
    params: HashMap<String, Value>,
    pub stats: ExecStats,
    pub(crate) depth: usize,
    /// Whether eligible blocks run the vectorized path (on by default;
    /// benchmarks and differential tests turn it off for the row
    /// oracle).
    pub vectorize: bool,
    /// Registry for `query/*` instruments, when attached.
    pub(crate) metrics: Option<Arc<idea_obs::MetricsRegistry>>,
    /// `query/batch/fallbacks`, resolved once at attach: it moves per
    /// block evaluation, i.e. per record inside an enrichment UDF.
    fallbacks: Option<Arc<idea_obs::Counter>>,
}

/// UDF recursion limit.
pub(crate) const MAX_DEPTH: usize = 64;

impl ExecContext {
    /// A context with a private plan cache (plans rebuilt per context).
    pub fn new(catalog: Arc<Catalog>) -> Self {
        ExecContext::with_plan_cache(catalog, PlanCache::new())
    }

    /// A context reusing a shared (predeployed) plan cache.
    pub fn with_plan_cache(catalog: Arc<Catalog>, plan_cache: Arc<PlanCache>) -> Self {
        ExecContext {
            catalog,
            plan_cache,
            snapshots: HashMap::new(),
            builds: HashMap::new(),
            uncorrelated: HashMap::new(),
            natives: HashMap::new(),
            params: HashMap::new(),
            stats: ExecStats::default(),
            depth: 0,
            vectorize: true,
            metrics: None,
            fallbacks: None,
        }
    }

    /// Attaches a metrics registry; the context records its `query/*`
    /// instruments (batches, fallbacks, bounded scans, reused builds)
    /// into it.
    pub fn attach_metrics(&mut self, registry: Arc<idea_obs::MetricsRegistry>) {
        self.fallbacks = Some(registry.counter(idea_obs::names::QUERY_BATCH_FALLBACKS));
        self.metrics = Some(registry);
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Binds a `$name` prepared-statement parameter.
    pub fn set_param(&mut self, name: impl Into<String>, value: Value) {
        self.params.insert(name.into(), value);
    }

    pub fn param(&self, name: &str) -> Option<&Value> {
        self.params.get(name)
    }

    /// Drops all per-context intermediate state (snapshot pins, build
    /// sides, caches, native-UDF instances) while keeping the plan
    /// cache — equivalent to starting a fresh context for the next
    /// batch, without re-planning; a build memoized in the cache is
    /// reused only if the re-pinned snapshot has not moved. Plans survive
    /// only if no DDL has touched the catalog since they were compiled:
    /// refresh validates the plan cache against the catalog version, so
    /// a CREATE/DROP INDEX or DROP DATASET between batches forces
    /// re-planning.
    pub fn refresh(&mut self) {
        self.snapshots.clear();
        self.builds.clear();
        self.uncorrelated.clear();
        self.natives.clear();
        self.plan_cache.validate(self.catalog.version());
    }

    /// The cached (or newly computed) plan for `block`.
    pub fn plan_for(&mut self, block: &SelectBlock) -> Result<Arc<BlockPlan>> {
        self.plan_cache.validate(self.catalog.version());
        if let Some(p) = self.plan_cache.plans.read().get(&block.id) {
            return Ok(p.clone());
        }
        let plan = Arc::new(plan_block(block, &self.catalog)?);
        self.plan_cache.plans.write().insert(block.id, plan.clone());
        Ok(plan)
    }

    /// Pins (or returns the pinned) snapshot set for a dataset: all
    /// reads of that dataset in this context see one consistent view
    /// (paper §5.1: updates are picked up by the *next* invocation).
    pub fn snapshots_for(&mut self, dataset: &str) -> Result<Arc<Vec<DatasetSnapshot>>> {
        if let Some(s) = self.snapshots.get(dataset) {
            return Ok(s.clone());
        }
        let ds = self.catalog.dataset(dataset)?;
        let snaps = Arc::new(ds.snapshot_all());
        self.snapshots.insert(dataset.to_owned(), snaps.clone());
        Ok(snaps)
    }

    /// The key range a scan of `partitions` partition snapshots reads:
    /// the plan's primary-key bound — counted in
    /// [`ExecStats::pk_range_scans`] and `query/scan/pk_range` — or every
    /// key when the plan has none.
    pub(crate) fn scan_range<'r>(
        &mut self,
        bound: Option<&'r KeyRange>,
        partitions: usize,
    ) -> &'r KeyRange {
        static FULL: KeyRange = KeyRange::all();
        let Some(range) = bound else { return &FULL };
        self.stats.pk_range_scans += partitions as u64;
        if let Some(m) = &self.metrics {
            m.counter(idea_obs::names::QUERY_SCAN_PK_RANGE).add(partitions as u64);
        }
        range
    }

    pub(crate) fn cached_uncorrelated(&self, block_id: u32) -> Option<Arc<Vec<Value>>> {
        self.uncorrelated.get(&block_id).cloned()
    }

    pub(crate) fn store_uncorrelated(&mut self, block_id: u32, rows: Arc<Vec<Value>>) {
        self.uncorrelated.insert(block_id, rows);
    }

    /// The instantiated native UDF for `name`, creating (initializing)
    /// it on first use in this context.
    pub(crate) fn native_instance(&mut self, name: &str) -> Result<&mut Box<dyn NativeUdf>> {
        if !self.natives.contains_key(name) {
            let def = self.catalog.function(name)?;
            let crate::udf::FunctionDef::Native { factory, .. } = def else {
                return Err(QueryError::Eval(format!("{name} is not a native UDF")));
            };
            self.stats.native_inits += 1;
            self.natives.insert(name.to_owned(), factory());
        }
        Ok(self.natives.get_mut(name).unwrap())
    }
}

/// Evaluates a select block to its result rows.
pub fn eval_block(block: &SelectBlock, env: &Env, ctx: &mut ExecContext) -> Result<Vec<Value>> {
    ctx.stats.blocks_evaluated += 1;
    let plan = ctx.plan_for(block)?;

    // Pre-SELECT LETs bind before FROM (they can feed FROM sources,
    // as in the paper's Figure 10 batch template).
    let mut env = env.clone();
    for (name, e) in &block.pre_lets {
        let v = eval_expr(e, &env, ctx)?;
        env = env.bind_value(name.clone(), v);
    }
    let env = &env;

    // Vectorized path: compiled once at plan time. Everything the
    // vectorizer declined runs the row interpreter below, which stays
    // the differential oracle.
    if ctx.vectorize {
        if let Some(vp) = plan.vec.clone() {
            return crate::vector::eval_vectorized(block, &vp, env, ctx);
        }
        if plan.vec_fallback {
            ctx.stats.vec_fallbacks += 1;
            if let Some(c) = &ctx.fallbacks {
                c.inc();
            }
        }
    }

    // FROM: join loop in planned order.
    let rows = join_from(block, &plan, 0, vec![env.clone()], ctx)?;

    // LET bindings, then post-LET filters.
    let mut bound = apply_lets_and_post_filters(block, &plan, rows, ctx)?;

    if !block.group_by.is_empty() || plan.has_aggregates {
        return eval_grouped(block, env, bound, ctx);
    }

    // ORDER BY / LIMIT / SELECT.
    if !block.order_by.is_empty() {
        bound = sort_rows(block, bound, ctx, None)?;
    }
    let out: Result<Vec<Value>> =
        bound.iter().map(|renv| project(block, renv, ctx, None)).collect();
    let mut out = out?;
    if block.distinct {
        out = dedup_values(out);
    }
    if let Some(limit) = &block.limit {
        let n = eval_limit(limit, env, ctx)?;
        out.truncate(n);
    }
    Ok(out)
}

/// Runs the FROM join loop for plan items `from_order[start..]` over the
/// given partial rows. `start > 0` lets the lazy scan stream handle its
/// driver item itself and complete the remaining joins with the shared
/// code path.
pub(crate) fn join_from(
    block: &SelectBlock,
    plan: &BlockPlan,
    start: usize,
    mut rows: Vec<Env>,
    ctx: &mut ExecContext,
) -> Result<Vec<Env>> {
    for fp in &plan.from_order[start..] {
        let item = &block.from[fp.item_idx];
        let mut next = Vec::new();
        for renv in &rows {
            let cands = fetch_candidates(block, fp, &item.source, renv, ctx)?;
            'cand: for cand in cands.as_slice() {
                let cenv = renv.bind(item.alias.clone(), cand.clone());
                for r in &fp.residual {
                    if !eval_expr(r, &cenv, ctx)?.is_true() {
                        continue 'cand;
                    }
                }
                next.push(cenv);
            }
        }
        rows = next;
        if rows.is_empty() && !plan.has_aggregates && block.group_by.is_empty() {
            // No surviving rows and no aggregate that must still produce
            // a value — the remaining items cannot add rows either, but
            // we keep semantics simple by continuing only when needed.
            break;
        }
    }
    Ok(rows)
}

/// Binds the block's LETs per row, then applies post-LET filters.
pub(crate) fn apply_lets_and_post_filters(
    block: &SelectBlock,
    plan: &BlockPlan,
    rows: Vec<Env>,
    ctx: &mut ExecContext,
) -> Result<Vec<Env>> {
    let mut bound = Vec::with_capacity(rows.len());
    'row: for renv in rows {
        let mut renv = renv;
        for (name, e) in &block.lets {
            let v = eval_expr(e, &renv, ctx)?;
            renv = renv.bind_value(name.clone(), v);
        }
        for c in &plan.post_filter {
            if !eval_expr(c, &renv, ctx)?.is_true() {
                continue 'row;
            }
        }
        bound.push(renv);
    }
    Ok(bound)
}

/// Order-preserving deep deduplication (SELECT DISTINCT).
pub(crate) fn dedup_values(values: Vec<Value>) -> Vec<Value> {
    let mut seen: std::collections::HashSet<Value> = std::collections::HashSet::new();
    values.into_iter().filter(|v| seen.insert(v.clone())).collect()
}

enum CandList {
    Shared(Arc<BuildState>),
    Owned(Vec<Arc<Value>>),
}

impl CandList {
    fn as_slice(&self) -> &[Arc<Value>] {
        match self {
            CandList::Shared(b) => match &**b {
                BuildState::Rows(r) => r,
                BuildState::Hash(_) => &[],
            },
            CandList::Owned(v) => v,
        }
    }
}

fn fetch_candidates(
    block: &SelectBlock,
    fp: &crate::plan::FromPlan,
    source: &FromSource,
    renv: &Env,
    ctx: &mut ExecContext,
) -> Result<CandList> {
    match &fp.path {
        AccessPath::Iterate => {
            let collection = match source {
                FromSource::Name(name) => match renv.get(name) {
                    Some(v) => (**v).clone(),
                    None => {
                        // Could still be a dataset created after planning;
                        // fall back to a snapshot scan.
                        let snaps = ctx.snapshots_for(name)?;
                        let mut rows = Vec::new();
                        for s in snaps.iter() {
                            rows.extend(s.iter());
                        }
                        ctx.stats.rows_scanned += rows.len() as u64;
                        return Ok(CandList::Owned(apply_filters(
                            rows,
                            &fp.self_filter,
                            block,
                            fp,
                            ctx,
                        )?));
                    }
                },
                FromSource::Expr(e) => eval_expr(e, renv, ctx)?,
            };
            let items = match collection {
                Value::Array(items) => items.into_iter().map(Arc::new).collect(),
                Value::Missing | Value::Null => Vec::new(),
                other => {
                    return Err(QueryError::Eval(format!(
                        "FROM expects an array, got {}",
                        other.type_name()
                    )))
                }
            };
            Ok(CandList::Owned(apply_filters(items, &fp.self_filter, block, fp, ctx)?))
        }
        AccessPath::Materialize => {
            let state = materialize(block, fp, ctx)?;
            Ok(CandList::Shared(state))
        }
        AccessPath::HashBuild { build_keys, probe_keys } => {
            let state = hash_build(block, fp, build_keys, ctx)?;
            let BuildState::Hash(table) = &*state else { unreachable!("hash path") };
            let mut key = Vec::with_capacity(probe_keys.len());
            for k in probe_keys {
                key.push(eval_expr(k, renv, ctx)?);
            }
            ctx.stats.hash_probes += 1;
            Ok(CandList::Owned(table.get(&key).to_vec()))
        }
        AccessPath::IndexEq { target, probe_key } => {
            let FromSource::Name(ds_name) = source else {
                return Err(QueryError::Eval("index probe requires a dataset".into()));
            };
            let key = eval_expr(probe_key, renv, ctx)?;
            if key.is_unknown() {
                return Ok(CandList::Owned(Vec::new()));
            }
            let ds = ctx.catalog.dataset(ds_name)?;
            ctx.stats.index_probes += 1;
            let rows: Vec<Arc<Value>> = match target {
                IndexTarget::Primary => ds.get(&key)?.into_iter().collect(),
                IndexTarget::Secondary(index) => {
                    let mut out = Vec::new();
                    for p in ds.partitions() {
                        out.extend(p.index_lookup(index, &key)?);
                    }
                    out
                }
            };
            Ok(CandList::Owned(apply_filters(rows, &fp.self_filter, block, fp, ctx)?))
        }
        AccessPath::IndexSpatial { index, region } => {
            let FromSource::Name(ds_name) = source else {
                return Err(QueryError::Eval("index probe requires a dataset".into()));
            };
            let region = eval_expr(region, renv, ctx)?;
            let ds = ctx.catalog.dataset(ds_name)?;
            ctx.stats.index_probes += 1;
            let mut rows = Vec::new();
            match region {
                Value::Circle(c) => {
                    for p in ds.partitions() {
                        rows.extend(p.index_query_circle(index, &c)?);
                    }
                }
                Value::Rectangle(r) => {
                    for p in ds.partitions() {
                        rows.extend(p.index_query_rect(index, &r)?);
                    }
                }
                Value::Point(pt) => {
                    let c = Circle::new(pt, 0.0);
                    for p in ds.partitions() {
                        rows.extend(p.index_query_circle(index, &c)?);
                    }
                }
                Value::Missing | Value::Null => {}
                other => {
                    return Err(QueryError::Eval(format!(
                        "spatial probe region must be circle/rectangle/point, got {}",
                        other.type_name()
                    )))
                }
            }
            Ok(CandList::Owned(apply_filters(rows, &fp.self_filter, block, fp, ctx)?))
        }
    }
}

fn apply_filters(
    rows: Vec<Arc<Value>>,
    filters: &[Expr],
    block: &SelectBlock,
    fp: &crate::plan::FromPlan,
    ctx: &mut ExecContext,
) -> Result<Vec<Arc<Value>>> {
    if filters.is_empty() {
        return Ok(rows);
    }
    let alias = &block.from[fp.item_idx].alias;
    let mut slot = BindSlot::new(&Env::new(), alias.clone());
    let mut out = Vec::with_capacity(rows.len());
    'row: for r in rows {
        let env = slot.set(r.clone());
        for f in filters {
            if !eval_expr(f, env, ctx)?.is_true() {
                continue 'row;
            }
        }
        out.push(r);
    }
    Ok(out)
}

/// The build side of dataset FROM item `fp`: this context's own, else
/// the plan cache's memoized one if the snapshot just pinned is the view
/// it was built from (pure builds only), else the memoized one brought
/// forward to the pinned view by `refresh` (given the memoized state and
/// its views, `None` when it cannot), else a fresh `build` over the
/// pinned snapshots — memoized in turn when pure.
fn build_side(
    block: &SelectBlock,
    fp: &crate::plan::FromPlan,
    ctx: &mut ExecContext,
    build: impl FnOnce(&[DatasetSnapshot], &mut ExecContext) -> Result<BuildState>,
    refresh: impl FnOnce(
        &BuildState,
        &[DatasetSnapshot],
        &[DatasetSnapshot],
        &mut ExecContext,
    ) -> Result<Option<BuildState>>,
) -> Result<Arc<BuildState>> {
    let site = (block.id, fp.item_idx);
    if let Some(s) = ctx.builds.get(&site) {
        return Ok(s.clone());
    }
    let FromSource::Name(ds_name) = &block.from[fp.item_idx].source else {
        return Err(QueryError::Eval("a build side requires a dataset".into()));
    };
    let snaps = ctx.snapshots_for(ds_name)?;
    let memo = if fp.pure_build { ctx.plan_cache.shared_build(site) } else { None };
    let state = match memo {
        Some((old, state))
            if old.len() == snaps.len()
                && old.iter().zip(snaps.iter()).all(|(a, b)| a.same_view(b)) =>
        {
            ctx.stats.build_reuses += 1;
            if let Some(m) = &ctx.metrics {
                m.counter(idea_obs::names::QUERY_BUILD_REUSED).inc();
            }
            state
        }
        memo => {
            let refreshed = match memo {
                Some((old, state)) => refresh(&state, &old, &snaps, ctx)?,
                None => None,
            };
            let state = match refreshed {
                Some(state) => {
                    ctx.stats.build_deltas += 1;
                    if let Some(m) = &ctx.metrics {
                        m.counter(idea_obs::names::QUERY_BUILD_DELTA).inc();
                    }
                    Arc::new(state)
                }
                None => Arc::new(build(&snaps, ctx)?),
            };
            if fp.pure_build {
                ctx.plan_cache.share_build(site, snaps, state.clone());
            }
            state
        }
    };
    ctx.builds.insert(site, state.clone());
    Ok(state)
}

/// The filtered rows of a dataset FROM item.
fn materialize(
    block: &SelectBlock,
    fp: &crate::plan::FromPlan,
    ctx: &mut ExecContext,
) -> Result<Arc<BuildState>> {
    let build = |snaps: &[DatasetSnapshot], ctx: &mut ExecContext| {
        let range = ctx.scan_range(fp.key_range.as_ref(), snaps.len());
        let mut rows = Vec::new();
        for s in snaps {
            rows.extend(s.iter_range(range));
        }
        ctx.stats.rows_scanned += rows.len() as u64;
        ctx.stats.materializations += 1;
        Ok(BuildState::Rows(apply_filters(rows, &fp.self_filter, block, fp, ctx)?))
    };
    // Materialized rows are rebuilt whenever the view moved.
    build_side(block, fp, ctx, build, |_, _, _, _| Ok(None))
}

/// The hash table for an equality-join FROM item. A moved view is
/// caught up from the memoized table by the writes between the two
/// views while they are few and still in the memtable.
fn hash_build(
    block: &SelectBlock,
    fp: &crate::plan::FromPlan,
    build_keys: &[Expr],
    ctx: &mut ExecContext,
) -> Result<Arc<BuildState>> {
    let alias = &block.from[fp.item_idx].alias;
    let build = |snaps: &[DatasetSnapshot], ctx: &mut ExecContext| {
        let range = ctx.scan_range(fp.key_range.as_ref(), snaps.len());
        let mut slot = BindSlot::new(&Env::new(), alias.clone());
        let mut map = HashTable::new();
        let mut n_rows = 0u64;
        for s in snaps {
            for rec in s.iter_range(range) {
                n_rows += 1;
                if let Some(kv) = build_key(&rec, &mut slot, fp, build_keys, ctx)? {
                    map.entry(kv).or_default().push(rec);
                }
            }
        }
        ctx.stats.rows_scanned += n_rows;
        ctx.stats.hash_builds += 1;
        ctx.stats.hash_build_rows += n_rows;
        Ok(BuildState::Hash(HashBuild::new(map)))
    };
    let refresh = |prev: &BuildState,
                   old: &[DatasetSnapshot],
                   new: &[DatasetSnapshot],
                   ctx: &mut ExecContext| {
        let BuildState::Hash(prev) = prev else { return Ok(None) };
        let mut changes = Vec::new();
        for (o, n) in old.iter().zip(new) {
            match n.changes_since(o)? {
                Some(c) => changes.extend(c),
                None => return Ok(None),
            }
        }
        if old.len() != new.len() || prev.too_many(changes.len()) {
            return Ok(None);
        }
        let mut slot = BindSlot::new(&Env::new(), alias.clone());
        let mut keyed = |row: Option<Arc<Value>>, ctx: &mut ExecContext| -> Result<Option<Keyed>> {
            let Some(row) = row else { return Ok(None) };
            Ok(build_key(&row, &mut slot, fp, build_keys, ctx)?.map(|kv| (kv, row)))
        };
        let mut next = prev.clone();
        for c in changes {
            if fp.key_range.as_ref().is_some_and(|r| !r.contains(&c.key)) {
                continue;
            }
            let before = keyed(c.before, ctx)?;
            let after = keyed(c.after, ctx)?;
            if !next.replace(before, after) {
                return Ok(None);
            }
        }
        let carried = next.overlay.values().map(Vec::len).sum();
        Ok((!next.too_many(carried)).then_some(BuildState::Hash(next)))
    };
    build_side(block, fp, ctx, build, refresh)
}

/// `rec`'s build-key values, or `None` when the FROM item's self-filter
/// drops it or a key is unknown (unknown keys never join).
fn build_key(
    rec: &Arc<Value>,
    slot: &mut BindSlot,
    fp: &crate::plan::FromPlan,
    build_keys: &[Expr],
    ctx: &mut ExecContext,
) -> Result<Option<Vec<Value>>> {
    let env = slot.set(rec.clone());
    for f in &fp.self_filter {
        if !eval_expr(f, env, ctx)?.is_true() {
            return Ok(None);
        }
    }
    let mut kv = Vec::with_capacity(build_keys.len());
    for k in build_keys {
        kv.push(eval_expr(k, env, ctx)?);
    }
    Ok((!kv.iter().any(Value::is_unknown)).then_some(kv))
}

/// One group during grouped evaluation: the group environment (first
/// row's bindings extended with explicit group aliases) and its rows.
struct Group {
    genv: Env,
    rows: Vec<Env>,
}

/// Partitions rows into groups and applies HAVING.
fn build_groups(
    block: &SelectBlock,
    outer_env: &Env,
    rows: Vec<Env>,
    ctx: &mut ExecContext,
) -> Result<Vec<Group>> {
    // Partition rows into groups.
    let mut group_keys: Vec<Vec<Value>> = Vec::new();
    let mut group_rows: Vec<Vec<Env>> = Vec::new();
    if block.group_by.is_empty() {
        // Implicit single group (possibly empty).
        group_keys.push(Vec::new());
        group_rows.push(rows);
    } else {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for renv in rows {
            let mut key = Vec::with_capacity(block.group_by.len());
            for (e, _) in &block.group_by {
                key.push(eval_expr(e, &renv, ctx)?);
            }
            let slot = *index.entry(key.clone()).or_insert_with(|| {
                group_keys.push(key);
                group_rows.push(Vec::new());
                group_keys.len() - 1
            });
            group_rows[slot].push(renv);
        }
    }

    // Build one (genv, rows) per group: the group environment is the
    // first row's bindings (group keys are constant within a group)
    // extended with explicit group aliases.
    let mut groups = Vec::with_capacity(group_keys.len());
    for (key, rows) in group_keys.into_iter().zip(group_rows) {
        let mut genv = rows.first().cloned().unwrap_or_else(|| outer_env.clone());
        for ((_, alias), kv) in block.group_by.iter().zip(key) {
            if let Some(a) = alias {
                genv = genv.bind_value(a.clone(), kv);
            }
        }
        groups.push(Group { genv, rows });
    }

    // HAVING.
    if let Some(h) = &block.having {
        let mut kept = Vec::with_capacity(groups.len());
        for g in groups {
            if eval_with_aggregates(h, &g.rows, &g.genv, ctx)?.is_true() {
                kept.push(g);
            }
        }
        groups = kept;
    }
    Ok(groups)
}

/// Grouped evaluation (GROUP BY, or implicit group-all for aggregates).
fn eval_grouped(
    block: &SelectBlock,
    outer_env: &Env,
    rows: Vec<Env>,
    ctx: &mut ExecContext,
) -> Result<Vec<Value>> {
    let mut groups = build_groups(block, outer_env, rows, ctx)?;

    // ORDER BY over groups.
    if !block.order_by.is_empty() {
        let mut keyed: Vec<(Vec<Value>, Group)> = Vec::with_capacity(groups.len());
        for g in groups {
            let mut keys = Vec::with_capacity(block.order_by.len());
            for (e, _) in &block.order_by {
                keys.push(eval_with_aggregates(e, &g.rows, &g.genv, ctx)?);
            }
            keyed.push((keys, g));
        }
        keyed.sort_by(|(a, _), (b, _)| compare_order_keys(a, b, &block.order_by));
        groups = keyed.into_iter().map(|(_, g)| g).collect();
    }

    if let Some(limit) = &block.limit {
        let n = eval_limit(limit, outer_env, ctx)?;
        groups.truncate(n);
    }

    let out: Result<Vec<Value>> =
        groups.iter().map(|g| project(block, &g.genv, ctx, Some(&g.rows))).collect();
    let mut out = out?;
    if block.distinct {
        out = dedup_values(out);
    }
    Ok(out)
}

pub(crate) fn compare_order_keys(
    a: &[Value],
    b: &[Value],
    order_by: &[(Expr, bool)],
) -> std::cmp::Ordering {
    for (i, (_, asc)) in order_by.iter().enumerate() {
        let ord = a[i].cmp(&b[i]);
        let ord = if *asc { ord } else { ord.reverse() };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

fn sort_rows(
    block: &SelectBlock,
    rows: Vec<Env>,
    ctx: &mut ExecContext,
    group_rows: Option<&[Env]>,
) -> Result<Vec<Env>> {
    debug_assert!(group_rows.is_none());
    let mut keyed: Vec<(Vec<Value>, Env)> = Vec::with_capacity(rows.len());
    for renv in rows {
        let mut keys = Vec::with_capacity(block.order_by.len());
        for (e, _) in &block.order_by {
            keys.push(eval_expr(e, &renv, ctx)?);
        }
        keyed.push((keys, renv));
    }
    keyed.sort_by(|(a, _), (b, _)| compare_order_keys(a, b, &block.order_by));
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

pub(crate) fn eval_limit(limit: &Expr, env: &Env, ctx: &mut ExecContext) -> Result<usize> {
    match eval_expr(limit, env, ctx)? {
        Value::Int(n) if n >= 0 => Ok(n as usize),
        other => Err(QueryError::Eval(format!("LIMIT must be a non-negative int, got {other}"))),
    }
}

/// Evaluates the SELECT clause for one output row/group.
pub(crate) fn project(
    block: &SelectBlock,
    env: &Env,
    ctx: &mut ExecContext,
    group_rows: Option<&[Env]>,
) -> Result<Value> {
    let eval_item = |e: &Expr, ctx: &mut ExecContext| -> Result<Value> {
        match group_rows {
            Some(rows) => eval_with_aggregates(e, rows, env, ctx),
            None => eval_expr(e, env, ctx),
        }
    };
    match &block.select {
        SelectClause::Value(e) => eval_item(e, ctx),
        SelectClause::Items(items) => {
            let mut obj = idea_adm::value::Object::new();
            for (i, item) in items.iter().enumerate() {
                match item {
                    SelectItem::Star(alias) => {
                        let v = env.get(alias).ok_or_else(|| {
                            QueryError::Unresolved(format!("variable {alias} in {alias}.*"))
                        })?;
                        match &**v {
                            Value::Object(o) => obj.extend_from(o),
                            other => {
                                return Err(QueryError::Eval(format!(
                                    "{alias}.* requires an object, got {}",
                                    other.type_name()
                                )))
                            }
                        }
                    }
                    SelectItem::Expr(e, alias) => {
                        let name = alias.clone().unwrap_or_else(|| derived_name(e, i));
                        let v = eval_item(e, ctx)?;
                        if !matches!(v, Value::Missing) {
                            obj.set(name, v);
                        }
                    }
                }
            }
            Ok(Value::Object(obj))
        }
    }
}

pub(crate) fn derived_name(e: &Expr, idx: usize) -> String {
    match e {
        Expr::Field(_, f) => f.clone(),
        Expr::Ident(n) => n.clone(),
        _ => format!("${}", idx + 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    #[test]
    fn env_shadowing_and_lookup() {
        let e = Env::new();
        assert!(e.get("x").is_none());
        let e1 = e.bind_value("x", Value::Int(1));
        let e2 = e1.bind_value("x", Value::Int(2)).bind_value("y", Value::Int(3));
        assert_eq!(e1.get("x").map(|v| (**v).clone()), Some(Value::Int(1)));
        assert_eq!(e2.get("x").map(|v| (**v).clone()), Some(Value::Int(2)), "inner shadows");
        assert_eq!(e2.get("y").map(|v| (**v).clone()), Some(Value::Int(3)));
        // The original env is unaffected (persistent structure).
        assert!(e.get("x").is_none());
    }

    #[test]
    fn shared_plan_cache_reused_across_contexts() {
        let c = Catalog::new(1);
        c.create_type_from_ddl("T", &[("id".into(), "int64".into())]).unwrap();
        c.create_dataset("D", "T", "id").unwrap();
        let block = crate::parser::parse_query("SELECT VALUE d.id FROM D d").unwrap();
        let cache = PlanCache::new();
        let mut ctx1 = ExecContext::with_plan_cache(c.clone(), cache.clone());
        ctx1.plan_for(&block).unwrap();
        assert_eq!(cache.len(), 1);
        let mut ctx2 = ExecContext::with_plan_cache(c, cache.clone());
        ctx2.plan_for(&block).unwrap();
        assert_eq!(cache.len(), 1, "second context reuses the predeployed plan");
    }

    #[test]
    fn refresh_drops_state_keeps_plans() {
        let c = Catalog::new(1);
        c.create_type_from_ddl("T", &[("id".into(), "int64".into())]).unwrap();
        c.create_dataset("D", "T", "id").unwrap();
        c.dataset("D").unwrap().insert(Value::object([("id", Value::Int(1))])).unwrap();
        let block = crate::parser::parse_query("SELECT VALUE d.id FROM D d").unwrap();
        let mut ctx = ExecContext::new(c.clone());
        let before = eval_block(&block, &Env::new(), &mut ctx).unwrap();
        assert_eq!(before.len(), 1);
        // New record after the snapshot pin: invisible until refresh.
        c.dataset("D").unwrap().insert(Value::object([("id", Value::Int(2))])).unwrap();
        let stale = eval_block(&block, &Env::new(), &mut ctx).unwrap();
        assert_eq!(stale.len(), 1, "pinned snapshot");
        ctx.refresh();
        let fresh = eval_block(&block, &Env::new(), &mut ctx).unwrap();
        assert_eq!(fresh.len(), 2, "refresh re-pins");
    }

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        let vals = vec![Value::Int(3), Value::Int(1), Value::Int(3), Value::Int(2), Value::Int(1)];
        assert_eq!(dedup_values(vals), vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn build_state_len() {
        let rows = BuildState::Rows(vec![Arc::new(Value::Int(1)), Arc::new(Value::Int(2))]);
        assert_eq!(rows.len(), 2);
        let mut m = HashMap::new();
        m.insert(vec![Value::Int(1)], vec![Arc::new(Value::Int(1))]);
        assert_eq!(BuildState::Hash(HashBuild::new(m)).len(), 1);
        assert!(!rows.is_empty());
    }
}
