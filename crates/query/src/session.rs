//! The unified Session API: the one entry point for running SQL++
//! against a catalog.
//!
//! A [`Session`] owns the state the old free functions
//! (`run_sqlpp`/`run_query`/`execute`) forced every caller to manage ad
//! hoc: a shared [`PlanCache`] (so repeated statements reuse compiled
//! plans, invalidated automatically when DDL moves the catalog version),
//! prepared-statement parameters, and — when built with
//! [`SessionConfig::build_on`] — the metrics registry its statements
//! report into.
//!
//! ```
//! use idea_query::{Catalog, Session};
//!
//! let catalog = Catalog::new(2);
//! let session = Session::new(catalog);
//! session.run_script(
//!     "CREATE TYPE T AS OPEN { id: int64 };
//!      CREATE DATASET D(T) PRIMARY KEY id;
//!      INSERT INTO D ([{\"id\": 1}, {\"id\": 2}]);",
//! ).unwrap();
//! let v = session.query("SELECT VALUE d.id FROM D d ORDER BY d.id").unwrap();
//! assert_eq!(format!("{v}"), "[1, 2]");
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use idea_adm::Value;
use idea_obs::MetricsRegistry;
use parking_lot::Mutex;

use crate::ast::{Expr, Statement};
use crate::catalog::Catalog;
use crate::error::QueryError;
use crate::exec::{eval_block, Env, ExecContext, ExecStats, PlanCache};
use crate::expr::eval_expr;
use crate::parser::parse_statements;
use crate::stream::{scan_streamable, RowStream, ScanStream, DEFAULT_BATCH_SIZE};
use crate::udf::FunctionDef;
use crate::Result;

/// Builder for a [`Session`]: the one place a caller states how the
/// session should execute before it exists, replacing the pre-redesign
/// pattern of mutating a shared session through ad-hoc knobs.
///
/// ```
/// use idea_query::{Catalog, SessionConfig};
///
/// let catalog = Catalog::new(2);
/// let session = SessionConfig::new()
///     .result_batch_size(64)
///     .tenant("analytics")
///     .build(catalog);
/// assert_eq!(session.tenant(), Some("analytics"));
/// ```
#[derive(Debug, Clone)]
pub struct SessionConfig {
    params: HashMap<String, Value>,
    tenant: Option<String>,
    batch_size: usize,
    plan_cache: Option<Arc<PlanCache>>,
    vectorize: bool,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            params: HashMap::new(),
            tenant: None,
            batch_size: DEFAULT_BATCH_SIZE,
            plan_cache: None,
            vectorize: true,
        }
    }
}

impl SessionConfig {
    pub fn new() -> SessionConfig {
        SessionConfig::default()
    }

    /// Pre-binds a `$name` prepared-statement parameter.
    pub fn param(mut self, name: impl Into<String>, value: Value) -> SessionConfig {
        self.params.insert(name.into(), value);
        self
    }

    /// Tags the session with a tenant id (used by the serving layer's
    /// per-tenant admission control and metrics).
    pub fn tenant(mut self, tenant: impl Into<String>) -> SessionConfig {
        self.tenant = Some(tenant.into());
        self
    }

    /// Target rows per [`RowStream`] batch (default
    /// [`DEFAULT_BATCH_SIZE`]; clamped to ≥ 1).
    pub fn result_batch_size(mut self, n: usize) -> SessionConfig {
        self.batch_size = n.max(1);
        self
    }

    /// Shares a compiled-plan cache with other sessions (a server's
    /// session pool passes one cache so every connection reuses plans).
    pub fn shared_plan_cache(mut self, cache: Arc<PlanCache>) -> SessionConfig {
        self.plan_cache = Some(cache);
        self
    }

    /// Whether eligible blocks run the vectorized (batch-at-a-time)
    /// evaluator (default: true). Turning it off forces the
    /// row-at-a-time oracle — used by differential tests and the
    /// benchmark baseline.
    pub fn vectorize(mut self, on: bool) -> SessionConfig {
        self.vectorize = on;
        self
    }

    /// Builds a session that reports into no metrics registry.
    pub fn build(self, catalog: Arc<Catalog>) -> Session {
        self.finish(catalog, None)
    }

    /// Builds a session whose statements record their `query/*`
    /// instruments into `metrics`.
    pub fn build_on(self, catalog: Arc<Catalog>, metrics: Arc<MetricsRegistry>) -> Session {
        self.finish(catalog, Some(metrics))
    }

    fn finish(self, catalog: Arc<Catalog>, metrics: Option<Arc<MetricsRegistry>>) -> Session {
        let plan_cache = self.plan_cache.unwrap_or_default();
        // Pull-style view of the plan cache, following the storage
        // crates' weak-ref probe idiom: the registry samples the cache
        // at snapshot time but must not keep a dropped session's cache
        // alive (the probe reads 0 afterwards). Sessions sharing a
        // registry replace each other's probe; the most recently built
        // session owns it.
        if let Some(m) = &metrics {
            let weak = Arc::downgrade(&plan_cache);
            m.probe(idea_obs::names::QUERY_VEC_PLANS, move || {
                weak.upgrade().map_or(0, |pc| pc.vectorized_plans() as i64)
            });
        }
        Session {
            catalog,
            plan_cache,
            params: Mutex::new(self.params),
            metrics,
            last_stats: Mutex::new(ExecStats::default()),
            tenant: self.tenant,
            batch_size: self.batch_size,
            vectorize: self.vectorize,
        }
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementResult {
    /// DDL done.
    Ok,
    /// DML touched this many records.
    Count(usize),
    /// Query output.
    Value(Value),
}

impl StatementResult {
    /// The query output, if this was a query.
    pub fn into_value(self) -> Option<Value> {
        match self {
            StatementResult::Value(v) => Some(v),
            _ => None,
        }
    }
}

/// A stateful SQL++ session over a shared [`Catalog`].
///
/// Cheap to keep around: holds no snapshot pins between statements (each
/// statement runs in a fresh [`ExecContext`] seeded from the session's
/// plan cache and parameters), so data changes are visible to the next
/// statement immediately.
pub struct Session {
    catalog: Arc<Catalog>,
    plan_cache: Arc<PlanCache>,
    params: Mutex<HashMap<String, Value>>,
    metrics: Option<Arc<MetricsRegistry>>,
    last_stats: Mutex<ExecStats>,
    tenant: Option<String>,
    batch_size: usize,
    vectorize: bool,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("tenant", &self.tenant)
            .field("vectorize", &self.vectorize)
            .field("metrics", &self.metrics.is_some())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// A session with default configuration and no metrics registry.
    /// Use [`SessionConfig`] to set anything up front.
    pub fn new(catalog: Arc<Catalog>) -> Session {
        SessionConfig::default().build(catalog)
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The tenant id this session was built with, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Target rows per [`RowStream`] batch for this session.
    pub fn result_batch_size(&self) -> usize {
        self.batch_size
    }

    /// Binds a `$name` prepared-statement parameter for subsequent
    /// statements.
    pub fn set_param(&self, name: impl Into<String>, value: Value) {
        self.params.lock().insert(name.into(), value);
    }

    pub fn clear_params(&self) {
        self.params.lock().clear();
    }

    /// Execution counters from the most recent materialized statement
    /// (a lazy stream reports through [`RowStream::exec_stats`]).
    pub fn last_stats(&self) -> ExecStats {
        *self.last_stats.lock()
    }

    /// Parses and executes a script of `;`-separated statements.
    pub fn run_script(&self, text: &str) -> Result<Vec<StatementResult>> {
        let stmts = parse_statements(text)?;
        stmts.iter().map(|s| self.execute(s)).collect()
    }

    /// Parses and executes a single query, returning its value.
    pub fn query(&self, text: &str) -> Result<Value> {
        let mut results = self.run_script(text)?;
        match results.pop() {
            Some(StatementResult::Value(v)) if results.is_empty() => Ok(v),
            _ => Err(QueryError::Invalid("expected a single query".into())),
        }
    }

    /// Parses a single query and returns its result as a [`RowStream`].
    ///
    /// Streamable blocks (see [`crate::stream`]) evaluate lazily — only
    /// one batch of rows is ever materialized at a time. Everything else
    /// falls back to the materializing evaluator and re-chunks the
    /// finished result, so this is total over the same query set as
    /// [`Session::query`].
    pub fn query_stream(&self, text: &str) -> Result<RowStream> {
        let mut stmts = parse_statements(text)?;
        let stmt = match (stmts.pop(), stmts.is_empty()) {
            (Some(s), true) => s,
            _ => return Err(QueryError::Invalid("expected a single query".into())),
        };
        self.stream_statement(&stmt)
    }

    /// Streams an already-parsed query statement. This is the entry
    /// point for servers that cache parsed statements: reusing the same
    /// AST keeps block ids stable, which is what makes a [shared plan
    /// cache](SessionConfig::shared_plan_cache) hit across connections.
    pub fn stream_statement(&self, stmt: &Statement) -> Result<RowStream> {
        let Statement::Query(e) = stmt else {
            return Err(QueryError::Invalid("expected a single query".into()));
        };
        let Expr::Subquery(block) = e else {
            // A bare expression produces one row.
            let mut ctx = self.fresh_context();
            let v = eval_expr(e, &Env::new(), &mut ctx)?;
            self.finish(ctx);
            return Ok(RowStream::materialized(vec![v], self.batch_size));
        };
        let mut ctx = self.fresh_context();
        let plan = ctx.plan_for(block)?;
        if scan_streamable(block, &plan) {
            return Ok(RowStream::scan(ScanStream::new(block.clone(), ctx, self.batch_size)?));
        }
        // Not streamable: materialize and re-chunk.
        drop(ctx);
        let v = self.run_query_expr(e)?;
        let rows = match v {
            Value::Array(rows) => rows,
            other => vec![other],
        };
        Ok(RowStream::materialized(rows, self.batch_size))
    }

    /// A statement-scoped execution context: shares the session's plan
    /// cache (validated against the catalog version on first use) and
    /// carries its parameter bindings.
    fn fresh_context(&self) -> ExecContext {
        let mut ctx = ExecContext::with_plan_cache(self.catalog.clone(), self.plan_cache.clone());
        ctx.vectorize = self.vectorize;
        if let Some(m) = &self.metrics {
            ctx.attach_metrics(m.clone());
        }
        for (k, v) in self.params.lock().iter() {
            ctx.set_param(k.clone(), v.clone());
        }
        ctx
    }

    fn finish(&self, ctx: ExecContext) {
        *self.last_stats.lock() = ctx.stats;
    }

    /// Executes one parsed statement.
    pub fn execute(&self, stmt: &Statement) -> Result<StatementResult> {
        match stmt {
            Statement::CreateType { name, fields } => {
                self.catalog.create_type_from_ddl(name, fields)?;
                Ok(StatementResult::Ok)
            }
            Statement::CreateDataset { name, type_name, primary_key, options } => {
                self.catalog
                    .create_dataset_with_options(name, type_name, primary_key, options)?;
                Ok(StatementResult::Ok)
            }
            Statement::CreateIndex { name, dataset, field, kind } => {
                self.catalog.create_index(name, dataset, field, *kind)?;
                Ok(StatementResult::Ok)
            }
            Statement::CreateFunction { name, params, body } => {
                self.catalog.create_function(FunctionDef::Sqlpp {
                    name: name.clone(),
                    params: params.clone(),
                    body: Arc::new(body.clone()),
                })?;
                Ok(StatementResult::Ok)
            }
            Statement::DropDataset { name } => {
                self.catalog.drop_dataset(name)?;
                Ok(StatementResult::Ok)
            }
            Statement::DropIndex { dataset, name } => {
                self.catalog.drop_index(dataset, name)?;
                Ok(StatementResult::Ok)
            }
            Statement::Insert { dataset, source } => {
                let records = self.eval_dml_source(source)?;
                let ds = self.catalog.dataset(dataset)?;
                let n = records.len();
                for r in records {
                    ds.insert(r)?;
                }
                Ok(StatementResult::Count(n))
            }
            Statement::Upsert { dataset, source } => {
                let records = self.eval_dml_source(source)?;
                let ds = self.catalog.dataset(dataset)?;
                let n = records.len();
                for r in records {
                    ds.upsert(r)?;
                }
                Ok(StatementResult::Count(n))
            }
            Statement::Delete { dataset, alias, where_clause } => {
                let ds = self.catalog.dataset(dataset)?;
                let pk_field = ds.partitions()[0].primary_key_field().clone();
                let mut pks = Vec::new();
                {
                    let mut ctx = self.fresh_context();
                    let base = Env::new();
                    for snap in ds.snapshot_all() {
                        for rec in snap.iter() {
                            let keep = match where_clause {
                                None => true,
                                Some(w) => {
                                    let env = base.bind(alias.clone(), rec.clone());
                                    eval_expr(w, &env, &mut ctx)?.is_true()
                                }
                            };
                            if keep {
                                pks.push(pk_field.get(&rec).clone());
                            }
                        }
                    }
                    self.finish(ctx);
                }
                let mut n = 0;
                for pk in pks {
                    if ds.partition_for(&pk).delete(&pk)? {
                        n += 1;
                    }
                }
                Ok(StatementResult::Count(n))
            }
            Statement::Query(e) => self.run_query_expr(e).map(StatementResult::Value),
            Statement::CreateFeed { .. }
            | Statement::ConnectFeed { .. }
            | Statement::StartFeed { .. }
            | Statement::StopFeed { .. } => Err(QueryError::Invalid(
                "feed statements are executed by the ingestion framework, not the query engine"
                    .into(),
            )),
        }
    }

    /// Evaluates a top-level query expression.
    fn run_query_expr(&self, e: &Expr) -> Result<Value> {
        let mut ctx = self.fresh_context();
        let v = match e {
            Expr::Subquery(block) => Value::Array(eval_block(block, &Env::new(), &mut ctx)?),
            other => eval_expr(other, &Env::new(), &mut ctx)?,
        };
        self.finish(ctx);
        Ok(v)
    }

    fn eval_dml_source(&self, source: &Expr) -> Result<Vec<Value>> {
        let mut ctx = self.fresh_context();
        let v = eval_expr(source, &Env::new(), &mut ctx)?;
        self.finish(ctx);
        match v {
            Value::Array(items) => {
                for i in &items {
                    if !matches!(i, Value::Object(_)) {
                        return Err(QueryError::Eval(format!(
                            "INSERT/UPSERT source must produce objects, got {}",
                            i.type_name()
                        )));
                    }
                }
                Ok(items)
            }
            obj @ Value::Object(_) => Ok(vec![obj]),
            other => Err(QueryError::Eval(format!(
                "INSERT/UPSERT source must be an object or array of objects, got {}",
                other.type_name()
            ))),
        }
    }
}
