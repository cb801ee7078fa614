//! The user-facing engine: executes SQL++ scripts *including* feed DDL
//! (Figure 4's `CREATE FEED` / `CONNECT FEED` / `START FEED` /
//! `STOP FEED`), delegating everything else to the query engine.

use std::collections::HashMap;
use std::sync::Arc;

use idea_connect::PipelineSpec;
use idea_hyracks::Cluster;
use idea_query::ast::Statement;
use idea_query::{Catalog, Session, SessionConfig, StatementResult};
use idea_storage::MaintenanceScheduler;
use parking_lot::Mutex;

use crate::afm::{ActiveFeedManager, FeedHandle};
use crate::error::IngestError;
use crate::metrics::IngestionReport;
use crate::models::FeedSpec;
use crate::pipespec;
use crate::source::SourceFactory;
use crate::Result;

/// Outcome of executing one statement through the engine.
#[derive(Debug)]
pub enum ExecOutcome {
    /// A non-feed statement, executed by the query engine.
    Statement(StatementResult),
    /// Feed declared.
    FeedCreated,
    /// Feed connected to a dataset.
    FeedConnected,
    /// Feed started.
    FeedStarted,
    /// Feed stopped and drained.
    FeedStopped(IngestionReport),
}

#[derive(Debug, Default, Clone)]
struct FeedDecl {
    options: HashMap<String, String>,
    dataset: Option<String>,
    function: Option<String>,
}

/// A single-process AsterixDB-like instance: simulated cluster, catalog,
/// and the Active Feed Manager.
pub struct IngestionEngine {
    cluster: Arc<Cluster>,
    catalog: Arc<Catalog>,
    session: Session,
    afm: ActiveFeedManager,
    maintenance: Arc<MaintenanceScheduler>,
    sources: Mutex<HashMap<String, SourceFactory>>,
    feeds: Mutex<HashMap<String, FeedDecl>>,
}

impl IngestionEngine {
    /// Builds an engine over an existing cluster/catalog pair (their
    /// partition counts must agree). The engine owns the background
    /// flush/merge pool; every dataset in the catalog routes its LSM
    /// maintenance through it.
    pub fn new(cluster: Arc<Cluster>, catalog: Arc<Catalog>) -> Arc<IngestionEngine> {
        let maintenance = catalog.maintenance().unwrap_or_else(|| {
            let sched = MaintenanceScheduler::new(cluster.node_count().min(4));
            catalog.set_maintenance(sched.clone());
            sched
        });
        let afm = ActiveFeedManager::new(cluster.clone(), catalog.clone());
        let session = SessionConfig::new().build_on(catalog.clone(), afm.metrics().clone());
        Arc::new(IngestionEngine {
            cluster,
            catalog,
            session,
            afm,
            maintenance,
            sources: Mutex::new(HashMap::new()),
            feeds: Mutex::new(HashMap::new()),
        })
    }

    /// Convenience: an `n`-node engine with default configuration.
    pub fn with_nodes(n: usize) -> Arc<IngestionEngine> {
        IngestionEngine::new(Cluster::with_nodes(n), Catalog::new(n))
    }

    /// An `n`-node engine with a durable-storage root: datasets created
    /// `WITH {"storage": "disk"}` persist under `root`, previously
    /// persisted datasets are recovered before the engine serves its
    /// first statement, and feed checkpoints survive restarts.
    pub fn with_storage_root(
        n: usize,
        root: impl Into<std::path::PathBuf>,
    ) -> Result<Arc<IngestionEngine>> {
        let catalog = Catalog::new(n);
        catalog.set_storage_root(root)?;
        Ok(IngestionEngine::new(Cluster::with_nodes(n), catalog))
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn afm(&self) -> &ActiveFeedManager {
        &self.afm
    }

    /// Builds a new SQL++ session over the engine's catalog from an
    /// explicit [`SessionConfig`] (parameter defaults, tenant id, result
    /// batch size). Its `query/*` instruments report into
    /// [`metrics`](Self::metrics). Sessions are independent; all of them
    /// see the same data and share compiled plans when given a [shared
    /// plan cache](SessionConfig::shared_plan_cache).
    pub fn new_session(&self, config: SessionConfig) -> Session {
        config.build_on(self.catalog.clone(), self.metrics().clone())
    }

    /// The engine-wide metrics registry: per-feed pipeline counters,
    /// holder queue gauges, storage stats, and Hyracks job/task
    /// instruments. `engine.metrics().snapshot()` is the one-stop view.
    pub fn metrics(&self) -> &Arc<idea_obs::MetricsRegistry> {
        self.afm.metrics()
    }

    /// Registers a custom offset-aware source usable from feed DDL and
    /// pipeline specs via `{"type": "custom", "name": "<name>"}` (or the
    /// legacy `"adapter-name": "<name>"` option).
    pub fn register_source(&self, name: impl Into<String>, factory: SourceFactory) {
        self.sources.lock().insert(name.into(), factory);
    }

    /// Starts a programmatically built feed (bypasses DDL).
    pub fn start_feed(&self, spec: FeedSpec) -> Result<Arc<FeedHandle>> {
        self.afm.start(spec)
    }

    /// Parses, validates and starts a declarative pipeline from a JSON
    /// spec document (see [`PipelineSpec`]). Invalid documents are
    /// rejected here — typed, before any pipeline machinery spins up —
    /// with [`ErrorCode::SpecInvalid`](crate::ErrorCode::SpecInvalid).
    pub fn start_pipeline(&self, document: &str) -> Result<Arc<FeedHandle>> {
        let ps = PipelineSpec::parse(document)?;
        let spec = pipespec::compile(&ps, self.cluster.node_count(), &self.sources.lock())?;
        self.afm.start(spec)
    }

    /// Stops a feed and waits for it to drain.
    pub fn stop_feed(&self, name: &str) -> Result<IngestionReport> {
        self.afm.stop_and_wait(name)
    }

    /// The engine's background flush/merge pool.
    pub fn maintenance(&self) -> &Arc<MaintenanceScheduler> {
        &self.maintenance
    }

    /// Shuts the engine down deterministically: stops every active feed,
    /// then drains and joins the maintenance pool. After this no worker
    /// thread of the engine is left running; datasets fall back to
    /// inline flush/merge. Idempotent.
    pub fn shutdown(&self) {
        for name in self.afm.active_feeds() {
            let _ = self.afm.stop_and_wait(&name);
        }
        self.maintenance.shutdown();
    }

    /// Executes a script of `;`-separated statements.
    pub fn run_sqlpp(&self, text: &str) -> Result<Vec<ExecOutcome>> {
        let stmts = idea_query::parser::parse_statements(text)?;
        stmts.iter().map(|s| self.execute(s)).collect()
    }

    /// Executes one parsed statement.
    pub fn execute(&self, stmt: &Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::CreateFeed { name, options } => {
                let mut feeds = self.feeds.lock();
                if feeds.contains_key(name) {
                    return Err(IngestError::Feed(format!("feed {name} already exists")));
                }
                feeds.insert(
                    name.clone(),
                    FeedDecl { options: options.iter().cloned().collect(), ..Default::default() },
                );
                Ok(ExecOutcome::FeedCreated)
            }
            Statement::ConnectFeed { feed, dataset, function } => {
                let mut feeds = self.feeds.lock();
                let decl = feeds
                    .get_mut(feed)
                    .ok_or_else(|| IngestError::Feed(format!("no feed named {feed}")))?;
                decl.dataset = Some(dataset.clone());
                decl.function = function.clone();
                Ok(ExecOutcome::FeedConnected)
            }
            Statement::StartFeed { name } => {
                let decl = self
                    .feeds
                    .lock()
                    .get(name)
                    .cloned()
                    .ok_or_else(|| IngestError::Feed(format!("no feed named {name}")))?;
                let spec = self.spec_from_decl(name, &decl)?;
                self.afm.start(spec)?;
                Ok(ExecOutcome::FeedStarted)
            }
            Statement::StopFeed { name } => {
                let report = self.afm.stop_and_wait(name)?;
                Ok(ExecOutcome::FeedStopped(report))
            }
            other => Ok(ExecOutcome::Statement(self.session.execute(other)?)),
        }
    }

    /// Compiles a DDL feed declaration: the stored `CREATE FEED` options
    /// (flat legacy keys, dotted spec paths, or nested blocks already
    /// flattened by the parser) become a [`PipelineSpec`], validated and
    /// compiled exactly like a JSON spec document.
    fn spec_from_decl(&self, name: &str, decl: &FeedDecl) -> Result<FeedSpec> {
        let options: Vec<(String, String)> =
            decl.options.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let mut ps = PipelineSpec::from_options(name, &options)?;
        // CONNECT FEED supplies the dataset and (optionally) an APPLY
        // FUNCTION — they override nothing, they fill the gaps the
        // CREATE options left.
        if ps.target.dataset.is_none() {
            ps.target.dataset = decl.dataset.clone();
        }
        if let Some(f) = &decl.function {
            if !ps.transform.contains(f) {
                ps.transform.push(f.clone());
            }
        }
        pipespec::compile(&ps, self.cluster.node_count(), &self.sources.lock())
    }
}

impl Drop for IngestionEngine {
    fn drop(&mut self) {
        // The catalog (and its datasets) may outlive the engine; the
        // pool must not — join its workers now.
        self.maintenance.shutdown();
    }
}
