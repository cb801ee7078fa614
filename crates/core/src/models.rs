//! The computing models of paper §4.3 and the feed specification.

use std::sync::Arc;

use idea_ft::{Fault, FaultPlan, SupervisionSpec};

use crate::source::SourceFactory;

/// How often the enrichment UDF's intermediate state is refreshed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComputingModel {
    /// Model 1 (§4.3.2): evaluate the UDF against each record
    /// separately; state rebuilt per record. Sees every reference-data
    /// change, enormous execution overhead.
    PerRecord,
    /// Model 2 (§4.3.3): batch records, refresh state per batch — the
    /// framework's chosen model; batch size trades throughput against
    /// sensitivity to reference-data changes.
    PerBatch,
    /// Model 3 (§4.3.4): treat the feed as an infinite dataset; state
    /// built once per feed. Fastest, but stale — this is what the *old*
    /// AsterixDB framework does and why it restricts attached UDFs.
    Stream,
}

/// Which framework builds the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// The old framework ("Static Ingestion" in §7.1): a single job with
    /// intake, parsing, and UDF evaluation coupled on the intake
    /// node(s); UDF state is per-feed (Model 3 semantics).
    Static,
    /// The new decoupled framework ("Dynamic Ingestion"): intake,
    /// computing, and storage jobs connected by partition holders, with
    /// the computing job re-invoked per batch.
    Decoupled,
}

/// Everything needed to start a feed.
#[derive(Clone)]
pub struct FeedSpec {
    /// Feed name (also used to name partition holders).
    pub name: String,
    /// Target dataset (`CONNECT FEED ... TO DATASET ...`).
    pub dataset: String,
    /// Attached enrichment UDF chain, applied in order (`APPLY
    /// FUNCTION ...`; the declarative spec's `transform` list). Empty
    /// means pass-through.
    pub functions: Vec<String>,
    /// Source connector instantiated on each intake node.
    pub source: SourceFactory,
    /// The source emits CDC upsert/delete envelopes instead of plain
    /// records; deletes flow through the pipeline as tombstones and are
    /// applied to the target dataset by primary key.
    pub update_stream: bool,
    /// Nodes running the adapter; the paper's default is a single intake
    /// node, the "balanced" variants use all nodes.
    pub intake_nodes: Vec<usize>,
    /// Records per computing-job batch (the paper's 1X = 420).
    pub batch_size: usize,
    pub model: ComputingModel,
    pub mode: PipelineMode,
    /// Predeploy the computing job (paper §5.1). Disable to measure the
    /// per-batch recompilation cost the technique avoids.
    pub predeploy: bool,
    /// Bounded partition-holder queue depth, in frames.
    pub holder_capacity: usize,
    /// Records per frame.
    pub frame_capacity: usize,
    /// Per-stage error policies, restart budget, dead-letter target and
    /// checkpoint cadence (decoupled mode only).
    pub supervision: SupervisionSpec,
    /// Deterministic fault schedule injected into this feed's pipeline
    /// (testing/chaos only; `None` in production use).
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl FeedSpec {
    /// A decoupled per-batch feed with the paper's defaults.
    pub fn new(name: impl Into<String>, dataset: impl Into<String>, source: SourceFactory) -> Self {
        FeedSpec {
            name: name.into(),
            dataset: dataset.into(),
            functions: Vec::new(),
            source,
            update_stream: false,
            intake_nodes: vec![0],
            batch_size: 420,
            model: ComputingModel::PerBatch,
            mode: PipelineMode::Decoupled,
            predeploy: true,
            holder_capacity: 16,
            frame_capacity: 128,
            supervision: SupervisionSpec::default(),
            fault_plan: None,
        }
    }

    /// Appends an enrichment UDF to the chain.
    pub fn with_function(mut self, f: impl Into<String>) -> Self {
        self.functions.push(f.into());
        self
    }

    /// Replaces the whole enrichment chain.
    pub fn with_functions(mut self, fs: Vec<String>) -> Self {
        self.functions = fs;
        self
    }

    /// Marks the source as a CDC update stream (upsert/delete
    /// envelopes).
    pub fn with_update_stream(mut self, yes: bool) -> Self {
        self.update_stream = yes;
        self
    }

    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    pub fn with_model(mut self, m: ComputingModel) -> Self {
        self.model = m;
        self
    }

    pub fn with_mode(mut self, m: PipelineMode) -> Self {
        self.mode = m;
        self
    }

    pub fn with_intake_nodes(mut self, nodes: Vec<usize>) -> Self {
        self.intake_nodes = nodes;
        self
    }

    /// All-node intake (the paper's "balanced" configuration).
    pub fn balanced(mut self, cluster_nodes: usize) -> Self {
        self.intake_nodes = (0..cluster_nodes).collect();
        self
    }

    pub fn with_predeploy(mut self, p: bool) -> Self {
        self.predeploy = p;
        self
    }

    pub fn with_supervision(mut self, s: SupervisionSpec) -> Self {
        self.supervision = s;
        self
    }

    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Validates the spec against a cluster of `cluster_nodes` nodes and
    /// returns it ready to start. The `with_*` combinators accept
    /// anything; this is the step that rejects nonsense —
    /// [`crate::ActiveFeedManager::start`] calls it, so programmatic
    /// users who skip it get the same checks at start time.
    pub fn build(self, cluster_nodes: usize) -> crate::Result<FeedSpec> {
        use crate::error::IngestError;
        let fail = |m: String| Err(IngestError::Feed(m));
        if self.name.is_empty() {
            return fail("feed name must not be empty".into());
        }
        if self.dataset.is_empty() {
            return fail(format!("feed {} has an empty dataset name", self.name));
        }
        if self.batch_size == 0 {
            return fail(format!("feed {} has batch size 0", self.name));
        }
        if self.functions.iter().any(|f| f.is_empty()) {
            return fail(format!("feed {} has an empty UDF name in its chain", self.name));
        }
        if self.intake_nodes.is_empty() {
            return fail(format!("feed {} has no intake nodes", self.name));
        }
        if let Some(&n) = self.intake_nodes.iter().find(|&&n| n >= cluster_nodes) {
            return fail(format!(
                "feed {} assigns intake to node {n}, but the cluster has {cluster_nodes} nodes",
                self.name
            ));
        }
        if self.holder_capacity == 0 {
            return fail(format!("feed {} has holder capacity 0", self.name));
        }
        if self.frame_capacity == 0 {
            return fail(format!("feed {} has frame capacity 0", self.name));
        }
        if self.supervision.checkpoint_interval == Some(0) {
            return fail(format!("feed {} has checkpoint interval 0", self.name));
        }
        if let Some(plan) = &self.fault_plan {
            for fault in plan.faults() {
                match *fault {
                    Fault::AdapterDisconnect { partition, .. }
                    | Fault::PoisonRecord { partition, .. } => {
                        if partition >= self.intake_nodes.len() {
                            return fail(format!(
                                "feed {} fault plan targets intake partition {partition}, but \
                                 the feed has {} intake nodes",
                                self.name,
                                self.intake_nodes.len()
                            ));
                        }
                    }
                    Fault::UdfError { node, .. }
                    | Fault::UdfTimeout { node, .. }
                    | Fault::SlowStorage { node, .. }
                    | Fault::KillNode { node, .. } => {
                        if node >= cluster_nodes {
                            return fail(format!(
                                "feed {} fault plan targets node {node}, but the cluster has \
                                 {cluster_nodes} nodes",
                                self.name
                            ));
                        }
                    }
                }
            }
        }
        Ok(self)
    }

    pub(crate) fn intake_holder(&self) -> String {
        format!("feed::{}::intake", self.name)
    }

    pub(crate) fn storage_holder(&self) -> String {
        format!("feed::{}::storage", self.name)
    }
}

impl std::fmt::Debug for FeedSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeedSpec")
            .field("name", &self.name)
            .field("dataset", &self.dataset)
            .field("functions", &self.functions)
            .field("update_stream", &self.update_stream)
            .field("intake_nodes", &self.intake_nodes)
            .field("batch_size", &self.batch_size)
            .field("model", &self.model)
            .field("mode", &self.mode)
            .field("predeploy", &self.predeploy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::IngestError;

    fn spec() -> FeedSpec {
        FeedSpec::new("f", "ds", SourceFactory::records(vec![]))
    }

    #[test]
    fn build_accepts_defaults() {
        assert!(spec().build(1).is_ok());
    }

    #[test]
    fn build_rejects_nonsense() {
        let err = |s: FeedSpec, nodes| match s.build(nodes) {
            Err(IngestError::Feed(m)) => m,
            other => panic!("expected feed error, got {other:?}"),
        };
        assert!(err(spec().with_batch_size(0), 1).contains("batch size 0"));
        assert!(err(spec().with_intake_nodes(vec![]), 1).contains("no intake nodes"));
        assert!(err(spec().with_intake_nodes(vec![2]), 2).contains("node 2"));
        let mut s = spec();
        s.dataset = String::new();
        assert!(err(s, 1).contains("empty dataset"));
        let mut s = spec();
        s.name = String::new();
        assert!(err(s, 1).contains("name must not be empty"));
        let sup = SupervisionSpec { checkpoint_interval: Some(0), ..Default::default() };
        assert!(err(spec().with_supervision(sup), 1).contains("checkpoint interval 0"));
        let plan = FaultPlan::seeded(7).kill_node(3, 1);
        assert!(err(spec().with_fault_plan(plan), 2).contains("node 3"));
        let plan = FaultPlan::seeded(7).poison_record(1, 5);
        assert!(err(spec().with_fault_plan(plan), 2).contains("intake partition 1"));
    }
}
