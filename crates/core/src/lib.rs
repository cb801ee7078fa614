//! # idea-core — the IDEA ingestion framework
//!
//! The paper's contribution (§5–§6): a data-feed facility whose
//! enrichment UDFs are evaluated with the **per-batch computing model**,
//! so stateful UDFs keep the full power of SQL++ *and* see reference-
//! data updates between batches. The pipeline is decoupled into three
//! layers connected by partition holders:
//!
//! ```text
//! intake job (continuous)      computing job (per batch)        storage job (continuous)
//! source ─ RR-partition ─▶ [passive holder] ─ parse ─ UDF ─▶ [active holder] ─ hash ─ LSM
//! ```
//!
//! The computing job is **predeployed** (compiled once, invoked per
//! batch) and each invocation pins a fresh dataset snapshot for its UDF
//! intermediate state — paper §5.1's freshness guarantee. The state is
//! rebuilt only when that snapshot moved; while the reference data is
//! unchanged, every invocation on every node reuses one build.
//!
//! Entry points:
//!
//! * [`IngestionEngine`] — catalog + cluster + Active Feed Manager, with
//!   full SQL++ DDL including `CREATE FEED` (Figure 4);
//! * [`FeedSpec`] — programmatic feed construction (used heavily by the
//!   benchmark harness): pipeline mode (static/decoupled), computing
//!   model (per-record/per-batch/stream), batch size, intake placement,
//!   predeployment;
//! * [`source`] — the source API: [`SourceFactory`] instantiates one
//!   offset-aware, seekable [`SourceConnector`] per intake partition
//!   (partitioned log, CSV/JSON file tail, CDC update stream, TCP
//!   socket, in-memory records, optionally paced — see
//!   `idea-connect`), so restarted feeds resume from committed offsets;
//! * [`PipelineSpec`] (from `idea-connect`) — a whole pipeline declared
//!   as data and started with [`IngestionEngine::start_pipeline`];
//!
//! Fault tolerance (the `idea-ft` crate, re-exported here): feeds run
//! under a [`SupervisionSpec`] with per-stage [`ErrorPolicy`]s
//! (retry/skip/dead-letter/restart), a dead-letter dataset for poison
//! records, checkpointed restart from per-partition intake offsets, and
//! a deterministic [`FaultPlan`] injector for chaos testing.

pub mod afm;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod models;
mod pipeline;
mod pipespec;
pub mod source;

pub use afm::{ActiveFeedManager, FeedHandle};
pub use engine::{ExecOutcome, IngestionEngine};
pub use error::{Error, ErrorCode, IngestError};
pub use idea_connect::{
    CdcConnector, CdcLog, CdcOp, ConnectorError, FileFormat, FileTailConnector, GeneratorSource,
    LogConnector, Paced, PartitionedLog, PipelineSpec, SocketConnector, SourceBatch,
    SourceConnector, SourceRecord, SpecError,
};
pub use idea_ft::{
    ErrorPolicy, Fallback, Fault, FaultPlan, PartitionOffset, RestartPolicy, RetryPolicy,
    SupervisionSpec,
};
pub use metrics::{FeedMetrics, IngestionReport};
pub use models::{ComputingModel, FeedSpec, PipelineMode};
pub use pipeline::CDC_DELETE_MARKER;
pub use source::SourceFactory;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IngestError>;
