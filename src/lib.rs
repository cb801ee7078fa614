//! # idea — An Ingestion framework for Data Enrichment in AsterixDB
//!
//! Facade crate re-exporting the public API of the reproduction of
//! Wang & Carey, *"An IDEA: An Ingestion Framework for Data Enrichment
//! in AsterixDB"* (PVLDB 12(11), 2019).
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory. The sub-crates are:
//!
//! * [`adm`] — the AsterixDB Data Model (values, types, JSON, builtins);
//! * [`storage`] — LSM-tree datasets with B-tree and R-tree indexes;
//! * [`hyracks`] — the partitioned dataflow runtime (jobs, connectors,
//!   predeployed jobs, partition holders);
//! * [`query`] — SQL++ subset: parser, planner, optimizer, evaluator;
//! * [`ingestion`] — the paper's contribution: data feeds with
//!   per-batch-refreshed enrichment UDFs;
//! * [`connect`] — offset-aware source connectors (partitioned log,
//!   file tail, CDC update stream, TCP socket, in-memory, paced) and the declarative
//!   [`PipelineSpec`](prelude::PipelineSpec) they are driven from;
//! * [`obs`] — the unified observability layer (metrics registry,
//!   snapshots, ADM rendering);
//! * [`ft`] — the fault-tolerance subsystem (deterministic fault
//!   injection, per-stage error policies, dead-letter capture,
//!   ingestion checkpoints);
//! * [`serve`] — the network SQL++ frontend: TCP server with streamed
//!   results, per-tenant admission control, and a blocking client;
//! * [`workload`] — synthetic tweets, reference data and the paper's
//!   eight enrichment scenarios;
//! * [`clustersim`] — discrete-event cluster model for scale-out studies.
//!
//! Most programs only need [`prelude`]:
//!
//! ```
//! use idea::prelude::*;
//!
//! let engine = IngestionEngine::with_nodes(1);
//! let snapshot = engine.metrics().snapshot();
//! // The background flush/merge pool is instrumented from the start.
//! assert!(snapshot.entries.iter().any(|e| e.name.starts_with("storage/maintenance/")));
//! ```

pub use idea_adm as adm;
pub use idea_clustersim as clustersim;
pub use idea_connect as connect;
pub use idea_core as ingestion;
pub use idea_ft as ft;
pub use idea_hyracks as hyracks;
pub use idea_obs as obs;
pub use idea_query as query;
pub use idea_serve as serve;
pub use idea_storage as storage;
pub use idea_workload as workload;

/// The types almost every program touches: build an engine, describe a
/// feed, run it, inspect the results.
pub mod prelude {
    pub use idea_adm::{Datatype, Value};
    pub use idea_core::{
        ActiveFeedManager, CdcConnector, CdcLog, CdcOp, ComputingModel, ConnectorError, Error,
        ErrorCode, ExecOutcome, FeedHandle, FeedSpec, FileFormat, FileTailConnector,
        GeneratorSource, IngestError, IngestionEngine, IngestionReport, LogConnector, Paced,
        PartitionedLog, PipelineMode, PipelineSpec, SocketConnector, SourceBatch, SourceConnector,
        SourceFactory, SourceRecord, SpecError, CDC_DELETE_MARKER,
    };
    pub use idea_ft::{
        ErrorPolicy, Fallback, Fault, FaultPlan, PartitionOffset, RestartPolicy, RetryPolicy,
        SupervisionSpec,
    };
    pub use idea_obs::{MetricsRegistry, MetricsScope, Snapshot};
    pub use idea_query::{RowStream, Session, SessionConfig, StatementResult};
    pub use idea_serve::{AdmissionConfig, Client, RateLimit, Server, ServerConfig};
}
