//! # idea-hyracks — a partitioned parallel dataflow runtime
//!
//! Hyracks is "a partitioned parallel computation platform that provides
//! runtime execution support for AsterixDB" (paper §2.2). Queries become
//! *jobs*: DAGs of **operators** (computation) and **connectors** (data
//! routing). Data flows in **frames** containing multiple records.
//!
//! This crate reproduces the pieces the ingestion framework needs:
//!
//! * [`frame::Frame`] — a batch of ADM records in flight;
//! * [`operator::Operator`] — push-based operators
//!   (`open` / `next_frame` / `close`), plus source operators that
//!   generate their own data;
//! * [`connector::ConnectorSpec`] — one-to-one, round-robin,
//!   hash-partition, and broadcast routing between stages;
//! * [`job::JobSpec`] — a linear pipeline of stages, each instantiated
//!   once per assigned node;
//! * [`cluster::Cluster`] — the simulated AsterixDB cluster: one Cluster
//!   Controller, N Node Controllers, per-node partition-holder managers.
//!   Physical transport is bounded in-process channels (see DESIGN.md on
//!   the hardware substitution);
//! * [`holder`] — **partition holders** (paper §5.3): active and passive
//!   guarded queues that let *different jobs* exchange frames;
//! * [`predeploy`] — **parameterized predeployed jobs** (paper §5.1):
//!   compile once, cache the job spec on the cluster, invoke repeatedly
//!   with new parameters;
//! * [`pool`] — the **resident task pool** behind a predeployed job:
//!   one parked worker thread per (stage, partition), persistent
//!   channels, so an invocation is one activation message instead of a
//!   round of thread spawns.

pub mod cluster;
pub mod connector;
pub mod error;
pub mod executor;
pub mod frame;
pub mod holder;
pub mod job;
pub mod operator;
pub mod pool;
pub mod predeploy;

pub use cluster::{Cluster, ClusterConfig};
pub use connector::ConnectorSpec;
pub use error::HyracksError;
pub use executor::{run_job, JobHandle};
pub use frame::Frame;
pub use holder::{Batch, HolderGroup, HolderMode, PartitionHolder, PartitionHolderManager};
pub use job::{JobSpec, StageSpec, TaskContext};
pub use operator::{FnOperator, FrameSink, Operator};
pub use pool::TaskPool;
pub use predeploy::{DeployedJobId, DeployedJobRegistry};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HyracksError>;
