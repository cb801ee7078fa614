//! # idea-storage — LSM-tree dataset storage
//!
//! AsterixDB "uses log-structured merge-trees (LSM Trees) in its
//! storage" (paper §7.3, citing Alsubaiee et al.). This crate implements
//! the storage substrate the ingestion framework writes into and the
//! enrichment UDFs read from:
//!
//! * [`lsm`] — memtable + sorted immutable components, tombstones,
//!   sealed-memtable flushing, and pluggable merge policies (constant,
//!   prefix, size-tiered); the component stack is an atomically
//!   swappable snapshot, so reads never block on maintenance;
//! * [`maintenance`] — the engine-owned background worker pool that
//!   runs flushes and merges off the writer's critical path, with
//!   deterministic drain/shutdown and checkpoint pause;
//! * [`Dataset`] — a primary-keyed record store over one LSM tree, with
//!   insert/upsert/delete, clone-free (`Arc<Value>`) point lookup,
//!   snapshot scans (whole, or seeked to a primary-key [`KeyRange`]),
//!   and maintained secondary indexes;
//! * [`index`] — secondary B-tree index (value → primary keys) and an
//!   R-tree spatial index (point → primary keys) used by
//!   index-nested-loop joins (paper §4.3.4 case 3, Nearby Monuments);
//! * [`PartitionedDataset`] — hash-partitioned datasets, one partition
//!   per cluster node, as in the storage job of the new framework.
//!
//! The §7.3 experiment (Figure 27) depends on a real LSM property:
//! *updates activate the in-memory component*, which adds merge and
//! locking work to every reference-data access during enrichment. That
//! behaviour is preserved here — snapshots must materialize the active
//! memtable and merge it with immutable components.

pub mod dataset;
pub mod error;
pub mod index;
pub mod lsm;
pub mod maintenance;
pub mod partitioned;
pub mod persist;
pub mod stats;

pub use dataset::{Dataset, DatasetConfig, DatasetSnapshot};
pub use error::StorageError;
pub use index::{BTreeIndex, IndexDef, IndexKind, RTree};
pub use lsm::{Change, Entry, KeyRange, LsmConfig, MergePolicy, MergePolicyConfig};
pub use maintenance::{MaintKind, MaintenanceScheduler};
pub use partitioned::PartitionedDataset;
pub use persist::{
    ColumnarPage, ColumnarReader, ComponentLayout, DurabilityConfig, FsyncPolicy, PageData,
    PageField, TempDir,
};
pub use stats::StorageStats;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
