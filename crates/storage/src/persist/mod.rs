//! Durable storage: on-disk components, write-ahead logging, recovery.
//!
//! This module family gives an LSM tree a disk presence (AsterixDB's
//! per-partition LSM files plus a local transaction log):
//!
//! * [`blockfile`] — the row-major sealed-component file format:
//!   checksummed entry blocks, a footer with block index + key column +
//!   persisted Bloom filter;
//! * [`colfile`] — the column-major sealed-component format: typed
//!   column pages with per-page schema inference and min/max stats,
//!   selected per dataset via `WITH {"layout": "columnar"}`;
//! * [`cache`] — the shared LRU block cache disk reads go through;
//! * [`wal`] — the per-partition write-ahead log with group commit;
//! * [`manifest`] — the crash-atomic live-component list and WAL replay
//!   point;
//! * [`codec`] — the binary `Value`/entry codec and CRC-32 all of the
//!   above share;
//! * [`TempDir`] — tmpdir hygiene for every disk-mode test and bench.
//!
//! How the pieces compose is decided in `lsm::LsmTree`: appends go
//! WAL-first, flushes/merges write component files then swing the
//! manifest, recovery is manifest load + WAL replay. See DESIGN.md
//! ("Durable storage") for the protocol walk-through.

pub mod blockfile;
pub mod cache;
pub mod codec;
pub mod colfile;
pub mod manifest;
pub mod tempdir;
pub mod wal;

pub use blockfile::{component_file_name, ComponentFile, ComponentFileWriter, OpenComponent};
pub use cache::BlockCache;
pub use colfile::{
    is_columnar_file, ColumnarFile, ColumnarFileWriter, ColumnarPage, ColumnarReader, OpenColumnar,
    PageData, PageField,
};
pub use manifest::Manifest;
pub use tempdir::TempDir;
pub use wal::{FsyncPolicy, Wal, WalConfig, WalReplay};

use crate::error::StorageError;

/// On-disk layout for sealed components, selected per dataset via
/// `WITH {"layout": ...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentLayout {
    /// Row-major entry blocks (the original `"IDACMP1"` format).
    Row,
    /// Column-major typed pages (`"IDACOL1"`): flush/merge infer a
    /// per-page schema and store typed vectors vectorized scans slice
    /// directly, alongside the row run every other path reads.
    Columnar,
}

/// Durability knobs, part of `LsmConfig`. Only consulted when the tree
/// is opened in disk mode (`LsmTree::open_durable`); a purely in-memory
/// tree ignores them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// Write-ahead-log every put/delete before the memtable apply. Off
    /// means only flushed components survive a crash (bulk-load-style
    /// workloads that re-ingest on failure).
    pub wal: bool,
    /// When fsync runs (WAL group commits, component files, manifest).
    pub fsync: FsyncPolicy,
    /// Target payload bytes per component-file block.
    pub block_bytes: usize,
    /// Block-cache capacity, in blocks, shared by the tree's components.
    pub cache_blocks: usize,
    /// WAL segment rotation threshold.
    pub wal_segment_bytes: u64,
    /// Layout flushes and merges write sealed components in.
    pub layout: ComponentLayout,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            wal: true,
            fsync: FsyncPolicy::Always,
            block_bytes: 16 << 10,
            cache_blocks: 256,
            wal_segment_bytes: 4 << 20,
            layout: ComponentLayout::Row,
        }
    }
}

impl DurabilityConfig {
    /// Applies one durability-related DDL `WITH` option. Returns
    /// `Ok(false)` when the key is not a durability knob (so the caller
    /// can try the other option families).
    pub fn apply_option(&mut self, key: &str, value: &str) -> Result<bool, StorageError> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, StorageError> {
            value.parse().map_err(|_| {
                StorageError::InvalidConfig(format!("option {key:?}: bad numeric value {value:?}"))
            })
        }
        match key {
            "wal" => {
                self.wal = match value {
                    "on" | "true" => true,
                    "off" | "false" => false,
                    other => {
                        return Err(StorageError::InvalidConfig(format!(
                            "option \"wal\": expected on/off, got {other:?}"
                        )));
                    }
                };
            }
            "fsync" => self.fsync = FsyncPolicy::from_option(value)?,
            "block-bytes" => self.block_bytes = num::<usize>(key, value)?.max(512),
            "cache-blocks" => self.cache_blocks = num::<usize>(key, value)?.max(1),
            "wal-segment-bytes" => {
                self.wal_segment_bytes = num::<u64>(key, value)?.max(4 << 10);
            }
            "layout" => {
                self.layout = match value {
                    "row" => ComponentLayout::Row,
                    "columnar" => ComponentLayout::Columnar,
                    other => {
                        return Err(StorageError::InvalidConfig(format!(
                            "option \"layout\": expected row/columnar, got {other:?}"
                        )));
                    }
                };
            }
            _ => return Ok(false),
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_options() {
        let mut d = DurabilityConfig::default();
        assert!(d.apply_option("wal", "off").unwrap());
        assert!(!d.wal);
        assert!(d.apply_option("fsync", "never").unwrap());
        assert_eq!(d.fsync, FsyncPolicy::Never);
        assert!(d.apply_option("block-bytes", "4096").unwrap());
        assert_eq!(d.block_bytes, 4096);
        assert!(d.apply_option("cache-blocks", "8").unwrap());
        assert!(d.apply_option("wal-segment-bytes", "65536").unwrap());
        assert!(d.apply_option("layout", "columnar").unwrap());
        assert_eq!(d.layout, ComponentLayout::Columnar);
        assert!(d.apply_option("layout", "row").unwrap());
        assert_eq!(d.layout, ComponentLayout::Row);
        assert!(!d.apply_option("merge-policy", "tiered").unwrap(), "not a durability knob");
        assert!(d.apply_option("fsync", "sometimes").is_err());
        assert!(d.apply_option("wal", "maybe").is_err());
        assert!(d.apply_option("block-bytes", "x").is_err());
        assert!(d.apply_option("layout", "diagonal").is_err());
    }
}
