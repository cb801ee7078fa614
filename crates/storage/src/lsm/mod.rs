//! Log-structured merge-tree internals, with background maintenance and
//! optional durability.
//!
//! AsterixDB stores every dataset in an LSM B-tree: writes land in an
//! in-memory component and are periodically flushed into immutable
//! sorted disk components, which background jobs merge under a pluggable
//! merge policy (Alsubaiee et al., "Storage Management in AsterixDB").
//! This module mirrors that shape:
//!
//! * the **active memtable** absorbs writes; when it exceeds its byte
//!   budget it is *sealed* (an O(1) pointer swap) onto a bounded queue
//!   of frozen memtables — `put()` never builds a component;
//! * a [`MaintenanceScheduler`](crate::maintenance::MaintenanceScheduler)
//!   (when attached) turns sealed memtables into immutable
//!   [`Component`]s and runs policy-selected merges off-thread; without
//!   a scheduler the same passes run inline, so a standalone tree stays
//!   synchronous and deterministic;
//! * the immutable component stack is an atomically swappable snapshot
//!   (`Arc<Vec<Arc<Component>>>`): readers clone the `Arc` under a
//!   brief read lock and then probe entirely lock-free, so a merge in
//!   flight never blocks (or tears) a point lookup;
//! * entries are `Option<Arc<Value>>` end-to-end — a point `get`, an
//!   index probe or a snapshot scan shares the record allocation
//!   instead of deep-cloning it.
//!
//! A tree opened with [`LsmTree::open_durable`] additionally has a disk
//! presence under one directory: every `put` appends to a write-ahead
//! log *before* the memtable apply and acknowledges only after a group
//! commit; flushes and merges write sealed component files and swing
//! the manifest atomically; reopening the directory replays the WAL
//! tail over the manifest's component stack and resumes exactly where
//! the crash left off (see `persist/` and DESIGN.md "Durable storage").
//!
//! Writers only stall when `max_sealed_memtables` frozen memtables are
//! already waiting on the flush queue (back-pressure); stall time is
//! recorded for the `storage/*` metrics and the storage bench.

mod bloom;
mod component;
mod memtable;
pub mod policy;
mod range;

pub use bloom::BloomFilter;
pub use component::{merge_iter, Component, ComponentIter};
pub use memtable::Memtable;
pub use policy::{MergePolicy, MergePolicyConfig};
pub use range::KeyRange;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::time::{Duration, Instant};

use idea_adm::Value;
use parking_lot::{Mutex, RwLock};

use crate::error::StorageError;
use crate::maintenance::{MaintKind, MaintenanceScheduler};
use crate::persist::{
    component_file_name, BlockCache, ColumnarFile, ColumnarFileWriter, ColumnarReader,
    ComponentFile, ComponentFileWriter, ComponentLayout, DurabilityConfig, FsyncPolicy, Manifest,
    Wal, WalConfig,
};

/// A stored entry: `Some(record)` or `None` for a tombstone. Records
/// are reference-counted so reads never deep-clone.
pub type Entry = Option<Arc<Value>>;

/// One key whose visible record differs between two views of a tree
/// ([`TreeSnapshot::changes_since`]). `None` is absent or deleted.
#[derive(Debug, Clone)]
pub struct Change {
    pub key: Value,
    /// The record the older view sees.
    pub before: Option<Arc<Value>>,
    /// The record the newer view sees.
    pub after: Option<Arc<Value>>,
}

/// A memoized merged-memtable run: the `TreeState::mem_gen` it was
/// built from plus the shared sorted entries.
type CachedMemRun = (u64, Arc<Vec<(Value, Entry)>>);

/// Node-hint sentinel meaning "not placed on any cluster node".
const NO_NODE: usize = usize::MAX;

/// Tuning knobs for one LSM tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmConfig {
    /// Seal the active memtable once it holds roughly this many bytes.
    pub memtable_budget_bytes: usize,
    /// How many sealed memtables may queue for flushing before writers
    /// stall (back-pressure toward the maintenance pool).
    pub max_sealed_memtables: usize,
    /// Which components to merge, and when.
    pub merge_policy: MergePolicyConfig,
    /// Disk-mode knobs (WAL, fsync, block/cache sizing); consulted only
    /// by [`LsmTree::open_durable`].
    pub durability: DurabilityConfig,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_budget_bytes: 4 << 20,
            max_sealed_memtables: 2,
            merge_policy: MergePolicyConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

impl LsmConfig {
    /// Applies one dataset DDL `WITH` option. `merge-policy` must be
    /// applied before policy-specific knobs (callers do two passes).
    pub fn apply_option(&mut self, key: &str, value: &str) -> Result<(), StorageError> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, StorageError> {
            value.parse().map_err(|_| {
                StorageError::InvalidConfig(format!("option {key:?}: bad numeric value {value:?}"))
            })
        }
        fn wrong_policy(key: &str, policy: &MergePolicyConfig) -> StorageError {
            StorageError::InvalidConfig(format!(
                "option {key:?} does not apply to the {} merge policy",
                policy.name()
            ))
        }
        if self.durability.apply_option(key, value)? {
            return Ok(());
        }
        match key {
            "merge-policy" => self.merge_policy = MergePolicyConfig::from_name(value)?,
            "memtable-budget-bytes" => self.memtable_budget_bytes = num(key, value)?,
            "max-sealed-memtables" => {
                self.max_sealed_memtables = num::<usize>(key, value)?.max(1);
            }
            "merge-max-components" => match &mut self.merge_policy {
                MergePolicyConfig::Constant { max_components } => {
                    *max_components = num(key, value)?;
                }
                p => return Err(wrong_policy(key, p)),
            },
            "merge-max-entries" => match &mut self.merge_policy {
                MergePolicyConfig::Prefix { max_mergable_entries, .. } => {
                    *max_mergable_entries = num(key, value)?;
                }
                p => return Err(wrong_policy(key, p)),
            },
            "merge-tolerance" => match &mut self.merge_policy {
                MergePolicyConfig::Prefix { max_tolerance_components, .. } => {
                    *max_tolerance_components = num(key, value)?;
                }
                p => return Err(wrong_policy(key, p)),
            },
            "merge-size-ratio" => match &mut self.merge_policy {
                MergePolicyConfig::Tiered { size_ratio, .. } => {
                    *size_ratio = num(key, value)?;
                }
                p => return Err(wrong_policy(key, p)),
            },
            other => {
                return Err(StorageError::InvalidConfig(format!(
                    "unknown storage option {other:?}"
                )));
            }
        }
        Ok(())
    }
}

/// What recovery did when a durable tree was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Component files reopened from the manifest.
    pub components_loaded: u64,
    /// WAL records replayed into the memtable (at/after the manifest's
    /// replay point).
    pub replayed_records: u64,
    /// Bytes dropped from a torn WAL tail.
    pub truncated_bytes: u64,
    /// Wall-clock recovery time (manifest + components + replay + live
    /// recount).
    pub millis: u64,
}

/// WAL activity counters (the `storage/wal/*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    pub appends: u64,
    pub commits: u64,
    /// Leader flush rounds; `commits / flush_rounds` is the achieved
    /// group-commit batch size.
    pub flush_rounds: u64,
    pub fsyncs: u64,
    pub bytes_appended: u64,
    pub segments_retired: u64,
}

/// Block-cache counters (the `storage/cache/*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub read_errors: u64,
}

/// The disk half of a durable tree.
struct PersistState {
    dir: PathBuf,
    durability: DurabilityConfig,
    wal: Option<Wal>,
    cache: Arc<BlockCache>,
    /// Serializes manifest writes; holds the manifest's current
    /// `wal_start_lsn`.
    manifest_ctl: Mutex<u64>,
    /// Ceiling on `wal_start_lsn` advances. Normally `u64::MAX`; when a
    /// flush fails to write its component file the tree falls back to a
    /// memory-backed component and pins this floor, so later manifest
    /// updates can never declare the un-persisted operations covered.
    wal_floor: AtomicU64,
    /// Maintenance-path I/O failures absorbed without data loss
    /// (degraded durability; the `storage/wal/io_errors` metric).
    io_errors: AtomicU64,
    recovery: RecoveryStats,
}

impl std::fmt::Debug for PersistState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistState")
            .field("dir", &self.dir)
            .field("durability", &self.durability)
            .field("recovery", &self.recovery)
            .finish()
    }
}

/// Mutable tree state behind one short-lived lock. Readers hold it only
/// long enough to probe the memtables and clone the component-stack
/// `Arc`.
#[derive(Debug)]
struct TreeState {
    active: Memtable,
    /// Sealed memtables waiting to be flushed, newest first, each with
    /// its WAL watermark: every operation it holds has an LSN strictly
    /// below the watermark (0 for in-memory trees).
    sealed: Vec<(Arc<Memtable>, u64)>,
    /// Bumped on every mutation of the memtable view (put, seal,
    /// flush-install) — the validity stamp for the merged-memtable run
    /// cached in `LsmTree::mem_snap_cache`.
    mem_gen: u64,
    /// Immutable components, newest first. Swapped atomically as a
    /// whole; never mutated in place.
    components: Arc<Vec<Arc<Component>>>,
}

/// One LSM tree. Internally synchronized — shared as `Arc<LsmTree>`
/// across writers, readers and the maintenance pool.
pub struct LsmTree {
    me: Weak<LsmTree>,
    config: LsmConfig,
    policy: Arc<dyn MergePolicy>,
    state: RwLock<TreeState>,
    /// Disk presence; `None` for a purely in-memory tree.
    persist: Option<PersistState>,
    /// Serializes flush passes so components install in seal order.
    flush_lock: Mutex<()>,
    /// At most one merge in flight per tree (keeps the oldest-component
    /// tombstone-drop rule trivially correct).
    merge_in_flight: AtomicBool,
    /// Deduplicates queued flush tasks.
    flush_pending: AtomicBool,
    /// Back-pressure: sealed-memtable count mirrored under a std mutex
    /// so stalled writers can wait on a condvar.
    sealed_ctl: StdMutex<usize>,
    sealed_cv: Condvar,
    /// Last merged-memtable run handed to a snapshot, stamped with the
    /// `mem_gen` it was built from. Snapshots of a quiescent tree (the
    /// common case for repeated queries) share one sorted run instead
    /// of re-merging the memtables per snapshot.
    mem_snap_cache: Mutex<Option<CachedMemRun>>,
    maintenance: RwLock<Option<Arc<MaintenanceScheduler>>>,
    node_hint: AtomicUsize,
    next_component_id: AtomicU64,
    flushes: AtomicU64,
    merges: AtomicU64,
    live: AtomicI64,
    bytes_ingested: AtomicU64,
    bytes_flushed: AtomicU64,
    bytes_merged: AtomicU64,
    stall_nanos: AtomicU64,
}

impl std::fmt::Debug for LsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmTree")
            .field("config", &self.config)
            .field("policy", &self.policy.name())
            .field("durable", &self.persist.is_some())
            .field("components", &self.component_count())
            .field("live", &self.live_count())
            .finish()
    }
}

impl LsmTree {
    pub fn new(config: LsmConfig) -> Arc<LsmTree> {
        Self::build(config, None, Memtable::new(), Vec::new(), 0, 0)
    }

    /// Opens (or creates) a durable tree rooted at `dir`: loads the
    /// manifest, reopens the listed component files, replays the WAL
    /// tail into the memtable, recounts live entries, and resumes
    /// logging. A crash at any earlier point replays to exactly the
    /// state every acknowledged `put` implied.
    pub fn open_durable(config: LsmConfig, dir: &Path) -> Result<Arc<LsmTree>, StorageError> {
        let started = Instant::now();
        std::fs::create_dir_all(dir).map_err(|e| StorageError::io(format!("mkdir {dir:?}"), e))?;
        let d = config.durability;
        let cache = Arc::new(BlockCache::new(d.cache_blocks));
        let manifest = Manifest::load(dir)?.unwrap_or_default();
        let mut components: Vec<Arc<Component>> = Vec::with_capacity(manifest.components.len());
        let mut next_id = manifest.next_component_id;
        for id in &manifest.components {
            // The manifest is layout-agnostic; each component file
            // declares its own format in the first 8 bytes.
            let path = dir.join(component_file_name(*id));
            let comp = if crate::persist::is_columnar_file(&path)? {
                Component::from_columnar(ColumnarFile::open(&path)?, Arc::clone(&cache))
            } else {
                Component::from_open(ComponentFile::open(&path)?, Arc::clone(&cache))
            };
            next_id = next_id.max(*id + 1);
            components.push(Arc::new(comp));
        }
        let (replay, _) = Wal::replay_dir(dir)?;
        let mut active = Memtable::new();
        let mut replayed = 0u64;
        for (lsn, key, entry) in &replay.records {
            if *lsn >= manifest.wal_start_lsn {
                active.put(key.clone(), entry.clone());
                replayed += 1;
            }
        }
        let wal = if d.wal {
            Some(Wal::open(
                dir,
                WalConfig { fsync: d.fsync, segment_bytes: d.wal_segment_bytes },
                &replay,
            )?)
        } else {
            None
        };
        let components = Arc::new(components);
        // Recount live entries through a snapshot of the recovered state
        // (the counter is maintained incrementally from here on).
        let live = TreeSnapshot {
            mem: Arc::new(active.iter().map(|(k, e)| (k.clone(), e.clone())).collect()),
            components: Arc::clone(&components),
        }
        .iter()
        .count() as i64;
        let persist = PersistState {
            dir: dir.to_path_buf(),
            durability: d,
            wal,
            cache,
            manifest_ctl: Mutex::new(manifest.wal_start_lsn),
            wal_floor: AtomicU64::new(u64::MAX),
            io_errors: AtomicU64::new(0),
            recovery: RecoveryStats {
                components_loaded: manifest.components.len() as u64,
                replayed_records: replayed,
                truncated_bytes: replay.truncated_bytes,
                millis: started.elapsed().as_millis() as u64,
            },
        };
        Ok(Self::build(
            config,
            Some(persist),
            active,
            Arc::try_unwrap(components).unwrap_or_else(|a| a.as_ref().clone()),
            next_id,
            live,
        ))
    }

    fn build(
        config: LsmConfig,
        persist: Option<PersistState>,
        active: Memtable,
        components: Vec<Arc<Component>>,
        next_component_id: u64,
        live: i64,
    ) -> Arc<LsmTree> {
        let policy = config.merge_policy.build();
        Arc::new_cyclic(|me| LsmTree {
            me: me.clone(),
            config,
            policy,
            state: RwLock::new(TreeState {
                active,
                sealed: Vec::new(),
                components: Arc::new(components),
                mem_gen: 0,
            }),
            persist,
            flush_lock: Mutex::new(()),
            merge_in_flight: AtomicBool::new(false),
            flush_pending: AtomicBool::new(false),
            sealed_ctl: StdMutex::new(0),
            sealed_cv: Condvar::new(),
            mem_snap_cache: Mutex::new(None),
            maintenance: RwLock::new(None),
            node_hint: AtomicUsize::new(NO_NODE),
            next_component_id: AtomicU64::new(next_component_id),
            flushes: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            live: AtomicI64::new(live),
            bytes_ingested: AtomicU64::new(0),
            bytes_flushed: AtomicU64::new(0),
            bytes_merged: AtomicU64::new(0),
            stall_nanos: AtomicU64::new(0),
        })
    }

    pub fn config(&self) -> &LsmConfig {
        &self.config
    }

    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Whether the tree has a disk presence (WAL + component files).
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// Recovery statistics from `open_durable` (durable trees only).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.persist.as_ref().map(|p| p.recovery)
    }

    /// WAL activity counters (durable trees with the WAL enabled).
    pub fn wal_stats(&self) -> Option<WalStats> {
        let wal = self.persist.as_ref()?.wal.as_ref()?;
        Some(WalStats {
            appends: wal.appends(),
            commits: wal.commits(),
            flush_rounds: wal.flush_rounds(),
            fsyncs: wal.fsyncs(),
            bytes_appended: wal.bytes_appended(),
            segments_retired: wal.segments_retired(),
        })
    }

    /// Block-cache counters (durable trees only).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.persist.as_ref().map(|p| CacheStats {
            hits: p.cache.hits(),
            misses: p.cache.misses(),
            read_errors: p.cache.read_errors(),
        })
    }

    /// Maintenance-path I/O failures absorbed without data loss.
    pub fn io_error_count(&self) -> u64 {
        self.persist.as_ref().map(|p| p.io_errors.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Routes this tree's maintenance through a shared scheduler.
    /// Without one, flushes and merges run inline on the writer thread.
    pub fn attach_maintenance(&self, scheduler: Arc<MaintenanceScheduler>) {
        *self.maintenance.write() = Some(scheduler);
    }

    /// Tags maintenance tasks with the cluster node hosting this tree's
    /// partition, so fault injection (slow storage) can target them.
    pub fn set_node_hint(&self, node: usize) {
        self.node_hint.store(node, Ordering::Relaxed);
    }

    fn node_hint(&self) -> Option<usize> {
        match self.node_hint.load(Ordering::Relaxed) {
            NO_NODE => None,
            n => Some(n),
        }
    }

    /// Writes a record (or tombstone when `value` is `None`) under
    /// `key`. On a durable tree the operation is WAL-appended before the
    /// memtable apply (under the same lock, so log order = apply order)
    /// and group-committed before returning. Returns how long the writer
    /// stalled on flush back-pressure (zero in the common case). The
    /// write path never builds or merges components.
    pub fn put(&self, key: Value, value: Entry) -> Result<Duration, StorageError> {
        self.bytes_ingested.fetch_add(
            (key.approx_size() + value.as_ref().map(|v| v.approx_size()).unwrap_or(1)) as u64,
            Ordering::Relaxed,
        );
        let wal = self.persist.as_ref().and_then(|p| p.wal.as_ref());
        let (need_seal, lsn) = {
            let mut st = self.state.write();
            // Probe *before* the WAL append: a failed probe must not
            // leave an un-applied operation in the log (replay would
            // apply what the caller saw fail).
            let was_live = match st.active.get(&key) {
                Some(e) => e.is_some(),
                None => self.probe_frozen(&st, &key)?.is_some_and(|e| e.is_some()),
            };
            let lsn = match wal {
                Some(w) => Some(w.append(&key, &value)?),
                None => None,
            };
            let now_live = value.is_some();
            st.active.put(key, value);
            st.mem_gen += 1;
            match (was_live, now_live) {
                (false, true) => {
                    self.live.fetch_add(1, Ordering::Relaxed);
                }
                (true, false) => {
                    self.live.fetch_sub(1, Ordering::Relaxed);
                }
                _ => {}
            }
            (st.active.approx_bytes() >= self.config.memtable_budget_bytes, lsn)
        };
        if let (Some(w), Some(lsn)) = (wal, lsn) {
            w.commit(lsn)?;
        }
        if need_seal {
            Ok(self.seal_active())
        } else {
            Ok(Duration::ZERO)
        }
    }

    /// Latest frozen entry for `key` (sealed memtables, then
    /// components), ignoring the active memtable.
    fn probe_frozen(&self, st: &TreeState, key: &Value) -> Result<Option<Entry>, StorageError> {
        for (m, _) in &st.sealed {
            if let Some(e) = m.get(key) {
                return Ok(Some(e.clone()));
            }
        }
        for c in st.components.iter() {
            if let Some(e) = c.get(key)? {
                return Ok(Some(e));
            }
        }
        Ok(None)
    }

    /// The WAL watermark to stamp on a memtable sealed *now*: one past
    /// the newest appended LSN. Callers hold the state write lock, so no
    /// later operation can slip under the watermark.
    fn seal_watermark(&self) -> u64 {
        self.persist
            .as_ref()
            .and_then(|p| p.wal.as_ref())
            .map(|w| w.next_lsn())
            .unwrap_or(0)
    }

    /// Seals the active memtable onto the flush queue, stalling if the
    /// queue is full, then kicks a flush. Returns time spent stalled.
    fn seal_active(&self) -> Duration {
        let mut stalled = Duration::ZERO;
        loop {
            let sealed_now = {
                let mut st = self.state.write();
                if st.active.is_empty()
                    || st.active.approx_bytes() < self.config.memtable_budget_bytes
                {
                    return stalled; // another writer already sealed
                }
                let mut ctl = self.sealed_ctl.lock().unwrap();
                if *ctl < self.config.max_sealed_memtables {
                    *ctl += 1;
                    let watermark = self.seal_watermark();
                    let frozen = std::mem::take(&mut st.active);
                    st.sealed.insert(0, (Arc::new(frozen), watermark));
                    st.mem_gen += 1;
                    true
                } else {
                    false
                }
            };
            if sealed_now {
                self.kick_flush();
                return stalled;
            }
            let start = Instant::now();
            let mut ctl = self.sealed_ctl.lock().unwrap();
            while *ctl >= self.config.max_sealed_memtables {
                ctl = self.sealed_cv.wait(ctl).unwrap();
            }
            drop(ctl);
            let waited = start.elapsed();
            self.stall_nanos.fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
            stalled += waited;
        }
    }

    /// Schedules a flush pass (or runs it inline without a scheduler).
    fn kick_flush(&self) {
        let sched = self.maintenance.read().clone();
        match sched {
            Some(s) => {
                if self
                    .flush_pending
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    match self.me.upgrade() {
                        Some(me) => {
                            let node = self.node_hint();
                            s.submit(MaintKind::Flush, node, move || {
                                me.flush_pending.store(false, Ordering::Release);
                                me.flush_pass();
                            });
                        }
                        None => self.flush_pending.store(false, Ordering::Release),
                    }
                }
            }
            None => self.flush_pass(),
        }
    }

    /// Writes `entries` (in key order) to component file `id` in the
    /// configured layout and wraps it as a disk-backed component.
    fn write_component_file(
        p: &PersistState,
        id: u64,
        entries: impl Iterator<Item = (Value, Entry)>,
    ) -> Result<Component, StorageError> {
        let path = p.dir.join(component_file_name(id));
        let sync = p.durability.fsync == FsyncPolicy::Always;
        match p.durability.layout {
            ComponentLayout::Row => {
                let mut w = ComponentFileWriter::create(&path, id, p.durability.block_bytes)?;
                for (k, e) in entries {
                    w.push(k, &e)?;
                }
                Ok(Component::from_open(w.finish(sync)?, Arc::clone(&p.cache)))
            }
            ComponentLayout::Columnar => {
                let mut w = ColumnarFileWriter::create(&path, id)?;
                for (k, e) in entries {
                    w.push(k, &e)?;
                }
                Ok(Component::from_columnar(w.finish(sync)?, Arc::clone(&p.cache)))
            }
        }
    }

    /// Builds the component for a flushed memtable: a component file on
    /// durable trees, falling back to a memory backing (with the WAL
    /// replay point pinned, so nothing is lost) if the write fails.
    fn build_flush_component(&self, id: u64, mem: &Memtable) -> Component {
        if let Some(p) = &self.persist {
            let entries = mem.iter().map(|(k, e)| (k.clone(), e.clone()));
            match Self::write_component_file(p, id, entries) {
                Ok(c) => return c,
                Err(_) => {
                    p.io_errors.fetch_add(1, Ordering::Relaxed);
                    // Pin the replay point: the manifest may never claim
                    // this memtable's operations are covered on disk.
                    let stored = *p.manifest_ctl.lock();
                    p.wal_floor.fetch_min(stored, Ordering::Relaxed);
                }
            }
        }
        Component::from_frozen(id, mem)
    }

    /// Atomically rewrites the manifest from the current component
    /// stack. `advance_wal_start_to` moves the WAL replay point forward
    /// (flush path); merges pass `None`. Returns the persisted replay
    /// point, or `None` when the save failed (counted, not fatal: the
    /// previous manifest remains valid).
    fn save_manifest(&self, p: &PersistState, advance_wal_start_to: Option<u64>) -> Option<u64> {
        let mut stored = p.manifest_ctl.lock();
        let ids: Vec<u64> = {
            let st = self.state.read();
            st.components.iter().filter(|c| c.is_disk()).map(|c| c.id()).collect()
        };
        let proposed = match advance_wal_start_to {
            Some(w) => w.max(*stored),
            None => *stored,
        };
        let wal_start = proposed.min(p.wal_floor.load(Ordering::Relaxed));
        let manifest = Manifest {
            components: ids,
            next_component_id: self.next_component_id.load(Ordering::Relaxed),
            wal_start_lsn: wal_start,
        };
        match manifest.save(&p.dir) {
            Ok(()) => {
                *stored = wal_start;
                Some(wal_start)
            }
            Err(_) => {
                p.io_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Drains the sealed queue oldest-first, building one component per
    /// sealed memtable and installing it at the head of the stack
    /// (every existing component is older than any sealed memtable).
    /// Serialized by `flush_lock` so concurrent passes cannot install
    /// out of seal order. On durable trees the pass ends by swinging the
    /// manifest to the newest flushed watermark and retiring covered WAL
    /// segments.
    fn flush_pass(&self) {
        let guard = self.flush_lock.lock();
        let mut flushed_watermark: Option<u64> = None;
        loop {
            let (mem, watermark) = {
                let st = self.state.read();
                match st.sealed.last() {
                    Some((m, w)) => (Arc::clone(m), *w),
                    None => break,
                }
            };
            let id = self.next_component_id.fetch_add(1, Ordering::Relaxed);
            let comp = Arc::new(self.build_flush_component(id, &mem));
            self.bytes_flushed.fetch_add(comp.approx_bytes() as u64, Ordering::Relaxed);
            {
                let mut st = self.state.write();
                let (popped, _) = st.sealed.pop().expect("sealed queue emptied under flush_lock");
                debug_assert!(Arc::ptr_eq(&popped, &mem));
                let mut comps = st.components.as_ref().clone();
                comps.insert(0, comp);
                st.components = Arc::new(comps);
                st.mem_gen += 1;
            }
            {
                let mut ctl = self.sealed_ctl.lock().unwrap();
                *ctl -= 1;
            }
            self.sealed_cv.notify_all();
            self.flushes.fetch_add(1, Ordering::Relaxed);
            flushed_watermark = Some(watermark);
        }
        drop(guard);
        if let (Some(p), Some(watermark)) = (self.persist.as_ref(), flushed_watermark) {
            if let Some(wal_start) = self.save_manifest(p, Some(watermark)) {
                if let Some(wal) = &p.wal {
                    if wal.retire_upto(wal_start).is_err() {
                        p.io_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        self.maybe_schedule_merge();
    }

    /// Asks the merge policy for work; at most one merge runs at a time.
    /// Without a scheduler, merges cascade inline until the policy is
    /// satisfied.
    fn maybe_schedule_merge(&self) {
        loop {
            if self
                .merge_in_flight
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                return;
            }
            let snapshot = self.state.read().components.clone();
            let range = match self.policy.select(&snapshot) {
                Some(r) if r.len() >= 2 && r.end <= snapshot.len() => r,
                _ => {
                    self.merge_in_flight.store(false, Ordering::Release);
                    return;
                }
            };
            // Tombstones may drop only when the merge reaches the oldest
            // component; flushes only prepend, so this holds for the
            // merge's whole lifetime.
            let drop_tombstones = range.end == snapshot.len();
            let victims: Vec<Arc<Component>> = snapshot[range].to_vec();
            let sched = self.maintenance.read().clone();
            match (sched, self.me.upgrade()) {
                (Some(s), Some(me)) => {
                    let node = self.node_hint();
                    s.submit(MaintKind::Merge, node, move || {
                        me.run_merge(victims, drop_tombstones);
                        me.maybe_schedule_merge();
                    });
                    return;
                }
                _ => {
                    self.run_merge(victims, drop_tombstones);
                    // Loop: the policy may want another round.
                }
            }
        }
    }

    /// Merges `victims` (contiguous in the stack) into one component and
    /// splices it in place. Readers keep serving from the old snapshot
    /// until the single `Arc` swap. On durable trees the merged run is
    /// *streamed* to a new component file, the manifest swings, and the
    /// victims' files are deleted (open snapshots keep reading them via
    /// their still-open descriptors). A failed merge — the output write
    /// errored, *or* any victim hit a read error so the stream is a
    /// truncated view of the inputs — abandons the merge: the partial
    /// output file is removed and the victims simply stay (their WAL
    /// coverage is long gone, so installing a truncated merge would be
    /// permanent silent data loss). Clears the merge-in-flight token.
    fn run_merge(&self, victims: Vec<Arc<Component>>, drop_tombstones: bool) {
        let id = self.next_component_id.fetch_add(1, Ordering::Relaxed);
        let merged = match &self.persist {
            Some(p) => {
                let mut source = merge_iter(&victims, drop_tombstones);
                let written = Self::write_component_file(p, id, &mut source);
                match written {
                    Ok(c) if source.error().is_none() => c,
                    _ => {
                        p.io_errors.fetch_add(1, Ordering::Relaxed);
                        let _ = std::fs::remove_file(p.dir.join(component_file_name(id)));
                        self.merge_in_flight.store(false, Ordering::Release);
                        return;
                    }
                }
            }
            None => Component::merge(id, &victims, drop_tombstones),
        };
        let merged = Arc::new(merged);
        self.bytes_merged.fetch_add(merged.approx_bytes() as u64, Ordering::Relaxed);
        {
            let mut st = self.state.write();
            let mut comps = st.components.as_ref().clone();
            let first = victims[0].id();
            let pos = comps
                .iter()
                .position(|c| c.id() == first)
                .expect("merge victims vanished from component stack");
            comps.splice(pos..pos + victims.len(), std::iter::once(merged));
            st.components = Arc::new(comps);
        }
        self.merges.fetch_add(1, Ordering::Relaxed);
        if let Some(p) = &self.persist {
            // Delete victim files only once the manifest stopped
            // referencing them; on a failed save they stay (recovery
            // would reopen the pre-merge stack, which is equivalent).
            if self.save_manifest(p, None).is_some() {
                for v in &victims {
                    if let Some((path, uid)) = v.disk_file() {
                        p.cache.evict_file(uid);
                        if std::fs::remove_file(path).is_err() {
                            p.io_errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        self.merge_in_flight.store(false, Ordering::Release);
    }

    /// Synchronous flush: seals whatever the active memtable holds and
    /// drains the whole sealed queue inline. Deterministic — on return
    /// every buffered write lives in a component.
    pub fn flush(&self) {
        {
            let mut st = self.state.write();
            if !st.active.is_empty() {
                let mut ctl = self.sealed_ctl.lock().unwrap();
                *ctl += 1; // explicit flush may exceed the stall limit briefly
                let watermark = self.seal_watermark();
                let frozen = std::mem::take(&mut st.active);
                st.sealed.insert(0, (Arc::new(frozen), watermark));
                st.mem_gen += 1;
            }
        }
        self.flush_pass();
    }

    /// Synchronous full merge: collapses the entire component stack into
    /// one, regardless of policy. Waits out any in-flight background
    /// merge first.
    pub fn merge_all(&self) {
        while self
            .merge_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            std::thread::yield_now();
        }
        let snapshot = self.state.read().components.clone();
        if snapshot.len() >= 2 {
            self.run_merge(snapshot.as_ref().clone(), true);
        } else {
            self.merge_in_flight.store(false, Ordering::Release);
        }
    }

    /// Installs pre-sorted pairs as a single component (bulk load). The
    /// component id comes from the tree's allocator like any other. On
    /// durable trees the component is written to disk and recorded in
    /// the manifest before the call returns (bulk loads bypass the WAL,
    /// so the file write must succeed).
    pub fn bulk_install(&self, pairs: Vec<(Value, Entry)>) -> Result<(), StorageError> {
        let id = self.next_component_id.fetch_add(1, Ordering::Relaxed);
        let live = pairs.iter().filter(|(_, e)| e.is_some()).count() as i64;
        let comp = match &self.persist {
            Some(p) => Arc::new(Self::write_component_file(p, id, pairs.into_iter())?),
            None => Arc::new(Component::from_sorted(id, pairs)),
        };
        self.bytes_ingested.fetch_add(comp.approx_bytes() as u64, Ordering::Relaxed);
        self.bytes_flushed.fetch_add(comp.approx_bytes() as u64, Ordering::Relaxed);
        self.live.fetch_add(live, Ordering::Relaxed);
        {
            let mut st = self.state.write();
            let mut comps = st.components.as_ref().clone();
            comps.insert(0, comp);
            st.components = Arc::new(comps);
        }
        if let Some(p) = &self.persist {
            if self.save_manifest(p, None).is_none() {
                return Err(StorageError::Io(format!(
                    "bulk load into {:?}: manifest update failed",
                    p.dir
                )));
            }
        }
        Ok(())
    }

    /// Newest visible entry for `key`: active memtable → sealed
    /// memtables → components, newest first. `Ok(None)` = never written
    /// or tombstoned away; an I/O or checksum failure on a disk
    /// component is an error (falling through to an older component
    /// could serve a stale shadowed value or resurrect a delete). Never
    /// blocks on maintenance: the component probe runs on a cloned stack
    /// snapshot, outside any lock.
    pub fn get(&self, key: &Value) -> Result<Option<Arc<Value>>, StorageError> {
        let components = {
            let st = self.state.read();
            if let Some(e) = st.active.get(key) {
                return Ok(e.clone());
            }
            for (m, _) in &st.sealed {
                if let Some(e) = m.get(key) {
                    return Ok(e.clone());
                }
            }
            Arc::clone(&st.components)
        };
        for c in components.iter() {
            if let Some(e) = c.get(key)? {
                return Ok(e);
            }
        }
        Ok(None)
    }

    /// Whether `key` has a visible (non-tombstone) entry.
    pub fn contains(&self, key: &Value) -> Result<bool, StorageError> {
        Ok(self.get(key)?.is_some())
    }

    /// A consistent point-in-time view: memtable contents are copied
    /// (keys cloned, records `Arc`-shared); the component stack is
    /// pinned by cloning its `Arc`.
    ///
    /// The merged memtable run is cached against the tree's memtable
    /// generation, so snapshotting a tree that has not been written
    /// since the last snapshot shares one sorted run (`Arc` clone)
    /// instead of re-merging — repeated scans of a quiescent dataset
    /// pay the merge once.
    pub fn snapshot(&self) -> TreeSnapshot {
        let st = self.state.read();
        let mut cache = self.mem_snap_cache.lock();
        if let Some((gen, mem)) = cache.as_ref() {
            if *gen == st.mem_gen {
                return TreeSnapshot {
                    mem: Arc::clone(mem),
                    components: Arc::clone(&st.components),
                };
            }
        }
        let mem: Vec<(Value, Entry)> = if st.sealed.is_empty() {
            // Single memtable: already sorted and duplicate-free.
            st.active.iter().map(|(k, e)| (k.clone(), e.clone())).collect()
        } else {
            let mut map: BTreeMap<Value, Entry> = BTreeMap::new();
            for (m, _) in st.sealed.iter().rev() {
                for (k, e) in m.iter() {
                    map.insert(k.clone(), e.clone());
                }
            }
            for (k, e) in st.active.iter() {
                map.insert(k.clone(), e.clone());
            }
            map.into_iter().collect()
        };
        let mem = Arc::new(mem);
        *cache = Some((st.mem_gen, Arc::clone(&mem)));
        TreeSnapshot { mem, components: Arc::clone(&st.components) }
    }

    /// Number of live (non-tombstone, non-shadowed) entries. O(1): the
    /// counter is maintained on every `put`/`bulk_install` (recomputed
    /// once at recovery).
    pub fn live_count(&self) -> usize {
        self.live.load(Ordering::Relaxed).max(0) as usize
    }

    /// Entries buffered in memtables (active + sealed), including
    /// tombstones and shadowed versions.
    pub fn memtable_len(&self) -> usize {
        let st = self.state.read();
        st.active.len() + st.sealed.iter().map(|(m, _)| m.len()).sum::<usize>()
    }

    pub fn component_count(&self) -> usize {
        self.state.read().components.len()
    }

    /// Pins the current component stack (cheap: one `Arc` clone).
    pub fn component_snapshot(&self) -> Arc<Vec<Arc<Component>>> {
        Arc::clone(&self.state.read().components)
    }

    pub fn flush_count(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    pub fn merge_count(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    pub fn bytes_ingested(&self) -> u64 {
        self.bytes_ingested.load(Ordering::Relaxed)
    }

    /// Bytes written by maintenance (flushes + merges). The ratio to
    /// `bytes_ingested` is the tree's write amplification.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_flushed.load(Ordering::Relaxed) + self.bytes_merged.load(Ordering::Relaxed)
    }

    /// Write amplification: maintenance bytes per ingested byte.
    pub fn write_amp(&self) -> f64 {
        let ingested = self.bytes_ingested.load(Ordering::Relaxed);
        if ingested == 0 {
            return 0.0;
        }
        self.bytes_written() as f64 / ingested as f64
    }

    /// Total writer time spent stalled on flush back-pressure.
    pub fn stall_nanos(&self) -> u64 {
        self.stall_nanos.load(Ordering::Relaxed)
    }
}

/// A consistent view of the tree at snapshot time. Iteration yields
/// live entries in key order, newest version winning. Accessors return
/// owned values (`Arc` clones): a disk-backed component fetches entries
/// through the block cache, so nothing can be borrowed from it.
#[derive(Debug, Clone)]
pub struct TreeSnapshot {
    /// Merged memtable contents at snapshot time, sorted by key.
    /// Shared with the tree's snapshot cache (and sibling snapshots of
    /// the same generation); never mutated.
    mem: Arc<Vec<(Value, Entry)>>,
    /// Pinned component stack, newest first.
    components: Arc<Vec<Arc<Component>>>,
}

impl TreeSnapshot {
    /// Point lookup within the snapshot. `Ok(None)` for
    /// absent/tombstone; a disk-component read failure is an error, not
    /// "absent".
    pub fn get(&self, key: &Value) -> Result<Option<Arc<Value>>, StorageError> {
        if let Ok(i) = self.mem.binary_search_by(|(k, _)| k.cmp(key)) {
            return Ok(self.mem[i].1.clone());
        }
        self.component_get(key)
    }

    /// Live entries in key order (k-way merge, newest version wins,
    /// tombstones skipped).
    pub fn iter(&self) -> SnapshotIter<'_> {
        self.iter_range(&KeyRange::all())
    }

    /// Live entries whose key lies in `range`, in key order. Every
    /// source is seeked by `partition_point` on its in-memory keys — the
    /// memtable run becomes a sub-slice, each component iterator gets an
    /// end index — so the seek does no I/O. All versions of an in-range
    /// key sit inside every source's span, so the newest-wins merge below
    /// runs unchanged.
    pub fn iter_range(&self, range: &KeyRange) -> SnapshotIter<'_> {
        let mut sources: Vec<EntrySource<'_>> = Vec::with_capacity(1 + self.components.len());
        let mem = &self.mem[range.span(&self.mem, |(k, _)| k)];
        if !mem.is_empty() {
            sources.push(Box::new(MemSource { entries: mem, i: 0 }));
        }
        for c in self.components.iter() {
            sources.push(Box::new(c.iter_range(range)));
        }
        let mut heads: Vec<Option<(Value, Entry)>> = sources.iter_mut().map(|s| s.next()).collect();
        // Drop sources empty within the range up front, so a range that
        // falls inside one run takes the single-source fast path.
        let mut i = 0;
        while i < heads.len() {
            if heads[i].is_none() {
                heads.remove(i);
                drop(sources.remove(i));
            } else {
                i += 1;
            }
        }
        SnapshotIter { heads, sources }
    }

    /// Whether `other` is exactly this view: the same memoized memtable
    /// run and the same pinned component stack. Both stay shared while
    /// the tree is not written (see [`LsmTree::snapshot`]); any put,
    /// delete, seal, flush, merge or bulk load replaces one of them.
    /// Holding either snapshot keeps its `Arc`s alive, so a pointer match
    /// can never come from a freed-and-reused allocation.
    pub fn same_view(&self, other: &TreeSnapshot) -> bool {
        Arc::ptr_eq(&self.mem, &other.mem) && Arc::ptr_eq(&self.components, &other.components)
    }

    /// The keys whose visible record differs between `older` and this
    /// view, in key order. Only answerable while both pin the same
    /// component stack, so every write between them still sits in the
    /// memtable run; `Ok(None)` otherwise (a flush or merge landed, and
    /// the caller rescans). Linear in the memtable run, plus one
    /// component probe per key that is new to it.
    pub fn changes_since(&self, older: &TreeSnapshot) -> Result<Option<Vec<Change>>, StorageError> {
        if !Arc::ptr_eq(&self.components, &older.components) {
            return Ok(None);
        }
        let mut changes = Vec::new();
        if Arc::ptr_eq(&self.mem, &older.mem) {
            return Ok(Some(changes));
        }
        let mut old = older.mem.iter().peekable();
        for (key, after) in self.mem.iter() {
            let before = match old.peek() {
                // A key left the memtable: not a pure sequence of writes.
                Some((k, _)) if k < key => return Ok(None),
                Some((k, e)) if k == key => {
                    old.next();
                    e.clone()
                }
                _ => self.component_get(key)?,
            };
            let same = match (&before, after) {
                (Some(b), Some(a)) => Arc::ptr_eq(b, a),
                (None, None) => true,
                _ => false,
            };
            if !same {
                changes.push(Change { key: key.clone(), before, after: after.clone() });
            }
        }
        Ok(old.next().is_none().then_some(changes))
    }

    /// Newest entry for `key` in the pinned component stack.
    fn component_get(&self, key: &Value) -> Result<Entry, StorageError> {
        for c in self.components.iter() {
            if let Some(e) = c.get(key)? {
                return Ok(e);
            }
        }
        Ok(None)
    }

    /// Live-entry count (linear in snapshot size).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// A page-level read handle when this snapshot is *exactly one
    /// columnar component with no memtable overlay* — the only shape
    /// whose pages can feed a scan directly, since any overlay or
    /// sibling would need the k-way newest-wins merge. Callers fall
    /// back to [`iter`](Self::iter) otherwise.
    pub fn single_columnar(&self) -> Option<ColumnarReader> {
        if !self.mem.is_empty() || self.components.len() != 1 {
            return None;
        }
        self.components[0].columnar()
    }
}

type EntrySource<'a> = Box<dyn Iterator<Item = (Value, Entry)> + 'a>;

/// Iterator over the snapshot's merged-memtable run. The run itself is
/// contiguous, but yielding an entry clones the record `Arc` — a
/// read-modify-write on a scattered allocation that consumers (batch
/// builds, row scans) then dereference. Prefetching the allocation a
/// few entries ahead overlaps those misses; the lookahead pointer read
/// is free since the run is already streaming through cache.
struct MemSource<'a> {
    entries: &'a [(Value, Entry)],
    i: usize,
}

impl Iterator for MemSource<'_> {
    type Item = (Value, Entry);

    fn next(&mut self) -> Option<Self::Item> {
        let (k, e) = self.entries.get(self.i)?;
        #[cfg(target_arch = "x86_64")]
        if let Some((_, Some(rec))) = self.entries.get(self.i + 16) {
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(Arc::as_ptr(rec) as *const i8);
            }
        }
        self.i += 1;
        Some((k.clone(), e.clone()))
    }
}

/// K-way merging iterator over a [`TreeSnapshot`]. Sources are ordered
/// newest first (memtable view, then the component stack); ties on key
/// resolve to the lowest source index.
///
/// Each source's front entry sits in a `heads` slot so the per-row merge
/// step compares plain data — no candidate-key cloning, no virtual peek
/// calls. Exhausted sources are pruned, so a scan tightens as sources
/// drain and degenerates to a straight pass once one source remains —
/// the common case for a freshly-merged tree or a memtable-only tree,
/// and the batch-scan floor the vectorized query path sits on.
pub struct SnapshotIter<'a> {
    /// Front entry of each live source (a manual peek slot).
    heads: Vec<Option<(Value, Entry)>>,
    sources: Vec<EntrySource<'a>>,
}

impl Iterator for SnapshotIter<'_> {
    type Item = (Value, Arc<Value>);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            // Single live source: no key comparisons, no shadow checks.
            if self.heads.len() == 1 {
                loop {
                    self.heads[0].as_ref()?;
                    let next = self.sources[0].next();
                    let (k, e) = std::mem::replace(&mut self.heads[0], next)?;
                    if let Some(v) = e {
                        return Some((k, v));
                    }
                    // Tombstone: skip and continue.
                }
            }

            // Smallest key across heads; among equal keys the lowest
            // source index (newest data) wins.
            let mut best: Option<usize> = None;
            for i in 0..self.heads.len() {
                if let Some((k, _)) = &self.heads[i] {
                    best = match best {
                        Some(b) if matches!(&self.heads[b], Some((bk, _)) if bk <= k) => Some(b),
                        _ => Some(i),
                    };
                }
            }
            let w = best?;
            let next = self.sources[w].next();
            let (key, entry) =
                std::mem::replace(&mut self.heads[w], next).expect("winner head is occupied");
            // Advance every other source past this key (shadowed
            // entries).
            for i in 0..self.heads.len() {
                if i == w {
                    continue;
                }
                while matches!(&self.heads[i], Some((k, _)) if *k == key) {
                    self.heads[i] = self.sources[i].next();
                }
            }
            // Prune exhausted sources so the merge narrows over time and
            // the tail of the scan hits the single-source fast path.
            if self.heads.iter().any(Option::is_none) {
                let mut i = 0;
                while i < self.heads.len() {
                    if self.heads[i].is_none() {
                        self.heads.remove(i);
                        drop(self.sources.remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            if let Some(v) = entry {
                return Some((key, v));
            }
            // Tombstone: skip and continue.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(s: &str) -> Entry {
        Some(Arc::new(Value::str(s)))
    }

    fn tiny_config() -> LsmConfig {
        LsmConfig {
            memtable_budget_bytes: 256,
            max_sealed_memtables: 2,
            merge_policy: MergePolicyConfig::Constant { max_components: 3 },
            durability: DurabilityConfig::default(),
        }
    }

    #[test]
    fn put_get_overwrite() {
        let t = LsmTree::new(LsmConfig::default());
        t.put(Value::Int(1), rec("a")).unwrap();
        t.put(Value::Int(1), rec("b")).unwrap();
        assert_eq!(t.get(&Value::Int(1)).unwrap().unwrap().as_str(), Some("b"));
        assert_eq!(t.get(&Value::Int(2)).unwrap(), None);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn tombstone_hides_older_component_entry() {
        let t = LsmTree::new(LsmConfig::default());
        t.put(Value::Int(7), rec("old")).unwrap();
        t.flush();
        t.put(Value::Int(7), None).unwrap();
        assert_eq!(t.get(&Value::Int(7)).unwrap(), None);
        assert_eq!(t.live_count(), 0);
        t.flush();
        assert_eq!(t.get(&Value::Int(7)).unwrap(), None, "tombstone must survive its own flush");
    }

    #[test]
    fn auto_flush_on_budget() {
        let t = LsmTree::new(tiny_config());
        for i in 0..100 {
            t.put(Value::Int(i), Some(Arc::new(Value::str("x".repeat(20))))).unwrap();
        }
        assert!(t.flush_count() > 0, "memtable budget should force flushes");
        for i in 0..100 {
            assert!(t.contains(&Value::Int(i)).unwrap(), "key {i} lost across flush");
        }
        assert_eq!(t.live_count(), 100);
    }

    #[test]
    fn constant_policy_caps_components() {
        let t = LsmTree::new(tiny_config());
        for round in 0..5 {
            for i in 0..10 {
                t.put(Value::Int(i), Some(Arc::new(Value::Int(round)))).unwrap();
            }
            t.flush();
        }
        assert!(t.component_count() <= 3);
        assert!(t.merge_count() > 0);
        for i in 0..10 {
            assert_eq!(
                t.get(&Value::Int(i)).unwrap().unwrap().as_int(),
                Some(4),
                "newest round wins"
            );
        }
        assert_eq!(t.live_count(), 10);
    }

    #[test]
    fn merge_all_collapses_stack() {
        let t = LsmTree::new(LsmConfig {
            merge_policy: MergePolicyConfig::NoMerge,
            ..LsmConfig::default()
        });
        for batch in 0..4 {
            t.put(Value::Int(batch), rec("v")).unwrap();
            t.flush();
        }
        assert_eq!(t.component_count(), 4);
        t.merge_all();
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.merge_count(), 1);
        assert_eq!(t.live_count(), 4);
    }

    #[test]
    fn snapshot_iter_in_key_order_newest_wins() {
        let t = LsmTree::new(LsmConfig::default());
        t.put(Value::Int(2), rec("old2")).unwrap();
        t.put(Value::Int(3), rec("three")).unwrap();
        t.flush();
        t.put(Value::Int(2), rec("new2")).unwrap();
        t.put(Value::Int(1), rec("one")).unwrap();
        t.put(Value::Int(3), None).unwrap(); // delete
        let snap = t.snapshot();
        let got: Vec<(i64, String)> = snap
            .iter()
            .map(|(k, v)| (k.as_int().unwrap(), v.as_str().unwrap().to_owned()))
            .collect();
        assert_eq!(got, vec![(1, "one".to_owned()), (2, "new2".to_owned())]);
    }

    #[test]
    fn snapshot_isolated_from_later_writes() {
        let t = LsmTree::new(LsmConfig::default());
        t.put(Value::Int(1), rec("v1")).unwrap();
        t.flush();
        let snap = t.snapshot();
        t.put(Value::Int(1), rec("v2")).unwrap();
        t.put(Value::Int(2), rec("other")).unwrap();
        t.merge_all();
        assert_eq!(snap.get(&Value::Int(1)).unwrap().unwrap().as_str(), Some("v1"));
        assert_eq!(snap.get(&Value::Int(2)).unwrap(), None);
    }

    #[test]
    fn live_count_tracks_deletes_and_reinserts() {
        let t = LsmTree::new(LsmConfig::default());
        for i in 0..10 {
            t.put(Value::Int(i), rec("v")).unwrap();
        }
        t.flush();
        t.put(Value::Int(3), None).unwrap(); // delete a flushed key
        t.put(Value::Int(3), None).unwrap(); // double-delete is a no-op
        t.put(Value::Int(11), rec("new")).unwrap();
        t.put(Value::Int(4), rec("overwrite")).unwrap();
        assert_eq!(t.live_count(), 10);
        t.flush();
        t.merge_all();
        assert_eq!(t.live_count(), 10);
        assert_eq!(t.snapshot().iter().count(), 10);
    }

    #[test]
    fn bulk_install_counts_live_and_allocates_real_ids() {
        let t = LsmTree::new(LsmConfig::default());
        let pairs: Vec<(Value, Entry)> = (0..5).map(|i| (Value::Int(i), rec("bulk"))).collect();
        t.bulk_install(pairs).unwrap();
        assert_eq!(t.live_count(), 5);
        assert_eq!(t.component_count(), 1);
        // The id allocator must have advanced past the bulk component.
        t.put(Value::Int(100), rec("after")).unwrap();
        t.flush();
        let comps = t.component_snapshot();
        assert_ne!(comps[0].id(), comps[1].id());
        assert!(comps.iter().all(|c| c.id() != u64::MAX));
    }

    #[test]
    fn write_amp_accounts_merges() {
        let t = LsmTree::new(LsmConfig {
            merge_policy: MergePolicyConfig::NoMerge,
            ..LsmConfig::default()
        });
        for i in 0..50 {
            t.put(Value::Int(i), rec("some payload here")).unwrap();
        }
        t.flush();
        let before = t.write_amp();
        for i in 50..100 {
            t.put(Value::Int(i), rec("some payload here")).unwrap();
        }
        t.flush();
        t.merge_all();
        assert!(t.write_amp() > before, "merge must increase write amplification");
        assert!(t.bytes_ingested() > 0);
    }

    #[test]
    fn apply_option_round_trip() {
        let mut c = LsmConfig::default();
        c.apply_option("merge-policy", "tiered").unwrap();
        c.apply_option("merge-size-ratio", "1.5").unwrap();
        assert!(matches!(
            c.merge_policy,
            MergePolicyConfig::Tiered { size_ratio, .. } if (size_ratio - 1.5).abs() < 1e-9
        ));
        c.apply_option("memtable-budget-bytes", "1024").unwrap();
        assert_eq!(c.memtable_budget_bytes, 1024);
        assert!(c.apply_option("merge-max-components", "3").is_err(), "wrong-policy knob");
        assert!(c.apply_option("nope", "1").is_err());
        assert!(c.apply_option("memtable-budget-bytes", "abc").is_err());
        // Durability knobs route through the same entry point.
        c.apply_option("fsync", "never").unwrap();
        assert_eq!(c.durability.fsync, FsyncPolicy::Never);
        c.apply_option("wal", "off").unwrap();
        assert!(!c.durability.wal);
    }

    #[test]
    fn merge_abandons_on_victim_read_error() {
        use crate::persist::{FsyncPolicy, TempDir};
        let tmp = TempDir::new("merge-abandon");
        let config = LsmConfig {
            merge_policy: MergePolicyConfig::NoMerge,
            durability: DurabilityConfig { fsync: FsyncPolicy::Never, ..Default::default() },
            ..LsmConfig::default()
        };
        let t = LsmTree::open_durable(config, tmp.path()).unwrap();
        for i in 0..50 {
            t.put(Value::Int(i), rec("first")).unwrap();
        }
        t.flush();
        for i in 50..100 {
            t.put(Value::Int(i), rec("second")).unwrap();
        }
        t.flush();
        assert_eq!(t.component_count(), 2);

        // Corrupt a payload byte in the older component's first block
        // (8-byte header magic + 12). Its WAL coverage is already
        // retired, so a merge that trusted this truncated stream would
        // lose keys 0..50 permanently.
        let victim = tmp.path().join(component_file_name(0));
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[8 + 12] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();

        let files_before: Vec<_> = std::fs::read_dir(tmp.path())
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .filter(|n| n.to_string_lossy().starts_with("component-"))
            .collect();
        t.merge_all();

        // The merge must be abandoned: stack untouched, victims' files
        // still on disk, no partial output left behind.
        assert_eq!(t.component_count(), 2, "truncated merge was installed");
        assert_eq!(t.merge_count(), 0);
        assert!(t.io_error_count() >= 1, "abandoned merge must be counted");
        let files_after: Vec<_> = std::fs::read_dir(tmp.path())
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.file_name()))
            .filter(|n| n.to_string_lossy().starts_with("component-"))
            .collect();
        assert_eq!(files_before, files_after, "merge abandon must not touch victim files");

        // Reads against the intact component still work; reads that need
        // the corrupt block surface the error instead of "absent".
        assert_eq!(t.get(&Value::Int(70)).unwrap().as_deref(), Some(&Value::str("second")));
        assert!(t.get(&Value::Int(7)).is_err(), "corrupt block must not read as a miss");
    }

    #[test]
    fn in_memory_tree_reports_no_durable_stats() {
        let t = LsmTree::new(LsmConfig::default());
        assert!(!t.is_durable());
        assert!(t.wal_stats().is_none());
        assert!(t.cache_stats().is_none());
        assert!(t.recovery_stats().is_none());
        assert_eq!(t.io_error_count(), 0);
    }
}
