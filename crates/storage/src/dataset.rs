//! A primary-keyed dataset over one LSM tree, with maintained secondary
//! indexes and snapshot scans.

use std::path::Path;
use std::sync::Arc;

use idea_adm::path::FieldPath;
use idea_adm::value::Circle;
use idea_adm::{Datatype, Value};
use parking_lot::RwLock;

use crate::error::StorageError;
use crate::index::{IndexDef, IndexKind, SecondaryIndex};
use crate::lsm::{
    CacheStats, Change, Entry, KeyRange, LsmConfig, LsmTree, RecoveryStats, TreeSnapshot, WalStats,
};
use crate::maintenance::MaintenanceScheduler;
use crate::stats::StorageStats;
use crate::Result;

/// Dataset tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct DatasetConfig {
    pub lsm: LsmConfig,
    /// Skip open-datatype validation on writes (feeds validate at parse
    /// time already).
    pub skip_validation: bool,
}

impl DatasetConfig {
    /// Applies dataset DDL `WITH` options (`merge-policy`,
    /// `memtable-budget-bytes`, …). `merge-policy` is applied first so
    /// policy-specific knobs land on the right policy regardless of
    /// option order.
    pub fn apply_options(&mut self, options: &[(String, String)]) -> Result<()> {
        for (k, v) in options.iter().filter(|(k, _)| k == "merge-policy") {
            self.lsm.apply_option(k, v)?;
        }
        for (k, v) in options.iter().filter(|(k, _)| k != "merge-policy") {
            self.lsm.apply_option(k, v)?;
        }
        Ok(())
    }
}

/// A dataset: `CREATE DATASET Tweets(TweetType) PRIMARY KEY id`.
///
/// Thread-safe. The LSM tree is internally synchronized, so point
/// lookups and snapshot scans (the enrichment-UDF hot path, paper §7.3)
/// never wait on writers or on background maintenance; they share the
/// record allocations via `Arc<Value>` instead of deep-cloning. Writers
/// serialize on the secondary-index lock to keep tree and indexes
/// mutually consistent.
#[derive(Debug)]
pub struct Dataset {
    name: String,
    datatype: Datatype,
    pk_field: FieldPath,
    config: DatasetConfig,
    tree: Arc<LsmTree>,
    /// Secondary indexes. Doubles as the writer lock: every mutation
    /// holds the write guard, so index maintenance and the tree update
    /// are atomic with respect to other writers.
    indexes: RwLock<Vec<(IndexDef, SecondaryIndex)>>,
    stats: StorageStats,
}

impl Dataset {
    pub fn new(
        name: impl Into<String>,
        datatype: Datatype,
        pk_field: &str,
        config: DatasetConfig,
    ) -> Self {
        Dataset {
            name: name.into(),
            datatype,
            pk_field: FieldPath::parse(pk_field),
            tree: LsmTree::new(config.lsm),
            config,
            indexes: RwLock::new(Vec::new()),
            stats: StorageStats::default(),
        }
    }

    /// Opens (or creates) a durable dataset rooted at `dir`: WAL-logged
    /// writes, on-disk components, crash recovery on reopen. Secondary
    /// indexes are rebuilt from the recovered data (they are derived
    /// state and are not logged).
    pub fn open_durable(
        name: impl Into<String>,
        datatype: Datatype,
        pk_field: &str,
        config: DatasetConfig,
        dir: &Path,
    ) -> Result<Dataset> {
        Ok(Dataset {
            name: name.into(),
            datatype,
            pk_field: FieldPath::parse(pk_field),
            tree: LsmTree::open_durable(config.lsm, dir)?,
            config,
            indexes: RwLock::new(Vec::new()),
            stats: StorageStats::default(),
        })
    }

    /// Whether the dataset has a disk presence (WAL + component files).
    pub fn is_durable(&self) -> bool {
        self.tree.is_durable()
    }

    /// Recovery statistics from the durable open, if any.
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.tree.recovery_stats()
    }

    /// WAL activity counters (durable datasets with the WAL enabled).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.tree.wal_stats()
    }

    /// Block-cache counters (durable datasets only).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.tree.cache_stats()
    }

    /// Maintenance-path I/O failures absorbed without data loss.
    pub fn io_error_count(&self) -> u64 {
        self.tree.io_error_count()
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn datatype(&self) -> &Datatype {
        &self.datatype
    }

    pub fn primary_key_field(&self) -> &FieldPath {
        &self.pk_field
    }

    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    pub fn lsm_config(&self) -> &LsmConfig {
        self.tree.config()
    }

    /// The merge policy's name (for metrics and bench reports).
    pub fn merge_policy_name(&self) -> &'static str {
        self.tree.policy_name()
    }

    /// Routes this dataset's flushes/merges through a shared background
    /// scheduler (engine-owned). Without one, maintenance runs inline on
    /// the writer thread.
    pub fn attach_maintenance(&self, scheduler: Arc<MaintenanceScheduler>) {
        self.tree.attach_maintenance(scheduler);
    }

    /// Tags maintenance with the cluster node hosting this partition
    /// (fault-injection target).
    pub fn set_node_hint(&self, node: usize) {
        self.tree.set_node_hint(node);
    }

    fn extract_pk(&self, record: &Value) -> Result<Value> {
        let pk = self.pk_field.get(record);
        match pk {
            Value::Missing | Value::Null => Err(StorageError::BadPrimaryKey(format!(
                "record in {} lacks primary key field {}",
                self.name, self.pk_field
            ))),
            Value::Array(_) | Value::Object(_) => Err(StorageError::BadPrimaryKey(format!(
                "primary key field {} must be scalar",
                self.pk_field
            ))),
            v => Ok(v.clone()),
        }
    }

    fn validate(&self, record: &Value) -> Result<()> {
        if self.config.skip_validation {
            return Ok(());
        }
        self.datatype.validate(record).map_err(|e| StorageError::Type(e.to_string()))
    }

    fn record_put(&self, key: Value, value: Entry) -> Result<()> {
        let stalled = self.tree.put(key, value)?;
        if !stalled.is_zero() {
            self.stats.record_put_stall(stalled.as_nanos() as u64);
        }
        Ok(())
    }

    /// `INSERT`: fails on duplicate primary key.
    pub fn insert(&self, record: Value) -> Result<()> {
        self.validate(&record)?;
        let pk = self.extract_pk(&record)?;
        let mut indexes = self.indexes.write();
        if self.tree.contains(&pk)? {
            return Err(StorageError::DuplicateKey(pk.to_string()));
        }
        for (def, ix) in indexes.iter_mut() {
            ix.insert(def, &pk, &record)?;
        }
        drop(indexes);
        self.record_put(pk, Some(Arc::new(record)))?;
        self.stats.record_insert();
        Ok(())
    }

    /// `UPSERT`: "inserts an object if there is no other object with the
    /// specified key; if not, it replaces the previous object" (paper
    /// §3.3 footnote). The old record is only looked up when secondary
    /// indexes need de-maintenance — the common no-index ingestion path
    /// is a blind write.
    pub fn upsert(&self, record: Value) -> Result<()> {
        self.validate(&record)?;
        let pk = self.extract_pk(&record)?;
        let mut indexes = self.indexes.write();
        if !indexes.is_empty() {
            if let Some(old) = self.tree.get(&pk)? {
                for (def, ix) in indexes.iter_mut() {
                    ix.remove(def, &pk, &old);
                }
            }
            for (def, ix) in indexes.iter_mut() {
                ix.insert(def, &pk, &record)?;
            }
        }
        drop(indexes);
        self.record_put(pk, Some(Arc::new(record)))?;
        self.stats.record_upsert();
        Ok(())
    }

    /// `DELETE` by primary key; returns whether a record was visible.
    pub fn delete(&self, pk: &Value) -> Result<bool> {
        let mut indexes = self.indexes.write();
        let Some(old) = self.tree.get(pk)? else { return Ok(false) };
        for (def, ix) in indexes.iter_mut() {
            ix.remove(def, pk, &old);
        }
        drop(indexes);
        self.record_put(pk.clone(), None)?;
        self.stats.record_delete();
        Ok(true)
    }

    /// Point lookup by primary key. Clone-free: the returned `Arc`
    /// shares the stored record. Never blocks on writers or maintenance.
    /// An I/O or checksum failure on a disk component surfaces as an
    /// error instead of a false "absent".
    pub fn get(&self, pk: &Value) -> Result<Option<Arc<Value>>> {
        self.stats.record_lookup();
        self.tree.get(pk)
    }

    /// Bulk-loads records straight into an immutable component (initial
    /// reference-data load), bypassing the memtable like AsterixDB's
    /// `LOAD DATASET`. Fails if the dataset is non-empty.
    pub fn bulk_load(&self, records: Vec<Value>) -> Result<()> {
        let mut pairs: Vec<(Value, Entry)> = Vec::with_capacity(records.len());
        for r in records {
            self.validate(&r)?;
            let pk = self.extract_pk(&r)?;
            pairs.push((pk, Some(Arc::new(r))));
        }
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        for w in pairs.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(StorageError::DuplicateKey(w[0].0.to_string()));
            }
        }
        let mut indexes = self.indexes.write();
        if self.tree.live_count() != 0 || self.tree.memtable_len() != 0 {
            return Err(StorageError::BadPrimaryKey(format!(
                "bulk load into non-empty dataset {}",
                self.name
            )));
        }
        for (pk, rec) in &pairs {
            let rec = rec.as_ref().unwrap();
            for (def, ix) in indexes.iter_mut() {
                ix.insert(def, pk, rec)?;
            }
        }
        let n = pairs.len() as u64;
        self.tree.bulk_install(pairs)?;
        drop(indexes);
        self.stats.record_bulk_load(n);
        Ok(())
    }

    /// Creates a secondary index, building it over the current contents.
    pub fn create_index(&self, def: IndexDef) -> Result<()> {
        let mut indexes = self.indexes.write();
        if indexes.iter().any(|(d, _)| d.name == def.name) {
            return Err(StorageError::BadIndex(format!("index {} already exists", def.name)));
        }
        let mut ix = SecondaryIndex::new(&def);
        for (pk, rec) in self.tree.snapshot().iter() {
            ix.insert(&def, &pk, &rec)?;
        }
        indexes.push((def, ix));
        Ok(())
    }

    /// Drops a secondary index.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        let mut indexes = self.indexes.write();
        let before = indexes.len();
        indexes.retain(|(d, _)| d.name != name);
        if indexes.len() == before {
            return Err(StorageError::UnknownIndex(name.to_owned()));
        }
        Ok(())
    }

    /// The names and definitions of all secondary indexes.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.read().iter().map(|(d, _)| d.clone()).collect()
    }

    /// Finds an index of `kind` on `field`, if any (the optimizer's
    /// access-method selection consults this).
    pub fn find_index(&self, field: &FieldPath, kind: IndexKind) -> Option<String> {
        self.indexes
            .read()
            .iter()
            .find(|(d, _)| d.kind == kind && &d.field == field)
            .map(|(d, _)| d.name.clone())
    }

    /// Equality probe through a secondary B-tree index: returns matching
    /// records (`Arc`-shared, not cloned).
    pub fn index_lookup(&self, index: &str, key: &Value) -> Result<Vec<Arc<Value>>> {
        self.stats.record_index_probe();
        let indexes = self.indexes.read();
        let (_, ix) = indexes
            .iter()
            .find(|(d, _)| d.name == index)
            .ok_or_else(|| StorageError::UnknownIndex(index.to_owned()))?;
        let SecondaryIndex::BTree(btree) = ix else {
            return Err(StorageError::BadIndex(format!("{index} is not a B-tree index")));
        };
        let mut out = Vec::new();
        for pk in btree.lookup(key) {
            if let Some(rec) = self.tree.get(pk)? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Spatial probe through an R-tree index: records whose indexed point
    /// lies within `rect`.
    pub fn index_query_rect(
        &self,
        index: &str,
        rect: &idea_adm::value::Rectangle,
    ) -> Result<Vec<Arc<Value>>> {
        self.stats.record_index_probe();
        let indexes = self.indexes.read();
        let (_, ix) = indexes
            .iter()
            .find(|(d, _)| d.name == index)
            .ok_or_else(|| StorageError::UnknownIndex(index.to_owned()))?;
        let SecondaryIndex::RTree(rtree) = ix else {
            return Err(StorageError::BadIndex(format!("{index} is not an R-tree index")));
        };
        let mut out = Vec::new();
        for pk in rtree.query_rect(rect) {
            if let Some(rec) = self.tree.get(pk)? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Spatial probe through an R-tree index: records whose indexed point
    /// lies within `circle`.
    pub fn index_query_circle(&self, index: &str, circle: &Circle) -> Result<Vec<Arc<Value>>> {
        self.stats.record_index_probe();
        let indexes = self.indexes.read();
        let (_, ix) = indexes
            .iter()
            .find(|(d, _)| d.name == index)
            .ok_or_else(|| StorageError::UnknownIndex(index.to_owned()))?;
        let SecondaryIndex::RTree(rtree) = ix else {
            return Err(StorageError::BadIndex(format!("{index} is not an R-tree index")));
        };
        let mut out = Vec::new();
        for (_, pk) in rtree.query_circle(circle) {
            if let Some(rec) = self.tree.get(pk)? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    /// Takes a consistent snapshot for scanning (record-level
    /// consistency: the snapshot pins the current components and copies
    /// the — normally small — memtable view; writes after the snapshot
    /// are invisible to it, i.e. are "picked up by the next invocation",
    /// paper §5.1).
    pub fn snapshot(&self) -> DatasetSnapshot {
        self.stats.record_scan();
        DatasetSnapshot { snap: self.tree.snapshot() }
    }

    /// Number of live records. O(1): the tree maintains the count.
    pub fn len(&self) -> usize {
        self.tree.live_count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forces a synchronous memtable flush (all buffered writes land in
    /// components before this returns).
    pub fn flush(&self) {
        self.tree.flush();
    }

    /// Forces a synchronous full merge of immutable components.
    pub fn merge(&self) {
        self.tree.merge_all();
    }

    /// `(memtable entries, component count)` — test/diagnostic hook.
    pub fn lsm_shape(&self) -> (usize, usize) {
        (self.tree.memtable_len(), self.tree.component_count())
    }

    /// Lifetime memtable-flush count (observability probe source).
    pub fn flush_count(&self) -> u64 {
        self.tree.flush_count()
    }

    /// Lifetime component-merge count (observability probe source).
    pub fn merge_count(&self) -> u64 {
        self.tree.merge_count()
    }

    /// Current number of immutable disk components.
    pub fn component_count(&self) -> usize {
        self.tree.component_count()
    }

    /// Bytes accepted by `put`/`bulk_load` (write-amp denominator).
    pub fn bytes_ingested(&self) -> u64 {
        self.tree.bytes_ingested()
    }

    /// Bytes written by flushes and merges (write-amp numerator).
    pub fn bytes_written(&self) -> u64 {
        self.tree.bytes_written()
    }

    /// Write amplification: maintenance bytes per ingested byte.
    pub fn write_amp(&self) -> f64 {
        self.tree.write_amp()
    }

    /// Total writer time spent stalled on flush back-pressure.
    pub fn stall_nanos(&self) -> u64 {
        self.tree.stall_nanos()
    }
}

/// A pinned, immutable view of a dataset used by scans: reference-data
/// reads inside one computing-job invocation all see this view. Records
/// are `Arc`-shared with the store.
#[derive(Debug, Clone)]
pub struct DatasetSnapshot {
    snap: TreeSnapshot,
}

impl DatasetSnapshot {
    /// Iterates live records in primary-key order. Records are
    /// `Arc`-shared (or block-cache-shared for disk components), never
    /// deep-cloned.
    pub fn iter(&self) -> impl Iterator<Item = Arc<Value>> + '_ {
        self.iter_range(&KeyRange::all())
    }

    /// Iterates live records whose primary key lies in `range`, in
    /// primary-key order — a bounded scan that seeks every memtable run
    /// and component instead of reading the whole partition.
    pub fn iter_range(&self, range: &KeyRange) -> impl Iterator<Item = Arc<Value>> + '_ {
        self.snap.iter_range(range).map(|(_, v)| v)
    }

    /// Whether `other` pins exactly the same view of the partition
    /// ([`TreeSnapshot::same_view`](crate::lsm::TreeSnapshot::same_view)):
    /// `true` only if no write reached the partition between the two.
    pub fn same_view(&self, other: &DatasetSnapshot) -> bool {
        self.snap.same_view(&other.snap)
    }

    /// The records that differ between `older` and this view of the
    /// partition, in primary-key order, or `None` when a flush or merge
    /// landed between them
    /// ([`TreeSnapshot::changes_since`](crate::lsm::TreeSnapshot::changes_since)).
    pub fn changes_since(&self, older: &DatasetSnapshot) -> Result<Option<Vec<Change>>> {
        self.snap.changes_since(&older.snap)
    }

    /// A page-level read handle when this snapshot is exactly one
    /// columnar component with no memtable overlay — the shape whose
    /// typed pages a vectorized scan can slice into batches directly,
    /// with no per-record transpose. `None` otherwise; callers then use
    /// the (always-correct) row iteration above.
    pub fn columnar(&self) -> Option<crate::persist::ColumnarReader> {
        self.snap.single_columnar()
    }

    /// Iterates `(primary key, record)` pairs in primary-key order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (Value, Arc<Value>)> + '_ {
        self.snap.iter()
    }

    /// Iterates live records in primary-key order, `batch_rows` at a
    /// time — the batch-granularity scan surface for vectorized
    /// executors. The final chunk may be short; chunks are never empty.
    /// Records stay `Arc`-shared; only the chunk `Vec`s are allocated.
    pub fn iter_batches(&self, batch_rows: usize) -> impl Iterator<Item = Vec<Arc<Value>>> + '_ {
        self.iter_batches_range(&KeyRange::all(), batch_rows)
    }

    /// [`iter_batches`](Self::iter_batches) over the records whose
    /// primary key lies in `range`.
    pub fn iter_batches_range(
        &self,
        range: &KeyRange,
        batch_rows: usize,
    ) -> impl Iterator<Item = Vec<Arc<Value>>> + '_ {
        let batch_rows = batch_rows.max(1);
        let mut it = self.iter_range(range);
        std::iter::from_fn(move || {
            let chunk: Vec<Arc<Value>> = it.by_ref().take(batch_rows).collect();
            if chunk.is_empty() {
                None
            } else {
                Some(chunk)
            }
        })
    }

    /// Point lookup within the snapshot. An I/O or checksum failure on
    /// a disk component surfaces as an error instead of a false
    /// "absent".
    pub fn get(&self, pk: &Value) -> Result<Option<Arc<Value>>> {
        self.snap.get(pk)
    }

    /// Live record count (linear).
    pub fn len(&self) -> usize {
        self.snap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.snap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_adm::TypeTag;

    fn words_dataset() -> Dataset {
        let dt = Datatype::new("SensitiveWordType")
            .field("wid", TypeTag::Int64)
            .field("country", TypeTag::String)
            .field("word", TypeTag::String);
        Dataset::new("SensitiveWords", dt, "wid", DatasetConfig::default())
    }

    fn word(id: i64, country: &str, w: &str) -> Value {
        Value::object([
            ("wid", Value::Int(id)),
            ("country", Value::str(country)),
            ("word", Value::str(w)),
        ])
    }

    #[test]
    fn insert_rejects_duplicates_upsert_replaces() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "bomb")).unwrap();
        assert!(matches!(ds.insert(word(1, "US", "other")), Err(StorageError::DuplicateKey(_))));
        ds.upsert(word(1, "US", "threat")).unwrap();
        let got = ds.get(&Value::Int(1)).unwrap().unwrap();
        assert_eq!(got.as_object().unwrap().get("word"), Some(&Value::str("threat")));
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn delete_hides_record() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "bomb")).unwrap();
        assert!(ds.delete(&Value::Int(1)).unwrap());
        assert!(!ds.delete(&Value::Int(1)).unwrap());
        assert!(ds.get(&Value::Int(1)).unwrap().is_none());
        assert_eq!(ds.len(), 0);
    }

    #[test]
    fn validation_enforced() {
        let ds = words_dataset();
        let bad = Value::object([("wid", Value::Int(1)), ("country", Value::str("US"))]);
        assert!(matches!(ds.insert(bad), Err(StorageError::Type(_))));
    }

    #[test]
    fn missing_pk_rejected() {
        let ds = words_dataset();
        let mut rec = word(1, "US", "bomb");
        rec.as_object_mut().unwrap().remove("wid");
        assert!(ds.insert(rec).is_err());
    }

    #[test]
    fn get_shares_the_stored_allocation() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "bomb")).unwrap();
        let a = ds.get(&Value::Int(1)).unwrap().unwrap();
        let b = ds.get(&Value::Int(1)).unwrap().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "point lookups must not deep-clone");
    }

    #[test]
    fn snapshot_isolated_from_later_writes() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "bomb")).unwrap();
        let snap = ds.snapshot();
        ds.insert(word(2, "FR", "bombe")).unwrap();
        ds.upsert(word(1, "US", "changed")).unwrap();
        assert_eq!(snap.len(), 1);
        let rec = snap.get(&Value::Int(1)).unwrap().unwrap();
        assert_eq!(rec.as_object().unwrap().get("word"), Some(&Value::str("bomb")));
        // A fresh snapshot (the next computing job) sees both.
        assert_eq!(ds.snapshot().len(), 2);
    }

    #[test]
    fn same_view_until_a_write_moves_the_snapshot() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "bomb")).unwrap();
        ds.insert(word(2, "US", "gun")).unwrap();
        let mut prev = ds.snapshot();
        assert!(prev.same_view(&ds.snapshot()), "an unwritten tree yields one view");
        let writes: [&dyn Fn(); 5] = [
            &|| ds.upsert(word(1, "US", "threat")).unwrap(),
            &|| assert!(ds.delete(&Value::Int(2)).unwrap()),
            &|| ds.flush(),
            &|| {
                ds.insert(word(3, "FR", "bombe")).unwrap();
                ds.flush();
            },
            &|| ds.merge(),
        ];
        for (i, write) in writes.iter().enumerate() {
            write();
            let next = ds.snapshot();
            assert!(!prev.same_view(&next), "write {i} must move the view");
            assert!(next.same_view(&ds.snapshot()), "view {i} is stable while unwritten");
            prev = next;
        }
    }

    #[test]
    fn changes_since_lists_writes_until_a_flush() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "bomb")).unwrap();
        ds.insert(word(2, "US", "gun")).unwrap();
        ds.flush();
        ds.insert(word(3, "FR", "bombe")).unwrap();
        let old = ds.snapshot();
        assert!(ds.snapshot().changes_since(&old).unwrap().unwrap().is_empty());

        ds.upsert(word(1, "US", "threat")).unwrap();
        assert!(ds.delete(&Value::Int(3)).unwrap());
        ds.insert(word(4, "DE", "bombe")).unwrap();
        let new = ds.snapshot();
        let changes = new.changes_since(&old).unwrap().unwrap();
        let word_of = |r: &Option<Arc<Value>>| {
            r.as_ref().map(|r| r.as_object().unwrap().get("word").unwrap().clone())
        };
        let got: Vec<_> = changes
            .iter()
            .map(|c| (c.key.clone(), word_of(&c.before), word_of(&c.after)))
            .collect();
        assert_eq!(
            got,
            vec![
                // The older record came from the flushed component.
                (Value::Int(1), Some(Value::str("bomb")), Some(Value::str("threat"))),
                (Value::Int(3), Some(Value::str("bombe")), None),
                (Value::Int(4), None, Some(Value::str("bombe"))),
            ]
        );

        ds.flush();
        assert!(ds.snapshot().changes_since(&new).unwrap().is_none(), "a flush forces a rescan");
    }

    #[test]
    fn snapshot_merges_memtable_and_components() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "a")).unwrap();
        ds.insert(word(2, "US", "b")).unwrap();
        ds.flush();
        ds.upsert(word(2, "US", "b2")).unwrap();
        ds.insert(word(3, "US", "c")).unwrap();
        let snap = ds.snapshot();
        let words: Vec<String> = snap
            .iter()
            .map(|r| r.as_object().unwrap().get("word").unwrap().as_str().unwrap().to_owned())
            .collect();
        assert_eq!(words, vec!["a", "b2", "c"]);
    }

    #[test]
    fn btree_index_maintained_across_upsert_delete() {
        let ds = words_dataset();
        ds.create_index(IndexDef::btree("word_country", "country")).unwrap();
        ds.insert(word(1, "US", "bomb")).unwrap();
        ds.insert(word(2, "US", "gun")).unwrap();
        ds.insert(word(3, "FR", "bombe")).unwrap();
        assert_eq!(ds.index_lookup("word_country", &Value::str("US")).unwrap().len(), 2);
        ds.upsert(word(2, "DE", "gewehr")).unwrap();
        assert_eq!(ds.index_lookup("word_country", &Value::str("US")).unwrap().len(), 1);
        assert_eq!(ds.index_lookup("word_country", &Value::str("DE")).unwrap().len(), 1);
        ds.delete(&Value::Int(1)).unwrap();
        assert!(ds.index_lookup("word_country", &Value::str("US")).unwrap().is_empty());
    }

    #[test]
    fn create_index_builds_over_existing_data() {
        let ds = words_dataset();
        for i in 0..20 {
            ds.insert(word(i, if i % 2 == 0 { "US" } else { "FR" }, "w")).unwrap();
        }
        ds.create_index(IndexDef::btree("by_country", "country")).unwrap();
        assert_eq!(ds.index_lookup("by_country", &Value::str("US")).unwrap().len(), 10);
    }

    #[test]
    fn rtree_index_over_points() {
        let dt = Datatype::new("MonumentType")
            .field("monument_id", TypeTag::String)
            .field("monument_location", TypeTag::Point);
        let ds = Dataset::new("MonumentList", dt, "monument_id", DatasetConfig::default());
        ds.create_index(IndexDef::rtree("loc", "monument_location")).unwrap();
        for i in 0..100 {
            ds.insert(Value::object([
                ("monument_id", Value::str(format!("m{i}"))),
                ("monument_location", Value::point(i as f64, 0.0)),
            ]))
            .unwrap();
        }
        let hits = ds
            .index_query_circle("loc", &Circle::new(idea_adm::value::Point::new(10.0, 0.0), 1.5))
            .unwrap();
        assert_eq!(hits.len(), 3); // 9, 10, 11
    }

    #[test]
    fn bulk_load_then_point_get() {
        let ds = words_dataset();
        let recs: Vec<Value> = (0..1000).map(|i| word(i, "US", "w")).collect();
        ds.bulk_load(recs).unwrap();
        assert_eq!(ds.len(), 1000);
        assert!(ds.get(&Value::Int(500)).unwrap().is_some());
        let (mem, comps) = ds.lsm_shape();
        assert_eq!(mem, 0, "bulk load bypasses the memtable");
        assert_eq!(comps, 1);
    }

    #[test]
    fn bulk_load_into_nonempty_rejected() {
        let ds = words_dataset();
        ds.insert(word(1, "US", "x")).unwrap();
        assert!(ds.bulk_load(vec![word(2, "US", "y")]).is_err());
    }

    #[test]
    fn updates_activate_memtable() {
        // The Figure 27 mechanism: updates make the in-memory component
        // non-empty, changing the access path for reference data.
        let ds = words_dataset();
        ds.bulk_load((0..100).map(|i| word(i, "US", "w")).collect()).unwrap();
        assert_eq!(ds.lsm_shape().0, 0);
        ds.upsert(word(5, "US", "updated")).unwrap();
        assert_eq!(ds.lsm_shape().0, 1);
        let snap = ds.snapshot();
        let r = snap.get(&Value::Int(5)).unwrap().unwrap();
        assert_eq!(r.as_object().unwrap().get("word"), Some(&Value::str("updated")));
    }

    #[test]
    fn upsert_after_bulk_load_keeps_len_exact() {
        // The maintained live counter must see through components: an
        // upsert of a bulk-loaded key is a replacement, not an addition.
        let ds = words_dataset();
        ds.bulk_load((0..100).map(|i| word(i, "US", "w")).collect()).unwrap();
        ds.upsert(word(5, "US", "updated")).unwrap();
        ds.upsert(word(100, "US", "fresh")).unwrap();
        ds.delete(&Value::Int(6)).unwrap();
        assert_eq!(ds.len(), 100);
    }

    #[test]
    fn dataset_config_options() {
        let mut cfg = DatasetConfig::default();
        cfg.apply_options(&[
            // Knob listed before the policy: must still apply cleanly.
            ("merge-max-components".into(), "7".into()),
            ("merge-policy".into(), "constant".into()),
        ])
        .unwrap();
        assert!(matches!(
            cfg.lsm.merge_policy,
            crate::lsm::MergePolicyConfig::Constant { max_components: 7 }
        ));
        assert!(DatasetConfig::default().apply_options(&[("bad".into(), "1".into())]).is_err());
    }
}
