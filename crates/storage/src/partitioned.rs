//! Hash-partitioned datasets: one [`Dataset`] partition per cluster
//! node, routed by primary-key hash — the layout the storage job's Hash
//! Partitioner writes into (paper Figure 23).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

use idea_adm::{Datatype, Value};

use crate::dataset::{Dataset, DatasetConfig, DatasetSnapshot};
use crate::index::IndexDef;
use crate::maintenance::MaintenanceScheduler;
use crate::Result;

/// A dataset split into `n` hash partitions.
#[derive(Debug, Clone)]
pub struct PartitionedDataset {
    partitions: Vec<Arc<Dataset>>,
}

/// Routes a primary key to a partition; also used by the storage job's
/// hash-partition connector so routing agrees everywhere.
pub fn hash_partition(pk: &Value, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    pk.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

impl PartitionedDataset {
    pub fn new(
        name: &str,
        datatype: Datatype,
        pk_field: &str,
        partitions: usize,
        config: DatasetConfig,
    ) -> Self {
        assert!(partitions > 0, "need at least one partition");
        PartitionedDataset {
            partitions: (0..partitions)
                .map(|p| {
                    let ds = Dataset::new(
                        format!("{name}#{p}"),
                        datatype.clone(),
                        pk_field,
                        config.clone(),
                    );
                    // Partition p lives on cluster node p; maintenance
                    // tasks carry the hint for fault targeting.
                    ds.set_node_hint(p);
                    Arc::new(ds)
                })
                .collect(),
        }
    }

    /// Opens (or creates) a durable partitioned dataset under `base`:
    /// each partition recovers from (and logs to) its own directory,
    /// `base/p0`, `base/p1`, … — per-partition WALs, as in AsterixDB's
    /// per-partition transaction logs.
    pub fn open_durable(
        name: &str,
        datatype: Datatype,
        pk_field: &str,
        partitions: usize,
        config: DatasetConfig,
        base: &Path,
    ) -> Result<Self> {
        assert!(partitions > 0, "need at least one partition");
        let mut parts = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let ds = Dataset::open_durable(
                format!("{name}#{p}"),
                datatype.clone(),
                pk_field,
                config.clone(),
                &base.join(format!("p{p}")),
            )?;
            ds.set_node_hint(p);
            parts.push(Arc::new(ds));
        }
        Ok(PartitionedDataset { partitions: parts })
    }

    /// Routes every partition's flushes/merges through a shared
    /// background scheduler.
    pub fn attach_maintenance(&self, scheduler: &Arc<MaintenanceScheduler>) {
        for p in &self.partitions {
            p.attach_maintenance(Arc::clone(scheduler));
        }
    }

    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// The partition that owns primary key `pk`.
    pub fn partition_for(&self, pk: &Value) -> &Arc<Dataset> {
        &self.partitions[hash_partition(pk, self.partitions.len())]
    }

    /// Direct access to partition `p` (the storage job on node `p`
    /// writes only here).
    pub fn partition(&self, p: usize) -> &Arc<Dataset> {
        &self.partitions[p]
    }

    pub fn partitions(&self) -> &[Arc<Dataset>] {
        &self.partitions
    }

    /// Routed insert.
    pub fn insert(&self, record: Value) -> Result<()> {
        let pk = self.partitions[0].primary_key_field().get(&record).clone();
        self.partition_for(&pk).insert(record)
    }

    /// Routed upsert.
    pub fn upsert(&self, record: Value) -> Result<()> {
        let pk = self.partitions[0].primary_key_field().get(&record).clone();
        self.partition_for(&pk).upsert(record)
    }

    /// Routed point lookup (clone-free: the `Arc` shares the stored
    /// record). A disk-component read failure is an error, not
    /// "absent".
    pub fn get(&self, pk: &Value) -> Result<Option<Arc<Value>>> {
        self.partition_for(pk).get(pk)
    }

    /// Bulk-loads records, routing each to its partition.
    pub fn bulk_load(&self, records: Vec<Value>) -> Result<()> {
        let n = self.partitions.len();
        let mut buckets: Vec<Vec<Value>> = (0..n).map(|_| Vec::new()).collect();
        for r in records {
            let pk = self.partitions[0].primary_key_field().get(&r).clone();
            buckets[hash_partition(&pk, n)].push(r);
        }
        for (p, bucket) in buckets.into_iter().enumerate() {
            self.partitions[p].bulk_load(bucket)?;
        }
        Ok(())
    }

    /// Creates the same secondary index on every partition (AsterixDB
    /// secondary indexes are local, i.e. partitioned with the primary).
    pub fn create_index(&self, def: IndexDef) -> Result<()> {
        for p in &self.partitions {
            p.create_index(def.clone())?;
        }
        Ok(())
    }

    /// Snapshots every partition (a full-dataset scan).
    pub fn snapshot_all(&self) -> Vec<DatasetSnapshot> {
        self.partitions.iter().map(|p| p.snapshot()).collect()
    }

    /// Drops the named secondary index from every partition.
    pub fn drop_index(&self, name: &str) -> Result<()> {
        for p in &self.partitions {
            p.drop_index(name)?;
        }
        Ok(())
    }

    /// Total live records across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_adm::TypeTag;

    fn pd(parts: usize) -> PartitionedDataset {
        let dt = Datatype::new("TweetType")
            .field("id", TypeTag::Int64)
            .field("text", TypeTag::String);
        PartitionedDataset::new("Tweets", dt, "id", parts, DatasetConfig::default())
    }

    fn tweet(id: i64) -> Value {
        Value::object([("id", Value::Int(id)), ("text", Value::str(format!("tweet {id}")))])
    }

    #[test]
    fn routing_is_stable_and_total() {
        let d = pd(3);
        for i in 0..300 {
            d.insert(tweet(i)).unwrap();
        }
        assert_eq!(d.len(), 300);
        for i in 0..300 {
            assert!(d.get(&Value::Int(i)).unwrap().is_some(), "tweet {i} routed consistently");
        }
        // All partitions should receive a nontrivial share.
        for p in 0..3 {
            let n = d.partition(p).len();
            assert!(n > 50, "partition {p} got {n} records");
        }
    }

    #[test]
    fn bulk_load_routes() {
        let d = pd(4);
        d.bulk_load((0..100).map(tweet).collect()).unwrap();
        assert_eq!(d.len(), 100);
        assert!(d.get(&Value::Int(42)).unwrap().is_some());
    }

    #[test]
    fn single_partition_degenerates_gracefully() {
        let d = pd(1);
        d.insert(tweet(1)).unwrap();
        assert_eq!(d.partition(0).len(), 1);
    }
}
