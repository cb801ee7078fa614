//! The source side of ingestion: [`SourceFactory`] instantiates one
//! offset-aware [`SourceConnector`] per intake partition.
//!
//! A connector reports the offset of every record it hands out and can
//! `seek` back to a committed offset, so a restarted feed resumes from
//! the last checkpoint instead of re-pulling the source from record
//! zero.

use std::path::PathBuf;
use std::sync::Arc;

use idea_connect::{
    CdcConnector, ConnectorError, FileFormat, FileTailConnector, GeneratorSource, LogConnector,
    Paced, SocketConnector, SourceConnector,
};

/// Instantiates the [`SourceConnector`] for intake partition
/// `partition` of `partitions`. Fallible at two points: the factory
/// itself (bad configuration) and the connector's later
/// [`open`](SourceConnector::open) (unreachable source), both of which
/// surface through the feed instead of panicking an intake task.
#[derive(Clone)]
pub struct SourceFactory(Arc<ConnectorFn>);

/// The boxed constructor a [`SourceFactory`] wraps:
/// `(partition, partitions) -> connector`.
type ConnectorFn = dyn Fn(usize, usize) -> crate::Result<Box<dyn SourceConnector>> + Send + Sync;

impl SourceFactory {
    /// Wraps a connector-constructing closure.
    pub fn new<C: SourceConnector + 'static>(
        f: impl Fn(usize, usize) -> crate::Result<C> + Send + Sync + 'static,
    ) -> SourceFactory {
        SourceFactory(Arc::new(move |partition, partitions| {
            Ok(Box::new(f(partition, partitions)?) as Box<dyn SourceConnector>)
        }))
    }

    /// Instantiates the connector for one intake partition.
    pub fn create(
        &self,
        partition: usize,
        partitions: usize,
    ) -> crate::Result<Box<dyn SourceConnector>> {
        (self.0)(partition, partitions)
    }

    /// Reads a file-backed partitioned log (see
    /// [`idea_connect::PartitionedLog`]): intake partition `p` tails log
    /// partition `p` at `root/p<p>/`.
    pub fn logfile(root: impl Into<PathBuf>) -> SourceFactory {
        let root = root.into();
        SourceFactory::new(move |partition, _| Ok(LogConnector::new(&root, partition)))
    }

    /// Reads a CDC update stream (upsert/delete envelopes) from a
    /// partitioned log at `root`.
    pub fn cdc(root: impl Into<PathBuf>) -> SourceFactory {
        let root = root.into();
        SourceFactory::new(move |partition, _| Ok(CdcConnector::new(&root, partition)))
    }

    /// Tails one CSV/JSON-lines file per intake partition; partition `p`
    /// reads `paths[p]`.
    pub fn file_tail(paths: Vec<PathBuf>, format: FileFormat, follow: bool) -> SourceFactory {
        SourceFactory::new(move |partition, _| {
            let path = paths.get(partition).ok_or_else(|| {
                crate::IngestError::from(ConnectorError::Config(format!(
                    "filetail source has {} path(s) but intake partition {partition} needs one",
                    paths.len()
                )))
            })?;
            Ok(FileTailConnector::new(path, format, follow))
        })
    }

    /// The paper's `socket_adapter` as a connector source: intake
    /// partition `p` binds `addrs[p % addrs.len()]` (see
    /// [`SocketConnector`]). Binding happens here, so a bad address
    /// surfaces through the feed instead of panicking the intake task.
    pub fn socket(addrs: Vec<String>) -> SourceFactory {
        SourceFactory::new(move |partition, _| {
            if addrs.is_empty() {
                return Err(crate::IngestError::Feed("socket source has no addresses".to_owned()));
            }
            let addr = &addrs[partition % addrs.len()];
            SocketConnector::bind(addr).map_err(|e| {
                crate::IngestError::Feed(format!("socket adapter cannot bind {addr}: {e}"))
            })
        })
    }

    /// Replays `records` from memory, split round-robin across intake
    /// partitions: partition `p` of `n` emits records `p, p + n, p + 2n,
    /// …`. Every partition shares one `Arc`; records are cloned only as
    /// they are emitted, and offsets are per-partition record counts
    /// (see [`GeneratorSource`]).
    pub fn records(records: Vec<String>) -> SourceFactory {
        let records = Arc::new(records);
        SourceFactory::new(move |partition, partitions| {
            let stride = partitions.max(1);
            let count = records.len().saturating_sub(partition).div_ceil(stride);
            let records = records.clone();
            Ok(GeneratorSource::new(count as u64, move |k| {
                records[partition + k as usize * stride].clone()
            }))
        })
    }

    /// Caps every partition's connector at `rate` records per second
    /// (see [`Paced`]).
    pub fn paced(self, rate: f64) -> SourceFactory {
        SourceFactory::new(move |partition, partitions| {
            Ok(Paced::new(self.create(partition, partitions)?, rate))
        })
    }
}

impl std::fmt::Debug for SourceFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SourceFactory(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idea_adm::{json, Value};
    use idea_connect::{parse_envelope, CdcLog, CdcOp, PartitionedLog, SourceRecord};
    use idea_storage::TempDir;

    const N: usize = 12;

    fn record(i: usize) -> String {
        format!(r#"{{"id": {i}}}"#)
    }

    /// Reads until `limit` records arrived or EOF; returns the records
    /// and whether EOF was reached.
    fn read(c: &mut dyn SourceConnector, limit: usize) -> (Vec<SourceRecord>, bool) {
        let mut out = Vec::new();
        while out.len() < limit {
            let b = c.read_batch((limit - out.len()).min(5)).unwrap();
            assert!(b.records.len() <= 5, "read_batch honours max");
            out.extend(b.records);
            if b.eof {
                return (out, true);
            }
        }
        (out, false)
    }

    /// The row a payload carries (CDC envelopes unwrapped).
    fn row(payload: &str) -> Value {
        match parse_envelope(payload) {
            Ok(CdcOp::Upsert(row)) => row,
            _ => json::parse(payload.as_bytes()).unwrap(),
        }
    }

    /// Every connector honours the offset contract: reading `k` records,
    /// committing `position()` and seeking a fresh instance there
    /// resumes with exactly the records that followed; `seek(0)`
    /// rewinds; seeking to the last record's offset reads EOF, and
    /// seeking past the end either reads EOF or is refused.
    #[test]
    fn every_connector_resumes_exactly_from_its_position() {
        let tmp = TempDir::new("source-contract");
        let root = tmp.path();
        let mut log = PartitionedLog::create(root.join("log"), 1).unwrap();
        let mut cdc = CdcLog::create(root.join("cdc"), 1).unwrap();
        let mut lines = String::new();
        for i in 0..N {
            log.append(0, &record(i)).unwrap();
            cdc.upsert(0, &row(&record(i))).unwrap();
            lines.push_str(&record(i));
            lines.push('\n');
        }
        log.seal().unwrap();
        cdc.seal().unwrap();
        let tail = root.join("tail.jsonl");
        std::fs::write(&tail, lines).unwrap();
        let all: Vec<Value> = (0..N).map(|i| row(&record(i))).collect();

        type Make = Box<dyn Fn() -> Box<dyn SourceConnector>>;
        let (log_root, cdc_root) = (root.join("log"), root.join("cdc"));
        let paced_root = log_root.clone();
        let connectors: Vec<(&str, Make)> = vec![
            ("logfile", Box::new(move || Box::new(LogConnector::new(&log_root, 0)))),
            ("cdc", Box::new(move || Box::new(CdcConnector::new(&cdc_root, 0)))),
            (
                "filetail",
                Box::new(move || Box::new(FileTailConnector::new(&tail, FileFormat::Json, false))),
            ),
            (
                "generator",
                Box::new(|| Box::new(GeneratorSource::new(N as u64, |i| record(i as usize)))),
            ),
            (
                "records",
                // Partition 1 of 3 takes every third record from index 1.
                Box::new(|| {
                    let list = (0..3 * N).map(|i| match i % 3 {
                        1 => record(i / 3),
                        _ => "other partition".to_owned(),
                    });
                    SourceFactory::records(list.collect()).create(1, 3).unwrap()
                }),
            ),
            (
                "paced logfile",
                Box::new(move || Box::new(Paced::new(LogConnector::new(&paced_root, 0), 1e6))),
            ),
        ];
        for (name, make) in &connectors {
            let fresh = || {
                let mut c = make();
                c.open().unwrap();
                c
            };
            let mut c = fresh();
            let (full, eof) = read(c.as_mut(), usize::MAX);
            assert!(eof, "{name}: reaches EOF");
            assert_eq!(full.len(), N, "{name}: one uninterrupted read");
            let rows: Vec<Value> = full.iter().map(|r| row(&r.payload)).collect();
            assert_eq!(rows, all, "{name}: content");
            // What a feed commits once the last record is stored.
            let end = full[N - 1].offset;

            for k in [1, N / 2, N - 1] {
                let mut first = fresh();
                let (head, _) = read(first.as_mut(), k);
                assert_eq!(head.len(), k, "{name}: read {k}");
                assert_eq!(first.position(), head[k - 1].offset, "{name}: position after {k}");
                let mut second = fresh();
                second.seek(first.position()).unwrap();
                let (rest, eof) = read(second.as_mut(), usize::MAX);
                assert!(eof, "{name}: resumed read reaches EOF");
                let joined: Vec<_> = head.iter().chain(&rest).cloned().collect();
                assert_eq!(joined, full, "{name}: {k} + resume = one uninterrupted read");
            }

            c.seek(0).unwrap();
            assert_eq!(read(c.as_mut(), usize::MAX).0, full, "{name}: seek(0) rewinds");

            c.seek(end).unwrap();
            let (rest, eof) = read(c.as_mut(), usize::MAX);
            assert!(eof && rest.is_empty(), "{name}: seek to the end reads EOF");
            let mut past = fresh();
            match past.seek(u64::MAX) {
                Ok(()) => {
                    let (rest, eof) = read(past.as_mut(), usize::MAX);
                    assert!(eof && rest.is_empty(), "{name}: seek past the end reads EOF");
                }
                Err(e) => assert!(matches!(e, ConnectorError::Config(_)), "{name}: {e}"),
            }
        }
    }

    #[test]
    fn records_split_round_robin_by_stride() {
        let f = SourceFactory::records((0..10).map(|i| i.to_string()).collect());
        let mut all = Vec::new();
        for p in 0..3 {
            let mut c = f.create(p, 3).unwrap();
            let (recs, eof) = read(c.as_mut(), usize::MAX);
            assert!(eof);
            for (k, r) in recs.iter().enumerate() {
                assert_eq!(r.payload, (k * 3 + p).to_string(), "record k of partition p is k*n+p");
            }
            all.extend(recs.into_iter().map(|r| r.payload));
        }
        all.sort_by_key(|s| s.parse::<i64>().unwrap());
        assert_eq!(all, (0..10).map(|i| i.to_string()).collect::<Vec<_>>());
        // More partitions than records: the extra ones are empty.
        let mut c = SourceFactory::records(vec!["x".into()]).create(3, 4).unwrap();
        assert_eq!(read(c.as_mut(), usize::MAX), (Vec::new(), true));
    }
}
