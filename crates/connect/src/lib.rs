//! Offset-aware source connectors and declarative pipeline specs.
//!
//! The paper's adapters "obtain/receive data from an external data
//! source" (§2.3). Here every source is a **seekable, partitioned
//! connector**, so a restarted feed resumes from a committed offset
//! instead of re-serving the source from record zero:
//!
//! * [`SourceConnector`] — the connector trait. `read_batch` returns
//!   records *with* per-partition offsets, `seek(offset)` resumes from a
//!   committed offset, batches carry watermark and EOF signals, and
//!   `open` is fallible so connection errors surface through the feed
//!   instead of panicking an intake task.
//! * [`LogConnector`] / [`PartitionedLog`] — a Kafka-style file-backed
//!   partitioned log: per-partition segment files of CRC-framed records,
//!   byte offsets, watermark frames, and a seal (EOF) marker. Entirely
//!   self-contained on disk.
//! * [`FileTailConnector`] — tails CSV or JSON-lines files, one file per
//!   partition, resuming at byte offsets.
//! * [`CdcConnector`] / [`CdcLog`] — a CDC-style update stream over the
//!   partitioned log whose records are upsert/delete envelopes.
//! * [`SocketConnector`] — the paper's `socket_adapter`: a line-oriented
//!   TCP server whose offsets are record counts.
//! * [`GeneratorSource`] — an in-memory source mapping a record index
//!   to a record (replayed lists and synthetic workloads).
//! * [`Paced`] — caps any connector at a fixed records/second rate.
//! * [`PipelineSpec`] — a whole pipeline (source → UDF chain →
//!   supervision policies → target dataset) declared as data, parsed
//!   from a JSON document or flat DDL options, and validated at load
//!   time with typed [`SpecError`]s.
//!
//! `idea-core` compiles a [`PipelineSpec`] into its `FeedSpec` and runs
//! connectors inside the intake job; committed connector offsets ride
//! the `idea-ft` checkpoint store so a killed feed resumes exactly where
//! the last checkpoint left it.

pub mod cdc;
pub mod generator;
pub mod paced;
pub mod partlog;
pub mod socket;
pub mod spec;
pub mod tail;

pub use cdc::{parse_envelope, CdcConnector, CdcLog, CdcOp};
pub use generator::GeneratorSource;
pub use paced::Paced;
pub use partlog::{LogConnector, PartitionedLog};
pub use socket::SocketConnector;
pub use spec::{
    FileFormat, PipelineSpec, PolicySpec, SourceSpec, SpecError, TargetSpec, ALLOWED_POLICY_KEYS,
};
pub use tail::FileTailConnector;

/// Connector-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectorError {
    /// Underlying I/O failure (open, read, list).
    Io(String),
    /// On-disk data failed a checksum or structural check.
    Corrupt(String),
    /// The connector was configured against a source that cannot satisfy
    /// it (missing file, partition-count mismatch, seek out of range).
    Config(String),
}

impl std::fmt::Display for ConnectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnectorError::Io(m) => write!(f, "connector I/O error: {m}"),
            ConnectorError::Corrupt(m) => write!(f, "connector data corrupt: {m}"),
            ConnectorError::Config(m) => write!(f, "connector misconfigured: {m}"),
        }
    }
}

impl std::error::Error for ConnectorError {}

impl From<std::io::Error> for ConnectorError {
    fn from(e: std::io::Error) -> Self {
        ConnectorError::Io(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, ConnectorError>;

/// One raw record pulled from a source, tagged with the offset to
/// commit once the record has been durably handled. Committing `offset`
/// and later `seek(offset)`-ing resumes with the *next* record — the
/// offset is exclusive of the record that carries it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceRecord {
    pub payload: String,
    pub offset: u64,
}

/// The result of one [`SourceConnector::read_batch`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceBatch {
    pub records: Vec<SourceRecord>,
    /// Latest event-time watermark (millis) the source announced during
    /// this read, if any.
    pub watermark: Option<i64>,
    /// The source is exhausted: no record will ever follow this batch.
    pub eof: bool,
}

impl SourceBatch {
    /// An empty, non-terminal batch ("no data right now, poll again").
    pub fn pending() -> SourceBatch {
        SourceBatch::default()
    }

    /// An empty terminal batch.
    pub fn end() -> SourceBatch {
        SourceBatch { eof: true, ..SourceBatch::default() }
    }
}

/// A partitioned, offset-aware record source for one intake partition.
///
/// Lifecycle: construct (cheap, no I/O) → [`open`](Self::open) →
/// optionally [`seek`](Self::seek) to a committed offset →
/// [`read_batch`](Self::read_batch) until a batch reports
/// [`eof`](SourceBatch::eof) (or the feed is stopped).
///
/// Offsets are opaque `u64`s owned by the connector (byte positions for
/// the file-backed connectors, record counts for the socket and
/// in-memory sources). The only contract: committing a record's
/// [`offset`](SourceRecord::offset) and seeking back to it after a
/// restart replays *exactly* the records that followed it — for a
/// socket, whatever its next peer sends.
pub trait SourceConnector: Send {
    /// Connects to the source. Called once, before any `seek`/`read`.
    fn open(&mut self) -> Result<()> {
        Ok(())
    }

    /// Positions the connector so the next `read_batch` returns the
    /// record following `offset`. `seek(0)` rewinds to the beginning.
    fn seek(&mut self, offset: u64) -> Result<()>;

    /// Pulls up to `max` records. An empty batch with `eof == false`
    /// means "no data available right now" — the caller should check its
    /// stop condition and poll again (connectors sleep briefly before
    /// returning empty, so the caller's loop does not spin hot).
    fn read_batch(&mut self, max: usize) -> Result<SourceBatch>;

    /// The current position: the offset that would be committed if every
    /// record returned so far were durably handled.
    fn position(&self) -> u64;
}

impl<C: SourceConnector + ?Sized> SourceConnector for Box<C> {
    fn open(&mut self) -> Result<()> {
        (**self).open()
    }

    fn seek(&mut self, offset: u64) -> Result<()> {
        (**self).seek(offset)
    }

    fn read_batch(&mut self, max: usize) -> Result<SourceBatch> {
        (**self).read_batch(max)
    }

    fn position(&self) -> u64 {
        (**self).position()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_constructors() {
        assert!(!SourceBatch::pending().eof);
        assert!(SourceBatch::end().eof);
        assert!(SourceBatch::end().records.is_empty());
    }
}
