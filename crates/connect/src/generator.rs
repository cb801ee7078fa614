//! In-memory sources: records computed from their index.
//!
//! A [`GeneratorSource`] maps a partition-local record index to a
//! record, so its offset is simply the number of records emitted and
//! `seek` is exact and O(1) — a restarted feed repositions without
//! regenerating anything before the checkpoint. Replaying a fixed list
//! is the special case whose generator indexes a shared `Vec`.

use crate::{Result, SourceBatch, SourceConnector, SourceRecord};

/// Emits `gen(0), gen(1), …, gen(count - 1)`, then EOF. Record `i`
/// carries offset `i + 1`.
pub struct GeneratorSource<F> {
    gen: F,
    count: u64,
    emitted: u64,
}

impl<F: Fn(u64) -> String + Send> GeneratorSource<F> {
    /// A source of `count` records (`u64::MAX` for an endless one).
    pub fn new(count: u64, gen: F) -> GeneratorSource<F> {
        GeneratorSource { gen, count, emitted: 0 }
    }
}

impl<F: Fn(u64) -> String + Send> SourceConnector for GeneratorSource<F> {
    /// Seeking at or past the end lands on EOF.
    fn seek(&mut self, offset: u64) -> Result<()> {
        self.emitted = offset.min(self.count);
        Ok(())
    }

    fn read_batch(&mut self, max: usize) -> Result<SourceBatch> {
        let end = self.count.min(self.emitted.saturating_add(max as u64));
        let records = (self.emitted..end)
            .map(|i| SourceRecord { payload: (self.gen)(i), offset: i + 1 })
            .collect();
        self.emitted = end;
        Ok(SourceBatch { records, watermark: None, eof: end == self.count })
    }

    fn position(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_produces_count_in_batches() {
        let mut g = GeneratorSource::new(3, |i| format!("r{i}"));
        let b = g.read_batch(2).unwrap();
        assert_eq!(b.records.iter().map(|r| r.payload.as_str()).collect::<Vec<_>>(), ["r0", "r1"]);
        assert_eq!(b.records[1].offset, 2);
        assert!(!b.eof);
        let b = g.read_batch(2).unwrap();
        assert_eq!(b.records.len(), 1);
        assert!(b.eof, "the batch holding the last record reports EOF");
        assert!(g.read_batch(2).unwrap().eof);
    }

    #[test]
    fn endless_generator_never_reports_eof() {
        let mut g = GeneratorSource::new(u64::MAX, |i| i.to_string());
        g.seek(u64::MAX - 10).unwrap();
        assert!(!g.read_batch(4).unwrap().eof);
    }
}
