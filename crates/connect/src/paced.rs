//! Rate-capped sources.
//!
//! [`Paced`] wraps any connector and releases at most `rate` records
//! per second from it (the paper's §7.3 reference-update clients run
//! this way). Pacing only delays *reads*: `seek` and `position` pass
//! straight through, so a restarted feed resumes at its committed
//! offset at once instead of replaying the prefix at the paced rate.

use std::time::{Duration, Instant};

use crate::{Result, SourceBatch, SourceConnector};

/// The longest an idle `read_batch` naps before reporting "nothing due".
const MAX_NAP: Duration = Duration::from_millis(10);

/// Caps the wrapped connector at `rate` records per second. Record `k`
/// read after the first `read_batch` is due `k / rate` seconds after it.
pub struct Paced<C> {
    inner: C,
    rate: f64,
    started: Option<Instant>,
    emitted: u64,
}

impl<C: SourceConnector> Paced<C> {
    pub fn new(inner: C, rate: f64) -> Paced<C> {
        assert!(rate > 0.0, "pacing rate must be positive, got {rate}");
        Paced { inner, rate, started: None, emitted: 0 }
    }
}

impl<C: SourceConnector> SourceConnector for Paced<C> {
    fn open(&mut self) -> Result<()> {
        self.inner.open()
    }

    fn seek(&mut self, offset: u64) -> Result<()> {
        self.inner.seek(offset)
    }

    fn read_batch(&mut self, max: usize) -> Result<SourceBatch> {
        let started = *self.started.get_or_insert_with(Instant::now);
        let due = (started.elapsed().as_secs_f64() * self.rate) as u64 + 1;
        if due <= self.emitted {
            let next = started + Duration::from_secs_f64(self.emitted as f64 / self.rate);
            std::thread::sleep(next.saturating_duration_since(Instant::now()).min(MAX_NAP));
            return Ok(SourceBatch::pending());
        }
        let allowed = (due - self.emitted).min(max as u64) as usize;
        let batch = self.inner.read_batch(allowed)?;
        self.emitted += batch.records.len() as u64;
        Ok(batch)
    }

    fn position(&self) -> u64 {
        self.inner.position()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneratorSource;

    #[test]
    fn paces_reads_to_the_rate() {
        let mut p = Paced::new(GeneratorSource::new(20, |i| i.to_string()), 1000.0);
        let t0 = Instant::now();
        let mut n = 0;
        loop {
            let b = p.read_batch(64).unwrap();
            n += b.records.len();
            if b.eof {
                break;
            }
        }
        assert_eq!(n, 20);
        // 20 records at 1000/s ≈ 19 ms minimum.
        assert!(t0.elapsed() >= Duration::from_millis(15), "elapsed {:?}", t0.elapsed());
    }

    #[test]
    fn seek_is_immediate() {
        // At 1 record/s, replaying 1000 records would take 1000 s.
        let mut p = Paced::new(GeneratorSource::new(2000, |i| i.to_string()), 1.0);
        let t0 = Instant::now();
        p.seek(1000).unwrap();
        assert_eq!(p.position(), 1000);
        let b = p.read_batch(64).unwrap();
        assert_eq!(b.records.len(), 1, "one record is due at once");
        assert_eq!(b.records[0].payload, "1000");
        assert!(t0.elapsed() < Duration::from_secs(1), "elapsed {:?}", t0.elapsed());
        // Nothing else is due yet: a short nap, then "pending".
        let b = p.read_batch(64).unwrap();
        assert!(b.records.is_empty() && !b.eof);
        assert!(t0.elapsed() < Duration::from_secs(1), "elapsed {:?}", t0.elapsed());
    }
}
