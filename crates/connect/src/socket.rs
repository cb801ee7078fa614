//! The paper's `socket_adapter` (Figure 4) as a connector: a
//! line-oriented TCP server.
//!
//! A [`SocketConnector`] binds its address up front (so a bad address
//! fails the feed at once), accepts one peer, and yields one record per
//! non-blank line until the peer closes. It never blocks for long:
//! `accept` is polled on a non-blocking listener and reads time out
//! after a short poll interval, so an idle socket returns
//! [`SourceBatch::pending`] and the feed can observe a stop request. A
//! line cut by a read timeout stays buffered until its newline arrives.
//!
//! Offsets are record counts. A socket cannot rewind, so `seek(n)` only
//! sets the count: a restarted feed starts with whatever the next peer
//! sends, and reads nothing to "skip" the committed prefix.

use std::io::{BufRead, BufReader, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::{Result, SourceBatch, SourceConnector, SourceRecord};

/// How long an idle `read_batch` waits for a peer or for bytes.
const POLL: Duration = Duration::from_millis(10);

/// A line-oriented TCP source serving one peer connection.
pub struct SocketConnector {
    listener: TcpListener,
    peer: Option<BufReader<TcpStream>>,
    /// Bytes of the line being read, kept across read timeouts.
    line: Vec<u8>,
    received: u64,
}

impl SocketConnector {
    /// Binds the listening socket; fails fast on a bad or busy address.
    pub fn bind(addr: &str) -> std::io::Result<SocketConnector> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(SocketConnector { listener, peer: None, line: Vec::new(), received: 0 })
    }

    /// The locally bound address (useful when binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

/// Moves the buffered `line` into `batch` unless it is blank.
fn take_line(line: &mut Vec<u8>, received: &mut u64, batch: &mut SourceBatch) {
    let text = String::from_utf8_lossy(line);
    let trimmed = text.trim();
    if !trimmed.is_empty() {
        *received += 1;
        batch
            .records
            .push(SourceRecord { payload: trimmed.to_owned(), offset: *received });
    }
    line.clear();
}

impl SourceConnector for SocketConnector {
    fn seek(&mut self, offset: u64) -> Result<()> {
        self.received = offset;
        Ok(())
    }

    fn read_batch(&mut self, max: usize) -> Result<SourceBatch> {
        if self.peer.is_none() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    stream.set_read_timeout(Some(POLL))?;
                    self.peer = Some(BufReader::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                    return Ok(SourceBatch::pending());
                }
                Err(e) => return Err(e.into()),
            }
        }
        let SocketConnector { peer, line, received, .. } = self;
        let peer = peer.as_mut().expect("accepted above");
        let mut batch = SourceBatch::default();
        while batch.records.len() < max {
            // Once something is in hand, hand it out rather than wait
            // out a read timeout for more.
            if !batch.records.is_empty() && peer.buffer().is_empty() {
                break;
            }
            match peer.read_until(b'\n', line) {
                Ok(0) => {
                    // Peer closed: deliver an unterminated last line.
                    take_line(line, received, &mut batch);
                    batch.eof = true;
                    break;
                }
                Ok(_) if line.ends_with(b"\n") => take_line(line, received, &mut batch),
                // Bytes up to the peer's close; the next read sees it.
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(batch)
    }

    fn position(&self) -> u64 {
        self.received
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::time::Instant;

    /// Reads until `n` records arrived or the source reports EOF.
    fn read_n(c: &mut SocketConnector, n: usize) -> (Vec<SourceRecord>, bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut out = Vec::new();
        while out.len() < n && Instant::now() < deadline {
            let b = c.read_batch(16).unwrap();
            out.extend(b.records);
            if b.eof {
                return (out, true);
            }
        }
        (out, false)
    }

    #[test]
    fn reads_lines_until_the_peer_closes() {
        let mut c = SocketConnector::bind("127.0.0.1:0").unwrap();
        let addr = c.local_addr().unwrap();
        let t0 = Instant::now();
        assert_eq!(c.read_batch(16).unwrap(), SourceBatch::pending(), "no peer yet");
        assert!(t0.elapsed() < Duration::from_secs(1), "accept is polled, not awaited");
        let mut peer = TcpStream::connect(addr).unwrap();
        writeln!(peer, "{{\"id\": 1}}").unwrap();
        writeln!(peer).unwrap(); // blank lines skipped
        write!(peer, "{{\"id\": 2}}\n{{\"id\": 3}}").unwrap();
        drop(peer);
        let (recs, eof) = read_n(&mut c, usize::MAX);
        assert!(eof);
        let payloads: Vec<_> = recs.iter().map(|r| r.payload.as_str()).collect();
        assert_eq!(payloads, ["{\"id\": 1}", "{\"id\": 2}", "{\"id\": 3}"]);
        assert_eq!(recs.iter().map(|r| r.offset).collect::<Vec<_>>(), [1, 2, 3]);
    }

    #[test]
    fn a_line_cut_by_a_read_timeout_survives() {
        let mut c = SocketConnector::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(c.local_addr().unwrap()).unwrap();
        // "é" is two bytes; split the line inside it.
        let line = "{\"name\": \"José\"}\n".as_bytes();
        let cut = line.iter().position(|&b| b == 0xC3).unwrap() + 1;
        peer.write_all(&line[..cut]).unwrap();
        for _ in 0..3 {
            let b = c.read_batch(16).unwrap();
            assert!(b.records.is_empty() && !b.eof, "half a line is not a record");
        }
        peer.write_all(&line[cut..]).unwrap();
        let (recs, _) = read_n(&mut c, 1);
        assert_eq!(recs[0].payload, "{\"name\": \"José\"}");
    }

    #[test]
    fn seek_sets_the_count_and_reads_nothing() {
        let mut c = SocketConnector::bind("127.0.0.1:0").unwrap();
        c.seek(40).unwrap();
        assert_eq!(c.position(), 40);
        let mut peer = TcpStream::connect(c.local_addr().unwrap()).unwrap();
        writeln!(peer, "first").unwrap();
        let (recs, _) = read_n(&mut c, 1);
        assert_eq!(recs[0].payload, "first", "the new peer's first line is kept");
        assert_eq!(recs[0].offset, 41);
    }
}
