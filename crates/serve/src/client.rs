//! A blocking TCP client for the serve protocol, shared by the REPL
//! example, the integration tests, and `serve_bench`.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use idea_adm::Value;
use idea_core::{Error, ErrorCode};

use crate::protocol::{frame_error, io_err, read_frame, send_frame, Frame};

/// Summary of one streamed query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySummary {
    /// Rows the server reported in its done frame.
    pub rows: u64,
    /// Result batches received (one per `Rows` frame).
    pub batches: u64,
}

/// One connection to a serve endpoint. Requests are strictly
/// sequential per connection; open more clients for concurrency.
///
/// Holds exactly one socket fd (reads buffered, writes through the
/// same stream) so benchmarks can open thousands of connections
/// without exhausting the process fd limit.
#[derive(Debug)]
pub struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects and handshakes as `tenant` (`""` = default tenant).
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> Result<Client, Error> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::new(ErrorCode::Io, format!("connect failed: {e}")))?;
        Client::handshake(stream, tenant)
    }

    /// Like [`Client::connect`] but bounds the TCP connect itself —
    /// under accept backlog pressure a plain connect can block.
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        tenant: &str,
        timeout: Duration,
    ) -> Result<Client, Error> {
        let stream = TcpStream::connect_timeout(addr, timeout)
            .map_err(|e| Error::new(ErrorCode::Io, format!("connect failed: {e}")))?;
        Client::handshake(stream, tenant)
    }

    fn handshake(stream: TcpStream, tenant: &str) -> Result<Client, Error> {
        // Requests are flushed whole; Nagle would only hold them back.
        stream.set_nodelay(true).map_err(io_err)?;
        let mut client = Client { stream: BufReader::new(stream) };
        send_frame(client.stream.get_ref(), &Frame::Hello { tenant: tenant.to_string() })?;
        match client.read()? {
            Frame::HelloOk => Ok(client),
            Frame::Error { code, message } => Err(frame_error(code, message)),
            other => {
                Err(Error::new(ErrorCode::Protocol, format!("expected hello-ok, got {other:?}")))
            }
        }
    }

    fn read(&mut self) -> Result<Frame, Error> {
        read_frame(&mut self.stream)?
            .ok_or_else(|| Error::new(ErrorCode::Io, "server closed the connection"))
    }

    /// Runs a request and materializes every row — convenience over
    /// [`Client::query_streamed`] for small results.
    pub fn query(&mut self, text: &str) -> Result<Vec<Value>, Error> {
        let mut rows = Vec::new();
        self.query_streamed(text, |batch| rows.extend(batch))?;
        Ok(rows)
    }

    /// Runs a request, invoking `on_batch` per `Rows` frame as it
    /// arrives. The connection stays usable after an error response
    /// (sheds are ordinary error responses — see [`Error::is_shed`]).
    pub fn query_streamed(
        &mut self,
        text: &str,
        mut on_batch: impl FnMut(Vec<Value>),
    ) -> Result<QuerySummary, Error> {
        send_frame(self.stream.get_ref(), &Frame::Query { text: text.to_string() })?;
        let mut batches = 0u64;
        loop {
            match self.read()? {
                Frame::Rows { json } => {
                    let v = idea_adm::json::parse(json.as_bytes()).map_err(|e| {
                        Error::new(ErrorCode::Protocol, format!("bad rows payload: {e}"))
                    })?;
                    let Value::Array(batch) = v else {
                        return Err(Error::new(
                            ErrorCode::Protocol,
                            "rows payload is not an array",
                        ));
                    };
                    batches += 1;
                    on_batch(batch);
                }
                Frame::Done { rows } => return Ok(QuerySummary { rows, batches }),
                Frame::Error { code, message } => return Err(frame_error(code, message)),
                other => {
                    return Err(Error::new(
                        ErrorCode::Protocol,
                        format!("unexpected response frame: {other:?}"),
                    ))
                }
            }
        }
    }
}
