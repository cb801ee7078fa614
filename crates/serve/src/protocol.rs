//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every frame is `[u32 BE payload length][u8 frame type][payload]`.
//! The length covers the type byte plus the payload, so a frame is
//! `4 + len` bytes on the wire and a reader can skip unknown frames.
//!
//! | type | dir | payload |
//! |------|-----|---------|
//! | `H` Hello   | → | UTF-8 tenant name (may be empty) |
//! | `Q` Query   | → | UTF-8 SQL++ text |
//! | `O` HelloOk | ← | empty |
//! | `R` Rows    | ← | one batch as an ADM JSON array |
//! | `D` Done    | ← | u64 BE total row count |
//! | `E` Error   | ← | u16 BE [`ErrorCode`] + UTF-8 message |
//!
//! A request/response exchange is: client sends `H`, server answers
//! `O`; then for each `Q` the server answers zero or more `R` frames
//! followed by exactly one `D`, or one `E`. Shed responses
//! (rate-limited / overloaded / draining) are ordinary `E` frames whose
//! code satisfies [`ErrorCode::is_shed`] — the 429-style path.

use std::io::{BufWriter, Read, Write};

use idea_core::{Error, ErrorCode};

/// Upper bound on a frame payload; a peer announcing more is treated
/// as a protocol violation rather than an allocation request.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client handshake carrying the tenant name ("" = default tenant).
    Hello { tenant: String },
    /// One SQL++ request (a single query or a `;`-separated script).
    Query { text: String },
    /// Handshake accepted.
    HelloOk,
    /// One batch of result rows, encoded as an ADM JSON array.
    Rows { json: String },
    /// Request finished; total rows streamed across all `Rows` frames.
    Done { rows: u64 },
    /// Request failed (or was shed) with a stable error code.
    Error { code: u16, message: String },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => b'H',
            Frame::Query { .. } => b'Q',
            Frame::HelloOk => b'O',
            Frame::Rows { .. } => b'R',
            Frame::Done { .. } => b'D',
            Frame::Error { .. } => b'E',
        }
    }
}

pub(crate) fn io_err(e: std::io::Error) -> Error {
    Error::new(ErrorCode::Io, format!("socket i/o failed: {e}"))
}

fn protocol_err(msg: impl Into<String>) -> Error {
    Error::new(ErrorCode::Protocol, msg)
}

/// Writes one frame: the 5-byte header, then the payload straight from
/// the frame's own buffers (no intermediate copy). Does **not** flush —
/// socket writers go through a `BufWriter` flushed once per message
/// (each client request, each whole server response), so a frame
/// never leaves as separate small segments for Nagle to hold back.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), Error> {
    // Fixed-width payload prefixes: the done count, or the error code.
    let mut fixed = [0u8; 8];
    let (prefix, body): (&[u8], &[u8]) = match frame {
        Frame::Hello { tenant } => (&[], tenant.as_bytes()),
        Frame::Query { text } => (&[], text.as_bytes()),
        Frame::HelloOk => (&[], &[]),
        Frame::Rows { json } => (&[], json.as_bytes()),
        Frame::Done { rows } => {
            fixed = rows.to_be_bytes();
            (&fixed, &[])
        }
        Frame::Error { code, message } => {
            fixed[..2].copy_from_slice(&code.to_be_bytes());
            (&fixed[..2], message.as_bytes())
        }
    };
    let payload_len = prefix.len() + body.len();
    if payload_len > MAX_FRAME {
        return Err(protocol_err(format!("frame payload too large: {payload_len} bytes")));
    }
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&((payload_len + 1) as u32).to_be_bytes());
    header[4] = frame.type_byte();
    w.write_all(&header).map_err(io_err)?;
    w.write_all(prefix).map_err(io_err)?;
    w.write_all(body).map_err(io_err)
}

/// Sends one frame as one message: buffered, then flushed once (client
/// requests and the server's connection-level replies).
pub(crate) fn send_frame(w: impl Write, frame: &Frame) -> Result<(), Error> {
    let mut w = BufWriter::new(w);
    write_frame(&mut w, frame)?;
    w.flush().map_err(io_err)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer hung up between requests); EOF mid-frame is an
/// error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, Error> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_buf[n..]).map_err(io_err)?,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
            r.read_exact(&mut len_buf).map_err(io_err)?;
        }
        Err(e) => return Err(io_err(e)),
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len == 0 {
        return Err(protocol_err("zero-length frame"));
    }
    if len - 1 > MAX_FRAME {
        return Err(protocol_err(format!("frame payload too large: {} bytes", len - 1)));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(io_err)?;
    let ty = body[0];
    let payload = &body[1..];
    let utf8 = |bytes: &[u8]| {
        String::from_utf8(bytes.to_vec()).map_err(|_| protocol_err("frame payload is not UTF-8"))
    };
    let frame = match ty {
        b'H' => Frame::Hello { tenant: utf8(payload)? },
        b'Q' => Frame::Query { text: utf8(payload)? },
        b'O' => {
            if !payload.is_empty() {
                return Err(protocol_err("hello-ok frame carries a payload"));
            }
            Frame::HelloOk
        }
        b'R' => Frame::Rows { json: utf8(payload)? },
        b'D' => {
            let bytes: [u8; 8] = payload
                .try_into()
                .map_err(|_| protocol_err("done frame payload must be 8 bytes"))?;
            Frame::Done { rows: u64::from_be_bytes(bytes) }
        }
        b'E' => {
            if payload.len() < 2 {
                return Err(protocol_err("error frame payload must start with a u16 code"));
            }
            let code = u16::from_be_bytes([payload[0], payload[1]]);
            Frame::Error { code, message: utf8(&payload[2..])? }
        }
        other => return Err(protocol_err(format!("unknown frame type byte {other:#04x}"))),
    };
    Ok(Some(frame))
}

/// Builds the error frame for a server-side failure, preserving the
/// stable [`ErrorCode`] so clients can reconstruct the [`Error`].
pub fn error_frame(err: &Error) -> Frame {
    Frame::Error { code: err.code().as_u16(), message: err.message().to_string() }
}

/// Reconstructs the typed error a received error frame carries.
pub fn frame_error(code: u16, message: String) -> Error {
    let code = ErrorCode::from_u16(code).unwrap_or(ErrorCode::Internal);
    Error::new(code, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(got, frame);
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello { tenant: "acme".into() });
        round_trip(Frame::Hello { tenant: String::new() });
        round_trip(Frame::Query { text: "SELECT VALUE t FROM Tweets t;".into() });
        round_trip(Frame::HelloOk);
        round_trip(Frame::Rows { json: r#"[{"id": 1}, {"id": 2}]"#.into() });
        round_trip(Frame::Done { rows: u64::MAX });
        round_trip(Frame::Error { code: 4290, message: "tenant over rate limit".into() });
    }

    #[test]
    fn clean_eof_is_none_and_mid_frame_eof_is_error() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_frame(&mut empty).unwrap(), None);

        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Query { text: "SELECT 1".into() }).unwrap();
        let mut truncated = &buf[..buf.len() - 3];
        let err = read_frame(&mut truncated).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Io);
    }

    #[test]
    fn oversized_and_malformed_frames_are_protocol_errors() {
        // Announced length over the cap: rejected before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME as u32 + 2).to_be_bytes());
        huge.push(b'Q');
        let err = read_frame(&mut huge.as_slice()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Protocol);

        // Unknown type byte.
        let mut bad = Vec::new();
        bad.extend_from_slice(&1u32.to_be_bytes());
        bad.push(b'Z');
        let err = read_frame(&mut bad.as_slice()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Protocol);

        // Done frame with a short payload.
        let mut short = Vec::new();
        short.extend_from_slice(&3u32.to_be_bytes());
        short.extend_from_slice(&[b'D', 0, 0]);
        let err = read_frame(&mut short.as_slice()).unwrap_err();
        assert_eq!(err.code(), ErrorCode::Protocol);
    }

    #[test]
    fn error_frames_preserve_stable_codes() {
        let shed = Error::new(ErrorCode::RateLimited, "slow down");
        let Frame::Error { code, message } = error_frame(&shed) else { panic!() };
        assert_eq!(code, 4290);
        let back = frame_error(code, message);
        assert!(back.is_shed());
        assert_eq!(back.code(), ErrorCode::RateLimited);
    }
}
