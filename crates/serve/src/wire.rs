//! Length-prefixed framing over any byte stream.
//!
//! One frame is a 4-byte big-endian payload length followed by exactly
//! that many payload bytes. The framing layer knows nothing about the
//! payload — [`crate::rpc`] owns the message encoding — which is what
//! makes a later transport swap (gRPC, UDS) a codec change instead of a
//! daemon rewrite.
//!
//! The reader enforces [`MAX_FRAME`] **before allocating**: a hostile
//! or corrupt length prefix of 4 GB is rejected from the 4 header bytes
//! alone, it never sizes a buffer. Truncations (a peer that died
//! mid-frame, or sent a partial header) are distinguished from clean
//! end-of-stream so the daemon can count protocol errors without
//! flagging ordinary disconnects.

use std::io::{self, Read, Write};

/// Hard ceiling on a frame's payload size (bytes). Anything larger is
/// a protocol error, reported without allocating. Generous enough for
/// multi-thousand-request batches; small enough that a garbage length
/// prefix cannot commit the daemon to gigabytes.
pub const MAX_FRAME: u32 = 4 * 1024 * 1024;

/// A typed framing failure.
#[derive(Debug)]
pub enum WireError {
    /// The length prefix exceeded [`MAX_FRAME`]. No payload buffer was
    /// allocated.
    Oversized {
        /// The advertised payload length.
        len: u32,
        /// The enforced ceiling ([`MAX_FRAME`]).
        max: u32,
    },
    /// The stream ended inside a frame: a partial length prefix, or a
    /// payload shorter than its prefix advertised.
    Truncated {
        /// Bytes the frame still owed when the stream ended.
        missing: usize,
    },
    /// The transport failed underneath the framing.
    Io(io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated { missing } => {
                write!(f, "stream ended mid-frame ({missing} bytes missing)")
            }
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload.
///
/// # Errors
///
/// [`WireError::Oversized`] when the payload exceeds [`MAX_FRAME`]
/// (nothing is written); [`WireError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::Oversized {
        len: u32::MAX,
        max: MAX_FRAME,
    })?;
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame's payload.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames — an ordinary disconnect, not an error).
///
/// # Errors
///
/// [`WireError::Oversized`] when the length prefix exceeds
/// [`MAX_FRAME`] — detected from the 4 header bytes, before any payload
/// buffer exists; [`WireError::Truncated`] when the stream ends inside
/// the header or the payload; [`WireError::Io`] on transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(WireError::Truncated { missing: 4 - got }),
    }
    let len = u32::from_be_bytes(header);
    if len > MAX_FRAME {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME,
        });
    }
    let mut payload = vec![0u8; len as usize];
    let got = read_exact_or_eof(r, &mut payload)?;
    if got < payload.len() {
        return Err(WireError::Truncated {
            missing: payload.len() - got,
        });
    }
    Ok(Some(payload))
}

/// Fills `buf` as far as the stream allows, returning the bytes read
/// (short only at end-of-stream). `Interrupted` reads are retried.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while let Some(rest) = buf.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(rest) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_rejected_from_header() {
        let mut bytes = (MAX_FRAME + 1).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]); // payload never inspected
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, WireError::Oversized { len, .. } if len == MAX_FRAME + 1));
    }

    #[test]
    fn truncations_are_typed() {
        // Partial header.
        let err = read_frame(&mut &[0u8, 0][..]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { missing: 2 }));
        // Payload shorter than advertised.
        let mut bytes = 10u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { missing: 7 }));
    }

    #[test]
    fn writer_refuses_oversized_payload() {
        let payload = vec![0u8; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &payload).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
        assert!(sink.is_empty(), "nothing may be written for a refused frame");
    }
}
