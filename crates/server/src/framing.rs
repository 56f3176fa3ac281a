//! Length-prefixed frames and the primitive wire encodings.
//!
//! Everything on the wire is a *frame*: a little-endian `u32` payload
//! length followed by that many payload bytes. Inside a payload, the
//! primitives are fixed-width little-endian integers/floats and
//! `u32`-length-prefixed UTF-8 strings. [`ByteReader`] walks a received
//! payload; the `put_*` helpers build one. Both sides enforce a maximum
//! frame size so a corrupt or hostile peer cannot make us allocate
//! unbounded memory — result paging keeps well-formed frames small (see
//! [`crate::ServerConfig::batch_rows`]).

use std::io::{Read, Write};

use nodb_types::{Error, Result};

/// Frames larger than this are rejected as a protocol error. Generous
/// for default paging (1024 rows/page leaves ~64 KiB per row); a server
/// configured with a huge `batch_rows` over very wide rows can exceed it,
/// in which case the affected connection gets a typed error and closes
/// rather than silently skipping the oversized page.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Bytes of the length prefix in front of every frame payload.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Write one length-prefixed frame. Header and payload leave in a single
/// `write`: on a `TCP_NODELAY` socket two writes are two segments (and
/// two syscalls), and the peer's reader sees a torn frame in between.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    nodb_types::failpoints::trip("wire.write_frame")?;
    if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(Error::protocol(format!(
            "outgoing frame of {} bytes exceeds the {} byte limit",
            payload.len(),
            MAX_FRAME_BYTES
        )));
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// How many consecutive read-timeout ticks a *partially received* frame
/// may stall before the connection is declared broken. Once the first
/// byte of a frame has arrived, a timeout no longer means "idle" — the
/// peer is mid-send — so the read retries instead of returning, bounded
/// by this limit so a stalled peer cannot pin a worker forever.
pub const MAX_MID_FRAME_STALLS: u32 = 600;

/// Read one frame. `Ok(None)` means the peer closed the connection
/// cleanly *between* frames; EOF mid-frame is a protocol error. An
/// `Io(WouldBlock | TimedOut)` error before the first length byte means
/// the read timeout elapsed with the connection idle — callers use that
/// for idle-timeout and shutdown polling. Once any frame byte has
/// arrived, timeouts retry (up to [`MAX_MID_FRAME_STALLS`] consecutive
/// ticks) so a slow frame is never torn mid-stream.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    nodb_types::failpoints::trip("wire.read_frame")?;
    let mut len = [0u8; 4];
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(Error::protocol("eof inside frame header")),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 {
                    return Err(Error::Io(e));
                }
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(Error::protocol("frame stalled mid-header"));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_BYTES {
        return Err(Error::protocol(format!(
            "incoming frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact(r, &mut payload)?;
    Ok(Some(payload))
}

/// `read_exact` that retries interrupted reads and bounded read-timeout
/// stalls (we are mid-frame here by definition), and maps EOF to a
/// protocol error (a frame promised more bytes than arrived).
fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    let mut filled = 0;
    let mut stalls = 0u32;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(Error::protocol("eof inside frame payload")),
            Ok(n) => {
                filled += n;
                stalls = 0;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                stalls += 1;
                if stalls > MAX_MID_FRAME_STALLS {
                    return Err(Error::protocol("frame stalled mid-payload"));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(Error::Io(e)),
        }
    }
    Ok(())
}

/// Incremental frame decoder for non-blocking sockets: bytes arrive in
/// arbitrary slices (a readiness event delivers whatever the kernel
/// buffered, possibly mid-header), [`FrameDecoder::feed`] accumulates
/// them, and [`FrameDecoder::next_frame`] yields complete payloads in
/// order. Decoding is byte-for-byte equivalent to [`read_frame`] over
/// the same stream: the same frames come out, and an oversized length
/// prefix produces the same typed [`Error::Protocol`] — sticky, because
/// after a framing error the byte stream cannot be trusted any more.
/// (The blocking path's "EOF mid-frame" error has no analogue here; the
/// caller sees EOF from the socket and checks [`FrameDecoder::has_partial`]
/// to tell a clean close from a torn frame.)
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Complete payloads not yet handed out.
    frames: std::collections::VecDeque<Vec<u8>>,
    /// Bytes held in `frames` (for backpressure accounting).
    queued_bytes: usize,
    /// Length-prefix bytes of the frame in progress.
    header: [u8; 4],
    header_fill: usize,
    /// Payload length once the header is complete.
    need: Option<usize>,
    /// Payload bytes of the frame in progress.
    partial: Vec<u8>,
    /// A framing-level error (oversized prefix); sticky.
    poisoned: Option<String>,
}

impl FrameDecoder {
    /// Fresh decoder positioned before a frame boundary.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Absorb `bytes` as they arrived off the socket. Bytes after a
    /// framing error are dropped — the connection is closing anyway.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        while !bytes.is_empty() {
            match self.need {
                None => {
                    let take = (4 - self.header_fill).min(bytes.len());
                    self.header[self.header_fill..self.header_fill + take]
                        .copy_from_slice(&bytes[..take]);
                    self.header_fill += take;
                    bytes = &bytes[take..];
                    if self.header_fill == 4 {
                        let len = u32::from_le_bytes(self.header);
                        if len > MAX_FRAME_BYTES {
                            // Same refusal (and message) as `read_frame`,
                            // before any payload allocation.
                            self.poisoned = Some(format!(
                                "incoming frame of {len} bytes exceeds the {MAX_FRAME_BYTES} byte limit"
                            ));
                            return;
                        }
                        self.need = Some(len as usize);
                        // Cap the up-front reservation: a hostile header
                        // can claim up to 64 MiB, but only bytes that
                        // actually arrive should cost memory.
                        self.partial = Vec::with_capacity((len as usize).min(1 << 20));
                    }
                }
                Some(need) => {
                    let take = (need - self.partial.len()).min(bytes.len());
                    self.partial.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if self.partial.len() == need {
                        self.queued_bytes += need;
                        self.frames.push_back(std::mem::take(&mut self.partial));
                        self.need = None;
                        self.header_fill = 0;
                    }
                }
            }
        }
    }

    /// The next complete frame, `Ok(None)` if more bytes are needed, or
    /// the sticky framing error once all frames decoded before it are
    /// drained (order matches what the blocking reader would return).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if let Some(f) = self.frames.pop_front() {
            self.queued_bytes -= f.len();
            return Ok(Some(f));
        }
        if let Some(m) = &self.poisoned {
            return Err(Error::protocol(m.clone()));
        }
        Ok(None)
    }

    /// A complete frame is ready (does not report the poisoned state).
    pub fn has_frame(&self) -> bool {
        !self.frames.is_empty()
    }

    /// A framing error was hit; [`FrameDecoder::next_frame`] will return
    /// it after any earlier complete frames.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Anything actionable buffered: a frame to dispatch or an error to
    /// report.
    pub fn has_ready(&self) -> bool {
        self.has_frame() || self.is_poisoned()
    }

    /// Mid-frame: some bytes of an incomplete frame (header or payload)
    /// are buffered. EOF in this state is the non-blocking equivalent of
    /// the blocking reader's "eof inside frame" protocol error.
    pub fn has_partial(&self) -> bool {
        self.header_fill > 0 || self.need.is_some()
    }

    /// Total bytes buffered (decoded-but-unclaimed frames plus the
    /// partial frame); the reactor stops reading a connection whose
    /// backlog grows past its budget.
    pub fn buffered_bytes(&self) -> usize {
        self.queued_bytes + self.partial.len() + self.header_fill
    }
}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian IEEE-754 `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Sequential reader over a received payload. Every accessor returns a
/// typed [`Error::Protocol`] on truncation instead of panicking.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::protocol(format!(
                "truncated frame: wanted {n} more bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::protocol("string field is not valid utf-8"))
    }

    /// Assert the whole payload was consumed (catches trailing garbage
    /// from a peer speaking a different sub-version).
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::protocol(format!(
                "{} trailing bytes after message body",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_mid_frame_is_protocol_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(Error::Protocol(_))));
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(Error::Protocol(_))));
    }

    #[test]
    fn primitives_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u16(&mut out, 513);
        put_u32(&mut out, 70_000);
        put_u64(&mut out, u64::MAX - 1);
        put_i64(&mut out, -42);
        put_f64(&mut out, 2.5);
        put_str(&mut out, "héllo");
        let mut r = ByteReader::new(&out);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), 2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncated_read_is_typed_not_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(Error::Protocol(_))));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = ByteReader::new(&[0]);
        assert!(matches!(r.finish(), Err(Error::Protocol(_))));
    }

    #[test]
    fn decoder_matches_blocking_reader_byte_for_byte() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();
        // Deliver one byte per "readiness event" — the worst tearing.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.feed(std::slice::from_ref(b));
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b"hello");
        assert_eq!(got[1], b"");
        assert_eq!(got[2], vec![0xAB; 300]);
        assert!(!dec.has_partial(), "stream ended on a frame boundary");
    }

    #[test]
    fn decoder_oversize_is_sticky_and_ordered_after_good_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"ok").unwrap();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        wire.extend_from_slice(b"garbage that must be ignored");
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"ok");
        assert!(matches!(dec.next_frame(), Err(Error::Protocol(_))));
        // Sticky: the error repeats, no phantom frames appear.
        assert!(matches!(dec.next_frame(), Err(Error::Protocol(_))));
        assert!(dec.is_poisoned());
    }

    #[test]
    fn decoder_reports_partial_frames() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..2]); // half a header
        assert!(dec.has_partial());
        assert!(dec.next_frame().unwrap().is_none());
        dec.feed(&wire[2..6]); // header + 2 payload bytes
        assert!(dec.has_partial());
        dec.feed(&wire[6..]);
        assert!(!dec.has_partial());
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"hello");
    }
}
