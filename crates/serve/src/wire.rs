//! Length-prefixed framing and the little-endian binary codec the service
//! protocol is built on.
//!
//! A frame is a `u32` little-endian payload length followed by exactly that
//! many payload bytes. The codec below is deliberately tiny: fixed-width
//! little-endian integers, `u8` booleans and tags, and `u32`-length-prefixed
//! UTF-8 strings. Integers are never routed through floating point, so
//! 64-bit addresses, block numbers, and counters round-trip exactly — the
//! bit-identical parity discipline extends to the wire.

use std::io::{self, Read, Write};

/// Upper bound on a single frame's payload (16 MiB). A drained stream's
/// full schedule is the largest message the protocol carries; at the
/// competition degree limit of 2 that bound allows streams of ~500K loads
/// per drain, far beyond what one frame should ever need. Oversized frames
/// are rejected on both ends rather than trusted.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Bytes of the `u32` length prefix in front of every payload.
const PREFIX_LEN: usize = 4;

/// Payload bytes [`read_frame`] commits before any of them arrive: frames
/// up to this size land in one allocation, and larger ones grow only as
/// bytes arrive.
const READ_RESERVE: usize = 64 << 10;

/// Writes one length-prefixed frame with a single `write_all`, so the
/// peer never wakes to a prefix whose payload has not been sent yet.
/// Copies `payload` once behind the prefix; encoders write their frame
/// in place with [`Enc::write_frame`] instead.
///
/// # Errors
///
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME_LEN`] with
/// [`io::ErrorKind::InvalidData`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut e = Enc::with_capacity(payload.len());
    e.buf.extend_from_slice(payload);
    e.write_frame(w)
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at a
/// frame boundary (the peer closed the connection between requests).
///
/// The payload buffer grows with the bytes that actually arrive, not with
/// the declared length, so a peer that sends only a large prefix costs
/// the reader at most `READ_RESERVE` (64 KiB). Pass a buffered reader
/// (`BufReader`) so a small frame costs one `read` syscall rather than
/// two.
///
/// # Errors
///
/// Propagates I/O errors; an EOF inside a frame or a length over
/// [`MAX_FRAME_LEN`] is [`io::ErrorKind::InvalidData`] /
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; PREFIX_LEN];
    let mut filled = 0usize;
    while filled < PREFIX_LEN {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    // Grow the buffer only as bytes arrive: each step asks for at most as
    // many bytes as have already arrived (and at least READ_RESERVE), so
    // the buffer never outgrows twice what the peer has actually sent.
    let mut payload = Vec::new();
    while payload.len() < len {
        let start = payload.len();
        let step = (len - start).min(start.max(READ_RESERVE));
        payload.resize(start + step, 0);
        r.read_exact(&mut payload[start..])?;
    }
    Ok(Some(payload))
}

/// Codec decode failure: truncated buffer, bad tag, or malformed UTF-8.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Append-only payload encoder. The buffer starts with room for the
/// frame's length prefix, so [`Enc::write_frame`] sends prefix and payload
/// in one `write` without copying the payload.
#[derive(Debug)]
pub struct Enc {
    /// `PREFIX_LEN` reserved bytes, then the payload.
    buf: Vec<u8>,
}

impl Default for Enc {
    fn default() -> Self {
        Enc::with_capacity(0)
    }
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Creates an empty encoder with `bytes` of payload capacity
    /// pre-reserved — used by the batch verbs, whose payload size is known
    /// up front, to keep frame encoding to a single allocation.
    pub fn with_capacity(bytes: usize) -> Self {
        let mut buf = Vec::with_capacity(PREFIX_LEN + bytes);
        buf.extend_from_slice(&[0; PREFIX_LEN]);
        Enc { buf }
    }

    /// Consumes the encoder, yielding the payload bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..PREFIX_LEN);
        self.buf
    }

    /// Consumes the encoder, writing its payload as one length-prefixed
    /// frame with a single `write_all` (one `write` call unless the
    /// writer accepts only part of it).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; rejects payloads over [`MAX_FRAME_LEN`] with
    /// [`io::ErrorKind::InvalidData`].
    pub fn write_frame<W: Write>(mut self, w: &mut W) -> io::Result<()> {
        let len = self.buf.len() - PREFIX_LEN;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds MAX_FRAME_LEN"),
            ));
        }
        self.buf[..PREFIX_LEN].copy_from_slice(&(len as u32).to_le_bytes());
        w.write_all(&self.buf)?;
        w.flush()
    }

    /// Appends one byte (tags, small enums).
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends `Some(v)` as `1` + value, `None` as `0`.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.u8(1);
                self.u64(v);
            }
            None => self.u8(0),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor-style payload decoder.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Whether every byte has been consumed (decoders should end here).
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError(format!(
                "needed {n} bytes at offset {}, payload is {} bytes",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a one-byte boolean (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError(format!("invalid bool byte {other}"))),
        }
    }

    /// Reads an optional `u64` (`0` tag = `None`, `1` tag = value follows).
    pub fn opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(WireError(format!("invalid option tag {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| WireError(format!("bad utf-8 string: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.bool(true);
        e.bool(false);
        e.opt_u64(Some(42));
        e.opt_u64(None);
        e.str("prefetch-as-a-service");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.opt_u64().unwrap(), Some(42));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.str().unwrap(), "prefetch-as-a-service");
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_and_bad_tags_are_errors() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u64().is_err());
        let mut d = Dec::new(&[9]);
        assert!(d.bool().is_err());
        let mut d = Dec::new(&[2]);
        assert!(d.opt_u64().is_err());
        // String length pointing past the buffer.
        let mut e = Enc::new();
        e.u32(100);
        let bytes = e.into_bytes();
        assert!(Dec::new(&bytes).str().is_err());
    }

    /// A writer that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        // A prefix written on its own wakes the peer before the payload
        // exists; prefix and payload must leave in the same `write`.
        let mut w = CountingWriter::default();
        write_frame(&mut w, b"alpha").unwrap();
        assert_eq!(w.writes, 1, "write_frame made {} writes", w.writes);
        let mut e = Enc::new();
        e.u64(7);
        e.str("beta");
        e.write_frame(&mut w).unwrap();
        assert_eq!(w.writes, 2, "Enc::write_frame made more than one write");
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.writes, 3, "an empty payload is still one write");

        let mut cur = io::Cursor::new(w.bytes);
        assert_eq!(
            read_frame(&mut cur).unwrap().as_deref(),
            Some(&b"alpha"[..])
        );
        let second = read_frame(&mut cur).unwrap().unwrap();
        let mut d = Dec::new(&second);
        assert_eq!(d.u64().unwrap(), 7);
        assert_eq!(d.str().unwrap(), "beta");
        assert!(d.is_empty());
        assert_eq!(read_frame(&mut cur).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut cur).unwrap(), None);
    }

    /// A reader that yields `data` and then EOF, recording the largest
    /// buffer any `read` call was handed.
    struct WidestRead {
        data: io::Cursor<Vec<u8>>,
        widest: usize,
    }

    impl Read for WidestRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.widest = self.widest.max(buf.len());
            self.data.read(buf)
        }
    }

    #[test]
    fn a_bare_max_length_prefix_does_not_allocate_the_frame() {
        // A peer that declares a MAX_FRAME_LEN payload and sends nothing
        // must not make the reader commit a 16 MiB buffer.
        let mut r = WidestRead {
            data: io::Cursor::new((MAX_FRAME_LEN as u32).to_le_bytes().to_vec()),
            widest: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.widest <= READ_RESERVE,
            "a read was handed {} bytes for a frame with no payload",
            r.widest
        );

        // Frames larger than the up-front reservation still arrive whole.
        let big: Vec<u8> = (0..3 * READ_RESERVE + 5).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &big).unwrap();
        let mut r = WidestRead {
            data: io::Cursor::new(buf),
            widest: 0,
        };
        assert_eq!(read_frame(&mut r).unwrap(), Some(big));
    }

    #[test]
    fn frames_round_trip_and_detect_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"beta").unwrap();
        let mut cur = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur).unwrap().as_deref(),
            Some(&b"alpha"[..])
        );
        assert_eq!(read_frame(&mut cur).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut cur).unwrap().as_deref(), Some(&b"beta"[..]));
        assert_eq!(read_frame(&mut cur).unwrap(), None, "clean EOF");

        // Truncated inside a frame: an error, not a silent None.
        let mut partial = Vec::new();
        write_frame(&mut partial, b"gamma").unwrap();
        partial.truncate(6);
        let mut cur = io::Cursor::new(partial);
        assert!(read_frame(&mut cur).is_err());

        // A declared length beyond the cap is rejected before allocation.
        let mut huge = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0; 8]);
        assert!(read_frame(&mut io::Cursor::new(huge)).is_err());
    }
}
