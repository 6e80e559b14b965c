//! Little-endian byte codec primitives shared by the snapshot and WAL
//! formats.
//!
//! Everything persisted by [`crate::persist`] is built from these few
//! fixed-width primitives, so the on-disk layout is specified by
//! construction: no padding, no endianness surprises, no
//! platform-dependent sizes. Floats are stored as raw IEEE-754 bit
//! patterns so a resumed run reproduces byte-identical figures.

use super::RecoveryError;

/// Offset-carrying truncation marker returned by [`ByteReader`] when the
/// input ends before a field does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncated {
    /// Byte offset at which the missing field started.
    pub offset: usize,
}

/// Appends fixed-width little-endian fields to a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the bytes written.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bit pattern (exact round-trip,
    /// NaN payloads included).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends raw bytes with no length prefix (fixed-width fields).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.bytes(v.as_bytes());
    }
}

/// Reads fixed-width little-endian fields from a byte slice, tracking the
/// current offset so truncation errors can name where the input ran out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current byte offset.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn chunk(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        let start = self.pos;
        let end = start.checked_add(n).ok_or(Truncated { offset: start })?;
        let bytes = self.buf.get(start..end).ok_or(Truncated { offset: start })?;
        self.pos = end;
        Ok(bytes)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when the input is exhausted.
    pub fn u8(&mut self) -> Result<u8, Truncated> {
        Ok(self.chunk(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than four bytes remain.
    pub fn u32(&mut self) -> Result<u32, Truncated> {
        let offset = self.pos;
        let bytes = self.chunk(4)?;
        bytes
            .try_into()
            .map(u32::from_le_bytes)
            .map_err(|_| Truncated { offset })
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than eight bytes remain.
    pub fn u64(&mut self) -> Result<u64, Truncated> {
        let offset = self.pos;
        let bytes = self.chunk(8)?;
        bytes
            .try_into()
            .map(u64::from_le_bytes)
            .map_err(|_| Truncated { offset })
    }

    /// Reads an `f64` stored as a raw bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than eight bytes remain.
    pub fn f64(&mut self) -> Result<f64, Truncated> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (any nonzero value reads as `true`).
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when the input is exhausted.
    pub fn bool(&mut self) -> Result<bool, Truncated> {
        Ok(self.u8()? != 0)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], Truncated> {
        self.chunk(n)
    }

    /// Reads a fixed 64-byte line image.
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] when fewer than 64 bytes remain.
    pub fn line(&mut self) -> Result<[u8; crate::CACHELINE_BYTES], Truncated> {
        let offset = self.pos;
        self.chunk(crate::CACHELINE_BYTES)?
            .try_into()
            .map_err(|_| Truncated { offset })
    }

    /// Reads a length-prefixed UTF-8 string (invalid UTF-8 reads as
    /// truncation at the string's offset — the bytes are not what the
    /// writer produced).
    ///
    /// # Errors
    ///
    /// Returns [`Truncated`] on exhaustion or invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, Truncated> {
        let len = self.u32()? as usize;
        let offset = self.pos;
        std::str::from_utf8(self.chunk(len)?).map_err(|_| Truncated { offset })
    }
}

/// FNV-1a 64-bit checksum — fast, dependency-free, and plenty to detect
/// the torn or bit-rotted writes this layer guards against (it is an
/// integrity *accident* detector; the MAC tree handles adversaries).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps `payload` in the checkpoint envelope shared by the result
/// (`MTSR`) and sweep (`MTLC`) checkpoints: `magic | version u32 |
/// payload | fnv1a(payload) u64`.
#[must_use]
pub fn frame(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Checks a [`frame`] envelope and returns its payload.
///
/// # Errors
///
/// Returns [`RecoveryError::BadMagic`], [`RecoveryError::UnsupportedVersion`],
/// [`RecoveryError::Truncated`] when the header or checksum is cut short,
/// or `ChecksumMismatch { section: 0 }` when the payload fails its checksum.
pub fn unframe(bytes: &[u8], magic: [u8; 4], version: u32) -> Result<&[u8], RecoveryError> {
    let mut r = ByteReader::new(bytes);
    if r.bytes(4).map_err(|_| RecoveryError::BadMagic)? != magic {
        return Err(RecoveryError::BadMagic);
    }
    let found = r.u32()?;
    if found != version {
        return Err(RecoveryError::UnsupportedVersion { version: found });
    }
    let remaining = r.remaining();
    if remaining < 8 {
        return Err(RecoveryError::Truncated { offset: r.offset() });
    }
    let payload = r.bytes(remaining - 8)?;
    let stored = r.u64()?;
    if fnv1a(payload) != stored {
        return Err(RecoveryError::ChecksumMismatch { section: 0 });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.str("héllo");
        w.bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes(3).unwrap(), &[1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_reports_the_field_offset() {
        let mut w = ByteWriter::new();
        w.u32(1);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.u64(), Err(Truncated { offset: 1 }));
        // A failed read does not advance the cursor.
        assert_eq!(r.offset(), 1);
        assert_eq!(r.remaining(), 3);
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Reference value for the empty input (FNV-1a offset basis).
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"abc"), fnv1a(b"abd"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
