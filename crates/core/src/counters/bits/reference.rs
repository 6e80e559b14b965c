//! Per-bit reference implementation of counter-line field access.
//!
//! These are the codecs' original helpers: they move one bit per loop
//! iteration over the 64-byte image, which makes them obviously correct
//! and slow. They survive only as the oracle the word-level
//! `LineWriter::put` and `LineReader::take` are checked against, and are
//! compiled for tests alone (the unit tests in `bits.rs`, and
//! `tests/codec_properties.rs`, which includes this file by path). The
//! file depends on nothing but `core`, so it can be included anywhere.

/// Reads `width` bits starting at bit offset `bit` (LSB-first within the
/// line) as a `u64`.
///
/// # Panics
///
/// Panics if `width > 64` or the field extends past the end of the line.
pub fn get_bits(buf: &[u8; 64], bit: usize, width: usize) -> u64 {
    assert!(width <= 64, "field width {width} exceeds 64 bits");
    assert!(bit + width <= 64 * 8, "field out of range");
    let mut value = 0u64;
    for i in 0..width {
        let pos = bit + i;
        let byte = buf[pos / 8];
        if (byte >> (pos % 8)) & 1 == 1 {
            value |= 1 << i;
        }
    }
    value
}

/// Writes `width` bits of `value` starting at bit offset `bit`.
///
/// # Panics
///
/// Panics if `width > 64`, the field extends past the end of the line, or
/// `value` does not fit in `width` bits.
pub fn set_bits(buf: &mut [u8; 64], bit: usize, width: usize, value: u64) {
    assert!(width <= 64, "field width {width} exceeds 64 bits");
    assert!(bit + width <= 64 * 8, "field out of range");
    if width < 64 {
        assert!(
            value < (1u64 << width),
            "value {value:#x} does not fit in {width} bits"
        );
    }
    for i in 0..width {
        let pos = bit + i;
        let mask = 1u8 << (pos % 8);
        if (value >> i) & 1 == 1 {
            buf[pos / 8] |= mask;
        } else {
            buf[pos / 8] &= !mask;
        }
    }
}
