//! Word-level field access for 64-byte counter-line codecs.
//!
//! All counter organizations in the paper are defined as bit-level layouts
//! of a 512-bit cacheline (Fig 8, Fig 13). Bit `b` of a line is bit `b % 8`
//! of byte `b / 8` (LSB-first), which is bit `b % 64` of the little-endian
//! `u64` word `b / 64`. The codecs therefore build and parse every image as
//! eight such words, field by field in layout order, and move each field
//! with one shift and mask over at most two words (no field is wider than
//! 64 bits) — the way hardware reads these layouts with plain wiring. The
//! byte image is the same as a bit-at-a-time packing would produce; the
//! per-bit helpers survive as a test-only oracle in `bits/reference.rs`.

use super::LineImage;
use crate::{CACHELINE_BITS, CACHELINE_BYTES};

#[cfg(test)]
pub(crate) mod reference;

/// Number of `u64` words in a line image.
const LINE_WORDS: usize = CACHELINE_BYTES / 8;

/// The low `width` bits set (`width <= 64`).
const fn mask(width: usize) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1 << width) - 1
    }
}

/// Checks that `[bit, bit + width)` is a field of a 512-bit line.
#[inline]
#[track_caller]
fn check_field(bit: usize, width: usize) {
    if width > 64 || bit + width > CACHELINE_BITS {
        bad_field(bit, width);
    }
}

/// Checks that `value` fits in `width` bits.
#[inline]
#[track_caller]
fn check_value(value: u64, width: usize) {
    if value & !mask(width) != 0 {
        bad_value(value, width);
    }
}

// The panics live out of line so that the checks on the hot path stay a
// compare and a never-taken branch.

#[cold]
#[inline(never)]
#[track_caller]
fn bad_field(bit: usize, width: usize) -> ! {
    assert!(width <= 64, "field width {width} exceeds 64 bits");
    panic!("field out of range: bits {bit}..{} of a {CACHELINE_BITS}-bit line", bit + width);
}

#[cold]
#[inline(never)]
#[track_caller]
fn bad_value(value: u64, width: usize) -> ! {
    panic!("value {value:#x} does not fit in {width} bits");
}

/// Builds a line image one field at a time, in increasing bit order — the
/// order every layout in the paper lists its fields in.
///
/// Fields accumulate in a register, and each completed word is stored
/// once: no per-field read-modify-write of the image.
#[derive(Debug, Default)]
pub struct LineWriter {
    words: [u64; LINE_WORDS],
    /// The bits of word `bit / 64` written so far.
    acc: u64,
    /// Where the next field starts.
    bit: usize,
}

impl LineWriter {
    /// A writer at bit 0 of an all-zero line.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `value` as a `width`-bit field.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, the field extends past the end of the line,
    /// or `value` does not fit in `width` bits.
    #[inline]
    #[track_caller]
    pub fn put(&mut self, width: usize, value: u64) {
        check_field(self.bit, width);
        check_value(value, width);
        let (word, shift) = (self.bit / 64, self.bit % 64);
        self.acc |= value << shift;
        self.bit += width;
        if shift + width >= 64 {
            self.words[word] = self.acc;
            // The field's bits past the word boundary start the next word.
            self.acc = if shift == 0 { 0 } else { value >> (64 - shift) };
        }
    }

    /// Appends `values` as consecutive `width`-bit fields: the same bits
    /// as one [`LineWriter::put`] per value.
    ///
    /// Narrow fields are packed into a register as many at a time as fit in
    /// 64 bits, and each group is appended with one `put` — for the 3-bit
    /// minor arrays that is 21 fields per `put`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`, the fields extend past the end of the line,
    /// or a value does not fit in `width` bits.
    #[track_caller]
    pub fn put_all(&mut self, width: usize, values: impl IntoIterator<Item = u64>) {
        if width > 64 {
            bad_field(self.bit, width);
        }
        let (mut packed, mut used) = (0u64, 0usize);
        for value in values {
            check_value(value, width);
            if used + width > 64 {
                self.put(used, packed);
                (packed, used) = (0, 0);
            }
            packed |= value << used;
            used += width;
        }
        self.put(used, packed);
    }

    /// Leaves every bit before `bit` that is not yet written zero, so the
    /// next field starts at `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is behind the writer or past the end of the line.
    pub fn skip_to(&mut self, bit: usize) {
        assert!(
            self.bit <= bit && bit <= CACHELINE_BITS,
            "cannot skip from bit {} to bit {bit}",
            self.bit
        );
        if bit / 64 != self.bit / 64 {
            self.words[self.bit / 64] = self.acc;
            self.acc = 0;
        }
        self.bit = bit;
    }

    /// The finished image; bits never written are zero.
    #[must_use]
    pub fn finish(mut self) -> LineImage {
        if !self.bit.is_multiple_of(64) {
            self.words[self.bit / 64] = self.acc;
        }
        let mut image = [0u8; CACHELINE_BYTES];
        for (bytes, word) in image.chunks_exact_mut(8).zip(self.words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        image
    }
}

/// Parses a line image one field at a time, in increasing bit order.
#[derive(Debug)]
pub struct LineReader {
    words: [u64; LINE_WORDS],
    /// Where the next field starts.
    bit: usize,
}

impl LineReader {
    /// A reader at bit 0 of `image`.
    #[must_use]
    pub fn new(image: &LineImage) -> Self {
        let mut words = [0u64; LINE_WORDS];
        for (word, bytes) in words.iter_mut().zip(image.chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(bytes);
            *word = u64::from_le_bytes(le);
        }
        LineReader { words, bit: 0 }
    }

    /// Reads the next `width`-bit field.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or the field extends past the end of the line.
    #[inline]
    #[track_caller]
    pub fn take(&mut self, width: usize) -> u64 {
        check_field(self.bit, width);
        if width == 0 {
            // Empty, possibly at bit 512: no word to touch.
            return 0;
        }
        let (word, shift) = (self.bit / 64, self.bit % 64);
        let mut value = self.words[word] >> shift;
        if shift + width > 64 {
            value |= self.words[word + 1] << (64 - shift);
        }
        self.bit += width;
        value & mask(width)
    }

    /// Skips to `bit`, so the next field starts there.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is behind the reader or past the end of the line.
    pub fn skip_to(&mut self, bit: usize) {
        assert!(
            self.bit <= bit && bit <= CACHELINE_BITS,
            "cannot skip from bit {} to bit {bit}",
            self.bit
        );
        self.bit = bit;
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{get_bits, set_bits};
    use super::*;

    /// Reads the field at `bit` of `image`.
    fn read_field(image: &LineImage, bit: usize, width: usize) -> u64 {
        let mut reader = LineReader::new(image);
        reader.skip_to(bit);
        reader.take(width)
    }

    #[test]
    fn sequential_fields_pack_back_to_back() {
        let mut writer = LineWriter::new();
        for (width, value) in [(1, 1), (49, 0x1_2345_6789_abcd), (7, 0x55), (7, 0x2a)] {
            writer.put(width, value);
        }
        let image = writer.finish();
        let mut reader = LineReader::new(&image);
        assert_eq!(reader.take(1), 1);
        assert_eq!(reader.take(49), 0x1_2345_6789_abcd);
        assert_eq!(reader.take(7), 0x55);
        assert_eq!(reader.take(7), 0x2a);
        assert_eq!(image[8..], [0; 56]);
    }

    #[test]
    fn put_all_matches_one_put_per_field() {
        let mut state = 0x853c_49e6_748f_ea9b_u64;
        for width in 0..=64 {
            let count = (CACHELINE_BITS - 5).checked_div(width).unwrap_or(9);
            let values: Vec<u64> = (0..count)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state & mask(width)
                })
                .collect();
            let mut one_by_one = LineWriter::new();
            let mut grouped = LineWriter::new();
            one_by_one.put(5, 0x15);
            grouped.put(5, 0x15);
            for &value in &values {
                one_by_one.put(width, value);
            }
            grouped.put_all(width, values.iter().copied());
            assert_eq!(grouped.finish(), one_by_one.finish(), "width {width}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn put_all_rejects_oversized_values() {
        LineWriter::new().put_all(3, [1, 7, 8, 2]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_value() {
        LineWriter::new().put(3, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_field() {
        let mut reader = LineReader::new(&[0; CACHELINE_BYTES]);
        reader.skip_to(510);
        let _ = reader.take(8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_writing_past_the_line() {
        let mut writer = LineWriter::new();
        writer.skip_to(448);
        writer.put(64, 1);
        writer.put(1, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 64 bits")]
    fn rejects_over_wide_field() {
        LineWriter::new().put(65, 0);
    }

    #[test]
    #[should_panic(expected = "cannot skip")]
    fn rejects_skipping_backwards() {
        let mut writer = LineWriter::new();
        writer.put(8, 1);
        writer.skip_to(4);
    }

    #[test]
    fn dense_packing_of_3_bit_fields() {
        // The SC-128 minor array: 128 x 3-bit fields must pack without
        // interference, including the ones straddling a word boundary.
        let mut writer = LineWriter::new();
        writer.skip_to(64);
        for i in 0..128 {
            writer.put(3, (i % 8) as u64);
        }
        let image = writer.finish();
        let mut reader = LineReader::new(&image);
        reader.skip_to(64);
        for i in 0..128 {
            assert_eq!(reader.take(3), (i % 8) as u64, "slot {i}");
            assert_eq!(get_bits(&image, 64 + 3 * i, 3), (i % 8) as u64, "slot {i}");
        }
    }

    #[test]
    fn image_words_are_little_endian() {
        let mut image = [0u8; CACHELINE_BYTES];
        for (i, byte) in image.iter_mut().enumerate() {
            *byte = i as u8;
        }
        let mut reader = LineReader::new(&image);
        assert_eq!(reader.take(64), 0x0706_0504_0302_0100);
        reader.skip_to(448);
        assert_eq!(reader.take(64), 0x3f3e_3d3c_3b3a_3938);
        let mut writer = LineWriter::new();
        let mut reader = LineReader::new(&image);
        for _ in 0..8 {
            writer.put(64, reader.take(64));
        }
        assert_eq!(writer.finish(), image);
    }

    #[test]
    fn every_field_matches_the_per_bit_oracle() {
        // Exhaustive over field placement: every (bit, width) that fits a
        // line, written after a leading field and read on a non-trivial
        // background.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut background = [0u8; CACHELINE_BYTES];
        for byte in &mut background {
            *byte = next() as u8;
        }
        for width in 0..=64 {
            for bit in 0..=CACHELINE_BITS - width {
                let value = next() & mask(width);
                let lead = bit.min(5);
                let lead_value = next() & mask(lead);
                let mut expected = [0u8; CACHELINE_BYTES];
                set_bits(&mut expected, 0, lead, lead_value);
                set_bits(&mut expected, bit, width, value);
                let mut writer = LineWriter::new();
                writer.put(lead, lead_value);
                writer.skip_to(bit);
                writer.put(width, value);
                assert_eq!(writer.finish(), expected, "put bit {bit} width {width}");
                assert_eq!(
                    read_field(&background, bit, width),
                    get_bits(&background, bit, width),
                    "take bit {bit} width {width}"
                );
            }
        }
    }
}
