//! Bit-exact 64-byte encoding of morphable counter lines.
//!
//! The layouts realize Fig 8 and Fig 13 of the paper. The paper draws the
//! 7-bit format field between the major counter and the minors; we place
//! the family bit first so that a decoder can always find it at bit 0 —
//! an equivalent-size representation choice (documented in DESIGN.md):
//!
//! ```text
//! ZCC     [family=0:1][ctr-sz:6][major:57][bit-vector:128][non-zero ctrs:256][MAC:64]
//! Uniform [family=0:1][ctr-sz=3:6][major:57][128 x 3-bit ctrs:384][MAC:64]
//! MCR     [family=1:1][major:49][base-1:7][base-2:7][64 x 3-bit:192][64 x 3-bit:192][MAC:64]
//! ```
//!
//! Every layout is exactly 512 bits.

use super::super::bits::{LineReader, LineWriter};
use super::{zcc_width, MorphFormat, MorphLine, MorphMode, MORPH_ARITY};
use crate::error::CodecError;
use crate::{CACHELINE_BITS, CACHELINE_BYTES, LINE_MAC_BITS};

const MAC_OFFSET: usize = CACHELINE_BITS - LINE_MAC_BITS;

/// The `ctr-sz` value that marks the uniform 128 × 3-bit format
/// (`zcc_width` never yields 3, so the encoding is unambiguous).
const UNIFORM_CTR_SZ: u64 = 3;

/// The ZCC bit-vector of `values`: bit `s` is set iff counter `s` is
/// non-zero.
///
/// Four counters at a time, as the 16-bit lanes of a `u64`: adding
/// `0x7fff` to a lane's low 15 bits carries into its top bit iff they are
/// non-zero, and or-ing the lane back in covers a set top bit. The
/// multiply then gathers the four lane tops (at bits 0, 16, 32 and 48
/// after the shift) into bits 45..49; every partial product lands on a bit
/// of its own, so nothing carries into them.
fn nonzero_bit_vector(values: &[u16; MORPH_ARITY]) -> u128 {
    const LOW: u64 = 0x7fff_7fff_7fff_7fff;
    const GATHER: u64 = 1 | 1 << 15 | 1 << 30 | 1 << 45;
    let half = |values: &[u16]| {
        values.chunks_exact(4).enumerate().fold(0u64, |bits, (quad, v)| {
            let lanes = u64::from(v[0])
                | u64::from(v[1]) << 16
                | u64::from(v[2]) << 32
                | u64::from(v[3]) << 48;
            let tops = (((lanes & LOW) + LOW) | lanes) & !LOW;
            bits | ((tops >> 15).wrapping_mul(GATHER) >> 45 & 0xf) << (4 * quad)
        })
    };
    u128::from(half(&values[..64])) | u128::from(half(&values[64..])) << 64
}

/// The slots a ZCC bit-vector marks non-zero, in slot order.
fn nonzero_slots(bit_vector: u128) -> impl Iterator<Item = usize> {
    let mut rest = bit_vector;
    std::iter::from_fn(move || {
        let slot = rest.trailing_zeros() as usize;
        rest &= rest.wrapping_sub(1);
        (slot < MORPH_ARITY).then_some(slot)
    })
}

/// Reads the 128 × 3-bit minors of the Uniform and MCR formats.
fn take_minors(reader: &mut LineReader, values: &mut [u16; MORPH_ARITY]) {
    for v in values.iter_mut() {
        *v = reader.take(3) as u16;
    }
}

/// Encodes `line` into its 64-byte image. When `with_mac` is false the MAC
/// field is left zero (the byte string a MAC is computed over).
pub fn encode(line: &MorphLine, with_mac: bool) -> [u8; CACHELINE_BYTES] {
    let mut writer = LineWriter::new();
    match line.format {
        MorphFormat::Zcc => {
            // The bit-vector's population sets the width.
            let bit_vector = nonzero_bit_vector(&line.values);
            let nonzero = bit_vector.count_ones() as usize;
            let Some(width) = zcc_width(nonzero) else {
                // The ZCC format invariant (at most 64 non-zero minors) is
                // maintained by every increment path; encoding a violating
                // line must fail loudly, not emit a corrupt image.
                panic!("ZCC line with {nonzero} non-zero minors cannot be encoded");
            };
            let width = width as usize;
            writer.put(1, 0);
            writer.put(6, width as u64);
            assert!(line.major < 1 << 57, "ZCC major exceeds 57 bits");
            writer.put(57, line.major);
            writer.put(64, bit_vector as u64);
            writer.put(64, (bit_vector >> 64) as u64);
            // The non-zero counters, packed in slot order.
            let packed = nonzero_slots(bit_vector).map(|slot| u64::from(line.values[slot]));
            writer.put_all(width, packed);
        }
        MorphFormat::Uniform => {
            writer.put(1, 0);
            writer.put(6, UNIFORM_CTR_SZ);
            assert!(line.major < 1 << 57, "uniform major exceeds 57 bits");
            writer.put(57, line.major);
            writer.put_all(3, line.values.iter().map(|&v| u64::from(v)));
        }
        MorphFormat::Mcr => {
            writer.put(1, 1);
            assert!(line.major < 1 << 49, "MCR major exceeds 49 bits");
            writer.put(49, line.major);
            writer.put(7, line.bases[0]);
            writer.put(7, line.bases[1]);
            writer.put_all(3, line.values.iter().map(|&v| u64::from(v)));
        }
    }
    writer.skip_to(MAC_OFFSET);
    if with_mac {
        writer.put(LINE_MAC_BITS, line.mac);
    }
    writer.finish()
}

/// Decodes a 64-byte image back into a line (the `mode` is configuration,
/// not stored in the image).
///
/// # Errors
///
/// Returns [`CodecError`] if the image is not a well-formed morphable line
/// (e.g. the stored `ctr-sz` disagrees with the bit-vector population
/// count). Images only ever come from [`encode`], so a decode failure means
/// the stored bytes were corrupted in flight — a torn snapshot write, bit
/// rot, or tampering below the MAC layer.
pub fn decode(mode: MorphMode, image: &[u8; CACHELINE_BYTES]) -> Result<MorphLine, CodecError> {
    let mut reader = LineReader::new(image);
    let mut line = MorphLine::new(mode);
    if reader.take(1) == 1 {
        line.format = MorphFormat::Mcr;
        line.major = reader.take(49);
        line.bases = [reader.take(7), reader.take(7)];
        take_minors(&mut reader, &mut line.values);
    } else {
        let ctr_sz = reader.take(6);
        line.major = reader.take(57);
        if ctr_sz == UNIFORM_CTR_SZ {
            line.format = MorphFormat::Uniform;
            take_minors(&mut reader, &mut line.values);
        } else {
            line.format = MorphFormat::Zcc;
            let bit_vector = u128::from(reader.take(64)) | u128::from(reader.take(64)) << 64;
            let nonzero = bit_vector.count_ones() as usize;
            let width =
                zcc_width(nonzero).ok_or(CodecError::TooManyNonZero { nonzero })? as usize;
            if width as u64 != ctr_sz {
                return Err(CodecError::CtrSizeMismatch { stored: ctr_sz, derived: width as u64 });
            }
            for slot in nonzero_slots(bit_vector) {
                line.values[slot] = reader.take(width) as u16;
            }
        }
    }
    reader.skip_to(MAC_OFFSET);
    line.mac = reader.take(LINE_MAC_BITS);
    Ok(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterLine, IncrementOutcome};

    fn roundtrip(line: &MorphLine) {
        let decoded = decode(line.mode(), &line.encode()).unwrap();
        assert_eq!(&decoded, line);
    }

    #[test]
    fn roundtrip_fresh_line() {
        roundtrip(&MorphLine::new(MorphMode::ZccRebase));
    }

    #[test]
    fn roundtrip_sparse_zcc() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in [0usize, 17, 45, 99, 127] {
            for _ in 0..(slot + 1) {
                line.increment(slot);
            }
        }
        line.set_mac(0xfeed_face_cafe_beef);
        roundtrip(&line);
    }

    #[test]
    fn roundtrip_every_zcc_width() {
        // Exercise each width bucket boundary.
        for n in [1usize, 16, 17, 32, 33, 36, 37, 42, 43, 51, 52, 64] {
            let mut line = MorphLine::new(MorphMode::ZccRebase);
            for slot in 0..n {
                line.increment(slot);
            }
            assert_eq!(line.used_counters(), n);
            roundtrip(&line);
        }
    }

    #[test]
    fn roundtrip_uniform() {
        let mut line = MorphLine::new(MorphMode::ZccOnly);
        for slot in 0..128 {
            line.increment(slot);
        }
        assert_eq!(line.format(), MorphFormat::Uniform);
        line.set_mac(7);
        roundtrip(&line);
    }

    #[test]
    fn roundtrip_mcr_with_rebased_bases() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..128 {
            line.increment(slot);
        }
        assert_eq!(line.format(), MorphFormat::Mcr);
        // Force a rebase so the bases are non-trivial.
        for _ in 0..7 {
            line.increment(3);
        }
        assert!(line.bases()[0] > 0);
        roundtrip(&line);
    }

    #[test]
    fn all_formats_fit_512_bits() {
        // encode() would panic via LineWriter::put if any field overran the line;
        // drive a line through all three formats to prove the layouts fit.
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        let _ = line.encode();
        for slot in 0..128 {
            for _ in 0..5 {
                line.increment(slot);
            }
            let _ = line.encode();
        }
        assert_eq!(line.format(), MorphFormat::Mcr);
    }

    #[test]
    fn mac_field_occupies_final_eight_bytes() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        line.increment(0);
        line.set_mac(u64::MAX);
        let image = line.encode();
        assert_eq!(image[56..64], [0xff; 8]);
        let body = line.encode_for_mac();
        assert_eq!(body[56..64], [0u8; 8]);
        assert_eq!(image[..56], body[..56]);
    }

    #[test]
    fn decode_rejects_inconsistent_ctr_sz() {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        line.increment(0);
        let mut image = line.encode();
        // Corrupt the ctr-sz field (bits 1..7) to 5.
        crate::counters::bits::reference::set_bits(&mut image, 1, 6, 5);
        assert_eq!(
            decode(MorphMode::ZccRebase, &image),
            Err(CodecError::CtrSizeMismatch { stored: 5, derived: 16 })
        );
    }

    #[test]
    fn decode_rejects_overfull_bit_vectors_with_a_typed_error() {
        let mut image = MorphLine::new(MorphMode::ZccRebase).encode();
        // Mark 65 counters non-zero: no ZCC width schedule covers that.
        for slot in 0..65 {
            crate::counters::bits::reference::set_bits(&mut image, 64 + slot, 1, 1);
        }
        assert_eq!(
            decode(MorphMode::ZccRebase, &image),
            Err(CodecError::TooManyNonZero { nonzero: 65 })
        );
    }

    #[test]
    fn bit_vector_marks_exactly_the_non_zero_counters() {
        // Every lane pattern the SWAR step can meet, including counters
        // with only the top bit or only low bits set.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..2000 {
            let mut values = [0u16; MORPH_ARITY];
            for v in &mut values {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *v = match state % 5 {
                    0 => 0x8000,
                    1 => 1,
                    2 => (state >> 32) as u16,
                    _ => 0,
                };
            }
            let expected = values
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .fold(0u128, |bits, (slot, _)| bits | 1 << slot);
            assert_eq!(nonzero_bit_vector(&values), expected);
            assert!(nonzero_slots(expected).eq((0..MORPH_ARITY).filter(|&s| values[s] != 0)));
        }
    }

    #[test]
    fn encoded_formats_are_distinguishable() {
        let zcc = MorphLine::new(MorphMode::ZccRebase).encode();
        let mut dense = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..128 {
            dense.increment(slot);
        }
        let mcr = dense.encode();
        assert_eq!(zcc[0] & 1, 0);
        assert_eq!(mcr[0] & 1, 1);
        let mut uniform_line = MorphLine::new(MorphMode::ZccOnly);
        for slot in 0..128 {
            uniform_line.increment(slot);
        }
        let uniform = uniform_line.encode();
        assert_eq!(uniform[0] & 1, 0);
        assert_eq!((uniform[0] >> 1) & 0x3f, 3);
    }

    #[test]
    fn increments_after_roundtrip_behave_identically() {
        let mut a = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..70 {
            a.increment(slot % 128);
        }
        let mut b = decode(MorphMode::ZccRebase, &a.encode()).unwrap();
        for slot in [0usize, 64, 127, 5] {
            let oa = a.increment(slot);
            let ob = b.increment(slot);
            assert_eq!(oa, ob);
            assert_eq!(a, b);
            let _ = matches!(oa, IncrementOutcome::Ok);
        }
    }
}
