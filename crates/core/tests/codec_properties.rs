//! Property coverage for the morphable-counter codec (the Fig 8/13
//! layouts in `counters/morph/codec.rs`): encode→decode identity for
//! randomly-driven ZCC, Uniform, and MCR lines, re-encode stability,
//! rejection of malformed bit patterns, and agreement of the word-level
//! field helpers with the per-bit reference oracle.

use std::collections::HashSet;

use proptest::prelude::*;

use morphtree_core::counters::bits::{LineReader, LineWriter};
use morphtree_core::counters::morph::{MorphFormat, MorphLine, MorphMode};
use morphtree_core::counters::CounterLine;
use morphtree_core::CodecError;

/// The per-bit oracle the library's own unit tests use.
#[path = "../src/counters/bits/reference.rs"]
mod reference;

use reference::set_bits;

fn any_mode() -> impl Strategy<Value = MorphMode> {
    prop_oneof![
        Just(MorphMode::ZccOnly),
        Just(MorphMode::ZccRebase),
        Just(MorphMode::SingleBase),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any line state reachable by increments round-trips bit-exactly, in
    /// every mode, and the decoded line re-encodes to the same image.
    #[test]
    fn encode_decode_identity_over_random_histories(
        mode in any_mode(),
        ops in proptest::collection::vec((0usize..128, 1usize..6), 0..60),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(mode);
        for (slot, times) in ops {
            for _ in 0..times {
                let _ = line.increment(slot);
            }
        }
        line.set_mac(mac);
        let image = line.encode();
        let decoded = MorphLine::decode(line.mode(), &image).unwrap();
        prop_assert_eq!(&decoded, &line);
        prop_assert_eq!(decoded.encode(), image, "re-encode must be stable");
    }

    /// Sparse lines (≤ 64 distinct non-zero slots) stay in the ZCC format
    /// and round-trip, MAC included.
    #[test]
    fn zcc_lines_round_trip(
        slots in proptest::collection::vec(0usize..128, 1..64),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        let mut distinct = HashSet::new();
        for slot in slots {
            if distinct.len() >= 64 && !distinct.contains(&slot) {
                continue;
            }
            distinct.insert(slot);
            let _ = line.increment(slot);
        }
        prop_assume!(line.format() == MorphFormat::Zcc);
        line.set_mac(mac);
        let decoded = MorphLine::decode(line.mode(), &line.encode()).unwrap();
        prop_assert_eq!(decoded, line);
    }

    /// Dense rebasing lines (all 128 slots written) morph to MCR and
    /// round-trip with non-trivial bases.
    #[test]
    fn mcr_lines_round_trip(
        extra in proptest::collection::vec((0usize..128, 1usize..4), 0..40),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in 0..128 {
            let _ = line.increment(slot);
        }
        for (slot, times) in extra {
            for _ in 0..times {
                let _ = line.increment(slot);
            }
        }
        prop_assume!(line.format() == MorphFormat::Mcr);
        line.set_mac(mac);
        let decoded = MorphLine::decode(line.mode(), &line.encode()).unwrap();
        prop_assert_eq!(decoded, line);
    }

    /// ZCC-only lines saturate into the uniform 128 × 3-bit format and
    /// round-trip.
    #[test]
    fn uniform_lines_round_trip(
        extra in proptest::collection::vec(0usize..128, 0..64),
        mac in any::<u64>(),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccOnly);
        for slot in 0..128 {
            let _ = line.increment(slot);
        }
        for slot in extra {
            let _ = line.increment(slot);
        }
        prop_assume!(line.format() == MorphFormat::Uniform);
        line.set_mac(mac);
        let decoded = MorphLine::decode(line.mode(), &line.encode()).unwrap();
        prop_assert_eq!(decoded, line);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A ZCC image whose stored ctr-sz disagrees with its bit-vector
    /// population is rejected with a typed error, whatever bogus value is
    /// stored.
    #[test]
    fn decode_rejects_corrupted_ctr_sz(
        wrong in 0u64..64,
        slots in proptest::collection::vec(0usize..128, 1..40),
    ) {
        let mut line = MorphLine::new(MorphMode::ZccRebase);
        for slot in slots {
            let _ = line.increment(slot);
        }
        prop_assume!(line.format() == MorphFormat::Zcc);
        let mut image = line.encode();
        let actual = u64::from((image[0] >> 1) & 0x3f);
        // 3 marks the uniform format: a valid (different) decode path,
        // not a malformed one.
        prop_assume!(wrong != actual && wrong != 3);
        set_bits(&mut image, 1, 6, wrong);
        prop_assert_eq!(
            MorphLine::decode(MorphMode::ZccRebase, &image),
            Err(CodecError::CtrSizeMismatch { stored: wrong, derived: actual }),
            "ctr-sz {} accepted against population {}", wrong, actual
        );
    }

    /// A ZCC image claiming more than 64 non-zero counters (impossible —
    /// the format would have morphed) is rejected.
    #[test]
    fn decode_rejects_overfull_bit_vectors(population in 65usize..=128) {
        let mut image = [0u8; 64];
        set_bits(&mut image, 0, 1, 0);
        set_bits(&mut image, 1, 6, 4);
        for slot in 0..population {
            set_bits(&mut image, 64 + slot, 1, 1);
        }
        prop_assert_eq!(
            MorphLine::decode(MorphMode::ZccRebase, &image),
            Err(CodecError::TooManyNonZero { nonzero: population }),
            "bit-vector population {} accepted", population
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `LineWriter::put` and `LineReader::take` write and read exactly the
    /// bits the per-bit oracle does, for any field of the line.
    #[test]
    fn word_level_fields_match_the_per_bit_oracle(
        background in any::<[u8; 64]>(),
        width in 0usize..=64,
        start in any::<usize>(),
        value in any::<u64>(),
    ) {
        let bit = start % (512 - width + 1);
        let value = if width == 64 { value } else { value & ((1 << width) - 1) };

        let mut expected = [0u8; 64];
        reference::set_bits(&mut expected, bit, width, value);
        let mut writer = LineWriter::new();
        writer.skip_to(bit);
        writer.put(width, value);
        prop_assert_eq!(writer.finish(), expected, "put bit {} width {}", bit, width);

        let mut reader = LineReader::new(&background);
        reader.skip_to(bit);
        prop_assert_eq!(
            reader.take(width),
            reference::get_bits(&background, bit, width),
            "take bit {} width {}", bit, width
        );
    }
}
