//! Golden-image pinning and corruption campaign for the counter-line
//! codecs (the Fig 8/13 morphable layouts and the SC-n / SGX split
//! layouts).
//!
//! The round-trip proptests only check `decode(encode(x)) == x`, which a
//! layout drift that is symmetric between encode and decode would pass.
//! `tests/data/counter_line_images.txt` pins the actual bytes: each row is
//! a fixed line state built through the public increment API and the hex
//! of its 64-byte `encode()` image. The suite asserts that every state
//! encodes to its row and every row decodes to its state.
//!
//! The campaign then drives each decoder with every single-bit flip of
//! every golden image, and with every truncation (the bytes past the cut
//! read back as zero, as after a torn write). Decoding must return `Ok` or
//! the typed [`CodecError`] a model of the layout predicts, and never
//! panic.
//!
//! Regenerate the fixture only for a deliberate layout change:
//! `cargo test -p morphtree-core --test codec_golden -- --ignored`.

use morphtree_core::counters::morph::{zcc_width, MorphFormat, MorphLine, MorphMode};
use morphtree_core::counters::split::{SplitConfig, SplitLine};
use morphtree_core::counters::{CounterLine, IncrementOutcome, LineImage, OverflowKind};
use morphtree_core::{CodecError, CACHELINE_BYTES};

const FIXTURE: &str = include_str!("data/counter_line_images.txt");
const FIXTURE_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/counter_line_images.txt");

/// The ZCC width buckets' boundaries (§III-B1): 16 b up to 16 non-zero
/// counters, 8 b up to 32, 7 b up to 36, 6 b up to 42, 5 b up to 51 and
/// 4 b up to 64.
const ZCC_POPULATIONS: [usize; 12] = [1, 16, 17, 32, 33, 36, 37, 42, 43, 51, 52, 64];

/// The ZCC major every morphable state starts from (set by a rewidth
/// failure, see [`morph_with_major`]).
const MAJOR: u64 = 0x1357;

/// A line of either organization, with the decoder its layout needs.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Line {
    Morph(MorphLine),
    Split(SplitLine),
}

impl Line {
    fn encode(&self) -> LineImage {
        match self {
            Line::Morph(line) => line.encode(),
            Line::Split(line) => line.encode(),
        }
    }

    /// Decodes `image` with this line's configuration.
    fn decode_like(&self, image: &LineImage) -> Result<Line, CodecError> {
        match self {
            Line::Morph(line) => MorphLine::decode(line.mode(), image).map(Line::Morph),
            Line::Split(line) => Ok(Line::Split(SplitLine::decode(line.config(), image))),
        }
    }
}

/// A fresh morphable line whose major is [`MAJOR`]: slot 0 is driven to
/// `MAJOR - 1` at width 16, then a 17th non-zero counter narrows the width
/// to 8 bits, which cannot hold it — a rewidth failure advances the major
/// by `MAJOR` and leaves only slot 16 non-zero (at 1).
fn morph_with_major(mode: MorphMode) -> MorphLine {
    let mut line = MorphLine::new(mode);
    for _ in 0..MAJOR - 1 {
        assert_eq!(line.increment(0), IncrementOutcome::Ok);
    }
    for slot in 1..16 {
        assert_eq!(line.increment(slot), IncrementOutcome::Ok);
    }
    let event = *line.increment(16).overflow().expect("rewidth failure");
    assert_eq!(event.kind, OverflowKind::ZccRewidthFailure);
    assert_eq!(line.major(), MAJOR);
    line
}

/// Increments `slot` until it reads `target` above the major.
fn raise(line: &mut impl CounterLine, slot: usize, target: u64, base: u64) {
    while line.get(slot) - base < target {
        assert!(line.increment(slot).overflow().is_none(), "slot {slot} overflowed");
    }
}

/// A ZCC line with `n` non-zero counters, spread over the line (slots
/// `16 + 37k mod 128`) with distinct values that fill the bucket width.
fn zcc_state(n: usize) -> MorphLine {
    let mut line = morph_with_major(MorphMode::ZccRebase);
    let width = zcc_width(n).unwrap();
    for k in 0..n {
        let slot = (16 + 37 * k) % 128;
        let value = 1 + (11 * k as u64 + 3) % ((1 << width) - 1);
        raise(&mut line, slot, value, MAJOR);
    }
    assert_eq!(line.format(), MorphFormat::Zcc);
    assert_eq!(line.used_counters(), n);
    line
}

/// Every slot non-zero with the 3-bit value `minor(slot)`, in `mode`.
fn dense_state(mode: MorphMode, minor: impl Fn(u64) -> u64) -> MorphLine {
    let mut line = morph_with_major(mode);
    for slot in 0..128 {
        let base = if line.format() == MorphFormat::Mcr {
            (line.major() << 7) + line.bases()[slot / 64]
        } else {
            line.major()
        };
        raise(&mut line, slot, minor(slot as u64), base);
    }
    line
}

/// The dense states' minors: 1..=7, varying from slot to slot.
fn spread_minor(slot: u64) -> u64 {
    1 + (5 * slot) % 7
}

/// A split line with a non-zero major (for arities with a major narrow
/// enough to overflow cheaply) and distinct non-zero minors.
fn split_state(arity: usize) -> SplitLine {
    let config = SplitConfig::with_arity(arity);
    let mut line = SplitLine::new(config);
    let minor_max = (1u64 << config.minor_bits) - 1;
    if config.major_bits > 0 && config.minor_bits <= 12 {
        // Three overflows of slot 0: major 3, slot 0 at 1.
        for _ in 0..3 {
            while line.increment(0).overflow().is_none() {}
        }
        assert_eq!(line.major(), 3);
    }
    for slot in 0..arity {
        let target = 1 + (13 * slot as u64 + 5) % minor_max.min(4000);
        while line.get(slot) & minor_max < target {
            assert!(line.increment(slot).overflow().is_none());
        }
    }
    line
}

/// The named golden states, in fixture order.
fn states() -> Vec<(String, Line)> {
    let fresh = MorphLine::new(MorphMode::ZccRebase);
    let mut states = vec![("zcc_fresh".to_string(), Line::Morph(fresh))];
    for n in ZCC_POPULATIONS {
        states.push((format!("zcc_{n}"), Line::Morph(zcc_state(n))));
    }

    let uniform = dense_state(MorphMode::ZccOnly, spread_minor);
    assert_eq!(uniform.format(), MorphFormat::Uniform);
    states.push(("uniform".to_string(), Line::Morph(uniform)));

    let mut single = dense_state(MorphMode::SingleBase, spread_minor);
    assert_eq!(single.format(), MorphFormat::Uniform);
    // Slot 9 saturates at 7; every minor is non-zero, so the next write
    // rebases the whole line onto the major.
    while single.increment(9) != IncrementOutcome::Rebased {}
    assert_eq!(single.major(), MAJOR + 1);
    states.push(("single_base_rebased".to_string(), Line::Morph(single)));

    // The first set's minors start at 2 and the second's at 1, so one
    // rebase of each leaves the two bases distinct.
    let mut mcr = dense_state(MorphMode::ZccRebase, |slot| {
        if slot < 64 {
            2 + (5 * slot) % 6
        } else {
            spread_minor(slot)
        }
    });
    assert_eq!(mcr.format(), MorphFormat::Mcr);
    for slot in [3usize, 100] {
        while mcr.increment(slot) != IncrementOutcome::Rebased {}
    }
    assert_eq!(mcr.major(), MAJOR >> 7);
    assert_eq!(mcr.bases(), [(MAJOR & 0x7f) + 2, (MAJOR & 0x7f) + 1]);
    states.push(("mcr_rebased".to_string(), Line::Morph(mcr)));

    for arity in [8usize, 16, 32, 64, 128] {
        states.push((format!("sc{arity}"), Line::Split(split_state(arity))));
    }

    for (i, (_, line)) in states.iter_mut().enumerate() {
        let mac = 0x0123_4567_89ab_cdef_u64.rotate_left(8 * i as u32) ^ i as u64;
        match line {
            Line::Morph(l) => l.set_mac(mac),
            Line::Split(l) => l.set_mac(mac),
        }
    }
    states
}

fn hex(image: &LineImage) -> String {
    image.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> LineImage {
    assert_eq!(text.len(), 2 * CACHELINE_BYTES, "image hex length");
    let mut image = [0u8; CACHELINE_BYTES];
    for (i, byte) in image.iter_mut().enumerate() {
        *byte = u8::from_str_radix(&text[2 * i..2 * i + 2], 16).expect("hex digit");
    }
    image
}

/// The fixture rows as `(name, image)`, comments skipped.
fn fixture_rows() -> Vec<(String, LineImage)> {
    FIXTURE
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, image) = l.split_once(' ').expect("`name hex` row");
            (name.to_string(), unhex(image.trim()))
        })
        .collect()
}

/// The states paired with their fixture images, checking the fixture
/// names the same states in the same order.
fn golden() -> Vec<(String, Line, LineImage)> {
    let states = states();
    let rows = fixture_rows();
    assert_eq!(
        rows.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        states.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        "fixture rows and states disagree"
    );
    states
        .into_iter()
        .zip(rows)
        .map(|((name, line), (_, image))| (name, line, image))
        .collect()
}

#[test]
fn every_state_encodes_to_its_golden_image() {
    for (name, line, image) in golden() {
        assert_eq!(hex(&line.encode()), hex(&image), "{name}: encode drifted from the fixture");
    }
}

#[test]
fn every_golden_image_decodes_to_its_state() {
    for (name, line, image) in golden() {
        assert_eq!(line.decode_like(&image), Ok(line.clone()), "{name}: decode drifted");
    }
}

#[test]
fn golden_mac_field_is_the_last_eight_bytes() {
    for (name, line, image) in golden() {
        let mac = match &line {
            Line::Morph(l) => l.mac(),
            Line::Split(l) => l.mac(),
        };
        assert_eq!(image[56..], mac.to_le_bytes(), "{name}");
    }
}

#[test]
#[ignore = "regenerates the golden fixture; run only for a deliberate layout change"]
fn regenerate_fixture() {
    let mut text = String::from(
        "# Golden 64-byte counter-line images: `<state> <hex of encode()>`.\n\
         # States are built in tests/codec_golden.rs; regenerate with\n\
         # `cargo test -p morphtree-core --test codec_golden -- --ignored`.\n",
    );
    for (name, line) in states() {
        text.push_str(&format!("{name} {}\n", hex(&line.encode())));
    }
    std::fs::write(FIXTURE_PATH, text).expect("write fixture");
}

// ----------------------------------------------------------------------
// Corruption campaign.
// ----------------------------------------------------------------------

fn bit(image: &LineImage, pos: usize) -> u64 {
    u64::from(image[pos / 8] >> (pos % 8) & 1)
}

/// What the morphable decoder must return for `image`, from the layout:
/// the family bit selects MCR, `ctr-sz == 3` selects Uniform, and a ZCC
/// image must have a bit-vector population of at most 64 whose width
/// bucket equals the stored `ctr-sz`.
fn expected_morph(image: &LineImage) -> Result<MorphFormat, CodecError> {
    if bit(image, 0) == 1 {
        return Ok(MorphFormat::Mcr);
    }
    let stored = (1..7).map(|i| bit(image, i) << (i - 1)).sum::<u64>();
    if stored == 3 {
        return Ok(MorphFormat::Uniform);
    }
    let nonzero = (64..192).filter(|&i| bit(image, i) == 1).count();
    let derived = u64::from(zcc_width(nonzero).ok_or(CodecError::TooManyNonZero { nonzero })?);
    if derived != stored {
        return Err(CodecError::CtrSizeMismatch { stored, derived });
    }
    Ok(MorphFormat::Zcc)
}

/// Decodes one corrupted image and checks the outcome against the layout
/// model. Every accepted image must re-encode without panicking; the
/// layouts that use all 512 bits (MCR, Uniform, every split layout)
/// must re-encode to the same bytes, and a ZCC decode must be a fixed
/// point of decode∘encode.
fn check_corrupted(name: &str, what: &str, golden: &Line, image: &LineImage) {
    let decoded = golden.decode_like(image);
    match (golden, decoded) {
        (Line::Split(_), Ok(line)) => {
            assert_eq!(line.encode(), *image, "{name} {what}: split layout is not a bijection");
        }
        (Line::Morph(_), result) => {
            let expected = expected_morph(image);
            let format = result.clone().map(|l| match l {
                Line::Morph(m) => m.format(),
                Line::Split(_) => unreachable!(),
            });
            assert_eq!(format, expected, "{name} {what}");
            if let Ok(line) = result {
                let reencoded = line.encode();
                if expected == Ok(MorphFormat::Zcc) {
                    assert_eq!(golden.decode_like(&reencoded), Ok(line), "{name} {what}");
                } else {
                    assert_eq!(reencoded, *image, "{name} {what}: full layout is not a bijection");
                }
            }
        }
        (Line::Split(_), Err(e)) => panic!("{name} {what}: split decode failed: {e}"),
    }
}

#[test]
fn every_single_bit_flip_decodes_to_the_modelled_outcome() {
    for (name, line, image) in golden() {
        for pos in 0..CACHELINE_BYTES * 8 {
            let mut flipped = image;
            flipped[pos / 8] ^= 1 << (pos % 8);
            check_corrupted(&name, &format!("bit {pos} flipped"), &line, &flipped);
        }
    }
}

#[test]
fn every_truncation_decodes_to_the_modelled_outcome() {
    for (name, line, image) in golden() {
        for cut in 0..CACHELINE_BYTES {
            // A short buffer is not a line image at all...
            assert!(<&LineImage>::try_from(&image[..cut]).is_err());
            // ...and a torn write reads back zero past the cut.
            let mut torn = [0u8; CACHELINE_BYTES];
            torn[..cut].copy_from_slice(&image[..cut]);
            check_corrupted(&name, &format!("truncated at byte {cut}"), &line, &torn);
        }
    }
}

#[test]
fn bit_vector_flips_keep_the_typed_zcc_errors() {
    // The ZCC population check is the decoder's only rejection path. Pin
    // the precise typed error at the bucket edges: a flip that moves the
    // population across a width boundary is a ctr-sz mismatch, and a 65th
    // non-zero counter is too many; a flip within the bucket decodes.
    let golden = golden();
    let image_of = |name: &str| golden.iter().find(|(n, _, _)| n == name).unwrap();
    for (name, set_flip, clear_flip) in [
        ("zcc_16", Ok(()), Err(CodecError::CtrSizeMismatch { stored: 16, derived: 8 })),
        ("zcc_17", Err(CodecError::CtrSizeMismatch { stored: 8, derived: 16 }), Ok(())),
        ("zcc_64", Ok(()), Err(CodecError::TooManyNonZero { nonzero: 65 })),
    ] {
        let (_, line, image) = image_of(name);
        for pos in 64..192 {
            let mut flipped = *image;
            flipped[pos / 8] ^= 1 << (pos % 8);
            let expected = if bit(image, pos) == 1 { &set_flip } else { &clear_flip };
            let got = line.decode_like(&flipped).map(|_| ());
            assert_eq!(&got, expected, "{name}: bit-vector bit {} flipped", pos - 64);
        }
    }
}
