//! The harness's own seeded generator (SplitMix64), so the inputs depend
//! only on `--seed` and on nothing the library under test may change.

/// SplitMix64: a tiny, fast, statistically adequate 64-bit generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (Lemire's multiply-shift; the bias is below
    /// 2^-32 for every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `pct`%.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Derives an independent stream seed from a workload seed and a label,
/// so each input stream of a workload changes with `--seed` alone.
pub fn derive(seed: u64, label: u64) -> u64 {
    Rng::new(seed ^ label.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// A 64-byte plaintext that is a pure function of `(line, version)`, so
/// a shadow map of versions is enough to check every read.
pub fn plaintext(line: u64, version: u64) -> [u8; 64] {
    let mut out = [0u8; 64];
    let mut rng = Rng::new(line ^ version.rotate_left(32) ^ 0x5157_5157);
    for chunk in out.chunks_exact_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(1);
        for n in [1u64, 2, 3, 100, 8192, 1 << 40] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn plaintext_depends_on_line_and_version() {
        assert_eq!(plaintext(3, 1), plaintext(3, 1));
        assert_ne!(plaintext(3, 1), plaintext(3, 2));
        assert_ne!(plaintext(3, 1), plaintext(4, 1));
    }
}
