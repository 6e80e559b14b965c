//! Latency arithmetic: nearest-rank percentiles, the "at least ten
//! samples beyond" rule for tail percentiles, means and medians.

/// How many samples a tail percentile must leave above it before it is
/// reported: fewer, and the "tail" is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` in `n` samples:
/// `ceil(p / 100 * n)`, clamped to `1..=n`.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    assert!(n > 0, "no samples");
    // Exact for the percentiles used here: scale to integer hundredths
    // first so that e.g. 99% of 1000 is 990, not 990.0000000000001 -> 991.
    let hundredths = (p * 100.0).round() as usize;
    (hundredths * n).div_ceil(100 * 100).clamp(1, n)
}

/// Samples strictly above the nearest-rank position of `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn tail_ok(p: f64, n: usize) -> bool {
    n > 0 && beyond(p, n) >= MIN_BEYOND
}

/// A set of latency samples in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        self.sum() / self.values.len() as f64
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank percentile `p`.
    pub fn percentile(&mut self, p: f64) -> f64 {
        self.sort();
        self.values[rank(p, self.values.len()) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Tail percentile `p`, or `None` when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn tail(&mut self, p: f64) -> Option<f64> {
        tail_ok(p, self.values.len()).then(|| self.percentile(p))
    }
}

/// Median of a small list (set-up repetitions, per-batch ratios).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::new();
    for &v in values {
        s.push(v);
    }
    s.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(rank(50.0, 1), 1);
        assert_eq!(rank(50.0, 2), 1);
        assert_eq!(rank(50.0, 3), 2);
        assert_eq!(rank(99.0, 1000), 990);
        assert_eq!(rank(99.0, 1001), 991);
        assert_eq!(rank(90.0, 100), 90);
        assert_eq!(rank(100.0, 7), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 leaves exactly 10 beyond; of 999 only 9.
        assert!(tail_ok(99.0, 1000));
        assert!(!tail_ok(99.0, 999));
        assert_eq!(beyond(99.0, 1000), 10);
        assert!(tail_ok(90.0, 100));
        assert!(!tail_ok(90.0, 99));
        assert!(!tail_ok(50.0, 0));
    }

    #[test]
    fn a_tail_short_of_ten_beyond_is_not_reported() {
        // The percentile never steps down: p90 of 99 samples is refused,
        // not replaced by a lower percentile.
        let mut s = Samples::new();
        for v in 1..=99 {
            s.push(f64::from(v));
        }
        assert_eq!(s.tail(90.0), None);
        s.push(100.0);
        assert_eq!(s.tail(90.0), Some(90.0));
        assert_eq!(s.tail(95.0), None);
    }

    #[test]
    fn percentiles_of_a_known_set() {
        let mut s = Samples::new();
        for v in (1..=1000).rev() {
            s.push(f64::from(v));
        }
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.percentile(99.0), 990.0);
        assert_eq!(s.tail(99.0), Some(990.0));
        assert_eq!(s.mean(), 500.5);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
