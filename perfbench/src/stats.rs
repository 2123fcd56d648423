//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-th percentile of
//! `n` sorted samples is the value at 1-based rank `ceil(p * n / 100)`.
//! A tail is reported at the highest percentile of a fixed ladder that
//! still leaves at least [`TAIL_MIN_BEYOND`] samples above its rank, so a
//! tail figure never rests on a handful of outliers.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentile candidates for a tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank 1-based rank of percentile `p` among `n` samples. The
/// epsilon keeps binary rounding of `p` (99.9 is not exact) from pushing
/// an exact rank up by one.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of already sorted samples; `NaN` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Sort a copy of `samples` (NaN-free by construction of the callers).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    v
}

/// Median (nearest-rank p50).
pub fn median(samples: &[f64]) -> f64 {
    percentile_sorted(&sorted(samples), 50.0)
}

/// Mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A tail figure: which percentile, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it. With too few samples for any rung the median is
/// returned (its `beyond` then says how thin the evidence is).
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    let pick = TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n > 0 && n - rank(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile: pick,
        value: percentile_sorted(&s, pick),
        samples: n,
        beyond: if n == 0 { 0 } else { n - rank(pick, n) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile_sorted(&s, 50.0), 50.0);
        assert_eq!(percentile_sorted(&s, 90.0), 90.0);
        assert_eq!(percentile_sorted(&s, 99.0), 99.0);
        assert_eq!(percentile_sorted(&s, 100.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 99.9), 7.0);
        assert_eq!(percentile_sorted(&ramp(5), 50.0), 3.0);
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 999 samples: p99 leaves only 9 beyond, so p95 is reported.
        assert_eq!(tail(&ramp(999)).percentile, 95.0);
        let t = tail(&ramp(40));
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        let t = tail(&ramp(12));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 6.0, 6));
    }
}
