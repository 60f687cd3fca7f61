//! Order statistics used by every workload: nearest-rank percentiles,
//! the "highest percentile with at least ten samples beyond it" tail
//! rule, and medians of repeated measurements.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest tail percentile ever reported, in percent.
pub const TAIL_CAP_PCT: usize = 99;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Empty input is an
/// internal error (every caller measures at least one sample).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps binary rounding of `q * n` (0.99 * 2000 is not
    // exactly 1980) from bumping the rank up by one.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail summary: the reported percentile, its value and the sample
/// count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, as a fraction (0.99 for p99).
    pub q: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the tail was computed over.
    pub n: usize,
}

/// The highest percentile, capped at [`TAIL_CAP_PCT`], that has at least
/// [`TAIL_BEYOND`] samples beyond it. With too few samples for any such
/// percentile the maximum is reported (and `q` says so: 1.0).
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of no samples");
    let n = sorted.len();
    let capped = (TAIL_CAP_PCT * n).div_ceil(100).max(1) - 1;
    let idx = if n > TAIL_BEYOND {
        capped.min(n - 1 - TAIL_BEYOND)
    } else {
        n - 1
    };
    Tail {
        q: (idx + 1) as f64 / n as f64,
        value: sorted[idx],
        n,
    }
}

/// Smallest value.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean (0 for no values: a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
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
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&ramp(5), 0.5), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2000 samples: p99 (index 1979) has 20 beyond it.
        let t = tail(&ramp(2000));
        assert_eq!((t.q, t.value, t.n), (0.99, 1980.0, 2000));
        // 500 samples: p99 would leave 5 beyond, so back off to the
        // 489th sample, which leaves exactly ten.
        let t = tail(&ramp(500));
        assert_eq!(t.value, 490.0);
        assert_eq!(500 - t.value as usize, TAIL_BEYOND);
        // Too few samples for any such percentile: the maximum.
        let t = tail(&ramp(8));
        assert_eq!((t.q, t.value), (1.0, 8.0));
    }

    #[test]
    fn min_of_values() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }
}
