//! Sample summaries: medians, nearest-rank percentiles, and the
//! reporting rule for timings — a median plus the highest percentile
//! that still has at least ten samples beyond it.

/// Percentiles a timing tail may be reported at, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples required beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// One-based nearest rank of percentile `p` among `n` samples, in exact
/// integer arithmetic on basis points (`99.9 / 100 * n` in floats can land
/// a hair above the integer and round the rank up).
fn rank(p: f64, n: usize) -> usize {
    let bp = (p * 100.0).round().clamp(0.0, 10_000.0) as u64;
    ((bp * n as u64).div_ceil(10_000) as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0–100) of already sorted samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty()).then(|| sorted[rank(p, sorted.len()) - 1])
}

/// Nearest-rank percentile `p` of unsorted samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// A timing summary as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// The highest percentile on [`TAIL_LADDER`] with at least
    /// [`TAIL_MIN_BEYOND`] samples beyond it, with its value; `None` when
    /// there are too few samples for any.
    pub tail: Option<(f64, f64)>,
}

/// The highest ladder percentile of `n` samples with at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| n >= 1 && n - rank(p, n) >= TAIL_MIN_BEYOND)
}

/// Summarizes `xs`; `None` when empty.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let med = median(&v)?;
    let tail =
        tail_percentile(v.len()).map(|p| (p, percentile_sorted(&v, p).expect("non-empty samples")));
    Some(Summary { n: v.len(), median: med, tail })
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4}", self.median)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.4}")?,
            None => write!(f, ", no tail (<{} beyond p50)", TAIL_MIN_BEYOND)?,
        }
        write!(f, " (n={})", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 of 100 samples is rank 90, with exactly ten beyond.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let xs: Vec<f64> = (1..=1_000).rev().map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.n, 1_000);
        assert_eq!(s.median, 500.5);
        assert_eq!(s.tail, Some((99.0, 990.0)));
        let short = summarize(&[2.0, 1.0]).unwrap();
        assert_eq!(short.tail, None);
        assert_eq!(short.median, 1.5);
    }
}
