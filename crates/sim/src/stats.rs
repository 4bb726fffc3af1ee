//! Statistics collection for experiments.
//!
//! The paper reports means and standard deviations of inter-frame and
//! inter-GOP delays (Table 2), per-frame delay traces (Fig 5), and session
//! counts over time (Figs 6 and 7). This module provides the accumulators
//! those harnesses need: a numerically stable running mean/variance
//! ([`OnlineStats`]), a raw time-series recorder ([`Series`]), a bucketed
//! event counter for "jobs per minute"-style plots ([`RateCounter`]), and a
//! step-function sampler for "outstanding sessions over time"
//! ([`LevelTracker`]).

use crate::time::{SimDuration, SimTime};

/// Smallest positive value the quantile sketch resolves; everything at or
/// below it (including exact zeros, the common case for admission waits)
/// lands in the dedicated zero bucket.
const SKETCH_FLOOR: f64 = 1e-9;
/// Geometric growth factor between sketch bucket bounds: bucket `k` spans
/// `(FLOOR * G^k, FLOOR * G^(k+1)]`, so any reported quantile is within
/// ±3.5% (√G) of a value actually observed.
const SKETCH_GROWTH: f64 = 1.07;

/// Welford's online algorithm for mean and variance, plus min/max and a
/// log-spaced bucket sketch for quantiles.
///
/// The sketch counts observations in geometric buckets (growth factor
/// `SKETCH_GROWTH` = 1.07 from `SKETCH_FLOOR` = 1e-9).
///
/// `PartialEq` compares the accumulator state field-by-field (floats
/// bit-for-bit via numeric equality), which the experiment drivers'
/// serial-vs-parallel determinism checks rely on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Observations at or below [`SKETCH_FLOOR`] (admission waits are
    /// usually exactly 0, so this fast path also skips the `ln`).
    zeros: u64,
    /// Geometric bucket counts, grown lazily to the largest index seen.
    buckets: Vec<u64>,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            zeros: 0,
            buckets: Vec::new(),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        if x <= SKETCH_FLOOR {
            self.zeros += 1;
        } else {
            let idx = ((x / SKETCH_FLOOR).ln() / SKETCH_GROWTH.ln()).ceil() as usize;
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, 0);
            }
            self.buckets[idx] += 1;
        }
    }

    /// Adds a duration observation in milliseconds (the paper's unit).
    pub fn push_millis(&mut self, d: SimDuration) {
        self.push(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// The `q`-quantile (q in [0, 1]) from the bucket sketch, `None` when
    /// empty. Nearest-rank over the geometric buckets: the result is the
    /// log-midpoint of the bucket holding the ranked observation, so it
    /// is within ±√`SKETCH_GROWTH` (≈3.5%) of an observed value, and
    /// exact for observations at or below `SKETCH_FLOOR`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        // Nearest rank, 1-based: the smallest rank covering fraction q.
        let rank = ((q.clamp(0.0, 1.0) * self.n as f64).ceil() as u64).max(1);
        if rank <= self.zeros {
            // The zero bucket holds values in [min, SKETCH_FLOOR]; the
            // recorded min is the only observed value we can report.
            return Some(self.min.min(SKETCH_FLOOR));
        }
        let mut cum = self.zeros;
        for (idx, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let mid = SKETCH_FLOOR * SKETCH_GROWTH.powf(idx as f64 - 0.5);
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// p95 convenience wrapper around [`OnlineStats::quantile`].
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// p99 convenience wrapper around [`OnlineStats::quantile`].
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A recorded time series of `(time, value)` samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new() -> Self {
        Series { points: Vec::new() }
    }

    /// Appends a sample. Samples are expected in non-decreasing time order;
    /// this is asserted in debug builds.
    pub fn push(&mut self, t: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(last, _)| last <= t),
            "series samples must be time-ordered"
        );
        self.points.push((t, value));
    }

    /// All samples in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Values only, discarding times.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Mean of the values in the window `[from, to)` (`None` if no samples).
    pub fn window_mean(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut n = 0u64;
        let mut sum = 0.0;
        for &(t, v) in &self.points {
            if t >= from && t < to {
                n += 1;
                sum += v;
            }
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// A percentile (0..=100) of the values, by nearest-rank on a sorted
    /// copy. `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.points.is_empty() {
            return None;
        }
        let mut vals: Vec<f64> = self.values().collect();
        vals.sort_by(|a, b| a.total_cmp(b));
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (vals.len() - 1) as f64).round() as usize;
        Some(vals[rank])
    }

    /// Summary statistics over all values.
    pub fn stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for v in self.values() {
            s.push(v);
        }
        s
    }
}

/// Counts events into fixed-width time buckets, e.g. completed streaming
/// jobs per minute (Fig 6b).
#[derive(Debug, Clone, PartialEq)]
pub struct RateCounter {
    bucket: SimDuration,
    counts: Vec<u64>,
}

impl RateCounter {
    /// Creates a counter with the given bucket width.
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        RateCounter { bucket, counts: Vec::new() }
    }

    /// Records one event at time `t`.
    pub fn record(&mut self, t: SimTime) {
        let idx = (t.as_micros() / self.bucket.as_micros()) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Bucket width.
    pub fn bucket(&self) -> SimDuration {
        self.bucket
    }

    /// Events per bucket, indexed from t = 0.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean events per bucket over buckets `[from_idx, to_idx)`.
    pub fn window_rate(&self, from_idx: usize, to_idx: usize) -> f64 {
        let to = to_idx.min(self.counts.len());
        if from_idx >= to {
            return 0.0;
        }
        let sum: u64 = self.counts[from_idx..to].iter().sum();
        sum as f64 / (to - from_idx) as f64
    }
}

/// Tracks an integer level (e.g. number of outstanding sessions) as a step
/// function, and samples it at fixed intervals for plotting.
#[derive(Debug, Clone, Default)]
pub struct LevelTracker {
    level: i64,
    changes: Vec<(SimTime, i64)>,
}

impl LevelTracker {
    /// Creates a tracker at level 0.
    pub fn new() -> Self {
        LevelTracker::default()
    }

    /// Current level.
    pub fn level(&self) -> i64 {
        self.level
    }

    /// Applies a delta (+1 on session start, -1 on completion) at time `t`.
    pub fn adjust(&mut self, t: SimTime, delta: i64) {
        self.level += delta;
        self.changes.push((t, self.level));
    }

    /// The raw change log.
    pub fn changes(&self) -> &[(SimTime, i64)] {
        &self.changes
    }

    /// Samples the step function every `step` from t = 0 to `until`
    /// inclusive of the first sample at 0.
    pub fn sample(&self, step: SimDuration, until: SimTime) -> Series {
        assert!(!step.is_zero(), "sample step must be positive");
        let mut out = Series::new();
        let mut t = SimTime::ZERO;
        let mut idx = 0usize;
        let mut level = 0i64;
        while t <= until {
            while idx < self.changes.len() && self.changes[idx].0 <= t {
                level = self.changes[idx].1;
                idx += 1;
            }
            out.push(t, level as f64);
            t += step;
        }
        out
    }

    /// Time-weighted average level over `[0, until)`.
    pub fn time_average(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        let mut area = 0.0;
        let mut prev_t = SimTime::ZERO;
        let mut level = 0i64;
        for &(t, new_level) in &self.changes {
            if t >= until {
                break;
            }
            area += level as f64 * (t - prev_t).as_secs_f64();
            prev_t = t;
            level = new_level;
        }
        area += level as f64 * (until - prev_t).as_secs_f64();
        area / until.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_empty_and_single() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn quantiles_track_observed_values_within_sketch_error() {
        let mut s = OnlineStats::new();
        assert_eq!(s.quantile(0.95), None);
        for i in 1..=1000 {
            s.push(i as f64 / 100.0); // 0.01 ..= 10.00
        }
        let p50 = s.quantile(0.50).unwrap();
        let p95 = s.p95().unwrap();
        let p99 = s.p99().unwrap();
        assert!((p50 / 5.0 - 1.0).abs() < 0.05, "p50 = {p50}");
        assert!((p95 / 9.5 - 1.0).abs() < 0.05, "p95 = {p95}");
        assert!((p99 / 9.9 - 1.0).abs() < 0.05, "p99 = {p99}");
        assert!(p50 <= p95 && p95 <= p99);
        // Quantiles never leave the observed range.
        let bottom = s.quantile(0.0).unwrap();
        assert!((bottom / 0.01 - 1.0).abs() < 0.05, "bottom = {bottom}");
        let top = s.quantile(1.0).unwrap();
        assert!(p99 <= top && top <= 10.0, "top = {top}");
    }

    #[test]
    fn zero_heavy_quantiles_report_zero_bucket_exactly() {
        // Admission waits are usually exactly 0; the sketch must not
        // smear them into a log bucket.
        let mut s = OnlineStats::new();
        for _ in 0..98 {
            s.push(0.0);
        }
        s.push(4.0);
        s.push(8.0);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert_eq!(s.quantile(0.95), Some(0.0));
        let p99 = s.p99().unwrap();
        assert!((p99 / 4.0 - 1.0).abs() < 0.05, "p99 = {p99}");
    }

    #[test]
    fn push_millis_uses_milliseconds() {
        let mut s = OnlineStats::new();
        s.push_millis(SimDuration::from_millis(42));
        assert!((s.mean() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn series_window_and_percentile() {
        let mut s = Series::new();
        for i in 0..10 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.window_mean(SimTime::from_secs(2), SimTime::from_secs(5)), Some(3.0));
        assert_eq!(s.window_mean(SimTime::from_secs(50), SimTime::from_secs(60)), None);
        assert_eq!(s.percentile(0.0), Some(0.0));
        assert_eq!(s.percentile(100.0), Some(9.0));
        assert_eq!(s.percentile(50.0), Some(5.0));
        assert_eq!(Series::new().percentile(50.0), None);
    }

    #[test]
    fn rate_counter_buckets() {
        let mut rc = RateCounter::new(SimDuration::from_secs(60));
        rc.record(SimTime::from_secs(10));
        rc.record(SimTime::from_secs(59));
        rc.record(SimTime::from_secs(61));
        rc.record(SimTime::from_secs(179));
        assert_eq!(rc.counts(), &[2, 1, 1]);
        assert_eq!(rc.total(), 4);
        assert!((rc.window_rate(0, 3) - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(rc.window_rate(5, 9), 0.0);
    }

    #[test]
    fn level_tracker_sampling() {
        let mut lt = LevelTracker::new();
        lt.adjust(SimTime::from_secs(1), 1);
        lt.adjust(SimTime::from_secs(2), 1);
        lt.adjust(SimTime::from_secs(4), -1);
        assert_eq!(lt.level(), 1);
        let s = lt.sample(SimDuration::from_secs(1), SimTime::from_secs(5));
        let vals: Vec<f64> = s.values().collect();
        assert_eq!(vals, vec![0.0, 1.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn level_tracker_time_average() {
        let mut lt = LevelTracker::new();
        lt.adjust(SimTime::from_secs(0), 2);
        lt.adjust(SimTime::from_secs(5), -2);
        // Level 2 for half of a 10-second window -> average 1.0.
        assert!((lt.time_average(SimTime::from_secs(10)) - 1.0).abs() < 1e-12);
        assert_eq!(LevelTracker::new().time_average(SimTime::ZERO), 0.0);
    }
}
