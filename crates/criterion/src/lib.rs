//! Offline stand-in for the `criterion` crate.
//!
//! The build container has no crates.io access, so the registry `criterion`
//! dev-dependency can never resolve. This crate implements the subset the
//! workspace's benches use — `Criterion::bench_function`, `Bencher::iter`,
//! `criterion_group!`, `criterion_main!`, `configure_from_args`, and
//! `final_summary` — with a plain wall-clock measurement loop: a short
//! warm-up, then timed batches of iterations until a fixed budget elapses,
//! then a printed per-iteration summary over the batch means. A batch is
//! sized from the warm-up to last about 50 µs, so the timer's own cost
//! and resolution vanish from a microsecond-scale iteration.
//! The headline number is a *trimmed* mean — the slowest and fastest 5%
//! of batches (at least one each side) are dropped before averaging, so a
//! single scheduler hiccup cannot skew the figure the way it would a raw
//! mean — printed beside the median and the best (lowest) batch mean,
//! which drift between runs far less on a shared machine. There is no
//! HTML report; the point is that `cargo bench` runs green offline and
//! still prints numbers with enough spread information to judge
//! run-to-run noise.

use std::time::{Duration, Instant};

const WARMUP_ITERS: u64 = 3;
const MEASURE_BUDGET: Duration = Duration::from_millis(200);
const MAX_ITERS: u64 = 100_000;
/// How long one timed batch of iterations should take.
const BATCH_TARGET: Duration = Duration::from_micros(50);

/// Mirror of `criterion::Criterion` (measurement configuration is fixed).
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Accepted for CLI compatibility; all arguments are ignored.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// No summary beyond the per-benchmark lines already printed.
    pub fn final_summary(self) {}

    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::default();
        f(&mut bencher);
        match bencher.stats() {
            Some(s) => {
                println!(
                    "bench: {name:<32} {:>12} ± {} (median {}, best batch {}, worst {}; \
                     {} iters in {} batches)",
                    format_time(s.trimmed_mean),
                    format_time(s.std_dev),
                    format_time(s.median),
                    format_time(s.min),
                    format_time(s.max),
                    s.iters,
                    s.batches,
                );
            }
            None => println!("bench: {name:<32} (no measurement — iter() never called)"),
        }
        self
    }
}

/// Per-iteration timing statistics of one measured benchmark, taken over
/// its batch means (a batch's time over its iterations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of measured (post-warm-up) iterations.
    pub iters: u64,
    /// Number of timed batches.
    pub batches: u64,
    /// Mean seconds per iteration over every batch.
    pub mean: f64,
    /// Outlier-rejected mean: the slowest and fastest 5% of batches (at
    /// least one each side once three batches exist) are discarded before
    /// averaging. This is the headline number `bench_function` prints.
    pub trimmed_mean: f64,
    /// The median batch mean in seconds.
    pub median: f64,
    /// Population standard deviation of the batch means in seconds.
    pub std_dev: f64,
    /// The fastest (best) batch mean in seconds.
    pub min: f64,
    /// The slowest batch mean in seconds.
    pub max: f64,
}

/// Mirror of `criterion::Bencher`.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Seconds per iteration of each timed batch.
    samples: Vec<f64>,
    /// Iterations measured over all batches.
    iters: u64,
}

impl Bencher {
    /// Times `routine` in batches until the budget elapses, at least one
    /// batch even when a single call runs past the whole budget.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let warmup = Instant::now();
        for _ in 0..WARMUP_ITERS {
            std::hint::black_box(routine());
        }
        let per_iter = warmup.elapsed().as_nanos() / u128::from(WARMUP_ITERS);
        let batch = (BATCH_TARGET.as_nanos() / per_iter.max(1)).clamp(1, 1_000) as u64;
        self.samples.clear();
        self.iters = 0;
        let start = Instant::now();
        while self.iters == 0 || (start.elapsed() < MEASURE_BUDGET && self.iters < MAX_ITERS) {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.samples.push(t.elapsed().as_secs_f64() / batch as f64);
            self.iters += batch;
        }
    }

    /// Statistics over the measured iterations, `None` before `iter` ran.
    pub fn stats(&self) -> Option<SampleStats> {
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let mean = self.samples.iter().sum::<f64>() / n as f64;
        let var = self.samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        Some(SampleStats {
            iters: self.iters,
            batches: n as u64,
            mean,
            trimmed_mean: trimmed_mean(&self.samples),
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
        })
    }
}

/// Mean of `samples` after dropping the smallest and largest 5% (rounded
/// down, but at least one sample per side). Fewer than three samples leave
/// nothing to trim, so the plain mean is returned; an empty slice yields
/// NaN, matching the raw-mean convention.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 3 {
        return samples.iter().sum::<f64>() / n as f64;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timing samples"));
    let trim = (n / 20).max(1);
    let kept = &sorted[trim..n - trim];
    kept.iter().sum::<f64>() / kept.len() as f64
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

/// Mirror of `criterion_group!`: defines a function that runs each target
/// against a fresh default `Criterion`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Mirror of `criterion_main!`: a `main` that runs the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::Criterion::default().configure_from_args().final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_chains() {
        let mut c = Criterion::default().configure_from_args();
        c.bench_function("noop", |b| b.iter(|| 1 + 1))
            .bench_function("spin", |b| b.iter(|| (0..64u64).sum::<u64>()));
        c.final_summary();
    }

    #[test]
    fn stats_summarize_per_iteration_samples() {
        let mut b = Bencher::default();
        assert!(b.stats().is_none());
        b.iter(|| (0..256u64).sum::<u64>());
        let s = b.stats().expect("measured");
        assert!(s.iters >= s.batches && s.batches >= 1, "{s:?}");
        assert!(s.min <= s.mean && s.mean <= s.max, "{s:?}");
        assert!(s.min <= s.median && s.median <= s.max, "{s:?}");
        assert!(s.min <= s.trimmed_mean && s.trimmed_mean <= s.max, "{s:?}");
        assert!(s.std_dev >= 0.0 && s.std_dev.is_finite());
        assert!(s.mean > 0.0);
    }

    #[test]
    fn trimmed_mean_rejects_outliers() {
        // One stall of 100 s among honest 1–4 s samples: the raw mean is
        // dragged to 22, the trimmed mean pins at the middle three.
        let samples = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert_eq!(trimmed_mean(&samples), 3.0);
        // Order-insensitive: sorting happens inside.
        assert_eq!(trimmed_mean(&[100.0, 4.0, 1.0, 3.0, 2.0]), 3.0);
        // A low outlier is rejected symmetrically.
        assert_eq!(trimmed_mean(&[-50.0, 2.0, 3.0, 4.0, 5.0]), 3.0);
        // Exactly three samples trim one from each side, keeping the median.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 900.0]), 2.0);
        // Below three samples nothing can be trimmed.
        assert_eq!(trimmed_mean(&[5.0, 7.0]), 6.0);
        assert_eq!(trimmed_mean(&[5.0]), 5.0);
        // 5% rule: with 40 samples, two (40 / 20) drop per side.
        let mut forty: Vec<f64> = vec![10.0; 36];
        forty.extend([0.0, 0.0, 1_000.0, 1_000.0]);
        assert_eq!(trimmed_mean(&forty), 10.0);
    }

    #[test]
    fn stats_trimmed_mean_matches_free_function() {
        let b = Bencher { samples: vec![1.0, 2.0, 3.0, 4.0, 100.0], iters: 5 };
        let s = b.stats().expect("samples present");
        assert_eq!(s.trimmed_mean, 3.0);
        assert_eq!(s.mean, 22.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
    }

    #[test]
    fn median_of_an_even_count_averages_the_middle_two() {
        let b = Bencher { samples: vec![4.0, 1.0, 3.0, 2.0], iters: 40 };
        let s = b.stats().expect("samples present");
        assert_eq!((s.median, s.iters, s.batches), (2.5, 40, 4));
    }

    #[test]
    fn format_time_picks_sensible_units() {
        assert!(format_time(2.5).ends_with(" s"));
        assert!(format_time(2.5e-3).ends_with(" ms"));
        assert!(format_time(2.5e-6).ends_with(" µs"));
        assert!(format_time(2.5e-9).ends_with(" ns"));
    }
}
