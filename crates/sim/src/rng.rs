//! Deterministic pseudo-random number generation for simulations.
//!
//! Experiments must be exactly reproducible from a single `u64` seed, and
//! independent components (per-video traces, per-query arrivals) need
//! statistically independent streams derived from that seed. This module
//! implements xoshiro256++ seeded through SplitMix64 — the standard
//! construction recommended by the xoshiro authors — plus the handful of
//! distributions the workloads need (uniform, exponential, normal,
//! log-normal, Zipf).
//!
//! The kernel deliberately does not depend on the `rand` crate: keeping the
//! generator in-tree guarantees that results cannot drift when an external
//! crate changes its stream.

/// SplitMix64 step; used for seeding and for hashing stream identifiers.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro256++ requires a non-zero state; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if s == [0; 4] {
            s = [0x1, 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB];
        }
        Rng { s }
    }

    /// Derives an independent child stream from this generator's seed and a
    /// stream identifier. Forking does not advance `self`.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut sm =
            self.s[0] ^ self.s[1].rotate_left(17) ^ stream.wrapping_mul(0xD1B54A32D192ED03);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        Rng { s }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Panics if `bound == 0`.
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below called with bound 0");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        if lo == hi {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `usize` index in `[0, len)`; convenience for slice indexing.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Uniform double in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "invalid range");
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed double with the given mean (> 0).
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Avoid ln(0); next_f64 is in [0,1) so 1-u is in (0,1].
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Standard normal via Box-Muller (one value per call; the pair's
    /// second value is discarded to keep state handling simple).
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + sd * z
    }

    /// Log-normal: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.index(items.len())]
    }
}

/// The Zipf distribution over ranks `[0, n)` with exponent `s >= 0`
/// (s = 0 degenerates to uniform): the weights `1/k^s` and their sum,
/// computed once. A draw is an inverse-CDF walk over the weights, O(n);
/// n is a video catalog's size.
#[derive(Debug, Clone)]
pub struct Zipf {
    weights: Vec<f64>,
    norm: f64,
}

impl Zipf {
    /// The table for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over empty domain");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let norm = weights.iter().sum();
        Zipf { weights, norm }
    }

    /// Draws a rank, consuming one `next_f64`.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let mut u = rng.next_f64() * self.norm;
        for (rank, &w) in self.weights.iter().enumerate() {
            if u < w {
                return rank;
            }
            u -= w;
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn fork_is_independent_and_stable() {
        let root = Rng::new(7);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let mut c1_again = root.fork(0);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        // Distinct stream ids should diverge immediately with overwhelming
        // probability.
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound_and_covers() {
        let mut r = Rng::new(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let x = r.below(7) as usize;
            assert!(x < 7);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng::new(11);
        for _ in 0..1_000 {
            let x = r.range_u64(5, 8);
            assert!((5..=8).contains(&x));
        }
        assert_eq!(r.range_u64(4, 4), 4);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = Rng::new(12);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exp(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn normal_moments_close() {
        let mut r = Rng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean was {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.05, "sd was {}", var.sqrt());
    }

    #[test]
    fn lognormal_positive() {
        let mut r = Rng::new(14);
        for _ in 0..1_000 {
            assert!(r.lognormal(0.0, 1.0) > 0.0);
        }
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let (mut r, zipf) = (Rng::new(15), Zipf::new(10, 1.0));
        let mut counts = [0u32; 10];
        for _ in 0..50_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[4]);
        assert!(counts[4] > counts[9]);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let (mut r, zipf) = (Rng::new(16), Zipf::new(4, 0.0));
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[zipf.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(18);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
