//! Result fingerprinting for the golden gallery.
//!
//! A gallery golden pins each run's *full* measured surface — every
//! counter, every sampled series point, every queue/fault/adaptation
//! metric — into one 64-bit FNV-1a digest. Floats are hashed by their
//! IEEE-754 bit pattern, so the fingerprint changes iff any measurement
//! changes in any bit: exactly the sensitivity the serial-vs-parallel
//! determinism gate needs. `AccessStats` (which video landed on which
//! server) is deliberately excluded: it is derived bookkeeping for the
//! migration extension, fully determined by the admission decisions the
//! digest already covers.

use quasaq_sim::{OnlineStats, RateCounter, Series};
use quasaq_workload::ThroughputResult;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64. Small, dependency-free, and stable across
/// platforms — unlike `DefaultHasher`, whose algorithm is unspecified.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            // Tag present/absent so None is distinct from Some(0.0).
            Some(x) => {
                self.write(&[1]);
                self.write_f64(x);
            }
            None => self.write(&[0]),
        }
    }

    fn write_series(&mut self, s: &Series) {
        self.write_u64(s.points().len() as u64);
        for &(t, v) in s.points() {
            self.write_f64(t.as_secs_f64());
            self.write_f64(v);
        }
    }

    fn write_stats(&mut self, s: &OnlineStats) {
        self.write_u64(s.count());
        self.write_f64(s.mean());
        self.write_f64(s.std_dev());
        self.write_opt_f64(s.min());
        self.write_opt_f64(s.max());
    }

    fn write_rate(&mut self, r: &RateCounter) {
        self.write_f64(r.bucket().as_secs_f64());
        self.write_u64(r.counts().len() as u64);
        for &c in r.counts() {
            self.write_u64(c);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digests one run result. Field order is fixed; extending
/// `ThroughputResult` with new metrics means regenerating goldens (which
/// is the point — the gallery flags measurement-surface changes).
pub fn hash_result(r: &ThroughputResult) -> u64 {
    let mut h = Fnv64::new();
    h.write(r.label.as_bytes());
    h.write(&[0xff]); // label terminator, so "ab"+"c" != "a"+"bc"
    h.write_u64(r.queries);
    h.write_u64(r.admitted);
    h.write_u64(r.rejected);
    h.write_u64(r.completed);
    h.write_series(&r.outstanding);
    h.write_rate(&r.completions_per_min);
    h.write_series(&r.rejects);
    h.write_opt_f64(r.mean_utility);
    match &r.queue {
        None => h.write(&[0]),
        Some(q) => {
            h.write(&[1]);
            h.write_stats(&q.wait);
            h.write_u64(q.retries);
            h.write_u64(q.degraded);
            h.write_u64(q.overflow);
            h.write_u64(q.hopeless);
            h.write_u64(q.abandoned_waiting);
            h.write_u64(q.abandoned_streaming);
            h.write_u64(q.pending_at_horizon);
            h.write_u64(q.peak_waiting);
            h.write_series(&q.abandonment);
        }
    }
    match &r.faults {
        None => h.write(&[0]),
        Some(f) => {
            h.write(&[1]);
            h.write_u64(f.interrupted);
            h.write_u64(f.failed_over);
            h.write_u64(f.failover_degraded);
            h.write_u64(f.requeued);
            h.write_u64(f.recovered);
            h.write_u64(f.dropped);
            h.write_stats(&f.recovery);
            h.write_f64(f.qos_violation_secs);
        }
    }
    match &r.degradation {
        None => h.write(&[0]),
        Some(d) => {
            h.write(&[1]);
            h.write_u64(d.congestion_events);
            h.write_f64(d.congested_secs);
            h.write_u64(d.downshifts);
            h.write_u64(d.upshifts);
            h.write_u64(d.oscillations);
            h.write_f64(d.violation_secs_avoided);
            h.write_u64(d.brownout_degraded);
            h.write_u64(d.brownout_rejected);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325, "empty input is the offset basis");
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn float_hashing_is_bit_exact() {
        let mut a = Fnv64::new();
        a.write_f64(0.1 + 0.2);
        let mut b = Fnv64::new();
        b.write_f64(0.3);
        assert_ne!(a.finish(), b.finish(), "0.1+0.2 differs from 0.3 in the last bit");
        let mut z1 = Fnv64::new();
        z1.write_f64(0.0);
        let mut z2 = Fnv64::new();
        z2.write_f64(-0.0);
        assert_ne!(z1.finish(), z2.finish(), "signed zeros hash differently");
    }

    #[test]
    fn option_tagging_separates_none_from_zero() {
        let mut none = Fnv64::new();
        none.write_opt_f64(None);
        let mut zero = Fnv64::new();
        zero.write_opt_f64(Some(0.0));
        assert_ne!(none.finish(), zero.finish());
    }
}
