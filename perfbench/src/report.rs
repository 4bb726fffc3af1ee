//! The benchmark's output: named metrics with units, the human-readable
//! lines, and the one-line JSON result that ends standard output.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("sessions_stable", "sessions"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("workload.testbed.build_s", "s"),
    ("workload.traffic.arrival_stream_s", "s"),
    ("workload.build_core_s", "s"),
    ("workload.driver.residual_s", "s"),
    ("workload.untraced_wall_s", "s"),
    ("workload.traced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("service.plane.admit_calls", "count"),
    ("service.plane.admit_us_p50", "us"),
    ("service.plane.admit_us_p99", "us"),
    ("service.plane.admit_us_total", "us"),
    ("service.plane.teardown_us_total", "us"),
    ("service.plane.tick_us_total", "us"),
    ("service.plane.congestion_us_total", "us"),
    ("service.plane.prefetch_us_total", "us"),
    ("service.plane.renegotiated", "count"),
    ("service.plane.rejected.plan_no_feasible", "count"),
    ("service.plane.rejected.plan_admission_failed", "count"),
    ("service.plane.rejected.brownout_shed", "count"),
    ("service.plane.rejected.brownout_infeasible", "count"),
    ("service.plane.rejected.unknown_video", "count"),
    ("core.generator.generate_us_p50", "us"),
    ("core.generator.plans_per_admit", "plans"),
    ("core.generator.feasible_us_p50", "us"),
    ("core.generator.feasible_ratio", "ratio"),
    ("core.cost.rank_us_p50", "us"),
    ("core.quality.mean_utility", "utility"),
    ("core.plancache.hit_ratio", "ratio"),
    ("core.plancache.hits", "count"),
    ("core.plancache.evictions", "count"),
    ("core.plancache.invalidations", "count"),
    ("core.plancache.doorkeeper_bypasses", "count"),
    ("qosapi.reserve_us_p50", "us"),
    ("qosapi.reserve_attempts_per_admit", "count"),
    ("qosapi.reserve_success_ratio", "ratio"),
    ("vdbms.select_us_p50", "us"),
    ("shadow.mismatches", "count"),
    ("stream.fluid.advance_calls", "count"),
    ("stream.fluid.advance_us_total", "us"),
    ("stream.fluid.advance_us_per_event", "us"),
    ("stream.fluid.next_event_us_total", "us"),
    ("stream.fluid.add_session_us_total", "us"),
    ("stream.fluid.poll_congestion_us_total", "us"),
    ("stream.fluid.active_sessions_mean", "sessions"),
    ("share.workload.driver", "ratio"),
    ("share.service.plane", "ratio"),
    ("share.core", "ratio"),
    ("share.qosapi", "ratio"),
    ("share.stream.fluid", "ratio"),
    ("wire.encode_request_us_p50", "us"),
    ("wire.decode_request_us_p50", "us"),
    ("wire.encode_effects_us_p50", "us"),
    ("wire.decode_effects_us_p50", "us"),
    ("shell.overhead_us_p50", "us"),
    ("svc.rtt_us_p50", "us"),
    ("svc.rtt_us_p99", "us"),
    ("svc.max_rps", "1/s"),
    ("svc.gen_lag_us_p99", "us"),
    ("svc.backlog_max", "count"),
];

/// A run's result as printed.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The final JSON line over `metrics` (absent values read 0; a
    /// non-finite value is a failed check and reads 0).
    pub fn json(&mut self, metrics: &[(&'static str, &'static str)]) -> String {
        let mut body = Vec::with_capacity(metrics.len());
        for &(name, unit) in metrics {
            let mut v = self.values.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
                v = 0.0;
            }
            body.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(v)));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// A JSON number with every digit the float carries.
fn number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_with_its_unit() {
        let mut r = Report { attempted: 10, failed: 1, ..Report::default() };
        r.set("setup_s", 0.125);
        r.set("queries_per_s", 1800.0);
        let j = r.json(&END_TO_END);
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1,"));
        assert!(j.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(j.contains("\"queries_per_s\": {\"value\": 1800.0, \"unit\": \"1/s\"}"));
        assert!(j.contains("\"peak_rss_mb\": {\"value\": 0.0, \"unit\": \"MiB\"}"));
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut r = Report::default();
        r.set("setup_s", f64::NAN);
        let j = r.json(&END_TO_END);
        assert!(j.starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.iter().all(|n| n.len() <= 64));
    }
}
