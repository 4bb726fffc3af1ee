//! Untraced end-to-end runs of the in-process workloads: set-up timing,
//! `run_throughput_on` repetitions, and the decision fingerprint every
//! run is checked against.

use crate::workloads::Spec;
use quasaq_sim::{SimDuration, SimTime};
use quasaq_store::AccessStats;
use quasaq_workload::{arrival_stream, build_core, run_throughput_on, Testbed, ThroughputResult};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-up rounds (one set-up per traffic draw each) run until they have
/// taken this share of `--seconds`, at most `MAX_SETUP_ROUNDS`; the
/// reported set-up time is the median over all of them.
const SETUP_SHARE: f64 = 0.06;
const MAX_SETUP_ROUNDS: usize = 6;
/// Fewest measured repetitions of each traffic draw, whatever `--seconds`
/// says.
const MIN_RUNS_PER_DRAW: usize = 2;

/// What identifies a run's decisions: any change here is a change in
/// what the program decided, not in how fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub queries: u64,
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    /// FNV-1a over the (video, server) access counts.
    pub access: u64,
    /// `stable_outstanding(horizon)` bits.
    pub stable_bits: u64,
}

impl Fingerprint {
    pub fn of(r: &ThroughputResult, horizon: SimTime) -> Self {
        Fingerprint {
            queries: r.queries,
            admitted: r.admitted,
            rejected: r.rejected,
            completed: r.completed,
            access: access_hash(&r.access),
            stable_bits: r.stable_outstanding(horizon).to_bits(),
        }
    }

    pub fn stable(&self) -> f64 {
        f64::from_bits(self.stable_bits)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "queries={} admitted={} rejected={} completed={} access={:016x} stable={}",
            self.queries,
            self.admitted,
            self.rejected,
            self.completed,
            self.access,
            self.stable()
        )
    }
}

/// FNV-1a over the access table's canonical (ordered) rendering.
pub fn access_hash(a: &AccessStats) -> u64 {
    format!("{a:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The stable-stage mean of an outstanding-level series, computed exactly
/// as `ThroughputResult::stable_outstanding` does.
pub fn stable_of(series: &quasaq_sim::Series, horizon: SimTime) -> f64 {
    series.window_mean(horizon.halved(), horizon + SimDuration::from_secs(1)).unwrap_or(0.0)
}

/// One timed set-up: a fresh testbed (not the shared cache), the arrival
/// stream, and the system core. Returns the testbed and the seconds it
/// took.
pub fn timed_setup(spec: &Spec) -> (Testbed, usize, f64) {
    let t0 = Instant::now();
    let testbed = Testbed::build(spec.cfg.testbed.clone());
    let queries = arrival_stream(&testbed, &spec.cfg);
    let core = build_core(&testbed, spec.system, &spec.cfg);
    let secs = t0.elapsed().as_secs_f64();
    black_box(&core);
    (testbed, black_box(queries).len(), secs)
}

/// An untraced run's measurements and check results.
pub struct Untraced {
    pub setup_s: Vec<f64>,
    pub queries_per_s: Vec<f64>,
    /// The decision fingerprint of each traffic draw (`None` if no
    /// repetition of it passed its checks).
    pub fingerprints: Vec<Option<Fingerprint>>,
    pub mean_utility: Vec<f64>,
    /// Queries per traffic draw.
    pub queries: Vec<usize>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, in words.
    pub problems: Vec<String>,
}

impl Untraced {
    /// `stable_outstanding` averaged over the traffic draws.
    pub fn sessions_stable(&self) -> Option<f64> {
        let v: Vec<f64> = self.fingerprints.iter().flatten().map(Fingerprint::stable).collect();
        (v.len() == self.fingerprints.len()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    }
}

/// Output checks on one result; returns what is wrong with it.
pub fn check_result(
    r: &ThroughputResult,
    fp: &Fingerprint,
    first: Option<&Fingerprint>,
) -> Vec<String> {
    let mut bad = Vec::new();
    if r.admitted + r.rejected != r.queries {
        bad.push(format!(
            "admitted {} + rejected {} != queries {}",
            r.admitted, r.rejected, r.queries
        ));
    }
    if r.completed > r.admitted {
        bad.push(format!("completed {} > admitted {}", r.completed, r.admitted));
    }
    if fp.stable() <= 0.0 {
        bad.push("no sessions outstanding in the stable stage".into());
    }
    if let Some(first) = first.filter(|f| *f != fp) {
        bad.push(format!("fingerprint changed between repetitions: {first} vs {fp}"));
    }
    bad
}

/// Sets up once or more per traffic draw, then repeats
/// `run_throughput_on` on the last testbed, the draws taking turns, for
/// `seconds` — every draw at least `MIN_RUNS_PER_DRAW` times, so each
/// draw's fingerprint is checked against itself.
pub fn run_untraced(specs: &[Spec], seconds: f64) -> Untraced {
    let mut setup_s = Vec::new();
    let mut queries = vec![0; specs.len()];
    let mut testbed = None;
    let setup_start = Instant::now();
    for _ in 0..MAX_SETUP_ROUNDS {
        for (k, spec) in specs.iter().enumerate() {
            let (tb, n, secs) = timed_setup(spec);
            setup_s.push(secs);
            queries[k] = n;
            testbed = Some(tb);
        }
        if setup_start.elapsed().as_secs_f64() > SETUP_SHARE * seconds {
            break;
        }
    }
    // The draws differ in traffic only; they share one deployment.
    let testbed = testbed.expect("at least one set-up");

    let mut out = Untraced {
        setup_s,
        queries_per_s: Vec::new(),
        fingerprints: vec![None; specs.len()],
        mean_utility: Vec::new(),
        queries: queries.clone(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let t0 = Instant::now();
    let mut walls: Vec<f64> = Vec::new();
    for rep in 0.. {
        let elapsed = t0.elapsed().as_secs_f64();
        let typical = crate::stats::median(&walls).unwrap_or(0.0);
        if rep >= MIN_RUNS_PER_DRAW * specs.len() && elapsed + typical / 2.0 > seconds {
            break;
        }
        let k = rep % specs.len();
        let spec = &specs[k];
        let n = queries[k] as u64;
        let start = Instant::now();
        let run =
            catch_unwind(AssertUnwindSafe(|| run_throughput_on(&testbed, spec.system, &spec.cfg)));
        let wall = start.elapsed().as_secs_f64();
        walls.push(wall);
        out.attempted += n;
        let Ok(r) = run else {
            out.failed += n;
            out.problems.push("run_throughput_on panicked".into());
            continue;
        };
        let fp = Fingerprint::of(&r, spec.cfg.horizon);
        let bad = check_result(&r, &fp, out.fingerprints[k].as_ref());
        if bad.is_empty() {
            out.queries_per_s.push(r.queries as f64 / wall);
            if out.fingerprints[k].is_none() {
                out.fingerprints[k] = Some(fp);
                out.mean_utility.extend(r.mean_utility);
            }
        } else {
            out.failed += n;
            out.problems.extend(bad);
        }
    }
    out
}
