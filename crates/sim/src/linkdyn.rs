//! Deterministic stochastic link dynamics: seeded, schedule-driven
//! per-server capacity processes for congestion experiments.
//!
//! [`crate::fault`] models *outages* — windows that open and close. Real
//! multimedia serving also sees *continuously varying* capacity: wireless
//! channels fade, shared backbones breathe with the time of day, and
//! peering links hop between discrete quality regimes. This module is the
//! declarative counterpart for that regime, shaped exactly like the fault
//! layer so drivers merge it into the same event loop:
//!
//! * a [`LinkPlan`] declares absolute capacity set-points per server —
//!   fixed schedules for tests, or trajectories sampled from a
//!   [`LinkModel`] (Markov-modulated quality states, fading-style
//!   multiplicative noise, diurnal ramps) under the same seeded
//!   [`Rng`] discipline as everything else, so plans
//!   replay bit-for-bit and each server's trajectory is independent of the
//!   sweep width,
//! * a [`LinkInjector`] expands the plan into a `(time, seq)`-ordered
//!   timeline of [`LinkSpec`] set-points.
//!
//! Unlike fault windows, set-points do not nest: each [`LinkSpec`]
//! *replaces* the server's current dynamic factor. The driver keeps one
//! factor per server (initially 1.0) and composes it multiplicatively with
//! any concurrent fault-window factors when recomputing effective link
//! capacity.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::topology::ServerId;
use std::collections::BTreeMap;

/// Smallest factor a sampled trajectory can emit: keeps effective capacity
/// positive (the link layer rejects zero capacity) and bounds how long a
/// stalled transfer can linger.
pub const MIN_FACTOR: f64 = 0.05;

/// Sampling model for a per-server capacity trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkModel {
    /// Markov-modulated quality regimes: a three-state birth-death chain
    /// (good ↔ degraded ↔ bad) with exponentially distributed dwell times.
    /// Each transition emits the new state's capacity factor. The chain
    /// starts in the good state, which emits nothing until it first leaves.
    Markov {
        /// Capacity factor per state, `[good, degraded, bad]`, each in
        /// `(0, 1]`.
        factors: [f64; 3],
        /// Mean dwell time per state before transitioning.
        dwell: [SimDuration; 3],
    },
    /// Fading-style multiplicative noise: every `coherence` interval the
    /// factor is resampled as `mean` perturbed by zero-mean Gaussian noise
    /// of standard deviation `spread`, clamped into `[MIN_FACTOR, 1]` —
    /// the quasi-static block-fading shape (the channel holds a level for
    /// one coherence block, then jumps).
    Fading {
        /// Centre of the factor distribution, in `(0, 1]`.
        mean: f64,
        /// Standard deviation of the per-block perturbation.
        spread: f64,
        /// Coherence block length (time between resamples).
        coherence: SimDuration,
    },
    /// Deterministic diurnal ramp with a per-server random phase: the
    /// factor follows a raised cosine between 1.0 (off-peak) and `trough`
    /// (peak congestion) with the given `period`, emitted as a staircase
    /// of set-points every `step`.
    Diurnal {
        /// Factor at the bottom of the ramp, in `(0, 1]`.
        trough: f64,
        /// Full cycle length.
        period: SimDuration,
        /// Staircase discretisation interval.
        step: SimDuration,
    },
}

/// One capacity set-point: at `at`, `server`'s dynamic link factor becomes
/// `factor` (replacing the previous set-point's value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// The affected server.
    pub server: ServerId,
    /// When the set-point takes effect.
    pub at: SimTime,
    /// New dynamic capacity factor, in `(0, 1]`.
    pub factor: f64,
}

/// A declarative per-server capacity trajectory.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkPlan {
    /// The set-points, grouped by server and time-ordered within each
    /// server; [`LinkInjector`] orders globally.
    pub changes: Vec<LinkSpec>,
}

impl LinkPlan {
    /// A plan with no capacity changes (steady baseline).
    pub fn none() -> Self {
        LinkPlan::default()
    }

    /// Samples a trajectory for every server over `[0, horizon)`. Each
    /// server forks its own stream from `seed`, so server `k`'s trajectory
    /// is independent of how many servers the sweep covers — and the whole
    /// plan replays bit-for-bit.
    ///
    /// # Panics
    /// Panics if [`LinkModel::check`] rejects `model`.
    pub fn sample(
        seed: u64,
        servers: impl IntoIterator<Item = ServerId>,
        horizon: SimTime,
        model: LinkModel,
    ) -> Self {
        if let Err(e) = model.check() {
            panic!("invalid link model: {e}");
        }
        let root = Rng::new(seed ^ 0x001D_FADE_u64);
        let mut changes = Vec::new();
        for server in servers {
            let mut rng = root.fork(server.0 as u64);
            match model {
                LinkModel::Markov { factors, dwell } => {
                    let mut state = 0usize;
                    let mut t = SimTime::ZERO;
                    loop {
                        let hold = SimDuration::from_secs_f64(rng.exp(dwell[state].as_secs_f64()))
                            .max(SimDuration::from_micros(1));
                        t += hold;
                        if t >= horizon {
                            break;
                        }
                        state = match state {
                            0 => 1,
                            1 => {
                                if rng.chance(0.5) {
                                    0
                                } else {
                                    2
                                }
                            }
                            _ => 1,
                        };
                        changes.push(LinkSpec { server, at: t, factor: factors[state] });
                    }
                }
                LinkModel::Fading { mean, spread, coherence } => {
                    let mut t = SimTime::ZERO + coherence;
                    while t < horizon {
                        let factor = (mean + rng.normal(0.0, spread)).clamp(MIN_FACTOR, 1.0);
                        changes.push(LinkSpec { server, at: t, factor });
                        t += coherence;
                    }
                }
                LinkModel::Diurnal { trough, period, step } => {
                    let phase = rng.range_f64(0.0, period.as_secs_f64());
                    let mut t = SimTime::ZERO + step;
                    while t < horizon {
                        let x = (t.as_secs_f64() + phase) / period.as_secs_f64();
                        let wave = 0.5 + 0.5 * (std::f64::consts::TAU * x).cos();
                        let factor = (trough + (1.0 - trough) * wave).clamp(MIN_FACTOR, 1.0);
                        changes.push(LinkSpec { server, at: t, factor });
                        t += step;
                    }
                }
            }
        }
        LinkPlan { changes }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }
}

/// An out-of-range [`LinkModel`] parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModelError {
    /// The offending [`LinkModel`] field, e.g. `"factors"` or `"trough"`.
    pub field: &'static str,
    /// The range the field violates, with the value found.
    pub message: String,
}

impl std::fmt::Display for LinkModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for LinkModelError {}

impl LinkModel {
    /// Checks every parameter against its documented range.
    /// [`LinkPlan::sample`] panics on a model this rejects; callers holding
    /// untrusted input call it first.
    pub fn check(self) -> Result<(), LinkModelError> {
        fn ensure(ok: bool, field: &'static str, message: String) -> Result<(), LinkModelError> {
            if ok {
                Ok(())
            } else {
                Err(LinkModelError { field, message })
            }
        }
        fn positive(d: SimDuration, field: &'static str, what: &str) -> Result<(), LinkModelError> {
            ensure(!d.is_zero(), field, format!("{what} must be positive, found {d}"))
        }
        match self {
            LinkModel::Markov { factors, dwell } => {
                for f in factors {
                    ensure(
                        f > 0.0 && f <= 1.0,
                        "factors",
                        format!("Markov factors must be in (0, 1], found {f}"),
                    )?;
                }
                for d in dwell {
                    positive(d, "dwell", "Markov dwell means")?;
                }
            }
            LinkModel::Fading { mean, spread, coherence } => {
                ensure(
                    mean > 0.0 && mean <= 1.0,
                    "mean",
                    format!("fading mean must be in (0, 1], found {mean}"),
                )?;
                ensure(
                    spread >= 0.0 && spread.is_finite(),
                    "spread",
                    format!("fading spread must be finite and non-negative, found {spread}"),
                )?;
                positive(coherence, "coherence", "coherence block")?;
            }
            LinkModel::Diurnal { trough, period, step } => {
                ensure(
                    trough > 0.0 && trough <= 1.0,
                    "trough",
                    format!("diurnal trough must be in (0, 1], found {trough}"),
                )?;
                positive(period, "period", "diurnal period")?;
                positive(step, "step", "diurnal step")?;
            }
        }
        Ok(())
    }
}

/// Expands a [`LinkPlan`] into an ordered set-point timeline — the
/// link-dynamics "resource" a driver merges into its event loop via
/// [`next_at`](LinkInjector::next_at) / [`pop_due`](LinkInjector::pop_due).
///
/// Ties at one instant fire in plan order (the key is `(time, plan
/// index)`, a pure function of the plan), which for sampled plans means
/// ascending [`ServerId`].
pub struct LinkInjector {
    timeline: BTreeMap<(SimTime, usize), LinkSpec>,
}

impl LinkInjector {
    /// Builds the timeline for a plan.
    pub fn new(plan: &LinkPlan) -> Self {
        let mut timeline = BTreeMap::new();
        for (i, spec) in plan.changes.iter().enumerate() {
            timeline.insert((spec.at, i), *spec);
        }
        LinkInjector { timeline }
    }

    /// Earliest pending set-point, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.timeline.keys().next().map(|&(t, _)| t)
    }

    /// Pops the next set-point due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<LinkSpec> {
        let &key = self.timeline.keys().next().filter(|&&(t, _)| t <= now)?;
        self.timeline.remove(&key)
    }

    /// True when every set-point has fired.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn markov() -> LinkModel {
        LinkModel::Markov {
            factors: [1.0, 0.5, 0.2],
            dwell: [
                SimDuration::from_secs(60),
                SimDuration::from_secs(30),
                SimDuration::from_secs(15),
            ],
        }
    }

    #[test]
    fn sampled_plans_are_deterministic_and_server_independent() {
        let servers: Vec<ServerId> = ServerId::first_n(3).collect();
        let horizon = SimTime::from_secs(3_000);
        let a = LinkPlan::sample(9, servers.clone(), horizon, markov());
        let b = LinkPlan::sample(9, servers.clone(), horizon, markov());
        assert_eq!(a, b, "same seed, same plan");
        let c = LinkPlan::sample(10, servers.clone(), horizon, markov());
        assert_ne!(a, c, "different seed, different plan");
        // Server 1's trajectory does not depend on server 2 being present.
        let narrow = LinkPlan::sample(9, [ServerId(1)], horizon, markov());
        let wide_s1: Vec<LinkSpec> =
            a.changes.iter().copied().filter(|s| s.server == ServerId(1)).collect();
        assert_eq!(narrow.changes, wide_s1);
        assert!(a.changes.iter().all(|s| s.at < horizon));
        assert!(!a.is_empty(), "3000 s of 60 s dwells over 3 servers should transition");
    }

    #[test]
    fn check_names_the_out_of_range_field() {
        let secs = SimDuration::from_secs;
        assert_eq!(markov().check(), Ok(()));
        let field = |m: LinkModel| m.check().unwrap_err().field;
        let LinkModel::Markov { dwell, .. } = markov() else { unreachable!() };
        assert_eq!(field(LinkModel::Markov { factors: [1.5, 0.5, 0.2], dwell }), "factors");
        let zero_dwell = [secs(60), SimDuration::ZERO, secs(15)];
        assert_eq!(
            field(LinkModel::Markov { factors: [1.0, 0.5, 0.2], dwell: zero_dwell }),
            "dwell"
        );
        assert_eq!(field(LinkModel::Fading { mean: 0.0, spread: 0.1, coherence: secs(1) }), "mean");
        assert_eq!(
            field(LinkModel::Fading { mean: 0.8, spread: -0.1, coherence: secs(1) }),
            "spread"
        );
        assert_eq!(
            field(LinkModel::Diurnal { trough: 1.5, period: secs(60), step: secs(5) }),
            "trough"
        );
        assert_eq!(
            field(LinkModel::Diurnal { trough: 0.5, period: secs(60), step: SimDuration::ZERO }),
            "step"
        );
    }

    #[test]
    #[should_panic(expected = "Markov factors must be in (0, 1]")]
    fn sampling_a_rejected_model_panics() {
        let LinkModel::Markov { dwell, .. } = markov() else { unreachable!() };
        LinkPlan::sample(
            1,
            [ServerId(0)],
            SimTime::from_secs(10),
            LinkModel::Markov { factors: [1.5, 0.5, 0.2], dwell },
        );
    }

    #[test]
    fn markov_walks_adjacent_states_only() {
        let plan = LinkPlan::sample(7, [ServerId(0)], SimTime::from_secs(10_000), markov());
        let mut prev = 1.0; // good state
        for spec in &plan.changes {
            let legal = if spec.factor == 0.5 {
                prev == 1.0 || prev == 0.2
            } else if spec.factor == 1.0 || spec.factor == 0.2 {
                prev == 0.5
            } else {
                panic!("unexpected factor {}", spec.factor)
            };
            assert!(legal, "illegal jump {prev} -> {}", spec.factor);
            prev = spec.factor;
        }
    }

    #[test]
    fn fading_emits_one_setpoint_per_coherence_block() {
        let model =
            LinkModel::Fading { mean: 0.7, spread: 0.2, coherence: SimDuration::from_secs(10) };
        let plan = LinkPlan::sample(3, [ServerId(0)], SimTime::from_secs(100), model);
        assert_eq!(plan.changes.len(), 9, "blocks at 10..=90 s");
        for (i, spec) in plan.changes.iter().enumerate() {
            assert_eq!(spec.at, SimTime::from_secs(10 * (i as u64 + 1)));
            assert!(spec.factor >= MIN_FACTOR && spec.factor <= 1.0, "{}", spec.factor);
        }
    }

    #[test]
    fn diurnal_ramps_down_and_back_up() {
        let model = LinkModel::Diurnal {
            trough: 0.3,
            period: SimDuration::from_secs(1_000),
            step: SimDuration::from_secs(50),
        };
        let plan = LinkPlan::sample(5, [ServerId(2)], SimTime::from_secs(1_000), model);
        assert_eq!(plan.changes.len(), 19);
        let lo = plan.changes.iter().map(|s| s.factor).fold(f64::INFINITY, f64::min);
        let hi = plan.changes.iter().map(|s| s.factor).fold(0.0, f64::max);
        assert!(lo < 0.45, "trough reached: {lo}");
        assert!(hi > 0.85, "peak reached: {hi}");
        // One full cosine period: adjacent samples differ, none jump wildly.
        for pair in plan.changes.windows(2) {
            assert!((pair[0].factor - pair[1].factor).abs() < 0.25);
        }
    }

    #[test]
    fn injector_orders_setpoints_by_time_then_plan_index() {
        let plan = LinkPlan {
            changes: vec![
                LinkSpec { server: ServerId(1), at: SimTime::from_secs(20), factor: 0.5 },
                LinkSpec { server: ServerId(0), at: SimTime::from_secs(10), factor: 0.8 },
                LinkSpec { server: ServerId(2), at: SimTime::from_secs(10), factor: 0.9 },
            ],
        };
        let mut inj = LinkInjector::new(&plan);
        assert_eq!(inj.next_at(), Some(SimTime::from_secs(10)));
        assert!(inj.pop_due(SimTime::from_secs(9)).is_none());
        let order: Vec<(ServerId, u64)> =
            std::iter::from_fn(|| inj.pop_due(SimTime::from_secs(60)))
                .map(|s| (s.server, s.at.as_micros() / 1_000_000))
                .collect();
        assert_eq!(order, vec![(ServerId(0), 10), (ServerId(2), 10), (ServerId(1), 20)]);
        assert!(inj.is_empty());
    }

    #[test]
    fn empty_plan_yields_empty_timeline() {
        let inj = LinkInjector::new(&LinkPlan::none());
        assert!(inj.is_empty());
        assert_eq!(inj.next_at(), None);
    }
}
