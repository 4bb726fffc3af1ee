//! Deterministic fault injection: seeded, schedule-driven component
//! failures for robustness experiments.
//!
//! The paper's testbed stays healthy for every run; real deployments — and
//! the roadmap's "hundreds of servers" north star — lose servers, links,
//! and disks mid-stream. This module supplies the *when and what* of those
//! outages while leaving the *reaction* to the experiment drivers:
//!
//! * a [`FaultPlan`] declares outage windows — fixed schedules for tests
//!   (e.g. "server 1 crashes at t=1000 s and restarts at t=2000 s"),
//!   or exponentially distributed windows sampled from a [`FaultModel`]
//!   for experiments (same seeded [`Rng`] discipline as
//!   everything else, so plans replay bit-for-bit),
//! * a [`FaultInjector`] expands the plan into a `(time, seq)`-ordered
//!   event timeline the driver merges into its master event loop exactly
//!   like the other passive resource models.
//!
//! Overlapping windows on one server are legal and compose: the driver is
//! expected to keep a crash depth counter (a server is up only when every
//! crash window covering it has closed) and multiply concurrent capacity
//! factors.

use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};
use crate::topology::ServerId;
use std::collections::BTreeMap;

/// What an outage window does to its server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The server process dies: active sessions are lost, reservations
    /// void, and new admissions against it fail until the window closes.
    ServerCrash,
    /// The outbound link runs at `factor` (in `(0, 1]`) of its nominal
    /// capacity for the window.
    LinkDegradation {
        /// Fraction of nominal link bandwidth that survives.
        factor: f64,
    },
    /// The disk delivers `factor` (in `(0, 1]`) of its nominal bandwidth
    /// for the window — binding only when the slowed disk falls below the
    /// outbound link.
    DiskSlowdown {
        /// Fraction of nominal disk bandwidth that survives.
        factor: f64,
    },
}

/// One scheduled outage window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The afflicted server.
    pub server: ServerId,
    /// When the window opens.
    pub at: SimTime,
    /// How long it stays open; the recovery event fires at `at + duration`.
    pub duration: SimDuration,
    /// What the window does.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// When the window closes (server restarts / capacity restored).
    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }
}

/// Sampling model for randomly generated outage windows: independent
/// exponential inter-failure and repair times per server, the classic
/// availability model (MTBF / (MTBF + MTTR)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Mean time between failures (start to next start), per server.
    pub mtbf: SimDuration,
    /// Mean time to repair (window length), per server.
    pub mttr: SimDuration,
    /// What each sampled window does.
    pub kind: FaultKind,
}

/// A declarative outage schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The windows, in no particular order; [`FaultInjector`] sorts.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults (healthy baseline).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// The acceptance scenario: `server` crashes at `at` and restarts at
    /// `restart`.
    pub fn crash_restart(server: ServerId, at: SimTime, restart: SimTime) -> Self {
        assert!(restart > at, "restart must follow the crash");
        FaultPlan {
            faults: vec![FaultSpec {
                server,
                at,
                duration: restart - at,
                kind: FaultKind::ServerCrash,
            }],
        }
    }

    /// Samples exponentially distributed outage windows for every server
    /// over `[0, horizon)`. Each server forks its own stream from `seed`,
    /// so the plan for server `k` is independent of how many servers the
    /// sweep covers — and the whole plan replays bit-for-bit.
    pub fn sample(
        seed: u64,
        servers: impl IntoIterator<Item = ServerId>,
        horizon: SimTime,
        model: FaultModel,
    ) -> Self {
        assert!(!model.mtbf.is_zero(), "MTBF must be positive");
        assert!(!model.mttr.is_zero(), "MTTR must be positive");
        let root = Rng::new(seed ^ 0x00FA_171A_u64);
        let mut faults = Vec::new();
        for server in servers {
            let mut rng = root.fork(server.0 as u64);
            let mut t = SimTime::ZERO;
            loop {
                let gap = SimDuration::from_secs_f64(rng.exp(model.mtbf.as_secs_f64()));
                let at = t + gap;
                if at >= horizon {
                    break;
                }
                let duration = SimDuration::from_secs_f64(rng.exp(model.mttr.as_secs_f64()))
                    .max(SimDuration::from_micros(1));
                faults.push(FaultSpec { server, at, duration, kind: model.kind });
                t = at + duration;
            }
        }
        FaultPlan { faults }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Edge of an outage window, delivered to the driver in timeline order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The window opens: apply the fault.
    Begin(FaultSpec),
    /// The window closes: undo it.
    End(FaultSpec),
}

impl FaultEvent {
    /// When the edge fires.
    pub fn at(&self) -> SimTime {
        match self {
            FaultEvent::Begin(s) => s.at,
            FaultEvent::End(s) => s.end(),
        }
    }

    /// The afflicted server.
    pub fn server(&self) -> ServerId {
        match self {
            FaultEvent::Begin(s) | FaultEvent::End(s) => s.server,
        }
    }
}

/// Expands a [`FaultPlan`] into an ordered begin/end event timeline — the
/// fault-injection "resource" a driver merges into its event loop via
/// [`next_at`](FaultInjector::next_at) / [`pop_due`](FaultInjector::pop_due).
///
/// Ties at one instant fire begins before ends of *later-listed* windows
/// deterministically: the key is `(time, plan index, edge)`, a pure
/// function of the plan.
pub struct FaultInjector {
    timeline: BTreeMap<(SimTime, usize, u8), FaultEvent>,
}

impl FaultInjector {
    /// Builds the timeline for a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut timeline = BTreeMap::new();
        for (i, spec) in plan.faults.iter().enumerate() {
            timeline.insert((spec.at, i, 0u8), FaultEvent::Begin(*spec));
            timeline.insert((spec.end(), i, 1u8), FaultEvent::End(*spec));
        }
        FaultInjector { timeline }
    }

    /// Earliest pending edge, if any.
    pub fn next_at(&self) -> Option<SimTime> {
        self.timeline.keys().next().map(|&(t, _, _)| t)
    }

    /// Pops the next edge due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<FaultEvent> {
        let &key = self.timeline.keys().next().filter(|&&(t, _, _)| t <= now)?;
        self.timeline.remove(&key)
    }

    /// True when every edge has fired.
    pub fn is_empty(&self) -> bool {
        self.timeline.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_restart_schedules_one_window() {
        let plan = FaultPlan::crash_restart(
            ServerId(1),
            SimTime::from_secs(1000),
            SimTime::from_secs(2000),
        );
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.next_at(), Some(SimTime::from_secs(1000)));
        assert!(inj.pop_due(SimTime::from_secs(999)).is_none());
        match inj.pop_due(SimTime::from_secs(1000)) {
            Some(FaultEvent::Begin(s)) => {
                assert_eq!(s.server, ServerId(1));
                assert_eq!(s.kind, FaultKind::ServerCrash);
            }
            other => panic!("expected Begin, got {other:?}"),
        }
        assert_eq!(inj.next_at(), Some(SimTime::from_secs(2000)));
        match inj.pop_due(SimTime::from_secs(2000)) {
            Some(FaultEvent::End(s)) => assert_eq!(s.end(), SimTime::from_secs(2000)),
            other => panic!("expected End, got {other:?}"),
        }
        assert!(inj.is_empty());
    }

    #[test]
    fn timeline_orders_edges_by_time() {
        let plan = FaultPlan {
            faults: vec![
                FaultSpec {
                    server: ServerId(0),
                    at: SimTime::from_secs(50),
                    duration: SimDuration::from_secs(100),
                    kind: FaultKind::LinkDegradation { factor: 0.5 },
                },
                FaultSpec {
                    server: ServerId(1),
                    at: SimTime::from_secs(10),
                    duration: SimDuration::from_secs(20),
                    kind: FaultKind::ServerCrash,
                },
            ],
        };
        let mut inj = FaultInjector::new(&plan);
        let mut times = Vec::new();
        while let Some(ev) = inj.pop_due(SimTime::from_secs(1_000)) {
            times.push(ev.at());
        }
        let secs: Vec<u64> = times.iter().map(|t| t.as_micros() / 1_000_000).collect();
        assert_eq!(secs, vec![10, 30, 50, 150]);
    }

    #[test]
    fn sampled_plans_are_deterministic_and_server_independent() {
        let servers: Vec<ServerId> = ServerId::first_n(3).collect();
        let model = FaultModel {
            mtbf: SimDuration::from_secs(500),
            mttr: SimDuration::from_secs(60),
            kind: FaultKind::ServerCrash,
        };
        let horizon = SimTime::from_secs(5_000);
        let a = FaultPlan::sample(9, servers.clone(), horizon, model);
        let b = FaultPlan::sample(9, servers.clone(), horizon, model);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::sample(10, servers.clone(), horizon, model);
        assert_ne!(a, c, "different seed, different plan");
        // Server 1's windows do not depend on server 2 being in the sweep.
        let narrow = FaultPlan::sample(9, [ServerId(1)], horizon, model);
        let wide_s1: Vec<FaultSpec> =
            a.faults.iter().copied().filter(|f| f.server == ServerId(1)).collect();
        assert_eq!(narrow.faults, wide_s1);
        // Windows fall inside the horizon and never overlap per server.
        for s in &servers {
            let mut windows: Vec<&FaultSpec> = a.faults.iter().filter(|f| f.server == *s).collect();
            windows.sort_by_key(|f| f.at);
            for pair in windows.windows(2) {
                assert!(pair[0].end() <= pair[1].at, "windows overlap on {s:?}");
            }
        }
        assert!(a.faults.iter().all(|f| f.at < horizon));
        assert!(!a.is_empty(), "5000 s at MTBF 500 s over 3 servers should fault");
    }

    #[test]
    fn empty_plan_yields_empty_timeline() {
        let inj = FaultInjector::new(&FaultPlan::none());
        assert!(inj.is_empty());
        assert_eq!(inj.next_at(), None);
    }
}
