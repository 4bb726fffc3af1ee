//! # quasaq-sim — deterministic discrete-event simulation kernel
//!
//! The QuaSAQ reproduction evaluates a distributed multimedia database on a
//! simulated testbed instead of the paper's three Solaris servers. This
//! crate is that testbed's foundation:
//!
//! * [`time`] — integer-microsecond virtual time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`queue`] — a deterministic event queue generic over the driver's
//!   event type.
//! * [`rng`] — an in-tree xoshiro256++ generator with forkable streams so
//!   experiments replay bit-for-bit from one seed.
//! * [`cpu`] — two CPU scheduling models: the Solaris-like round-robin
//!   [`cpu::TimeSharing`] (the plain VDBMS regime of Fig 5a/5c) and the
//!   DSRT-style reservation scheduler [`cpu::Dsrt`] (the QuaSAQ regime of
//!   Fig 5b/5d).
//! * [`link`] — fluid-flow shared bandwidth for server outbound links and
//!   disks, with fair-share and reservation policies.
//! * [`fault`] — seeded, schedule-driven fault injection (server crashes,
//!   link degradation, disk slowdown) for robustness experiments.
//! * [`linkdyn`] — seeded stochastic link-capacity trajectories (Markov
//!   quality regimes, fading noise, diurnal ramps) for congestion
//!   experiments.
//! * [`stats`] — accumulators for the measurements the paper reports
//!   (mean/S.D. tables, delay traces, session counts, completion rates).
//!
//! All resource models are *passive incremental simulators*: an experiment
//! driver owns the [`queue::EventQueue`], asks each resource for its next
//! interesting instant, advances it, and drains typed completions. Nothing
//! in this crate spawns threads or reads wall-clock time.

pub mod cpu;
pub mod domain;
pub mod fault;
pub mod link;
pub mod linkdyn;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod topology;

pub use cpu::{
    Completion, CpuError, CpuScheduler, Dsrt, DsrtConfig, JobId, ReservationError, TaskId,
    TimeSharing,
};
pub use domain::LinkDomain;
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultModel, FaultPlan, FaultSpec};
pub use link::{FlowId, LinkError, SharePolicy, SharedLink, XferDone, XferId};
pub use linkdyn::{LinkInjector, LinkModel, LinkModelError, LinkPlan, LinkSpec};
pub use queue::{EventId, EventQueue};
pub use rng::{Rng, Zipf};
pub use stats::{LevelTracker, OnlineStats, RateCounter, Series};
pub use time::{SimDuration, SimTime};
pub use topology::ServerId;
