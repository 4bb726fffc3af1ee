//! # quasaq-service — the sans-IO QoS control plane
//!
//! The QoS *decisions* of the reproduction — admission (with the retry
//! queue and brownout ladder), plan enumeration and caching, crash
//! failover, and mid-stream renegotiation — extracted from the experiment
//! drivers into one pure state machine:
//!
//! * [`plane`] — [`ControlPlane`]: the state machine. Explicit
//!   [`quasaq_sim::SimTime`] in every command, no threads, no clocks, no
//!   I/O; a test enforces the crate's dependency tree stays that way.
//! * [`command`] — the typed vocabulary: [`Command`] in, [`Effect`] out.
//! * [`admission`] — the bounded deterministic retry queue (moved here
//!   from `quasaq-workload`, which re-exports it).
//! * [`wire`] — a length-prefixed binary codec for the command/effect
//!   vocabulary, pure bytes in/bytes out; `quasaq-shell` puts it on a
//!   socket.
//!
//! Every driver — the in-process throughput loop, the scenario executor,
//! the TCP runtime shell — issues the same commands against the same
//! core, so a decision made over a socket is bit-identical to one made
//! in-process for the same command sequence.

pub mod admission;
pub mod command;
pub mod plane;
pub mod wire;

pub use admission::{AdmissionConfig, QueueMetrics};
pub use command::{
    qop_class, Admission, AdmitOrigin, Candidate, Command, Degraded, Effect, QopClass,
    RejectReason, Renegotiation, ServiceError, StatsSnapshot,
};
pub use plane::{AdaptPolicy, ControlPlane, PlaneConfig, SessionId, SystemCore};
