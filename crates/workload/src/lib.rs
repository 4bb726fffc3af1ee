//! # quasaq-workload — traffic generation and experiment scenarios
//!
//! Assembles the full systems under test and drives them with the paper's
//! workload:
//!
//! * [`testbed`] — the three-server deployment (catalog, replication,
//!   metadata, QoS API sizing) and cost-model selection.
//! * [`traffic`] — the Poisson query generator ("inter-arrival time …
//!   exponentially distributed with an average of 1 second", uniform
//!   video access, uniform QoS parameters).
//! * [`throughput`] — the Fig 6 / Fig 7 driver over the fluid session
//!   engine (outstanding sessions, jobs per minute, cumulative rejects).
//! * [`fig5`] — the inter-frame-delay experiment driver over the
//!   frame-level engine (Fig 5, Table 2).
//! * [`parallel`] — the deterministic scenario-parallel runner: fan
//!   independent experiment runs across cores, collect by scenario index,
//!   bit-identical to serial execution.
//!
//! The queued admission front end is a QoS decision component, so it
//! lives in [`quasaq_service::admission`]; its settings and metrics
//! ([`AdmissionConfig`], [`QueueMetrics`]) are re-exported here because
//! [`ThroughputConfig`] and [`ThroughputResult`] carry them.

pub mod fig5;
pub mod parallel;
pub mod testbed;
pub mod throughput;
pub mod traffic;

pub use fig5::{run_fig5, Contention, Fig5Config, Fig5System};
pub use parallel::{parallel_map, run_throughput_scenarios, worker_count};
pub use quasaq_service::{AdmissionConfig, QueueMetrics};
pub use testbed::{CostKind, Testbed, TestbedConfig};
pub use throughput::{
    arrival_stream, build_core, run_throughput, run_throughput_on, AdaptationConfig,
    DegradationMetrics, FaultMetrics, SystemKind, ThroughputConfig, ThroughputResult,
};
pub use traffic::{
    generate_queries, qop_class, random_qop, random_qop_with, GeneratedQuery, QopClass, QopMix,
    TrafficConfig,
};
