//! # quasaq-core — the QoS-Aware Query Processor (QuaSAQ)
//!
//! The paper's primary contribution: a query-processing layer that takes
//! the logical OIDs produced by conventional content search and plans,
//! admits, and executes *QoS-constrained delivery*.
//!
//! The pipeline (paper §3/§4):
//!
//! 1. **QoP Browser** ([`qop`]) — qualitative user inputs are translated
//!    through the [`UserProfile`] into application-QoS ranges, with
//!    per-user weights ordering renegotiation alternatives.
//! 2. **Plan Generator** ([`generator`]) — enumerates the ordered
//!    disjoint activity sets of Fig 2 (replica × site × frame-drop ×
//!    transcode × encryption) under static QoS rules and
//!    performance-pitfall pruning; every plan carries its resource vector
//!    ([`plan`]).
//! 3. **Runtime Cost Evaluator** ([`cost`]) — ranks plans against live
//!    resource state; the paper's Lowest Resource Bucket model
//!    ([`cost::LrbModel`], Eq. 1) plus baselines and the configurable
//!    efficiency optimizer `E = G/C(r)`.
//! 4. **Quality Manager** ([`manager`]) — admission through the
//!    Composite QoS API, first-admittable-plan selection, second-chance
//!    degradation, renegotiation, and release.
//! 5. **Plan Executor** ([`executor`]) — compiles admitted plans into
//!    streaming sessions on the simulated testbed.

pub mod cost;
pub mod executor;
pub mod generator;
pub mod manager;
pub mod plan;
mod plancache;
pub mod qop;

pub use cost::{
    CostModel, EfficiencyModel, Gain, LrbModel, MinBitrateModel, PlanView, RandomModel,
    ThroughputGain, UtilityGain, WeightedSumModel,
};
pub use executor::PlanExecutor;
pub use generator::{satisfies_ordered_disjoint_sets, GeneratorConfig, PlanGenerator, PlanRequest};
pub use manager::{AdmittedPlan, PlanningStats, QualityManager, Rejection, SecondChance};
pub use plan::Plan;
pub use plancache::PlanCacheStats;
pub use qop::{
    QopColor, QopMotion, QopRequest, QopResolution, QopSecurity, QosWeights, UserProfile,
};
