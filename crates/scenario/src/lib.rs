//! # quasaq-scenario — declarative TOML experiment pipelines
//!
//! Every regime the reproduction can measure — flash crowds, fault plans,
//! stochastic links, brownouts — is driven by Rust config structs, so a
//! new experiment historically cost a code change. This crate turns an
//! experiment into a TOML file: a `[scenario]` header plus `[stage.*]`
//! tables forming a DAG of composable fragments (topology, workload,
//! faults, links, adaptation) consumed by run stages and summarized by
//! metric sinks.
//!
//! * [`toml`] — an in-tree parser/serializer for the TOML subset the DSL
//!   uses (no registry access in this workspace, same policy as the
//!   proptest/criterion shims). Tables are key-order-normalized.
//! * [`dag`] — dependency resolution: cycle detection, unknown-stage
//!   errors, and a topological order that is a pure function of the
//!   stage set (name-ordered tie-break).
//! * [`schema`] — typed extraction with path-tagged errors
//!   (`stage.load.qop_mix: expected a number, found string`); unknown
//!   keys are rejected, so typos cannot silently run a default.
//! * [`exec`] — stage adapters onto [`quasaq_workload::ThroughputConfig`]
//!   and deterministic execution, serial or on the scenario-parallel
//!   runner, rendering a byte-stable report.
//! * [`fingerprint`] — FNV-1a 64 digests over full results; what the
//!   golden gallery under `scenarios/` pins in CI.

pub mod dag;
pub mod exec;
pub mod fingerprint;
pub mod schema;
pub mod toml;

pub use dag::{closure_in_order, resolve_order, DagError};
pub use exec::{run_file, run_str, ExecMode, RunOutcome, ScenarioReport, SinkOutcome};
pub use fingerprint::{hash_result, Fnv64};
pub use schema::{ScenarioError, ScenarioSpec, StageKind, StageSpec, View};
