//! # quasaq-store — storage and metadata substrate
//!
//! Stands in for the paper's Shore storage manager plus QuaSAQ's
//! Distributed Metadata Engine:
//!
//! * [`object`] — physical OIDs, stored replicas, and per-server
//!   disk-space accounting ([`ObjectStore`]).
//! * [`metadata`] — object records and static per-replica QoS profiles.
//! * [`engine`] — the [`MetadataEngine`]: replicated content metadata
//!   and, per logical video, its replica records (the distribution
//!   metadata mapping logical to physical OIDs) in one slice, plus a dense
//!   table of the records at each video's highest rate ([`TopReplica`]),
//!   which the baselines admit from.
//! * [`replication`] — offline replication ([`ReplicationPlanner`], full
//!   or round-robin placement), the [`QosSampler`], and an online
//!   access-driven migration planner (extension).

pub mod engine;
pub mod metadata;
pub mod object;
pub mod replication;

pub use engine::{MetadataEngine, TopReplica};
pub use metadata::{ObjectRecord, QosProfile};
pub use object::{ObjectStore, PhysicalObject, PhysicalOid, StoreError};
pub use replication::{
    plan_migrations, AccessStats, Migration, Placement, QosSampler, ReplicationPlanner,
};
