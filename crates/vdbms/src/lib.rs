//! # quasaq-vdbms — the VDBMS baseline substrate
//!
//! A miniature of the PREDATOR-based VDBMS the paper builds on: the
//! conventional half of query processing (parse → content search →
//! logical OIDs) plus the two baseline delivery stacks the evaluation
//! compares against.
//!
//! * [`query`] — the query AST: content predicates plus the optional
//!   QoS range that makes a query "QoS-aware".
//! * [`sql`] — a small SQL-ish parser with a `WITH QOS (...)` clause.
//! * [`search`](mod@search) — keyword and feature-similarity search over the
//!   metadata engine's content metadata.
//! * [`baseline`] — replica selection for plain VDBMS (admit everything,
//!   stream the original best-effort) and VDBMS+QoS-API (reserve, but no
//!   QoS-aware planning).

pub mod baseline;
pub mod query;
pub mod search;
pub mod sql;

pub use baseline::{BaselineChoice, BaselineKind, BaselinePlanner};
pub use query::{ContentPredicate, Query, QueuedQuery, SearchHit};
pub use search::{cosine, resolve_one, search};
pub use sql::{parse, ParseError};
