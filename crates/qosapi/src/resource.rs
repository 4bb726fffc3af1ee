//! Resource vocabulary: kinds, per-server keys, and resource vectors.
//!
//! The paper's system-level QoS parameters are "CPU cycles, memory buffer,
//! disk space and bandwidth" plus network bandwidth (Table 1). A query
//! plan's resource consumption is summarized as a *resource vector* — "the
//! Plan Generator computes its resource requirements (in the form of a
//! resource vector)" — with one entry per (server, resource-kind) bucket.

use quasaq_sim::ServerId;
use std::fmt;

/// A kind of reservable resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// CPU, in fractions of one processor (0.0–1.0 per server).
    Cpu,
    /// Outbound network bandwidth, in bytes/second.
    NetBandwidth,
    /// Disk read bandwidth, in bytes/second.
    DiskBandwidth,
    /// Stream buffer memory, in bytes.
    Memory,
}

impl ResourceKind {
    /// All kinds, in bucket order.
    pub const ALL: [ResourceKind; 4] = [
        ResourceKind::Cpu,
        ResourceKind::NetBandwidth,
        ResourceKind::DiskBandwidth,
        ResourceKind::Memory,
    ];
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::Cpu => write!(f, "cpu"),
            ResourceKind::NetBandwidth => write!(f, "net-bw"),
            ResourceKind::DiskBandwidth => write!(f, "disk-bw"),
            ResourceKind::Memory => write!(f, "memory"),
        }
    }
}

/// One bucket: a resource kind on a particular server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceKey {
    /// The server holding the resource.
    pub server: ServerId,
    /// The resource kind.
    pub kind: ResourceKind,
}

impl ResourceKey {
    /// Creates a key.
    pub fn new(server: ServerId, kind: ResourceKind) -> Self {
        ResourceKey { server, kind }
    }
}

impl fmt::Display for ResourceKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.server, self.kind)
    }
}

/// A sparse vector of resource demands (or capacities), keyed by bucket.
/// Amounts are in each kind's native unit and must be non-negative.
///
/// Demand vectors are tiny (a streaming plan touches at most five buckets:
/// disk and net at the source, cpu/net/memory at the target), and the plan
/// generator builds one per candidate plan — millions per scale run. The
/// entries therefore live in a single sorted `Vec` rather than a tree: one
/// allocation per vector, binary-searched lookups, and cache-line iteration
/// in the admission and LRB hot paths. Iteration order (ascending
/// `ResourceKey`) is identical to the previous tree-backed layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourceVector {
    entries: Vec<(ResourceKey, f64)>,
}

impl ResourceVector {
    /// The empty (zero) vector.
    pub fn new() -> Self {
        ResourceVector::default()
    }

    /// The empty vector with room for `n` buckets before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        ResourceVector { entries: Vec::with_capacity(n) }
    }

    fn position(&self, key: ResourceKey) -> Result<usize, usize> {
        self.entries.binary_search_by(|&(k, _)| k.cmp(&key))
    }

    /// Sets the demand for one bucket, replacing any previous value.
    /// Zero demands are dropped from the vector.
    pub fn set(&mut self, key: ResourceKey, amount: f64) -> &mut Self {
        assert!(amount >= 0.0 && amount.is_finite(), "resource amounts must be non-negative");
        match self.position(key) {
            Ok(i) if amount == 0.0 => {
                self.entries.remove(i);
            }
            Ok(i) => self.entries[i].1 = amount,
            Err(_) if amount == 0.0 => {}
            Err(i) => self.entries.insert(i, (key, amount)),
        }
        self
    }

    /// Adds `amount` to a bucket.
    pub fn add(&mut self, key: ResourceKey, amount: f64) -> &mut Self {
        assert!(amount >= 0.0 && amount.is_finite(), "resource amounts must be non-negative");
        if amount > 0.0 {
            match self.position(key) {
                Ok(i) => self.entries[i].1 += amount,
                Err(i) => self.entries.insert(i, (key, amount)),
            }
        }
        self
    }

    /// Builds a vector from entries whose keys are all distinct, dropping
    /// zero amounts: the same vector as `add`ing them one by one, built
    /// with one sort instead of an insertion per entry.
    pub fn from_distinct(entries: &[(ResourceKey, f64)]) -> Self {
        let mut v = ResourceVector::with_capacity(entries.len());
        for &(key, amount) in entries {
            assert!(amount >= 0.0 && amount.is_finite(), "resource amounts must be non-negative");
            if amount > 0.0 {
                v.entries.push((key, amount));
            }
        }
        v.entries.sort_unstable_by_key(|&(k, _)| k);
        assert!(v.entries.windows(2).all(|w| w[0].0 != w[1].0), "duplicate resource keys");
        v
    }

    /// Builder-style `set`.
    pub fn with(mut self, key: ResourceKey, amount: f64) -> Self {
        self.set(key, amount);
        self
    }

    /// The demand on a bucket (0 when absent).
    pub fn get(&self, key: ResourceKey) -> f64 {
        match self.position(key) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Non-zero entries in bucket order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceKey, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Non-zero entries in bucket order, as a slice.
    pub fn entries(&self) -> &[(ResourceKey, f64)] {
        &self.entries
    }

    /// True when all demands are zero.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of non-zero buckets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &ResourceVector) -> ResourceVector {
        let mut out = self.clone();
        for (k, v) in other.iter() {
            out.add(k, v);
        }
        out
    }

    /// Component-wise scaling by a non-negative factor.
    pub fn scaled(&self, factor: f64) -> ResourceVector {
        assert!(factor >= 0.0 && factor.is_finite(), "scale factor must be non-negative");
        let mut out = ResourceVector::new();
        for (k, v) in self.iter() {
            out.set(k, v * factor);
        }
        out
    }

    /// Sum of all demands on one server (mixed units — only meaningful for
    /// displays and debugging).
    pub fn server_total(&self, server: ServerId) -> f64 {
        self.iter().filter(|(k, _)| k.server == server).map(|(_, v)| v).sum()
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v:.3}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: u32, kind: ResourceKind) -> ResourceKey {
        ResourceKey::new(ServerId(s), kind)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = ResourceVector::new();
        v.set(key(0, ResourceKind::Cpu), 0.25);
        assert_eq!(v.get(key(0, ResourceKind::Cpu)), 0.25);
        assert_eq!(v.get(key(1, ResourceKind::Cpu)), 0.0);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn zero_entries_are_dropped() {
        let mut v = ResourceVector::new();
        v.set(key(0, ResourceKind::Cpu), 0.5);
        v.set(key(0, ResourceKind::Cpu), 0.0);
        assert!(v.is_empty());
        v.add(key(0, ResourceKind::Memory), 0.0);
        assert!(v.is_empty());
    }

    #[test]
    fn from_distinct_matches_adding_one_by_one() {
        let entries = [
            (key(2, ResourceKind::DiskBandwidth), 7.0),
            (key(2, ResourceKind::NetBandwidth), 0.0),
            (key(0, ResourceKind::Cpu), 0.25),
            (key(0, ResourceKind::NetBandwidth), 3.5),
            (key(1, ResourceKind::Memory), 9.0),
        ];
        let mut added = ResourceVector::new();
        for &(k, amount) in &entries {
            added.add(k, amount);
        }
        assert_eq!(ResourceVector::from_distinct(&entries), added);
        assert_eq!(added.len(), 4);
    }

    #[test]
    #[should_panic(expected = "duplicate resource keys")]
    fn from_distinct_refuses_duplicate_keys() {
        let k = key(0, ResourceKind::Cpu);
        ResourceVector::from_distinct(&[(k, 0.1), (k, 0.2)]);
    }

    #[test]
    fn add_accumulates() {
        let mut v = ResourceVector::new();
        v.add(key(0, ResourceKind::NetBandwidth), 100.0);
        v.add(key(0, ResourceKind::NetBandwidth), 50.0);
        assert_eq!(v.get(key(0, ResourceKind::NetBandwidth)), 150.0);
    }

    #[test]
    fn plus_and_scaled() {
        let a = ResourceVector::new()
            .with(key(0, ResourceKind::Cpu), 0.1)
            .with(key(0, ResourceKind::NetBandwidth), 100.0);
        let b = ResourceVector::new().with(key(0, ResourceKind::Cpu), 0.2);
        let sum = a.plus(&b);
        assert!((sum.get(key(0, ResourceKind::Cpu)) - 0.3).abs() < 1e-12);
        assert_eq!(sum.get(key(0, ResourceKind::NetBandwidth)), 100.0);
        let doubled = a.scaled(2.0);
        assert!((doubled.get(key(0, ResourceKind::Cpu)) - 0.2).abs() < 1e-12);
        assert!(a.scaled(0.0).is_empty());
    }

    #[test]
    fn server_total_filters() {
        let v = ResourceVector::new()
            .with(key(0, ResourceKind::Cpu), 0.1)
            .with(key(1, ResourceKind::Cpu), 0.9);
        assert!((v.server_total(ServerId(0)) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_amount_rejected() {
        let mut v = ResourceVector::new();
        v.set(key(0, ResourceKind::Cpu), -0.1);
    }

    #[test]
    fn display_is_compact() {
        let v = ResourceVector::new().with(key(0, ResourceKind::Cpu), 0.5);
        assert_eq!(v.to_string(), "[server-0/cpu=0.500]");
    }
}
