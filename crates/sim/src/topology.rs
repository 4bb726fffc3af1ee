//! Minimal cluster-topology vocabulary shared by the resource, storage,
//! and query layers.

use std::fmt;

/// Identifies one database server in the distributed deployment (the
/// paper's testbed has three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The ids `0..n`, for building n-server clusters.
    pub fn first_n(n: u32) -> impl Iterator<Item = ServerId> {
        (0..n).map(ServerId)
    }

    /// This server's position in the dense `0..n` id space — the index of
    /// its slot in per-server state tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_n_enumerates() {
        let ids: Vec<ServerId> = ServerId::first_n(3).collect();
        assert_eq!(ids, vec![ServerId(0), ServerId(1), ServerId(2)]);
    }

    #[test]
    fn display() {
        assert_eq!(ServerId(2).to_string(), "server-2");
    }
}
