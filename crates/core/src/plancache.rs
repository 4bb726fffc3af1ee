//! `core::plancache` — memoized delivery options for admission control.
//!
//! The plan space splits into a static half and a live half. The static
//! half is a request's delivery options — every replica × transcode ×
//! frame-drop that passes the static QoS rules, with the sites and
//! ciphers it fans out over. [`PlanGenerator::options_into`] computes it
//! from the metadata engine and the request alone. The live half is
//! everything read from bucket state: the capacity-feasibility cut, cost
//! ranking and reservation ("the costs under current system status …
//! [must] be factored into the choice of an acceptable plan", §3.4).
//!
//! The cache memoizes the static half only, keyed by `(video, QoS range,
//! security)`. The Quality Manager runs the live half on every admission
//! exactly as it does with caching off, so cached and uncached admission
//! make the same decisions — same plans, same order, same RNG stream — by
//! construction. Nothing capacity-derived is stored, so capacity
//! re-rating, reservations and renegotiation leave entries valid. Entries
//! go stale only when the metadata engine changes: on server failure and
//! restart, and through the manager's explicit invalidation hook, the
//! manager drops every entry.
//!
//! Admission into the cache is gated by a TinyLFU-style **doorkeeper**:
//! a missed key earns a slot only on its *second* miss. Under a
//! Zipf-skewed catalog the long tail is full of keys seen exactly once;
//! storing those evicts warm entries for zero future hits. One-hit
//! wonders instead enumerate into the manager's recycled buffer, and only
//! keys with demonstrated re-use are stored. Cache contents affect speed,
//! never decisions.
//!
//! [`PlanGenerator::options_into`]: crate::generator::PlanGenerator::options_into

use crate::generator::{DeliveryOptions, PlanRequest};
use crate::qop::QopSecurity;
use quasaq_media::{QosRange, VideoId};
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Default bound on cached entries (distinct requests).
const DEFAULT_MAX_ENTRIES: usize = 1024;
/// Doorkeeper capacity: first-miss key hashes remembered to tell second
/// touches from one-hit wonders. Cleared wholesale when full — a cheap
/// generational reset, like TinyLFU's periodic halving.
const DOORKEEPER_CAPACITY: usize = 8192;

/// The memoization key: everything of the admission request that
/// enumeration reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct PlanCacheKey {
    video: VideoId,
    qos: QosRange,
    security: QopSecurity,
}

impl PlanCacheKey {
    /// The key of `request`.
    pub(crate) fn of(request: &PlanRequest) -> Self {
        PlanCacheKey { video: request.video, qos: request.qos.clone(), security: request.security }
    }
}

/// Counters for cache behaviour (reported by benches and asserted by
/// tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to respect the entry bound.
    pub evictions: u64,
    /// Entries dropped by explicit invalidation.
    pub invalidations: u64,
    /// First-touch misses the doorkeeper declined to store (the request
    /// enumerated into the manager's recycled buffer instead).
    pub doorkeeper_bypasses: u64,
}

struct Entry {
    options: Arc<DeliveryOptions>,
    /// LRU recency: the cache-wide tick at last touch. Ticks are unique,
    /// so min-tick eviction is deterministic.
    tick: u64,
}

/// An LRU cache of enumerated delivery options.
pub(crate) struct PlanCache {
    entries: HashMap<PlanCacheKey, Entry>,
    /// Doorkeeper: hashes of keys that have missed exactly once.
    seen_misses: HashSet<u64>,
    max_entries: usize,
    tick: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// Creates a cache with the default entry bound.
    pub(crate) fn new() -> Self {
        Self::with_limits(DEFAULT_MAX_ENTRIES)
    }

    /// Creates a cache holding at most `max_entries` entries.
    pub(crate) fn with_limits(max_entries: usize) -> Self {
        PlanCache {
            entries: HashMap::new(),
            seen_misses: HashSet::new(),
            max_entries: max_entries.max(1),
            tick: 0,
            stats: PlanCacheStats::default(),
        }
    }

    /// Number of cached entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Behaviour counters since construction.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Whether `key` is currently cached (no recency touch, no counters).
    pub(crate) fn contains(&self, key: &PlanCacheKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Looks `key` up, touching its recency.
    pub(crate) fn lookup(&mut self, key: &PlanCacheKey) -> Option<Arc<DeliveryOptions>> {
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some(entry) => {
                entry.tick = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.options))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The admission doorkeeper, consulted after a miss: returns whether
    /// the missed `key` deserves a cache slot. The first miss records the
    /// key's hash and answers `false`; a repeat miss answers `true`
    /// (demonstrated re-use — enumerate and store).
    pub(crate) fn should_store(&mut self, key: &PlanCacheKey) -> bool {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        let hash = h.finish();
        if self.seen_misses.contains(&hash) {
            return true;
        }
        if self.seen_misses.len() >= DOORKEEPER_CAPACITY {
            self.seen_misses.clear();
        }
        self.seen_misses.insert(hash);
        self.stats.doorkeeper_bypasses += 1;
        false
    }

    /// Stores a request's delivery options, evicting the least recently
    /// used entry when full. Empty option lists are cached too —
    /// statically infeasible requests repeat just as often as satisfiable
    /// ones.
    pub(crate) fn insert(&mut self, key: PlanCacheKey, options: Arc<DeliveryOptions>) {
        self.tick += 1;
        self.entries.insert(key, Entry { options, tick: self.tick });
        if self.entries.len() > self.max_entries {
            // Ticks are unique, so the minimum is a deterministic victim
            // even though HashMap iteration order is not.
            let victim = self.entries.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k.clone());
            if let Some(key) = victim {
                self.entries.remove(&key);
                self.stats.evictions += 1;
            }
        }
    }

    /// Drops every entry and every remembered first miss, leaving the
    /// cache as a fresh one apart from its counters.
    pub(crate) fn invalidate_all(&mut self) {
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.seen_misses.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(video: u32) -> PlanCacheKey {
        PlanCacheKey { video: VideoId(video), qos: QosRange::any(), security: QopSecurity::Open }
    }

    fn options() -> Arc<DeliveryOptions> {
        Arc::new(DeliveryOptions::default())
    }

    #[test]
    fn hit_miss_and_recency() {
        let mut c = PlanCache::new();
        assert!(c.lookup(&key(0)).is_none());
        let stored = options();
        c.insert(key(0), Arc::clone(&stored));
        let hit = c.lookup(&key(0)).expect("hit");
        assert!(Arc::ptr_eq(&hit, &stored), "a hit shares the stored options");
        assert_eq!(c.stats(), PlanCacheStats { hits: 1, misses: 1, ..Default::default() });
    }

    #[test]
    fn every_request_field_is_part_of_the_key() {
        let mut c = PlanCache::new();
        c.insert(key(0), options());
        assert!(c.lookup(&key(1)).is_none());
        let mut secure = key(0);
        secure.security = QopSecurity::Confidential;
        assert!(c.lookup(&secure).is_none());
        let mut narrow = key(0);
        narrow.qos.max_frame_rate = quasaq_media::FrameRate::LOW;
        assert!(c.lookup(&narrow).is_none());
        assert!(c.lookup(&key(0)).is_some());
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let mut c = PlanCache::with_limits(2);
        c.insert(key(0), options());
        c.insert(key(1), options());
        // Touch key 0 so key 1 is the LRU victim.
        assert!(c.lookup(&key(0)).is_some());
        c.insert(key(2), options());
        assert_eq!(c.len(), 2);
        assert!(c.contains(&key(0)));
        assert!(!c.contains(&key(1)));
        assert!(c.contains(&key(2)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_the_entry() {
        let mut c = PlanCache::new();
        c.insert(key(0), options());
        let newer = options();
        c.insert(key(0), Arc::clone(&newer));
        assert_eq!(c.len(), 1);
        assert!(Arc::ptr_eq(&c.lookup(&key(0)).unwrap(), &newer));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_all_clears_and_counts() {
        let mut c = PlanCache::new();
        c.insert(key(0), options());
        c.insert(key(1), options());
        c.invalidate_all();
        assert_eq!(c.len(), 0);
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn doorkeeper_admits_on_second_miss() {
        let mut c = PlanCache::new();
        // First touch: declined (one-hit wonders stay out).
        assert!(!c.should_store(&key(0)));
        // Second touch of the same key: admitted.
        assert!(c.should_store(&key(0)));
        // And it stays admitted (the hash is remembered, not consumed).
        assert!(c.should_store(&key(0)));
        // Distinct keys each start cold.
        assert!(!c.should_store(&key(1)));
        assert_eq!(c.stats().doorkeeper_bypasses, 2);
        // Invalidation forgets remembered first-misses along with entries.
        c.invalidate_all();
        assert!(!c.should_store(&key(0)));
    }
}
