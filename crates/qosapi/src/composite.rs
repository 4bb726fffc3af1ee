//! The Composite QoS API.
//!
//! "The Composite QoS API hides implementation and access details of
//! underlying APIs (i.e. system and network) and offers control to upper
//! layers (e.g. Plan Generator) at the same time. The major functionality
//! provided by the Composite QoS API is QoS-related resource management:
//! 1. admission control … 2. resource reservation … 3. renegotiation."
//!
//! [`CompositeQosApi`] shards its buckets into one `ServerDomain` per
//! server — the server's resource-kind managers plus its failure stash —
//! and reserves entire [`ResourceVector`]s atomically: either every
//! bucket admits its share or nothing is reserved. A reservation is its
//! demand: releasing it returns each entry to its bucket. Reservations,
//! releases, and server failures all route through the owning domain;
//! bucket iteration stays in global `(server, kind)` order, so the
//! sharded layout is observationally identical to a flat bucket map.

use crate::manager::{reservable, within_capacity, BucketFull, Projection, ResourceManager};
use crate::resource::{ResourceKey, ResourceKind, ResourceVector};
use quasaq_sim::ServerId;

/// A composite reservation spanning several buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReservationId(pub u64);

/// Why a composite reservation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionError {
    /// A bucket would overflow.
    Rejected(BucketFull),
    /// The demand references a bucket with no registered manager.
    UnknownBucket(ResourceKey),
    /// The reservation id is not outstanding.
    UnknownReservation(ReservationId),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Rejected(b) => write!(f, "admission rejected: {b}"),
            AdmissionError::UnknownBucket(k) => write!(f, "no resource manager for {k}"),
            AdmissionError::UnknownReservation(r) => write!(f, "unknown reservation {r:?}"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One server's QoS resource domain: its per-kind bucket managers (a
/// fixed slot per [`ResourceKind`], in declaration order so bucket
/// iteration stays sorted), plus the capacities stashed while the server
/// is down so a later restart can re-register them at their original
/// sizes.
#[derive(Default)]
struct ServerDomain {
    managers: [Option<ResourceManager>; ResourceKind::ALL.len()],
    failed: Option<Vec<(ResourceKind, f64)>>,
}

impl ServerDomain {
    fn is_empty(&self) -> bool {
        self.managers.iter().all(|m| m.is_none())
    }
}

/// A summary of some servers' buckets of some kinds, from
/// [`CompositeQosApi::live_capacity`]: how many of the servers are *live*,
/// hosting a bucket of every one of the kinds, and the smallest capacity
/// of each kind among them. It answers for all those servers at once
/// whether entries fit, without visiting them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveCapacity {
    /// The number of live servers.
    pub servers: usize,
    /// The smallest capacity by kind among the live servers (infinite when
    /// none is live), negative infinity for the kinds not summarized.
    min: [f64; ResourceKind::ALL.len()],
}

impl LiveCapacity {
    /// Whether entries of the summarized kinds, none of them zero, fit the
    /// smallest live capacity of their kind. Then
    /// [`fits_on`](CompositeQosApi::fits_on) holds for them on exactly the
    /// live servers: every live bucket is at least that large, and a
    /// server missing one of the buckets refuses its nonzero entry.
    pub fn fits_everywhere(&self, entries: &[(ResourceKind, f64)]) -> bool {
        entries.iter().all(|&(kind, amount)| {
            amount != 0.0 && within_capacity(self.min[kind as usize], amount)
        })
    }
}

/// The most that some servers' buckets of some kinds have left, from
/// [`CompositeQosApi::headroom`]: the largest
/// [`available`](ResourceManager::available) amount of each kind among
/// them. It refuses entries for all those servers at once, without
/// visiting them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headroom {
    /// The largest available amount by kind (negative infinity when no
    /// server hosts a bucket of the kind), infinite for the kinds not
    /// summarized.
    max: [f64; ResourceKind::ALL.len()],
}

impl Headroom {
    /// Whether every nonzero entry could be reserved in a bucket that has
    /// the largest available amount of its kind. When not,
    /// [`admits_on`](CompositeQosApi::admits_on) refuses the entries on
    /// every one of the servers: whether an amount can be reserved is
    /// monotone in what the bucket has left, and no bucket of a kind has
    /// more left than the largest.
    pub fn may_admit(&self, entries: &[(ResourceKind, f64)]) -> bool {
        entries
            .iter()
            .all(|&(kind, amount)| amount == 0.0 || reservable(self.max[kind as usize], amount))
    }
}

/// Per-server bucket domains plus composite (all-or-nothing)
/// reservations.
///
/// Domains live in a dense `ServerId.0`-indexed arena and reservations in
/// a monotonic-id slab, so every lookup on the admission hot path is an
/// array index rather than a tree walk.
pub struct CompositeQosApi {
    domains: Vec<ServerDomain>,
    /// Each reservation's demand, in a slab indexed by `ReservationId.0`;
    /// ids are never reused, so a released slot stays `None` (release
    /// idempotency, stale-id safety).
    reservations: Vec<Option<ResourceVector>>,
    outstanding: usize,
    next_id: u64,
    /// Bumped by every call that may change a bucket's capacity or which
    /// buckets exist; see [`capacity_epoch`](Self::capacity_epoch).
    capacity_epoch: u64,
}

impl CompositeQosApi {
    /// Creates an API with no managed buckets.
    pub fn new() -> Self {
        CompositeQosApi {
            domains: Vec::new(),
            reservations: Vec::new(),
            outstanding: 0,
            next_id: 0,
            capacity_epoch: 0,
        }
    }

    /// Builds an API for a homogeneous cluster: one domain per server,
    /// each with one CPU and the given bandwidth/memory capacities.
    pub fn homogeneous_cluster(
        servers: impl IntoIterator<Item = ServerId>,
        net_bps: f64,
        disk_bps: f64,
        memory_bytes: f64,
    ) -> Self {
        let mut api = CompositeQosApi::new();
        for server in servers {
            api.register(ResourceKey::new(server, ResourceKind::Cpu), 1.0);
            api.register(ResourceKey::new(server, ResourceKind::NetBandwidth), net_bps);
            api.register(ResourceKey::new(server, ResourceKind::DiskBandwidth), disk_bps);
            api.register(ResourceKey::new(server, ResourceKind::Memory), memory_bytes);
        }
        api
    }

    fn manager(&self, key: ResourceKey) -> Option<&ResourceManager> {
        self.domains.get(key.server.0 as usize)?.managers[key.kind as usize].as_ref()
    }

    fn manager_mut(&mut self, key: ResourceKey) -> Option<&mut ResourceManager> {
        self.domains.get_mut(key.server.0 as usize)?.managers[key.kind as usize].as_mut()
    }

    /// Registers a manager for a bucket. Replaces any existing manager
    /// (and its reservations' accounting), so call only at setup time.
    pub fn register(&mut self, key: ResourceKey, capacity: f64) {
        let slot = key.server.0 as usize;
        if slot >= self.domains.len() {
            self.domains.resize_with(slot + 1, ServerDomain::default);
        }
        self.domains[slot].managers[key.kind as usize] = Some(ResourceManager::new(capacity));
        self.capacity_epoch += 1;
    }

    /// A counter that [`register`](Self::register),
    /// [`set_capacity`](Self::set_capacity),
    /// [`fail_server`](Self::fail_server) and
    /// [`restore_server`](Self::restore_server) bump, and nothing else
    /// changes. Anything computed from the buckets' capacities and
    /// presence alone, such as a [`live_capacity`](Self::live_capacity),
    /// stays valid while the epoch does: reservations and releases only
    /// move usage.
    pub fn capacity_epoch(&self) -> u64 {
        self.capacity_epoch
    }

    /// Re-rates a managed bucket to a new capacity (link degradation or
    /// recovery), leaving existing reservations untouched — shrinking below
    /// current usage oversubscribes the bucket, which only blocks new
    /// admissions. Returns `false` (and changes nothing) for unmanaged
    /// buckets.
    pub fn set_capacity(&mut self, key: ResourceKey, capacity: f64) -> bool {
        match self.manager_mut(key) {
            Some(mgr) => {
                mgr.set_capacity(capacity);
                self.capacity_epoch += 1;
                true
            }
            None => false,
        }
    }

    /// The managed buckets, in global `(server, kind)` order.
    pub fn buckets(&self) -> impl Iterator<Item = ResourceKey> + '_ {
        self.domains.iter().enumerate().flat_map(|(s, d)| {
            ResourceKind::ALL
                .iter()
                .filter(move |&&k| d.managers[k as usize].is_some())
                .map(move |&k| ResourceKey::new(ServerId(s as u32), k))
        })
    }

    /// Capacity of a bucket (`None` when unmanaged).
    pub fn capacity(&self, key: ResourceKey) -> Option<f64> {
        self.manager(key).map(|m| m.capacity())
    }

    /// Current fill fraction of a bucket (`None` when unmanaged).
    pub fn fill(&self, key: ResourceKey) -> Option<f64> {
        self.manager(key).map(|m| m.fill())
    }

    /// Current usage of a bucket in native units.
    pub fn used(&self, key: ResourceKey) -> Option<f64> {
        self.manager(key).map(|m| m.used())
    }

    /// Number of outstanding composite reservations. O(1): counted, not
    /// scanned.
    pub fn reservation_count(&self) -> usize {
        self.outstanding
    }

    /// Admission check without reserving: can a demand with these entries
    /// fit right now? The keys are distinct, as in a vector's
    /// [`entries`](ResourceVector::entries); a zero amount always fits.
    pub fn admits(&self, entries: &[(ResourceKey, f64)]) -> Result<(), AdmissionError> {
        for &(key, amount) in entries.iter().filter(|&&(_, amount)| amount != 0.0) {
            let mgr = self.manager(key).ok_or(AdmissionError::UnknownBucket(key))?;
            if !mgr.can_reserve(amount) {
                return Err(AdmissionError::Rejected(BucketFull {
                    key,
                    requested: amount,
                    available: mgr.available(),
                }));
            }
        }
        Ok(())
    }

    /// The LRB projection (Eq. 1): the maximum bucket fill if `demand`
    /// were admitted, `max_i (U_i + r_i) / R_i`. Values above 1.0 mean the
    /// demand does not fit. Unknown buckets project to infinity.
    pub fn max_fill_with(&self, demand: &ResourceVector) -> f64 {
        self.project(demand.entries()).max_fill
    }

    /// The [`Projection`] onto the live buckets of a demand with these
    /// entries (distinct keys, zero amounts allowed): its LRB cost and
    /// whether it fits every bucket's total capacity.
    #[inline]
    pub fn project(&self, entries: &[(ResourceKey, f64)]) -> Projection {
        entries
            .iter()
            .fold(Projection::EMPTY, |p, &(key, amount)| p.with(self.manager(key), amount))
    }

    /// Folds the entries of one server's buckets into `from`: the
    /// [`project`](Self::project) fold continued with `entries` (distinct
    /// kinds, zero amounts allowed) on `server`'s buckets, whose domain is
    /// looked up once. The projection's max and conjunction do not depend
    /// on fold order, so projecting a demand's entries in two parts, merged
    /// this way, gives `project` of the whole bit for bit.
    #[inline]
    pub fn project_on(
        &self,
        from: Projection,
        server: ServerId,
        entries: &[(ResourceKind, f64)],
    ) -> Projection {
        let managers = self.domains.get(server.0 as usize).map(|d| &d.managers);
        entries.iter().fold(from, |p, &(kind, amount)| {
            p.with(managers.and_then(|m| m[kind as usize].as_ref()), amount)
        })
    }

    /// Whether entries of these kinds (distinct, zero amounts allowed) fit
    /// the total capacity of `server`'s buckets: the `fits_capacity` of
    /// [`project_on`](Self::project_on) from an empty projection, by
    /// comparison alone.
    pub fn fits_on(&self, server: ServerId, entries: &[(ResourceKind, f64)]) -> bool {
        let managers = self.domains.get(server.0 as usize).map(|d| &d.managers);
        entries.iter().filter(|&&(_, amount)| amount != 0.0).all(|&(kind, amount)| {
            managers
                .and_then(|m| m[kind as usize].as_ref())
                .is_some_and(|m| m.within_capacity(amount))
        })
    }

    /// Whether entries of these kinds (distinct, zero amounts allowed) pass
    /// [`admits`](Self::admits) on `server`'s buckets, whose domain is
    /// looked up once.
    pub fn admits_on(&self, server: ServerId, entries: &[(ResourceKind, f64)]) -> bool {
        let managers = self.domains.get(server.0 as usize).map(|d| &d.managers);
        entries.iter().filter(|&&(_, amount)| amount != 0.0).all(|&(kind, amount)| {
            managers.and_then(|m| m[kind as usize].as_ref()).is_some_and(|m| m.can_reserve(amount))
        })
    }

    /// The [`Headroom`] of `kinds` among `servers`.
    pub fn headroom(&self, servers: &[ServerId], kinds: &[ResourceKind]) -> Headroom {
        let mut max = [f64::INFINITY; ResourceKind::ALL.len()];
        for &kind in kinds {
            max[kind as usize] = f64::NEG_INFINITY;
        }
        for server in servers {
            let Some(domain) = self.domains.get(server.0 as usize) else { continue };
            for &kind in kinds {
                if let Some(bucket) = &domain.managers[kind as usize] {
                    max[kind as usize] = max[kind as usize].max(bucket.available());
                }
            }
        }
        Headroom { max }
    }

    /// The [`LiveCapacity`] of `kinds` among `servers`.
    pub fn live_capacity(&self, servers: &[ServerId], kinds: &[ResourceKind]) -> LiveCapacity {
        let mut live =
            LiveCapacity { servers: 0, min: [f64::NEG_INFINITY; ResourceKind::ALL.len()] };
        for &kind in kinds {
            live.min[kind as usize] = f64::INFINITY;
        }
        'servers: for server in servers {
            let Some(domain) = self.domains.get(server.0 as usize) else { continue };
            let mut min = live.min;
            for &kind in kinds {
                let Some(bucket) = &domain.managers[kind as usize] else { continue 'servers };
                min[kind as usize] = min[kind as usize].min(bucket.capacity());
            }
            live.min = min;
            live.servers += 1;
        }
        live
    }

    /// Reserves `demand` atomically. Its keys are distinct, so the check
    /// decides every bucket's reserve.
    pub fn reserve(&mut self, demand: &ResourceVector) -> Result<ReservationId, AdmissionError> {
        self.admits(demand.entries())?;
        for (key, amount) in demand.iter() {
            let reserved = self.manager_mut(key).is_some_and(|mgr| mgr.reserve(amount));
            assert!(reserved, "`admits` checked every bucket");
        }
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        debug_assert_eq!(self.reservations.len() as u64, id.0);
        self.reservations.push(Some(demand.clone()));
        self.outstanding += 1;
        Ok(id)
    }

    /// Releases a composite reservation (idempotent): each entry of its
    /// demand goes back to its bucket, in demand order.
    pub fn release(&mut self, id: ReservationId) {
        let taken = self.reservations.get_mut(id.0 as usize).and_then(Option::take);
        if let Some(demand) = taken {
            self.outstanding -= 1;
            for (key, amount) in demand.iter() {
                if let Some(mgr) = self.manager_mut(key) {
                    mgr.release(amount);
                }
            }
        }
    }

    /// The demand vector held by a reservation.
    pub fn demand_of(&self, id: ReservationId) -> Option<&ResourceVector> {
        self.reservations.get(id.0 as usize)?.as_ref()
    }

    /// Simulates the loss of a server: every bucket its domain hosted
    /// disappears and every composite reservation touching it is cancelled
    /// (its shares on surviving servers are released too — a half-dead
    /// session is useless). Returns the cancelled reservation ids so the
    /// caller can re-plan the affected sessions.
    pub fn fail_server(&mut self, server: ServerId) -> Vec<ReservationId> {
        self.capacity_epoch += 1;
        let affected: Vec<ReservationId> = self
            .reservations
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|r| (i, r)))
            .filter(|(_, demand)| demand.iter().any(|(k, _)| k.server == server))
            .map(|(i, _)| ReservationId(i as u64))
            .collect();
        for &id in &affected {
            self.release(id);
        }
        if let Some(domain) = self.domains.get_mut(server.0 as usize) {
            if !domain.is_empty() {
                // A second failure of an already-empty domain keeps the
                // first stash (nothing new is lost).
                domain.failed = Some(
                    ResourceKind::ALL
                        .iter()
                        .filter_map(|&k| {
                            domain.managers[k as usize].as_ref().map(|m| (k, m.capacity()))
                        })
                        .collect(),
                );
                domain.managers = Default::default();
            }
        }
        affected
    }

    /// Brings a failed server back: its domain's buckets are re-registered
    /// empty at their pre-failure capacities, so new admissions against it
    /// succeed again. Returns `false` when the server was not down
    /// (unknown or never failed), in which case nothing changes.
    pub fn restore_server(&mut self, server: ServerId) -> bool {
        let Some(buckets) = self.domains.get_mut(server.0 as usize).and_then(|d| d.failed.take())
        else {
            return false;
        };
        for (kind, capacity) in buckets {
            self.register(ResourceKey::new(server, kind), capacity);
        }
        true
    }

    /// True when `server` is currently failed (its buckets unregistered).
    pub fn is_failed(&self, server: ServerId) -> bool {
        self.domains.get(server.0 as usize).is_some_and(|d| d.failed.is_some())
    }

    /// Renegotiation check without touching anything: would
    /// [`renegotiate`](Self::renegotiate) swap reservation `id` for a
    /// demand with these entries right now? The keys are distinct, as in
    /// a vector's [`entries`](ResourceVector::entries); a zero amount
    /// always fits. `renegotiate` succeeds exactly when this passes.
    pub fn admits_renegotiation(
        &self,
        id: ReservationId,
        entries: &[(ResourceKey, f64)],
    ) -> Result<(), AdmissionError> {
        let Some(old) = self.demand_of(id) else {
            return Err(AdmissionError::UnknownReservation(id));
        };
        // Both of a bucket's tests are decided here. The headroom once the
        // old share is returned is taken unclamped, so a bucket re-rated
        // below its reservations shows its true negative slack. The
        // post-release reserve's own test runs on the level the release
        // will leave; it rounds `c - (u - o)` where the headroom rounds
        // `(c - u) + o`, and the two can differ by an ulp.
        for &(key, amount) in entries.iter().filter(|&&(_, amount)| amount != 0.0) {
            let mgr = self.manager(key).ok_or(AdmissionError::UnknownBucket(key))?;
            let slack = mgr.capacity() - mgr.used() + old.get(key);
            let mut after = *mgr;
            after.release(old.get(key));
            if amount > slack + 1e-9 || !after.can_reserve(amount) {
                return Err(AdmissionError::Rejected(BucketFull {
                    key,
                    requested: amount,
                    available: slack.min(after.available()),
                }));
            }
        }
        Ok(())
    }

    /// Renegotiates a reservation to `new_demand` atomically: on failure
    /// the original reservation is kept under its id, with every bucket's
    /// usage bit for bit as it was. Returns the new reservation id.
    ///
    /// Renegotiation happens "when QoS requirements are modified during
    /// media playback" or "when the user-specified QoP is rejected by the
    /// admission control module".
    pub fn renegotiate(
        &mut self,
        id: ReservationId,
        new_demand: &ResourceVector,
    ) -> Result<ReservationId, AdmissionError> {
        self.admits_renegotiation(id, new_demand.entries())?;
        self.release(id);
        let renewed = self.reserve(new_demand);
        debug_assert!(renewed.is_ok(), "the check's post-release test is the reserve's own");
        renewed
    }
}

impl Default for CompositeQosApi {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: u32, kind: ResourceKind) -> ResourceKey {
        ResourceKey::new(ServerId(s), kind)
    }

    fn cluster() -> CompositeQosApi {
        CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6)
    }

    fn stream_demand(server: u32, bps: f64, cpu: f64) -> ResourceVector {
        ResourceVector::new()
            .with(key(server, ResourceKind::NetBandwidth), bps)
            .with(key(server, ResourceKind::DiskBandwidth), bps)
            .with(key(server, ResourceKind::Cpu), cpu)
    }

    #[test]
    fn cluster_has_all_buckets() {
        let api = cluster();
        assert_eq!(api.buckets().count(), 12);
        assert_eq!(api.capacity(key(2, ResourceKind::NetBandwidth)), Some(3_200_000.0));
        assert_eq!(api.capacity(key(3, ResourceKind::Cpu)), None);
    }

    #[test]
    fn reserve_release_cycle() {
        let mut api = cluster();
        let d = stream_demand(0, 193_000.0, 0.04);
        let r = api.reserve(&d).unwrap();
        assert!((api.used(key(0, ResourceKind::NetBandwidth)).unwrap() - 193_000.0).abs() < 1e-6);
        assert_eq!(api.reservation_count(), 1);
        assert_eq!(api.demand_of(r), Some(&d));
        api.release(r);
        assert_eq!(api.used(key(0, ResourceKind::NetBandwidth)).unwrap(), 0.0);
        assert_eq!(api.reservation_count(), 0);
        // Idempotent.
        api.release(r);
    }

    #[test]
    fn admission_is_all_or_nothing() {
        let mut api = cluster();
        // Saturate server 0's CPU.
        let hog = ResourceVector::new().with(key(0, ResourceKind::Cpu), 1.0);
        api.reserve(&hog).unwrap();
        // A demand touching both net (fine) and cpu (full) must not leave
        // a dangling net reservation.
        let d = stream_demand(0, 100_000.0, 0.1);
        let before = api.used(key(0, ResourceKind::NetBandwidth)).unwrap();
        assert!(matches!(api.reserve(&d), Err(AdmissionError::Rejected(_))));
        assert_eq!(api.used(key(0, ResourceKind::NetBandwidth)).unwrap(), before);
    }

    #[test]
    fn unknown_bucket_rejected() {
        let mut api = cluster();
        let d = ResourceVector::new().with(key(9, ResourceKind::Cpu), 0.1);
        assert!(matches!(api.reserve(&d), Err(AdmissionError::UnknownBucket(_))));
        assert_eq!(api.max_fill_with(&d), f64::INFINITY);
    }

    #[test]
    fn max_fill_with_matches_lrb_eq1() {
        let mut api = cluster();
        // Pre-fill server 0's net to 42%.
        let pre =
            ResourceVector::new().with(key(0, ResourceKind::NetBandwidth), 0.42 * 3_200_000.0);
        api.reserve(&pre).unwrap();
        // A plan adding 10% net and 30% cpu on server 0.
        let d = ResourceVector::new()
            .with(key(0, ResourceKind::NetBandwidth), 0.10 * 3_200_000.0)
            .with(key(0, ResourceKind::Cpu), 0.30);
        let f = api.max_fill_with(&d);
        assert!((f - 0.52).abs() < 1e-9, "max fill {f}");
    }

    #[test]
    fn renegotiate_shrink_always_fits() {
        let mut api = cluster();
        let big = stream_demand(0, 300_000.0, 0.1);
        let small = stream_demand(0, 48_000.0, 0.02);
        let r = api.reserve(&big).unwrap();
        let r2 = api.renegotiate(r, &small).unwrap();
        assert!((api.used(key(0, ResourceKind::NetBandwidth)).unwrap() - 48_000.0).abs() < 1e-6);
        assert_eq!(api.reservation_count(), 1);
        assert!(api.demand_of(r2).is_some());
    }

    #[test]
    fn renegotiate_grow_uses_own_share() {
        let mut api = CompositeQosApi::new();
        api.register(key(0, ResourceKind::NetBandwidth), 100.0);
        let r = api
            .reserve(&ResourceVector::new().with(key(0, ResourceKind::NetBandwidth), 80.0))
            .unwrap();
        // 90 > available (20), but fits once our own 80 is returned.
        let r2 = api
            .renegotiate(r, &ResourceVector::new().with(key(0, ResourceKind::NetBandwidth), 90.0))
            .unwrap();
        assert!((api.used(key(0, ResourceKind::NetBandwidth)).unwrap() - 90.0).abs() < 1e-9);
        let _ = r2;
    }

    #[test]
    fn failed_renegotiation_keeps_original() {
        let mut api = CompositeQosApi::new();
        api.register(key(0, ResourceKind::NetBandwidth), 100.0);
        let r = api
            .reserve(&ResourceVector::new().with(key(0, ResourceKind::NetBandwidth), 50.0))
            .unwrap();
        let err = api
            .renegotiate(r, &ResourceVector::new().with(key(0, ResourceKind::NetBandwidth), 200.0))
            .unwrap_err();
        assert!(matches!(err, AdmissionError::Rejected(_)));
        // Original still held.
        assert!((api.used(key(0, ResourceKind::NetBandwidth)).unwrap() - 50.0).abs() < 1e-9);
        assert_eq!(api.reservation_count(), 1);
    }

    #[test]
    fn renegotiate_on_oversubscribed_bucket_uses_true_slack() {
        // A bucket re-rated below its outstanding reservations: two 40s on
        // a bucket crushed from 100 to 50. `available()` clamps to 0, but
        // the true slack once one 40 is returned is 50 - 80 + 40 = 10, so
        // holding at 40 or shrinking to 20 must both bounce (cleanly, with
        // the original kept), while a shrink inside the slack is honored.
        let mut api = CompositeQosApi::new();
        let k = key(0, ResourceKind::NetBandwidth);
        api.register(k, 100.0);
        let r = api.reserve(&ResourceVector::new().with(k, 40.0)).unwrap();
        let _other = api.reserve(&ResourceVector::new().with(k, 40.0)).unwrap();
        assert!(api.set_capacity(k, 50.0));
        for doomed in [40.0, 20.0] {
            let err = api.renegotiate(r, &ResourceVector::new().with(k, doomed)).unwrap_err();
            assert!(matches!(err, AdmissionError::Rejected(_)), "{doomed}: {err:?}");
            assert!((api.used(k).unwrap() - 80.0).abs() < 1e-9, "original kept");
        }
        api.renegotiate(r, &ResourceVector::new().with(k, 10.0)).unwrap();
        assert!((api.used(k).unwrap() - 50.0).abs() < 1e-9);
    }

    /// One server whose memory bucket is nearly full, holding `old` = net
    /// 100 000 + memory 158 120.97 beside another reservation, and a new
    /// demand that passes the unclamped `(c - u) + o` headroom but fails
    /// the post-release reserve's `c - (u - o)` by one ulp.
    fn ulp_boundary(net_capacity: f64) -> (CompositeQosApi, ReservationId, ResourceVector) {
        let (net, memory) = (key(0, ResourceKind::NetBandwidth), key(0, ResourceKind::Memory));
        let mut api = CompositeQosApi::homogeneous_cluster([ServerId(0)], 3_200_000.0, 20e6, 512e6);
        api.reserve(&ResourceVector::new().with(memory, 460_570_983.044_593_45)).unwrap();
        let old = ResourceVector::new().with(net, 100_000.0).with(memory, 158_120.967_763_751_72);
        let id = api.reserve(&old).unwrap();
        assert!(api.set_capacity(net, net_capacity));
        let new = ResourceVector::new().with(net, 10_000.0).with(memory, 51_429_016.955_406_56);
        (api, id, new)
    }

    fn assert_refused_renegotiation_keeps_everything(net_capacity: f64) {
        let (mut api, id, new) = ulp_boundary(net_capacity);
        let old = api.demand_of(id).cloned();
        let usage = |api: &CompositeQosApi| -> Vec<u64> {
            api.buckets().map(|k| api.used(k).unwrap().to_bits()).collect()
        };
        let before = usage(&api);
        let err = api.renegotiate(id, &new).unwrap_err();
        assert!(matches!(err, AdmissionError::Rejected(_)), "{err:?}");
        assert_eq!(api.demand_of(id).cloned(), old, "the old reservation keeps its id");
        assert_eq!(usage(&api), before);
        assert_eq!(api.reservation_count(), 2);
        api.release(id);
        api.release(ReservationId(0));
        assert_eq!(api.reservation_count(), 0);
        assert!(api.buckets().all(|k| api.used(k) == Some(0.0)), "nothing stays reserved");
    }

    #[test]
    fn renegotiation_refused_after_release_keeps_the_old_reservation() {
        assert_refused_renegotiation_keeps_everything(3_200_000.0);
    }

    #[test]
    fn renegotiation_refused_on_a_rerated_link_keeps_the_old_reservation() {
        // The old share no longer fits the re-rated link, so releasing it
        // and reserving it again would be refused.
        assert_refused_renegotiation_keeps_everything(50_000.0);
    }

    #[test]
    fn renegotiate_unknown_reservation() {
        let mut api = cluster();
        let err = api.renegotiate(ReservationId(42), &ResourceVector::new()).unwrap_err();
        assert!(matches!(err, AdmissionError::UnknownReservation(_)));
    }

    #[test]
    fn server_failure_cancels_touching_reservations() {
        let mut api = cluster();
        let on_0 = api.reserve(&stream_demand(0, 100_000.0, 0.05)).unwrap();
        let on_1 = api.reserve(&stream_demand(1, 100_000.0, 0.05)).unwrap();
        // A cross-server demand touching both 1 and 2.
        let cross = api
            .reserve(
                &ResourceVector::new()
                    .with(key(1, ResourceKind::DiskBandwidth), 50_000.0)
                    .with(key(2, ResourceKind::NetBandwidth), 50_000.0),
            )
            .unwrap();
        let cancelled = api.fail_server(ServerId(1));
        assert_eq!(cancelled.len(), 2);
        assert!(cancelled.contains(&on_1));
        assert!(cancelled.contains(&cross));
        // Server 0's reservation survives; server 1's buckets are gone;
        // the cross reservation's share on server 2 was released.
        assert_eq!(api.reservation_count(), 1);
        assert!(api.capacity(key(1, ResourceKind::Cpu)).is_none());
        assert_eq!(api.used(key(2, ResourceKind::NetBandwidth)).unwrap(), 0.0);
        assert!(api.demand_of(on_0).is_some());
        // New demands on the failed server are now unknown-bucket errors.
        assert!(matches!(
            api.reserve(&stream_demand(1, 1000.0, 0.01)),
            Err(AdmissionError::UnknownBucket(_))
        ));
    }

    #[test]
    fn restore_server_reopens_buckets_at_original_capacity() {
        let mut api = cluster();
        api.reserve(&stream_demand(1, 100_000.0, 0.05)).unwrap();
        api.fail_server(ServerId(1));
        assert!(api.is_failed(ServerId(1)));
        assert!(api.reserve(&stream_demand(1, 1000.0, 0.01)).is_err());
        assert!(api.restore_server(ServerId(1)));
        assert!(!api.is_failed(ServerId(1)));
        // Buckets come back at pre-failure capacity and empty: the old
        // reservation stays void.
        assert_eq!(api.capacity(key(1, ResourceKind::NetBandwidth)), Some(3_200_000.0));
        assert_eq!(api.used(key(1, ResourceKind::NetBandwidth)).unwrap(), 0.0);
        api.reserve(&stream_demand(1, 100_000.0, 0.05)).unwrap();
        // Restoring a healthy (or unknown) server is a no-op.
        assert!(!api.restore_server(ServerId(1)));
        assert!(!api.restore_server(ServerId(9)));
    }

    #[test]
    fn set_capacity_rerates_live_bucket() {
        let mut api = cluster();
        api.reserve(&stream_demand(0, 3_000_000.0, 0.1)).unwrap();
        // Degrade the link below current usage: admission of even tiny new
        // demands on that bucket now fails, existing reservation survives.
        assert!(api.set_capacity(key(0, ResourceKind::NetBandwidth), 1_600_000.0));
        assert_eq!(api.capacity(key(0, ResourceKind::NetBandwidth)), Some(1_600_000.0));
        assert_eq!(api.reservation_count(), 1);
        assert!(matches!(
            api.reserve(&ResourceVector::new().with(key(0, ResourceKind::NetBandwidth), 1000.0)),
            Err(AdmissionError::Rejected(_))
        ));
    }

    #[test]
    fn live_capacity_answers_for_every_live_server() {
        let mut api = cluster();
        api.set_capacity(key(1, ResourceKind::NetBandwidth), 1_000.0);
        api.fail_server(ServerId(2));
        let servers = [ServerId(0), ServerId(1), ServerId(2), ServerId(7)];
        let kinds = [ResourceKind::Cpu, ResourceKind::NetBandwidth];
        let live = api.live_capacity(&servers, &kinds);
        assert_eq!(live.servers, 2, "a failed or unknown server is not live");
        let small = [(ResourceKind::Cpu, 0.5), (ResourceKind::NetBandwidth, 1_000.0)];
        assert!(live.fits_everywhere(&small));
        let fits: Vec<bool> = servers.iter().map(|&s| api.fits_on(s, &small)).collect();
        assert_eq!(fits, [true, true, false, false]);
        // Above the smallest live link: decided server by server.
        let large = [(ResourceKind::Cpu, 0.5), (ResourceKind::NetBandwidth, 2_000.0)];
        assert!(!live.fits_everywhere(&large));
        assert!(api.fits_on(ServerId(0), &large) && !api.fits_on(ServerId(1), &large));
        // A zero entry fits anywhere, even where its bucket is missing, and
        // a kind left out of the summary is never vouched for.
        let zero = [(ResourceKind::Cpu, 0.0), (ResourceKind::NetBandwidth, 10.0)];
        assert!(!live.fits_everywhere(&zero));
        assert!(api.fits_on(ServerId(2), &[(ResourceKind::Cpu, 0.0)]));
        assert!(!live.fits_everywhere(&[(ResourceKind::Memory, 1.0)]));
    }

    #[test]
    fn many_sessions_until_saturation() {
        let mut api = cluster();
        // 48 KB/s DSL streams on one server's 3.2 MB/s link: exactly 66 fit.
        let d = stream_demand(0, 48_000.0, 0.005);
        let mut admitted = 0;
        while api.reserve(&d).is_ok() {
            admitted += 1;
            assert!(admitted < 1000, "admission never saturated");
        }
        assert_eq!(admitted, 66);
    }
}
