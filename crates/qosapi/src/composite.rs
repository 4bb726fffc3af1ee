//! The Composite QoS API.
//!
//! "The Composite QoS API hides implementation and access details of
//! underlying APIs (i.e. system and network) and offers control to upper
//! layers (e.g. Plan Generator) at the same time. The major functionality
//! provided by the Composite QoS API is QoS-related resource management:
//! 1. admission control … 2. resource reservation … 3. renegotiation."
//!
//! [`CompositeQosApi`] shards its buckets into one [`ServerDomain`] per
//! server — the server's resource-kind managers plus its failure stash —
//! and reserves entire [`ResourceVector`]s atomically: either every
//! bucket admits its share or nothing is reserved. Reservations,
//! releases, and server failures all route through the owning domain;
//! bucket iteration stays in global `(server, kind)` order, so the
//! sharded layout is observationally identical to a flat bucket map.

use crate::manager::{BucketFull, BucketLevel, LeaseId, Projection, ResourceManager};
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

struct Reservation {
    demand: ResourceVector,
    leases: Vec<(ResourceKey, LeaseId)>,
}

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

/// Per-server bucket domains plus composite (all-or-nothing)
/// reservations.
///
/// Domains live in a dense `ServerId.0`-indexed arena and reservations in
/// a monotonic-id slab, so every lookup on the admission hot path is an
/// array index rather than a tree walk.
pub struct CompositeQosApi {
    domains: Vec<ServerDomain>,
    /// Slab indexed by `ReservationId.0`; ids are never reused, so a
    /// released slot stays `None` (release idempotency, stale-id safety).
    reservations: Vec<Option<Reservation>>,
    outstanding: usize,
    next_id: u64,
}

impl CompositeQosApi {
    /// Creates an API with no managed buckets.
    pub fn new() -> Self {
        CompositeQosApi {
            domains: Vec::new(),
            reservations: Vec::new(),
            outstanding: 0,
            next_id: 0,
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
        self.domains[slot].managers[key.kind as usize] = Some(ResourceManager::new(key, capacity));
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

    /// A bucket's usage and capacity (`None` when unmanaged).
    fn level(&self, key: ResourceKey) -> Option<BucketLevel> {
        self.manager(key).map(ResourceManager::level)
    }

    /// Snapshots every bucket's usage and capacity into `out` (its
    /// allocation is reused). Until the next reserve, release or
    /// structural change, the snapshot projects and admits demands exactly
    /// as the live API does.
    pub fn levels_into(&self, out: &mut Levels) {
        out.by_server.clear();
        out.by_server.extend(
            self.domains
                .iter()
                .map(|d| d.managers.each_ref().map(|m| m.as_ref().map(|m| m.level()))),
        );
    }

    /// Number of outstanding composite reservations. O(1): counted, not
    /// scanned.
    pub fn reservation_count(&self) -> usize {
        self.outstanding
    }

    /// Admission check without reserving: can `demand` fit right now?
    pub fn admits(&self, demand: &ResourceVector) -> Result<(), AdmissionError> {
        for (key, amount) in demand.iter() {
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
        self.project(demand).max_fill
    }

    /// `demand`'s [`Projection`] onto the live buckets: its LRB cost and
    /// whether it fits every bucket's total capacity.
    pub fn project(&self, demand: &ResourceVector) -> Projection {
        demand.iter().fold(Projection::EMPTY, |p, (key, amount)| p.with(self.level(key), amount))
    }

    /// Reserves `demand` atomically.
    pub fn reserve(&mut self, demand: &ResourceVector) -> Result<ReservationId, AdmissionError> {
        // Two-phase: check everything first so failure needs no rollback
        // of partially acquired leases.
        self.admits(demand)?;
        let mut leases = Vec::with_capacity(demand.len());
        for (key, amount) in demand.iter() {
            let mgr = self.manager_mut(key).expect("checked above");
            match mgr.reserve(amount) {
                Ok(lease) => leases.push((key, lease)),
                Err(full) => {
                    // Unreachable in single-threaded use, but roll back
                    // defensively.
                    for (k, l) in leases {
                        self.manager_mut(k).expect("held lease").release(l);
                    }
                    return Err(AdmissionError::Rejected(full));
                }
            }
        }
        let id = ReservationId(self.next_id);
        self.next_id += 1;
        debug_assert_eq!(self.reservations.len() as u64, id.0);
        self.reservations.push(Some(Reservation { demand: demand.clone(), leases }));
        self.outstanding += 1;
        Ok(id)
    }

    /// Releases a composite reservation (idempotent).
    pub fn release(&mut self, id: ReservationId) {
        let taken = self.reservations.get_mut(id.0 as usize).and_then(Option::take);
        if let Some(res) = taken {
            self.outstanding -= 1;
            for (key, lease) in res.leases {
                if let Some(mgr) = self.manager_mut(key) {
                    mgr.release(lease);
                }
            }
        }
    }

    /// The demand vector held by a reservation.
    pub fn demand_of(&self, id: ReservationId) -> Option<&ResourceVector> {
        self.reservations.get(id.0 as usize)?.as_ref().map(|r| &r.demand)
    }

    /// Simulates the loss of a server: every bucket its domain hosted
    /// disappears and every composite reservation touching it is cancelled
    /// (its shares on surviving servers are released too — a half-dead
    /// session is useless). Returns the cancelled reservation ids so the
    /// caller can re-plan the affected sessions.
    pub fn fail_server(&mut self, server: ServerId) -> Vec<ReservationId> {
        let affected: Vec<ReservationId> = self
            .reservations
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|r| (i, r)))
            .filter(|(_, r)| r.demand.iter().any(|(k, _)| k.server == server))
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

    /// Renegotiates a reservation to `new_demand` atomically: on failure
    /// the original reservation is kept. Returns the (possibly new)
    /// reservation id.
    ///
    /// Renegotiation happens "when QoS requirements are modified during
    /// media playback" or "when the user-specified QoP is rejected by the
    /// admission control module".
    pub fn renegotiate(
        &mut self,
        id: ReservationId,
        new_demand: &ResourceVector,
    ) -> Result<ReservationId, AdmissionError> {
        let Some(old) = self.demand_of(id).cloned() else {
            return Err(AdmissionError::UnknownReservation(id));
        };
        // Feasibility test against usage with the old reservation removed:
        // for each bucket, new demand must fit within the headroom left
        // once the old share is returned. Headroom is computed unclamped —
        // a bucket re-rated below its outstanding reservations has
        // `available() == 0` but genuinely negative slack, and the clamped
        // figure would wave through demands the post-release reserve must
        // then bounce.
        for (key, amount) in new_demand.iter() {
            let mgr = self.manager(key).ok_or(AdmissionError::UnknownBucket(key))?;
            let slack = mgr.capacity() - mgr.used() + old.get(key);
            if amount > slack + 1e-9 {
                return Err(AdmissionError::Rejected(BucketFull {
                    key,
                    requested: amount,
                    available: slack,
                }));
            }
        }
        self.release(id);
        match self.reserve(new_demand) {
            Ok(new_id) => Ok(new_id),
            Err(e) => {
                // Should not happen given the feasibility test; restore the
                // old reservation to keep the session alive.
                let restored =
                    self.reserve(&old).expect("restoring a just-released reservation cannot fail");
                let _ = restored;
                Err(e)
            }
        }
    }
}

/// Every bucket's usage and capacity at one instant, laid out like the API's
/// domains, from [`CompositeQosApi::levels_into`].
#[derive(Debug, Clone, Default)]
pub struct Levels {
    by_server: Vec<[Option<BucketLevel>; ResourceKind::ALL.len()]>,
}

impl Levels {
    /// A bucket's level at the snapshot (`None` when unmanaged).
    #[inline]
    fn level(&self, key: ResourceKey) -> Option<BucketLevel> {
        self.by_server.get(key.server.0 as usize)?[key.kind as usize]
    }

    /// Folds `entries` into a [`Projection`], exactly as
    /// [`CompositeQosApi::project`] folds a vector holding the same
    /// non-zero entries.
    pub fn project(&self, entries: &[(ResourceKey, f64)]) -> Projection {
        entries.iter().fold(Projection::EMPTY, |p, &(key, amount)| p.with(self.level(key), amount))
    }

    /// Whether a reservation of `entries` would be admitted at the
    /// snapshot — [`CompositeQosApi::admits`] on a vector holding the same
    /// non-zero entries.
    pub fn admits(&self, entries: &[(ResourceKey, f64)]) -> bool {
        entries.iter().all(|&(key, amount)| {
            amount == 0.0 || self.level(key).is_some_and(|l| l.can_reserve(amount))
        })
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
