//! Physical media objects and per-server storage accounting.
//!
//! "In VDBMS, the query processor returns an object ID (OID), by which
//! Shore retrieves the video from disk. With QuaSAQ, these OIDs refer to
//! the video content (represented by logical OID) rather than the entity
//! in storage (physical OID) since multiple copies of the same video
//! exist." The logical OID is [`VideoId`]; this module defines the
//! physical side.

use quasaq_media::{QualitySpec, VideoId};
use quasaq_sim::ServerId;
use std::fmt;

/// Identifies one stored replica (the paper's physical OID).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysicalOid(pub u64);

impl fmt::Display for PhysicalOid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pobj#{}", self.0)
    }
}

/// A stored replica: one quality tier of one video on one server.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalObject {
    /// Physical OID.
    pub oid: PhysicalOid,
    /// Logical video this replica encodes.
    pub video: VideoId,
    /// Quality-ladder tier name ("full", "t1", "dsl", "modem").
    pub tier: &'static str,
    /// Delivered application QoS.
    pub spec: QualitySpec,
    /// Encoded bitrate in bytes/second.
    pub rate_bps: u64,
    /// Stored size in bytes.
    pub bytes: u64,
    /// Server holding the replica.
    pub server: ServerId,
    /// Seed of this replica's deterministic frame trace.
    pub trace_seed: u64,
}

/// Why a store operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// Disk capacity would be exceeded.
    DiskFull {
        /// The server that is full.
        server: ServerId,
        /// Bytes requested.
        requested: u64,
        /// Bytes free.
        free: u64,
    },
    /// The physical OID is not stored here.
    NotFound(PhysicalOid),
    /// The placement names a server the metadata engine does not span.
    UnknownSite(ServerId),
    /// The physical OID is already registered with the metadata engine,
    /// or already held by the store.
    DuplicateOid(PhysicalOid),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DiskFull { server, requested, free } => {
                write!(f, "{server} disk full: need {requested} B, {free} B free")
            }
            StoreError::NotFound(oid) => write!(f, "{oid} not found"),
            StoreError::UnknownSite(server) => write!(f, "unknown site {server}"),
            StoreError::DuplicateOid(oid) => write!(f, "{oid} already registered"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Where `oid` sits in `items`, which are sorted by `key`: `Ok` with its
/// index if present, else `Err` with the slot that keeps them sorted. An
/// OID above the last entry, the only kind OID allocation produces, is
/// answered without a search.
pub(crate) fn oid_slot<T>(
    items: &[T],
    oid: PhysicalOid,
    key: impl Fn(&T) -> PhysicalOid,
) -> Result<usize, usize> {
    match items.last() {
        Some(last) if key(last) >= oid => items.binary_search_by(|item| key(item).cmp(&oid)),
        _ => Err(items.len()),
    }
}

/// One server's object store (the Shore-like storage manager): disk-space
/// accounting over physical objects.
///
/// The objects are one vector sorted by OID: lookups are a binary search,
/// an insert above the largest OID is a push, and only an out-of-order
/// insert or a removal shifts the tail.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    server: ServerId,
    disk_capacity: u64,
    used: u64,
    objects: Vec<PhysicalObject>,
}

impl ObjectStore {
    /// Creates an empty store with `disk_capacity` bytes.
    pub fn new(server: ServerId, disk_capacity: u64) -> Self {
        assert!(disk_capacity > 0, "disk capacity must be positive");
        ObjectStore { server, disk_capacity, used: 0, objects: Vec::new() }
    }

    /// The owning server.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// Total disk capacity in bytes.
    pub fn disk_capacity(&self) -> u64 {
        self.disk_capacity
    }

    /// Bytes used.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes free.
    pub fn free_bytes(&self) -> u64 {
        self.disk_capacity - self.used
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    fn slot(&self, oid: PhysicalOid) -> Result<usize, usize> {
        oid_slot(&self.objects, oid, |o| o.oid)
    }

    /// Stores an object, charging its size against the disk. An OID the
    /// store already holds is refused with [`StoreError::DuplicateOid`],
    /// and an object that does not fit with [`StoreError::DiskFull`];
    /// either way the store is left as it was.
    ///
    /// # Panics
    /// Panics if the object's `server` field disagrees with this store.
    pub fn insert(&mut self, obj: PhysicalObject) -> Result<(), StoreError> {
        assert_eq!(obj.server, self.server, "object placed on the wrong server");
        let Err(slot) = self.slot(obj.oid) else {
            return Err(StoreError::DuplicateOid(obj.oid));
        };
        if obj.bytes > self.free_bytes() {
            return Err(StoreError::DiskFull {
                server: self.server,
                requested: obj.bytes,
                free: self.free_bytes(),
            });
        }
        self.used += obj.bytes;
        self.objects.insert(slot, obj);
        Ok(())
    }

    /// Removes an object, freeing its space.
    pub fn remove(&mut self, oid: PhysicalOid) -> Result<PhysicalObject, StoreError> {
        let pos = self.slot(oid).map_err(|_| StoreError::NotFound(oid))?;
        let obj = self.objects.remove(pos);
        self.used -= obj.bytes;
        Ok(obj)
    }

    /// Looks up an object.
    pub fn get(&self, oid: PhysicalOid) -> Option<&PhysicalObject> {
        self.slot(oid).ok().map(|pos| &self.objects[pos])
    }

    /// All objects in OID order.
    pub fn objects(&self) -> impl Iterator<Item = &PhysicalObject> {
        self.objects.iter()
    }

    /// All replicas of a logical video held here.
    pub fn replicas_of(&self, video: VideoId) -> impl Iterator<Item = &PhysicalObject> {
        self.objects.iter().filter(move |o| o.video == video)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{ColorDepth, FrameRate, Resolution, VideoFormat};

    fn spec() -> QualitySpec {
        QualitySpec::new(
            Resolution::CIF,
            ColorDepth::TRUE_COLOR,
            FrameRate::NTSC_FILM,
            VideoFormat::Mpeg1,
        )
    }

    fn obj(oid: u64, video: u32, bytes: u64) -> PhysicalObject {
        PhysicalObject {
            oid: PhysicalOid(oid),
            video: VideoId(video),
            tier: "dsl",
            spec: spec(),
            rate_bps: 48_000,
            bytes,
            server: ServerId(0),
            trace_seed: oid * 7,
        }
    }

    #[test]
    fn insert_accounts_space() {
        let mut s = ObjectStore::new(ServerId(0), 1_000);
        s.insert(obj(1, 0, 400)).unwrap();
        assert_eq!(s.used_bytes(), 400);
        assert_eq!(s.free_bytes(), 600);
        assert_eq!(s.object_count(), 1);
        assert!(s.get(PhysicalOid(1)).is_some());
    }

    #[test]
    fn disk_full_rejected() {
        let mut s = ObjectStore::new(ServerId(0), 1_000);
        s.insert(obj(1, 0, 900)).unwrap();
        let err = s.insert(obj(2, 0, 200)).unwrap_err();
        assert_eq!(err, StoreError::DiskFull { server: ServerId(0), requested: 200, free: 100 });
        assert_eq!(s.object_count(), 1);
    }

    #[test]
    fn remove_frees_space() {
        let mut s = ObjectStore::new(ServerId(0), 1_000);
        s.insert(obj(1, 0, 900)).unwrap();
        let removed = s.remove(PhysicalOid(1)).unwrap();
        assert_eq!(removed.bytes, 900);
        assert_eq!(s.used_bytes(), 0);
        assert!(matches!(s.remove(PhysicalOid(1)), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn replicas_of_filters_by_video() {
        let mut s = ObjectStore::new(ServerId(0), 10_000);
        s.insert(obj(1, 0, 100)).unwrap();
        s.insert(obj(2, 0, 100)).unwrap();
        s.insert(obj(3, 1, 100)).unwrap();
        assert_eq!(s.replicas_of(VideoId(0)).count(), 2);
        assert_eq!(s.replicas_of(VideoId(1)).count(), 1);
        assert_eq!(s.replicas_of(VideoId(9)).count(), 0);
    }

    #[test]
    fn duplicate_oid_is_refused_and_changes_nothing() {
        let mut s = ObjectStore::new(ServerId(0), 1_000);
        s.insert(obj(1, 0, 400)).unwrap();
        let err = s.insert(obj(1, 3, 100)).unwrap_err();
        assert_eq!(err, StoreError::DuplicateOid(PhysicalOid(1)));
        assert_eq!(s.used_bytes(), 400);
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.get(PhysicalOid(1)).unwrap().video, VideoId(0));
    }

    #[test]
    #[should_panic(expected = "wrong server")]
    fn wrong_server_placement_panics() {
        let mut s = ObjectStore::new(ServerId(1), 1_000);
        let _ = s.insert(obj(1, 0, 100));
    }
}
