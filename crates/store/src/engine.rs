//! The Distributed Metadata Engine.
//!
//! "We distribute the metadata in various locations enabling ease of use
//! and migration." Content metadata is small and fully replicated. Each
//! logical video's replica records (quality, distribution and QoS-profile
//! metadata) are stored once and contiguously, in registration order, so
//! the Plan Generator reads "all replica records of a logical video" as
//! one slice. The paper's cache for non-local metadata accesses is not
//! modelled: no remote access has a cost in this reproduction.
//!
//! Physical OIDs resolve through one vector of `(oid, video)` pairs
//! sorted by OID. A lookup is a binary search; registering an OID above
//! the largest one (all that replication and migration allocate) is a
//! push, and only an out-of-order registration or a removal shifts the
//! tail.
//!
//! The baselines stream a video's highest-rate replica, so the engine
//! also keeps a dense top-rate table: every record at its video's highest
//! rate, copied into one flat vector ([`TopReplica`], with the record's
//! position in its slice), one contiguous run per video in registration
//! order, found through a per-video head. An admission reads the head and
//! the run, not the records. A catalog load, video after video, extends
//! the last run with a push; an insert into an earlier video's run
//! (migration), the removal of a top-rate record and a site failure
//! rebuild the table from the records.

use crate::metadata::{ObjectRecord, QosProfile};
use crate::object::{oid_slot, PhysicalObject, PhysicalOid, StoreError};
use quasaq_media::{VideoId, VideoMeta};
use quasaq_sim::ServerId;
use std::ops::Range;

/// One logical video's slot in the engine's table.
#[derive(Debug, Default)]
struct VideoEntry {
    /// Content metadata, once the video is registered.
    meta: Option<VideoMeta>,
    /// Replica records in registration order.
    replicas: Vec<ObjectRecord>,
}

/// A replica record at its video's highest encoded rate, copied out of
/// the record slice: what the baselines stream and reserve for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopReplica {
    /// The replica's encoded rate.
    pub rate_bps: u64,
    /// The replica's size.
    pub bytes: u64,
    /// Its sampled resource-consumption profile.
    pub profile: QosProfile,
    /// The server holding it.
    pub server: ServerId,
    /// The record's index in its video's [`MetadataEngine::replicas`].
    pub position: u32,
}

impl TopReplica {
    /// The entry of `record`, the `position`-th of its video's records.
    pub fn of(position: usize, record: &ObjectRecord) -> Self {
        TopReplica {
            rate_bps: record.object.rate_bps,
            bytes: record.object.bytes,
            profile: record.profile,
            server: record.object.server,
            position: u32::try_from(position).expect("fewer than 2^32 records per video"),
        }
    }
}

/// Where one video's run of top-rate entries sits in the table.
#[derive(Debug, Clone, Copy, Default)]
struct TopRun {
    start: u32,
    len: u32,
}

impl TopRun {
    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The distributed metadata engine.
#[derive(Debug)]
pub struct MetadataEngine {
    /// Indexed by `VideoId`. Its length follows the largest id registered,
    /// so it is dense for a catalog's ids, which run from 0.
    videos: Vec<VideoEntry>,
    /// Each video's run in `top`, indexed like `videos`. An empty run's
    /// `start` is meaningless.
    runs: Vec<TopRun>,
    /// Every record at its video's highest rate, in registration order,
    /// one disjoint run per video.
    top: Vec<TopReplica>,
    /// Physical OID -> the video whose slice holds its record, sorted by
    /// OID.
    oids: Vec<(PhysicalOid, VideoId)>,
    /// The sites this engine spans, ascending.
    sites: Vec<ServerId>,
}

impl MetadataEngine {
    /// Creates an engine spanning the given sites.
    pub fn new(servers: impl IntoIterator<Item = ServerId>) -> Self {
        let mut sites: Vec<ServerId> = servers.into_iter().collect();
        sites.sort_unstable();
        sites.dedup();
        MetadataEngine {
            videos: Vec::new(),
            runs: Vec::new(),
            top: Vec::new(),
            oids: Vec::new(),
            sites,
        }
    }

    fn entry_mut(&mut self, id: VideoId) -> &mut VideoEntry {
        let idx = id.0 as usize;
        if idx >= self.videos.len() {
            self.videos.resize_with(idx + 1, VideoEntry::default);
            self.runs.resize(idx + 1, TopRun::default());
        }
        &mut self.videos[idx]
    }

    fn oid_slot(&self, oid: PhysicalOid) -> Result<usize, usize> {
        oid_slot(&self.oids, oid, |&(oid, _)| oid)
    }

    /// Registers a logical video's content metadata.
    pub fn insert_video(&mut self, meta: VideoMeta) {
        let id = meta.id;
        self.entry_mut(id).meta = Some(meta);
    }

    /// Makes room for `additional` more replica records of `video`, so a
    /// catalog load sizes each video's slice once.
    pub(crate) fn reserve_replicas(&mut self, video: VideoId, additional: usize) {
        self.entry_mut(video).replicas.reserve_exact(additional);
    }

    /// Makes room for `additional` more top-rate entries, so a catalog load
    /// sizes the table once.
    pub(crate) fn reserve_top(&mut self, additional: usize) {
        self.top.reserve_exact(additional);
    }

    /// Content metadata of a video.
    pub fn video(&self, id: VideoId) -> Option<&VideoMeta> {
        self.videos.get(id.0 as usize)?.meta.as_ref()
    }

    /// All registered videos in id order.
    pub fn videos(&self) -> impl Iterator<Item = &VideoMeta> {
        self.videos.iter().filter_map(|e| e.meta.as_ref())
    }

    /// Registers a stored replica and its QoS profile, appending it to its
    /// video's replica records.
    ///
    /// A placement naming a server this engine does not span is rejected
    /// with [`StoreError::UnknownSite`], and one reusing a registered
    /// physical OID with [`StoreError::DuplicateOid`], both before any
    /// state is touched, so a malformed placement leaves the engine as it
    /// was.
    pub fn insert_object(
        &mut self,
        object: PhysicalObject,
        profile: QosProfile,
    ) -> Result<(), StoreError> {
        if self.sites.binary_search(&object.server).is_err() {
            return Err(StoreError::UnknownSite(object.server));
        }
        let Err(slot) = self.oid_slot(object.oid) else {
            return Err(StoreError::DuplicateOid(object.oid));
        };
        self.oids.insert(slot, (object.oid, object.video));
        let video = object.video;
        let replicas = &mut self.entry_mut(video).replicas;
        let record = ObjectRecord { object, profile };
        let entry = TopReplica::of(replicas.len(), &record);
        replicas.push(record);
        self.push_top(video.0 as usize, entry);
        Ok(())
    }

    /// Adds the entry of video `idx`'s newest record to the top-rate table.
    /// While the video's run ends the table, which every insert of a
    /// video-major catalog load keeps true, this is a push (or, at a new
    /// highest rate, a restart of the run); otherwise the table is rebuilt.
    fn push_top(&mut self, idx: usize, entry: TopReplica) {
        let run = self.runs[idx];
        if run.len > 0 {
            let best = self.top[run.start as usize].rate_bps;
            if entry.rate_bps < best {
                return;
            }
            if run.range().end != self.top.len() {
                return self.rebuild_top();
            }
            if entry.rate_bps == best {
                self.top.push(entry);
                self.runs[idx].len += 1;
                return;
            }
            self.top.truncate(run.start as usize);
        }
        self.runs[idx] = TopRun { start: table_index(self.top.len()), len: 1 };
        self.top.push(entry);
    }

    /// Recomputes the top-rate table from the records.
    fn rebuild_top(&mut self) {
        self.top.clear();
        for (entry, run) in self.videos.iter().zip(&mut self.runs) {
            let start = self.top.len();
            if let Some(best) = entry.replicas.iter().map(|r| r.object.rate_bps).max() {
                let at_best = entry.replicas.iter().enumerate();
                let at_best = at_best.filter(|(_, r)| r.object.rate_bps == best);
                self.top.extend(at_best.map(|(i, r)| TopReplica::of(i, r)));
            }
            *run = TopRun { start: table_index(start), len: table_index(self.top.len() - start) };
        }
    }

    /// Removes a replica, keeping the order of its video's other records.
    pub fn remove_object(&mut self, oid: PhysicalOid) -> Option<ObjectRecord> {
        let (_, video) = self.oids.remove(self.oid_slot(oid).ok()?);
        let idx = video.0 as usize;
        let replicas = &mut self.videos[idx].replicas;
        let pos = replicas.iter().position(|r| r.object.oid == oid)?;
        let removed = replicas.remove(pos);
        let run = &mut self.top[self.runs[idx].range()];
        if run.first().is_some_and(|e| e.rate_bps == removed.object.rate_bps) {
            self.rebuild_top();
        } else {
            // The records behind the removed one moved up a place.
            for entry in run.iter_mut().filter(|e| e.position as usize > pos) {
                entry.position -= 1;
            }
        }
        Some(removed)
    }

    /// All replica records of a logical video, across all sites, in
    /// registration order — the Plan Generator's raw material ("A given
    /// logical object may be replicated at multiple sites and further with
    /// different formats"). Empty for an unknown video.
    pub fn replicas(&self, video: VideoId) -> &[ObjectRecord] {
        self.videos.get(video.0 as usize).map_or(&[], |e| &e.replicas)
    }

    /// The records of `video` at its highest encoded rate, as
    /// [`TopReplica`] copies in registration order: the replicas a baseline
    /// streams. Empty for an unknown video or one without replicas.
    pub fn top_replicas(&self, video: VideoId) -> &[TopReplica] {
        match self.runs.get(video.0 as usize) {
            Some(&run) if run.len > 0 => &self.top[run.range()],
            _ => &[],
        }
    }

    /// Direct (location-transparent) record lookup.
    pub fn record(&self, oid: PhysicalOid) -> Option<&ObjectRecord> {
        let (_, video) = self.oids[self.oid_slot(oid).ok()?];
        self.replicas(video).iter().find(|r| r.object.oid == oid)
    }

    /// Total number of object records across all sites.
    pub fn object_count(&self) -> usize {
        self.oids.len()
    }

    /// The largest physical OID registered anywhere (for allocating fresh
    /// OIDs after engine state was rebuilt).
    pub fn max_oid(&self) -> Option<PhysicalOid> {
        self.oids.last().map(|&(oid, _)| oid)
    }

    /// Simulates the loss of a site: the engine stops spanning it and
    /// forgets its replicas, keeping the order of every video's surviving
    /// records. Returns the lost physical OIDs in ascending order; an
    /// unknown site loses nothing.
    pub fn fail_site(&mut self, server: ServerId) -> Vec<PhysicalOid> {
        let Ok(pos) = self.sites.binary_search(&server) else { return Vec::new() };
        self.sites.remove(pos);
        let mut lost = Vec::new();
        for entry in &mut self.videos {
            entry.replicas.retain(|r| {
                let here = r.object.server == server;
                if here {
                    lost.push(r.object.oid);
                }
                !here
            });
        }
        lost.sort_unstable();
        self.oids.retain(|(oid, _)| lost.binary_search(oid).is_err());
        self.rebuild_top();
        lost
    }

    /// The sites this engine spans, ascending.
    pub fn sites(&self) -> &[ServerId] {
        &self.sites
    }
}

/// A position in the top-rate table as a run stores it.
fn table_index(i: usize) -> u32 {
    u32::try_from(i).expect("fewer than 2^32 top-rate entries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{ColorDepth, FrameRate, GopPattern, QualitySpec, Resolution, VideoFormat};
    use quasaq_sim::SimDuration;

    fn meta(id: u32) -> VideoMeta {
        VideoMeta {
            id: VideoId(id),
            title: format!("video {id}"),
            keywords: vec!["test".into()],
            features: [0.0; quasaq_media::FEATURE_DIMS],
            duration: SimDuration::from_secs(60),
            gop: GopPattern::mpeg1_classic(),
            trace_seed: id as u64,
        }
    }

    fn obj(oid: u64, video: u32, server: u32) -> PhysicalObject {
        PhysicalObject {
            oid: PhysicalOid(oid),
            video: VideoId(video),
            tier: "dsl",
            spec: QualitySpec::new(
                Resolution::CIF,
                ColorDepth::TRUE_COLOR,
                FrameRate::NTSC_FILM,
                VideoFormat::Mpeg1,
            ),
            rate_bps: 48_000,
            bytes: 1_000_000,
            server: ServerId(server),
            trace_seed: oid,
        }
    }

    fn engine() -> MetadataEngine {
        MetadataEngine::new(ServerId::first_n(3))
    }

    fn oids(records: &[ObjectRecord]) -> Vec<u64> {
        records.iter().map(|r| r.object.oid.0).collect()
    }

    #[test]
    fn video_registration() {
        let mut e = engine();
        e.insert_video(meta(0));
        e.insert_video(meta(1));
        assert_eq!(e.videos().count(), 2);
        assert_eq!(e.video(VideoId(1)).unwrap().title, "video 1");
        assert!(e.video(VideoId(9)).is_none());
    }

    #[test]
    fn replicas_span_sites() {
        let mut e = engine();
        e.insert_video(meta(0));
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        e.insert_object(obj(2, 0, 1), QosProfile::ZERO).unwrap();
        e.insert_object(obj(3, 1, 2), QosProfile::ZERO).unwrap();
        let reps = e.replicas(VideoId(0));
        assert_eq!(reps.len(), 2);
        assert!(e.replicas(VideoId(7)).is_empty());
        assert_eq!(e.object_count(), 3);
    }

    #[test]
    fn unknown_ids_find_nothing() {
        let mut e = engine();
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        // A wire client can name any id: out-of-range lookups are empty.
        assert!(e.replicas(VideoId(u32::MAX)).is_empty());
        assert!(e.video(VideoId(u32::MAX)).is_none());
        assert!(e.record(PhysicalOid(u64::MAX)).is_none());
        assert!(e.remove_object(PhysicalOid(u64::MAX)).is_none());
        assert_eq!(e.object_count(), 1);
    }

    #[test]
    fn removal_keeps_the_order_of_what_is_left() {
        let mut e = engine();
        for (oid, server) in [(1, 1), (2, 0), (3, 2), (4, 1)] {
            e.insert_object(obj(oid, 0, server), QosProfile::ZERO).unwrap();
        }
        let removed = e.remove_object(PhysicalOid(2)).unwrap();
        assert_eq!(removed.object.oid, PhysicalOid(2));
        assert_eq!(oids(e.replicas(VideoId(0))), [1, 3, 4]);
        assert!(e.record(PhysicalOid(2)).is_none());
        assert!(e.remove_object(PhysicalOid(2)).is_none());
        assert_eq!(e.object_count(), 3);
        assert_eq!(e.max_oid(), Some(PhysicalOid(4)));
    }

    #[test]
    fn site_failure_forgets_its_replicas() {
        let mut e = engine();
        e.insert_video(meta(0));
        e.insert_object(obj(4, 0, 1), QosProfile::ZERO).unwrap();
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        e.insert_object(obj(2, 0, 1), QosProfile::ZERO).unwrap();
        e.insert_object(obj(3, 0, 2), QosProfile::ZERO).unwrap();
        // Lost OIDs come back ascending, whatever their registration order.
        assert_eq!(e.fail_site(ServerId(1)), vec![PhysicalOid(2), PhysicalOid(4)]);
        assert_eq!(oids(e.replicas(VideoId(0))), [1, 3]);
        assert!(e.record(PhysicalOid(2)).is_none());
        assert_eq!(e.sites(), [ServerId(0), ServerId(2)]);
        assert_eq!(e.object_count(), 2);
        // Failing an unknown (or already failed) site is a no-op.
        assert!(e.fail_site(ServerId(9)).is_empty());
        assert!(e.fail_site(ServerId(1)).is_empty());
        // The failed site takes no new placements.
        let err = e.insert_object(obj(5, 0, 1), QosProfile::ZERO).unwrap_err();
        assert_eq!(err, StoreError::UnknownSite(ServerId(1)));
    }

    #[test]
    fn unknown_site_is_typed_error_not_abort() {
        let mut e = engine();
        let err = e.insert_object(obj(1, 0, 9), QosProfile::ZERO).unwrap_err();
        assert_eq!(err, StoreError::UnknownSite(ServerId(9)));
        // The rejected placement left no trace, and the engine keeps
        // working.
        assert!(e.replicas(VideoId(0)).is_empty());
        assert_eq!(e.object_count(), 0);
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        assert_eq!(e.replicas(VideoId(0)).len(), 1);
    }

    #[test]
    fn duplicate_oid_on_another_server_is_rejected() {
        let mut e = engine();
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        let err = e.insert_object(obj(1, 0, 1), QosProfile::ZERO).unwrap_err();
        assert_eq!(err, StoreError::DuplicateOid(PhysicalOid(1)));
        assert_eq!(e.replicas(VideoId(0)).len(), 1);
        // Removing the OID removes every trace of it.
        e.remove_object(PhysicalOid(1)).unwrap();
        assert!(e.replicas(VideoId(0)).is_empty());
        assert_eq!(e.object_count(), 0);
        assert!(e.record(PhysicalOid(1)).is_none());
    }

    #[test]
    fn duplicate_oid_on_the_same_server_is_rejected() {
        let mut e = engine();
        e.insert_object(obj(1, 0, 0), QosProfile::ZERO).unwrap();
        let err = e.insert_object(obj(1, 3, 0), QosProfile::ZERO).unwrap_err();
        assert_eq!(err, StoreError::DuplicateOid(PhysicalOid(1)));
        assert_eq!(oids(e.replicas(VideoId(0))), [1]);
        assert!(e.replicas(VideoId(3)).is_empty());
        assert_eq!(e.object_count(), 1);
    }
}
