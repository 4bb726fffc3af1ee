//! Video library generation.
//!
//! The paper's experimental database "contains 15 videos in MPEG-1 format
//! with playback time ranging from 30 seconds to 18 minutes. For each
//! video, three to four copies with different quality are generated" with
//! bitrates chosen so that "the resulting video replicas fit the bandwidth
//! of typical network connections such as T1, DSL, and modems". This
//! module generates an equivalent synthetic catalog: logical videos with
//! content metadata (keywords and a feature vector for similarity search)
//! and a per-video ladder of replica qualities.

use crate::gop::GopPattern;
use crate::quality::QualitySpec;
use crate::video::{ColorDepth, FrameRate, Resolution, VideoFormat, VideoId};
use quasaq_sim::{Rng, SimDuration};

/// A named rung of the replica-quality ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityTier {
    /// Human-readable tier name.
    pub name: &'static str,
    /// Application QoS delivered by this tier.
    pub spec: QualitySpec,
    /// Encoded bitrate in bytes/second, sized for a connection class.
    pub rate_bps: u64,
}

/// The standard four-rung ladder used for offline replication, matching
/// the paper's connection classes.
pub fn quality_ladder() -> Vec<QualityTier> {
    vec![
        QualityTier {
            name: "full",
            spec: QualitySpec::new(
                Resolution::FULL,
                ColorDepth::TRUE_COLOR,
                FrameRate::NTSC_FILM,
                VideoFormat::Mpeg2,
            ),
            // DVD-class MPEG-2, ~2.4 Mbps.
            rate_bps: 300_000,
        },
        QualityTier {
            name: "t1",
            spec: QualitySpec::new(
                Resolution::VGA,
                ColorDepth::TRUE_COLOR,
                FrameRate::NTSC_FILM,
                VideoFormat::Mpeg1,
            ),
            // T1 line, 1.544 Mbps.
            rate_bps: 193_000,
        },
        QualityTier {
            name: "dsl",
            spec: QualitySpec::new(
                Resolution::CIF,
                ColorDepth::TRUE_COLOR,
                FrameRate::NTSC_FILM,
                VideoFormat::Mpeg1,
            ),
            // 384 kbps DSL.
            rate_bps: 48_000,
        },
        QualityTier {
            name: "modem",
            spec: QualitySpec::new(
                Resolution::QCIF,
                ColorDepth::BITS_12,
                FrameRate::LOW,
                VideoFormat::Mpeg1,
            ),
            // 56 kbps modem.
            rate_bps: 7_000,
        },
    ]
}

/// Number of dimensions in the content feature vector (stand-in for the
/// paper's visual descriptors: shot detection, frame extraction,
/// segmentation, camera motion).
pub const FEATURE_DIMS: usize = 8;

/// Logical-video metadata: the Content Metadata of the paper's metadata
/// engine.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoMeta {
    /// Logical video id.
    pub id: VideoId,
    /// Display title.
    pub title: String,
    /// Searchable keywords.
    pub keywords: Vec<String>,
    /// A unit-norm visual feature vector for similarity queries.
    pub features: [f32; FEATURE_DIMS],
    /// Playback duration.
    pub duration: SimDuration,
    /// GOP structure shared by all replicas of this video.
    pub gop: GopPattern,
    /// Seed from which all of this video's frame traces derive.
    pub trace_seed: u64,
}

/// One replica quality of a video (the *what*, not the *where*: placement
/// lives in the storage layer).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaQuality {
    /// Tier name ("full", "t1", "dsl", "modem").
    pub tier: &'static str,
    /// Delivered application QoS.
    pub spec: QualitySpec,
    /// Encoded bitrate in bytes/second.
    pub rate_bps: u64,
}

impl ReplicaQuality {
    /// Estimated stored size for a clip of `duration`.
    pub fn estimated_bytes(&self, duration: SimDuration) -> u64 {
        (self.rate_bps as f64 * duration.as_secs_f64()).round() as u64
    }

    /// The deterministic trace seed for this replica of `meta` (every
    /// tier gets its own stream derived from the video's seed).
    pub fn trace_seed(&self, meta: &VideoMeta) -> u64 {
        let tier_tag: u64 =
            self.tier.bytes().fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64));
        meta.trace_seed ^ tier_tag
    }
}

/// A logical video together with its replica-quality ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoEntry {
    /// Content metadata.
    pub meta: VideoMeta,
    /// Replica qualities, highest fidelity first.
    pub replicas: Vec<ReplicaQuality>,
}

/// Library generation parameters.
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// Number of logical videos (the paper uses 15).
    pub num_videos: usize,
    /// Shortest clip (paper: 30 s).
    pub min_duration: SimDuration,
    /// Longest clip (paper: 18 min).
    pub max_duration: SimDuration,
    /// Minimum replicas per video (paper: 3).
    pub min_replicas: usize,
    /// Maximum replicas per video (paper: 4).
    pub max_replicas: usize,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            num_videos: 15,
            min_duration: SimDuration::from_secs(30),
            max_duration: SimDuration::from_secs(18 * 60),
            min_replicas: 3,
            max_replicas: 4,
        }
    }
}

/// The generated catalog.
#[derive(Debug, Clone)]
pub struct Library {
    entries: Vec<VideoEntry>,
}

const TOPICS: &[&str] = &[
    "surgery",
    "radiology",
    "cardiology",
    "diagnosis",
    "patient",
    "lecture",
    "sunset",
    "news",
    "sports",
    "traffic",
    "interview",
    "nature",
    "city",
    "aerial",
    "lab",
    "microscopy",
];

const ADJECTIVES: &[&str] =
    &["annotated", "archived", "clinical", "raw", "edited", "panoramic", "timelapse", "training"];

fn validate(cfg: &LibraryConfig) {
    assert!(cfg.num_videos > 0, "library must contain videos");
    assert!(cfg.min_duration <= cfg.max_duration, "invalid duration range");
    assert!(
        (1..=quality_ladder().len()).contains(&cfg.min_replicas)
            && cfg.min_replicas <= cfg.max_replicas
            && cfg.max_replicas <= quality_ladder().len(),
        "replica count out of range"
    );
}

/// Generates video `v` of the catalog seeded by `root`. Each video draws
/// from its own forked stream, so entry `v` depends only on `(root, cfg,
/// v)`: changing the catalog size leaves every other entry as it was.
fn generate_entry(root: &Rng, cfg: &LibraryConfig, ladder: &[QualityTier], v: usize) -> VideoEntry {
    let mut rng = root.fork(v as u64);
    let topic = *rng.choose(TOPICS);
    let adjective = *rng.choose(ADJECTIVES);
    let title = format!("{adjective} {topic} #{v:02}");
    let mut keywords = vec![topic.to_string(), adjective.to_string()];
    // A couple of extra keywords for richer search.
    for _ in 0..rng.range_u64(1, 3) {
        let extra = *rng.choose(TOPICS);
        if !keywords.iter().any(|k| k == extra) {
            keywords.push(extra.to_string());
        }
    }
    let mut features = [0f32; FEATURE_DIMS];
    for f in &mut features {
        *f = rng.range_f64(-1.0, 1.0) as f32;
    }
    let norm: f32 = features.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-6);
    for f in &mut features {
        *f /= norm;
    }
    let duration = SimDuration::from_micros(
        rng.range_u64(cfg.min_duration.as_micros(), cfg.max_duration.as_micros()),
    );
    let n_replicas = rng.range_u64(cfg.min_replicas as u64, cfg.max_replicas as u64) as usize;
    // Keep the top rung always (the original), then the next rungs
    // down: 3 replicas = full/t1/dsl, 4 = full/t1/dsl/modem.
    let replicas: Vec<ReplicaQuality> = ladder
        .iter()
        .take(n_replicas)
        .map(|t| ReplicaQuality { tier: t.name, spec: t.spec, rate_bps: t.rate_bps })
        .collect();
    VideoEntry {
        meta: VideoMeta {
            id: VideoId(v as u32),
            title,
            keywords,
            features,
            duration,
            gop: GopPattern::mpeg1_n15(),
            trace_seed: rng.next_u64(),
        },
        replicas,
    }
}

impl Library {
    /// Generates a deterministic catalog.
    pub fn generate(seed: u64, cfg: &LibraryConfig) -> Self {
        validate(cfg);
        let root = Rng::new(seed);
        let ladder = quality_ladder();
        Library {
            entries: (0..cfg.num_videos).map(|v| generate_entry(&root, cfg, &ladder, v)).collect(),
        }
    }

    /// All videos.
    pub fn entries(&self) -> &[VideoEntry] {
        &self.entries
    }

    /// Number of logical videos.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty (never for generated libraries).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a video by logical id.
    pub fn get(&self, id: VideoId) -> Option<&VideoEntry> {
        self.entries.iter().find(|e| e.meta.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_strictly_ordered() {
        let ladder = quality_ladder();
        assert_eq!(ladder.len(), 4);
        for w in ladder.windows(2) {
            assert!(w[0].rate_bps > w[1].rate_bps);
            assert!(w[0].spec.raw_bits_per_second() > w[1].spec.raw_bits_per_second());
            // Every lower rung is reachable from the one above by
            // downgrade-only transforms.
            assert!(w[0].spec.dominates(&w[1].spec));
        }
    }

    #[test]
    fn generation_matches_paper_shape() {
        let lib = Library::generate(42, &LibraryConfig::default());
        assert_eq!(lib.len(), 15);
        for e in lib.entries() {
            let secs = e.meta.duration.as_secs_f64();
            assert!((30.0..=18.0 * 60.0).contains(&secs), "duration {secs}");
            assert!((3..=4).contains(&e.replicas.len()));
            assert_eq!(e.replicas[0].tier, "full");
            assert!(!e.meta.keywords.is_empty());
        }
    }

    #[test]
    fn deterministic() {
        let a = Library::generate(7, &LibraryConfig::default());
        let b = Library::generate(7, &LibraryConfig::default());
        assert_eq!(a.entries(), b.entries());
        let c = Library::generate(8, &LibraryConfig::default());
        assert_ne!(a.entries(), c.entries());
    }

    #[test]
    fn feature_vectors_unit_norm() {
        let lib = Library::generate(3, &LibraryConfig::default());
        for e in lib.entries() {
            let norm: f32 = e.meta.features.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-3, "norm {norm}");
        }
    }

    #[test]
    fn lookup_by_id() {
        let lib = Library::generate(5, &LibraryConfig::default());
        let e = lib.get(VideoId(3)).unwrap();
        assert_eq!(e.meta.id, VideoId(3));
        assert!(lib.get(VideoId(999)).is_none());
    }

    #[test]
    fn replica_sizes_scale_with_rate() {
        let lib = Library::generate(1, &LibraryConfig::default());
        let e = &lib.entries()[0];
        let sizes: Vec<u64> =
            e.replicas.iter().map(|r| r.estimated_bytes(e.meta.duration)).collect();
        for w in sizes.windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn trace_seeds_differ_per_tier() {
        let lib = Library::generate(2, &LibraryConfig::default());
        let e = &lib.entries()[0];
        let seeds: Vec<u64> = e.replicas.iter().map(|r| r.trace_seed(&e.meta)).collect();
        for i in 0..seeds.len() {
            for j in i + 1..seeds.len() {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "replica count out of range")]
    fn bad_replica_config_rejected() {
        let cfg = LibraryConfig { min_replicas: 0, ..LibraryConfig::default() };
        let _ = Library::generate(1, &cfg);
    }
}
