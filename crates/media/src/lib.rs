//! # quasaq-media — media substrate for the QuaSAQ reproduction
//!
//! Models everything the QoS-aware query processor needs to know about
//! video objects, replacing the paper's real MPEG-1 clips and external
//! tools (VideoMach for offline replication, `transcode` for online
//! conversion) with deterministic synthetic equivalents:
//!
//! * [`video`] — identifiers, formats, resolutions, frame rates, color
//!   depths.
//! * [`gop`] — MPEG Group-of-Pictures structure (I/P/B frames) whose size
//!   ratios produce the intrinsic VBR jitter the paper observes.
//! * [`trace`] — seeded synthetic VBR frame-size traces.
//! * [`quality`] — application-QoS specifications ([`QualitySpec`]) and
//!   query-side acceptance ranges ([`QosRange`]).
//! * [`transcode`] — online transcoding feasibility, output-size and
//!   CPU-cost model.
//! * [`drop`](mod@drop) — MPEG-1 frame-dropping strategies (no drop / half B /
//!   all B / all B and P, per Fig 2).
//! * [`encrypt`] — encryption algorithm cost/strength model.
//! * [`library`] — catalog generation matching the paper's database (15
//!   videos, 30 s–18 min, 3–4 replica qualities sized for T1/DSL/modem).

pub mod costmodel;
pub mod drop;
pub mod encrypt;
pub mod gop;
pub mod library;
pub mod quality;
pub mod trace;
pub mod transcode;
pub mod video;

pub use costmodel::DeliveryCostModel;
pub use drop::{DropFilter, DropStrategy};
pub use encrypt::CipherAlgo;
pub use gop::{FrameType, GopPattern};
pub use library::{
    quality_ladder, Library, LibraryConfig, QualityTier, ReplicaQuality, VideoEntry, VideoMeta,
    FEATURE_DIMS,
};
pub use quality::{QosRange, QualitySpec};
pub use trace::{Frame, FrameTrace, TraceParams};
pub use transcode::{Transcode, TranscodeCost, TranscodeError};
pub use video::{ColorDepth, FrameRate, Resolution, VideoFormat, VideoId};
