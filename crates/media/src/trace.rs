//! Synthetic VBR frame-size traces.
//!
//! The paper streams real MPEG-1 clips; their variable bitrate is what
//! makes even the uncontended inter-frame delay jitter (Fig 5a/5b, "some
//! variance are inevitable in dealing with Variable Bitrate (VBR) media
//! streams"). We replace the clips with deterministic synthetic traces
//! that keep the relevant structure: I/P/B size ratios from the GOP
//! pattern, slow scene-level bitrate modulation, and per-frame log-normal
//! noise. A trace is fully determined by a seed and its parameters.

use crate::gop::{FrameType, GopPattern};
use crate::video::FrameRate;
use quasaq_sim::{Rng, SimDuration, SimTime};

/// Parameters of a synthetic trace.
#[derive(Debug, Clone)]
pub struct TraceParams {
    /// Frames per second.
    pub frame_rate: FrameRate,
    /// Clip length.
    pub duration: SimDuration,
    /// GOP structure.
    pub gop: GopPattern,
    /// Target average bytes per frame (bitrate / fps).
    pub mean_frame_bytes: f64,
    /// Sigma of the per-frame log-normal noise (0 disables noise).
    pub noise_sigma: f64,
    /// Period of the slow scene-complexity modulation, in frames.
    pub scene_period: u64,
    /// Relative amplitude of the scene modulation (e.g. 0.3 = ±30 %).
    pub scene_amplitude: f64,
}

impl TraceParams {
    /// A trace matching a replica's bitrate with default VBR texture.
    pub fn with_bitrate(
        frame_rate: FrameRate,
        duration: SimDuration,
        gop: GopPattern,
        bytes_per_second: f64,
    ) -> Self {
        assert!(bytes_per_second > 0.0, "bitrate must be positive");
        TraceParams {
            frame_rate,
            duration,
            gop,
            mean_frame_bytes: bytes_per_second / frame_rate.fps(),
            noise_sigma: 0.18,
            scene_period: 240,
            scene_amplitude: 0.25,
        }
    }
}

/// One frame of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Zero-based frame index.
    pub index: u64,
    /// Coding type.
    pub ftype: FrameType,
    /// Encoded size in bytes.
    pub bytes: u32,
    /// Ideal presentation instant relative to stream start.
    pub pts: SimTime,
}

/// A fully materialized frame trace.
#[derive(Debug, Clone)]
pub struct FrameTrace {
    frames: Vec<Frame>,
    frame_rate: FrameRate,
    gop: GopPattern,
}

impl FrameTrace {
    /// Generates a deterministic trace from `seed` and `params`.
    pub fn generate(seed: u64, params: &TraceParams) -> Self {
        assert!(params.mean_frame_bytes > 0.0, "mean frame bytes must be positive");
        assert!(params.noise_sigma >= 0.0, "noise sigma must be non-negative");
        assert!((0.0..1.0).contains(&params.scene_amplitude), "scene amplitude must be in [0, 1)");
        let mut rng = Rng::new(seed);
        let n = params.frame_rate.frames_in(params.duration).max(1);
        let interval = params.frame_rate.frame_interval();
        let phase = rng.range_f64(0.0, std::f64::consts::TAU);
        // Log-normal with unit mean: exp(N(-sigma^2/2, sigma)).
        let mu = -params.noise_sigma * params.noise_sigma / 2.0;
        let mut frames = Vec::with_capacity(n as usize);
        for i in 0..n {
            let ftype = params.gop.frame_type(i);
            let weight = params.gop.size_weight(ftype);
            let scene = if params.scene_period > 0 {
                1.0 + params.scene_amplitude
                    * ((std::f64::consts::TAU * i as f64 / params.scene_period as f64) + phase)
                        .sin()
            } else {
                1.0
            };
            let noise =
                if params.noise_sigma > 0.0 { rng.lognormal(mu, params.noise_sigma) } else { 1.0 };
            let bytes = (params.mean_frame_bytes * weight * scene * noise).round().max(1.0);
            frames.push(Frame {
                index: i,
                ftype,
                bytes: bytes as u32,
                pts: SimTime::ZERO + interval * i,
            });
        }
        FrameTrace { frames, frame_rate: params.frame_rate, gop: params.gop.clone() }
    }

    /// All frames in presentation order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the trace has no frames (never happens for generated
    /// traces).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The trace's frame rate.
    pub fn frame_rate(&self) -> FrameRate {
        self.frame_rate
    }

    /// The trace's GOP pattern.
    pub fn gop(&self) -> &GopPattern {
        &self.gop
    }

    /// Total encoded bytes.
    pub fn total_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes as u64).sum()
    }

    /// Playback duration (last pts plus one frame interval).
    pub fn duration(&self) -> SimDuration {
        match self.frames.last() {
            Some(f) => f.pts.duration_since(SimTime::ZERO) + self.frame_rate.frame_interval(),
            None => SimDuration::ZERO,
        }
    }

    /// Realized average bitrate in bytes/second.
    pub fn mean_rate_bps(&self) -> f64 {
        let d = self.duration().as_secs_f64();
        if d == 0.0 {
            0.0
        } else {
            self.total_bytes() as f64 / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TraceParams {
        TraceParams::with_bitrate(
            FrameRate::NTSC_FILM,
            SimDuration::from_secs(60),
            GopPattern::mpeg1_classic(),
            48_000.0, // DSL-class replica
        )
    }

    #[test]
    fn deterministic_generation() {
        let a = FrameTrace::generate(99, &params());
        let b = FrameTrace::generate(99, &params());
        assert_eq!(a.frames(), b.frames());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FrameTrace::generate(1, &params());
        let b = FrameTrace::generate(2, &params());
        assert_ne!(a.frames(), b.frames());
    }

    #[test]
    fn frame_count_and_pts_spacing() {
        let t = FrameTrace::generate(5, &params());
        assert_eq!(t.len() as u64, FrameRate::NTSC_FILM.frames_in(SimDuration::from_secs(60)));
        let interval = FrameRate::NTSC_FILM.frame_interval();
        for w in t.frames().windows(2) {
            assert_eq!(w[1].pts - w[0].pts, interval);
        }
    }

    #[test]
    fn realized_bitrate_near_target() {
        let t = FrameTrace::generate(7, &params());
        let rate = t.mean_rate_bps();
        assert!(
            (rate - 48_000.0).abs() / 48_000.0 < 0.10,
            "realized rate {rate} too far from 48000"
        );
    }

    #[test]
    fn i_frames_are_larger_on_average() {
        let t = FrameTrace::generate(11, &params());
        let avg = |ft: FrameType| {
            let xs: Vec<u64> =
                t.frames().iter().filter(|f| f.ftype == ft).map(|f| f.bytes as u64).collect();
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        };
        assert!(avg(FrameType::I) > avg(FrameType::P));
        assert!(avg(FrameType::P) > avg(FrameType::B));
    }

    #[test]
    fn noiseless_trace_is_smooth() {
        let mut p = params();
        p.noise_sigma = 0.0;
        p.scene_amplitude = 0.0;
        let t = FrameTrace::generate(3, &p);
        // All I frames identical.
        let i_sizes: Vec<u32> =
            t.frames().iter().filter(|f| f.ftype == FrameType::I).map(|f| f.bytes).collect();
        assert!(i_sizes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn gop_types_follow_pattern() {
        let t = FrameTrace::generate(13, &params());
        let g = GopPattern::mpeg1_classic();
        for f in t.frames().iter().take(36) {
            assert_eq!(f.ftype, g.frame_type(f.index));
        }
    }

    #[test]
    fn duration_and_total_bytes() {
        let t = FrameTrace::generate(17, &params());
        let d = t.duration().as_secs_f64();
        assert!((d - 60.0).abs() < 0.1, "duration {d}");
        assert!(t.total_bytes() > 0);
    }

    #[test]
    fn minimum_one_frame() {
        let p = TraceParams::with_bitrate(
            FrameRate::NTSC_FILM,
            SimDuration::from_micros(1),
            GopPattern::mpeg1_classic(),
            1000.0,
        );
        let t = FrameTrace::generate(1, &p);
        assert_eq!(t.len(), 1);
    }
}
