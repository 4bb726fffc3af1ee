//! Frame-dropping strategies for MPEG-1 delivery.
//!
//! The paper implements "various frame dropping strategies for MPEG1
//! videos as part of the Transport API", and Fig 2's activity set A3 lists
//! "No drop", "half B frames", "All B frames", and "All B and P". Dropping
//! B frames is safe (nothing references them); dropping P frames degrades
//! to I-only playback. Dropping reduces both the bandwidth and the
//! effective temporal resolution of the delivered stream.

use crate::gop::{FrameType, GopPattern};
use std::fmt;

/// A runtime frame-dropping strategy (activity set A3 in Fig 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DropStrategy {
    /// Deliver every frame.
    #[default]
    None,
    /// Drop every other B frame.
    HalfB,
    /// Drop all B frames.
    AllB,
    /// Drop all B and P frames (I-only playback).
    AllBP,
}

impl DropStrategy {
    /// All strategies, cheapest-degradation first.
    pub const ALL: [DropStrategy; 4] =
        [DropStrategy::None, DropStrategy::HalfB, DropStrategy::AllB, DropStrategy::AllBP];

    /// Whether frame `index` (with coding type `ftype`) is delivered.
    /// `b_ordinal` disambiguates HalfB: it is the running count of B frames
    /// seen so far (even ordinals are kept).
    pub fn keeps(self, ftype: FrameType, b_ordinal: u64) -> bool {
        match self {
            DropStrategy::None => true,
            DropStrategy::HalfB => ftype != FrameType::B || b_ordinal.is_multiple_of(2),
            DropStrategy::AllB => ftype != FrameType::B,
            DropStrategy::AllBP => ftype == FrameType::I,
        }
    }

    /// Fraction of *frames* kept for a given GOP pattern.
    pub fn frame_keep_fraction(self, gop: &GopPattern) -> f64 {
        let (i, p, b) = gop.type_counts();
        let kept = match self {
            DropStrategy::None => i + p + b,
            DropStrategy::HalfB => i + p + b.div_ceil(2),
            DropStrategy::AllB => i + p,
            DropStrategy::AllBP => i,
        };
        kept as f64 / gop.len() as f64
    }

    /// Fraction of *bytes* kept for a given GOP pattern, using the
    /// pattern's I/P/B size weights.
    pub fn byte_keep_fraction(self, gop: &GopPattern) -> f64 {
        let (i, p, b) = gop.type_counts();
        let wi = gop.size_weight(FrameType::I);
        let wp = gop.size_weight(FrameType::P);
        let wb = gop.size_weight(FrameType::B);
        let total = i as f64 * wi + p as f64 * wp + b as f64 * wb;
        let kept = match self {
            DropStrategy::None => total,
            DropStrategy::HalfB => i as f64 * wi + p as f64 * wp + b.div_ceil(2) as f64 * wb,
            DropStrategy::AllB => i as f64 * wi + p as f64 * wp,
            DropStrategy::AllBP => i as f64 * wi,
        };
        kept / total
    }

    /// Effective delivered frame rate after dropping, given the source
    /// rate in fps.
    pub fn effective_fps(self, source_fps: f64, gop: &GopPattern) -> f64 {
        source_fps * self.frame_keep_fraction(gop)
    }
}

impl fmt::Display for DropStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropStrategy::None => write!(f, "no-drop"),
            DropStrategy::HalfB => write!(f, "half-B"),
            DropStrategy::AllB => write!(f, "all-B"),
            DropStrategy::AllBP => write!(f, "all-B-and-P"),
        }
    }
}

/// Stateful filter applying a [`DropStrategy`] to a frame sequence,
/// tracking the running B ordinal for `HalfB`.
#[derive(Debug, Clone)]
pub struct DropFilter {
    strategy: DropStrategy,
    b_seen: u64,
}

impl DropFilter {
    /// Creates a filter for `strategy`.
    pub fn new(strategy: DropStrategy) -> Self {
        DropFilter { strategy, b_seen: 0 }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> DropStrategy {
        self.strategy
    }

    /// Consumes the next frame type in stream order and reports whether it
    /// is delivered.
    pub fn admit(&mut self, ftype: FrameType) -> bool {
        let keep = self.strategy.keeps(ftype, self.b_seen);
        if ftype == FrameType::B {
            self.b_seen += 1;
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_keeps_everything() {
        let g = GopPattern::mpeg1_classic();
        assert_eq!(DropStrategy::None.frame_keep_fraction(&g), 1.0);
        assert_eq!(DropStrategy::None.byte_keep_fraction(&g), 1.0);
    }

    #[test]
    fn all_b_keeps_i_and_p() {
        let g = GopPattern::mpeg1_classic(); // 1 I, 3 P, 8 B
        let f = DropStrategy::AllB.frame_keep_fraction(&g);
        assert!((f - 4.0 / 12.0).abs() < 1e-12);
        let mut filter = DropFilter::new(DropStrategy::AllB);
        let kept: Vec<bool> = (0..12).map(|i| filter.admit(g.frame_type(i))).collect();
        assert_eq!(kept.iter().filter(|&&k| k).count(), 4);
    }

    #[test]
    fn all_bp_keeps_only_i() {
        let g = GopPattern::mpeg1_classic();
        let f = DropStrategy::AllBP.frame_keep_fraction(&g);
        assert!((f - 1.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn half_b_keeps_every_other_b() {
        let g = GopPattern::mpeg1_classic();
        let mut filter = DropFilter::new(DropStrategy::HalfB);
        let mut kept_b = 0;
        let mut dropped_b = 0;
        for i in 0..24 {
            let ft = g.frame_type(i);
            let keep = filter.admit(ft);
            if ft == FrameType::B {
                if keep {
                    kept_b += 1;
                } else {
                    dropped_b += 1;
                }
            } else {
                assert!(keep, "non-B frames are never dropped by HalfB");
            }
        }
        assert_eq!(kept_b, 8);
        assert_eq!(dropped_b, 8);
    }

    #[test]
    fn byte_fraction_exceeds_frame_fraction_for_b_drops() {
        // B frames are the smallest, so dropping them saves fewer bytes
        // than frames.
        let g = GopPattern::mpeg1_classic();
        assert!(
            DropStrategy::AllB.byte_keep_fraction(&g) > DropStrategy::AllB.frame_keep_fraction(&g)
        );
    }

    #[test]
    fn strategies_monotonically_cheaper() {
        let g = GopPattern::mpeg1_classic();
        let fracs: Vec<f64> = DropStrategy::ALL.iter().map(|s| s.byte_keep_fraction(&g)).collect();
        for w in fracs.windows(2) {
            assert!(w[0] > w[1], "{fracs:?}");
        }
    }

    #[test]
    fn effective_fps_scales() {
        let g = GopPattern::mpeg1_classic();
        let fps = DropStrategy::AllB.effective_fps(23.97, &g);
        assert!((fps - 23.97 * 4.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn no_b_pattern_makes_b_strategies_free() {
        let g = GopPattern::no_b_frames();
        assert_eq!(DropStrategy::AllB.frame_keep_fraction(&g), 1.0);
        assert_eq!(DropStrategy::HalfB.byte_keep_fraction(&g), 1.0);
    }
}
