//! MPEG Group-of-Pictures structure.
//!
//! The paper measures delay variance at both the frame and the GOP level
//! (Table 2): "some variance \[is\] inevitable in dealing with Variable
//! Bitrate (VBR) media streams such as MPEG video because the frames are of
//! different sizes and coding schemes (e.g. I, B, P frames in a Group of
//! Pictures (GOP) in MPEG). Such intrinsic variance can be smoothed out if
//! we collect data on the GOP level." This module models the I/B/P pattern
//! that produces the intrinsic variance and the frame-dropping strategies'
//! selectivity.

use std::fmt;

/// MPEG frame coding type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// Intra-coded: self-contained, largest.
    I,
    /// Predicted from previous I/P frames.
    P,
    /// Bidirectionally predicted: droppable without breaking decode of
    /// other frames, smallest.
    B,
}

impl fmt::Display for FrameType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameType::I => write!(f, "I"),
            FrameType::P => write!(f, "P"),
            FrameType::B => write!(f, "B"),
        }
    }
}

/// A repeating GOP pattern, e.g. `IBBPBBPBBPBB`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GopPattern {
    frames: Vec<FrameType>,
    /// (I, P, B) counts of `frames`, taken once at construction: the
    /// drop-fraction and size-weight helpers run per delivery option.
    counts: (usize, usize, usize),
}

impl GopPattern {
    /// The classic MPEG-1 pattern: `IBBPBBPBBPBB` (N = 12, M = 3).
    pub fn mpeg1_classic() -> Self {
        use FrameType::*;
        GopPattern::new(vec![I, B, B, P, B, B, P, B, B, P, B, B])
    }

    /// A 15-frame MPEG-1 pattern: `IBBPBBPBBPBBPBB` (N = 15, M = 3).
    /// Table 2's inter-GOP delays near 625 ms at 23.97 fps imply the
    /// paper's sample video used this GOP length (15/23.97 = 625.8 ms).
    pub fn mpeg1_n15() -> Self {
        use FrameType::*;
        GopPattern::new(vec![I, B, B, P, B, B, P, B, B, P, B, B, P, B, B])
    }

    /// A short pattern without B frames (`IPPP`), as used by low-latency
    /// encodings.
    pub fn no_b_frames() -> Self {
        use FrameType::*;
        GopPattern::new(vec![I, P, P, P])
    }

    /// Builds a pattern from an explicit frame-type sequence.
    ///
    /// # Panics
    /// Panics when empty or when the first frame is not an I frame (every
    /// GOP must open with an anchor).
    pub fn new(frames: Vec<FrameType>) -> Self {
        assert!(!frames.is_empty(), "GOP pattern cannot be empty");
        assert_eq!(frames[0], FrameType::I, "GOP must start with an I frame");
        let mut counts = (0, 0, 0);
        for f in &frames {
            match f {
                FrameType::I => counts.0 += 1,
                FrameType::P => counts.1 += 1,
                FrameType::B => counts.2 += 1,
            }
        }
        GopPattern { frames, counts }
    }

    /// Frames per GOP.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Always false (patterns are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The coding type of frame `index` in an infinite repetition of the
    /// pattern.
    pub fn frame_type(&self, index: u64) -> FrameType {
        self.frames[(index % self.frames.len() as u64) as usize]
    }

    /// The position of frame `index` within its GOP.
    pub fn position_in_gop(&self, index: u64) -> usize {
        (index % self.frames.len() as u64) as usize
    }

    /// The GOP number of frame `index`.
    pub fn gop_of(&self, index: u64) -> u64 {
        index / self.frames.len() as u64
    }

    /// Counts of (I, P, B) frames in one pattern repetition.
    pub fn type_counts(&self) -> (usize, usize, usize) {
        self.counts
    }

    /// Relative size weight of a frame type, normalized so that the mean
    /// weight over one GOP is 1.0. I frames are the largest, B the
    /// smallest; the ratios follow common MPEG-1 measurements
    /// (I : P : B = 5 : 2.5 : 1).
    pub fn size_weight(&self, ftype: FrameType) -> f64 {
        let (i, p, b) = self.type_counts();
        let raw = |t: FrameType| match t {
            FrameType::I => 5.0,
            FrameType::P => 2.5,
            FrameType::B => 1.0,
        };
        let total: f64 = i as f64 * raw(FrameType::I)
            + p as f64 * raw(FrameType::P)
            + b as f64 * raw(FrameType::B);
        let mean = total / self.len() as f64;
        raw(ftype) / mean
    }

    /// The ideal duration of one GOP at `fps` frames/second in
    /// milliseconds. For the Fig 5 sample video (23.97 fps, 12-frame GOP)
    /// this is 12/23.97 = 500.6 ms; Table 2 reports inter-GOP delays near
    /// 625 ms for a 15-frame GOP.
    pub fn gop_millis(&self, fps: f64) -> f64 {
        self.len() as f64 / fps * 1000.0
    }
}

impl fmt::Display for GopPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.frames {
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_pattern_shape() {
        let g = GopPattern::mpeg1_classic();
        assert_eq!(g.len(), 12);
        assert_eq!(g.to_string(), "IBBPBBPBBPBB");
        assert_eq!(g.type_counts(), (1, 3, 8));
    }

    #[test]
    fn frame_type_repeats() {
        let g = GopPattern::mpeg1_classic();
        assert_eq!(g.frame_type(0), FrameType::I);
        assert_eq!(g.frame_type(12), FrameType::I);
        assert_eq!(g.frame_type(1), FrameType::B);
        assert_eq!(g.frame_type(3), FrameType::P);
        assert_eq!(g.frame_type(15), FrameType::P);
    }

    #[test]
    fn gop_indexing() {
        let g = GopPattern::mpeg1_classic();
        assert_eq!(g.gop_of(0), 0);
        assert_eq!(g.gop_of(11), 0);
        assert_eq!(g.gop_of(12), 1);
        assert_eq!(g.position_in_gop(13), 1);
    }

    #[test]
    fn size_weights_average_to_one() {
        let g = GopPattern::mpeg1_classic();
        let (i, p, b) = g.type_counts();
        let mean = (i as f64 * g.size_weight(FrameType::I)
            + p as f64 * g.size_weight(FrameType::P)
            + b as f64 * g.size_weight(FrameType::B))
            / g.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(g.size_weight(FrameType::I) > g.size_weight(FrameType::P));
        assert!(g.size_weight(FrameType::P) > g.size_weight(FrameType::B));
    }

    #[test]
    fn no_b_pattern() {
        let g = GopPattern::no_b_frames();
        let (_, _, b) = g.type_counts();
        assert_eq!(b, 0);
    }

    #[test]
    fn gop_duration() {
        let g = GopPattern::mpeg1_classic();
        assert!((g.gop_millis(23.97) - 500.6).abs() < 0.1);
    }

    #[test]
    fn n15_pattern_matches_table2_gop_duration() {
        let g = GopPattern::mpeg1_n15();
        assert_eq!(g.len(), 15);
        assert_eq!(g.type_counts(), (1, 4, 10));
        // Table 2 reports inter-GOP means of 622.8-626.2 ms.
        assert!((g.gop_millis(23.97) - 625.78).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "GOP must start with an I frame")]
    fn pattern_must_open_with_i() {
        let _ = GopPattern::new(vec![FrameType::B, FrameType::I]);
    }
}
