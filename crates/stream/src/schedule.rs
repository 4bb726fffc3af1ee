//! Delivery schedules: what a session actually sends, when, and at what
//! CPU cost.
//!
//! A [`FrameSchedule`] is the fully resolved per-frame plan of one
//! streaming session: the source trace filtered through the plan's
//! transforms (transcode, frame dropping, encryption) and laid out on the
//! transmission timeline.
//!
//! ## Decode-order bursting
//!
//! MPEG senders transmit in *decode* order, not display order: an anchor
//! frame (I/P) must precede the B frames that reference it, so the anchor
//! is sent at the slot of the first B frame that depends on it and the
//! B frames follow in a short burst. This clumping is what gives the
//! paper's *uncontended* traces an inter-frame-delay standard deviation of
//! ~30 ms around a 41.72 ms mean (Fig 5a/5b, Table 2) while the inter-GOP
//! delays stay tight — the variance is intrinsic to the stream, not to
//! scheduling. [`DispatchConfig`] controls the bursting and the pacing gap
//! inside a burst.

use crate::transforms::Transforms;
use quasaq_media::{DeliveryCostModel, FrameTrace, FrameType};
use quasaq_sim::{SimDuration, SimTime};

/// How frames are laid out on the transmission timeline.
#[derive(Debug, Clone, Copy)]
pub struct DispatchConfig {
    /// Transmit in decode order with anchors pulled ahead of their B
    /// frames (true reproduces the paper's VBR jitter; false sends each
    /// frame at its display slot).
    pub decode_order_burst: bool,
    /// Pacing gap between frames inside one burst, as a fraction of the
    /// frame interval. Calibrated to ~0.45 to match Table 2's frame-level
    /// standard deviation.
    pub intra_burst_spacing: f64,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig { decode_order_burst: true, intra_burst_spacing: 0.45 }
    }
}

impl DispatchConfig {
    /// Display-slot dispatch without bursting.
    pub fn uniform() -> Self {
        DispatchConfig { decode_order_burst: false, intra_burst_spacing: 0.0 }
    }
}

/// One frame of a resolved delivery schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFrame {
    /// Display-order index in the source trace.
    pub display_index: u64,
    /// GOP number in the source trace.
    pub gop: u64,
    /// Coding type.
    pub ftype: FrameType,
    /// Transmission due time as an offset from session start.
    pub due: SimDuration,
    /// Delivered bytes (after transcode scaling).
    pub bytes: u32,
    /// Server CPU work for this frame (streaming + transcode +
    /// encryption).
    pub cpu: SimDuration,
}

/// A session's fully resolved delivery plan.
#[derive(Debug, Clone)]
pub struct FrameSchedule {
    frames: Vec<ScheduledFrame>,
    playback: SimDuration,
    gop_len: usize,
}

impl FrameSchedule {
    /// Resolves `trace` through `transforms` and lays frames out per
    /// `dispatch`.
    pub fn build(
        trace: &FrameTrace,
        transforms: &Transforms,
        cost: &DeliveryCostModel,
        dispatch: &DispatchConfig,
    ) -> FrameSchedule {
        let interval = trace.frame_rate().frame_interval();
        let gop = trace.gop().clone();
        let mut filter = transforms.drop_filter();

        // Pass 1: which frames are delivered and at what size/CPU.
        struct Kept {
            display_index: u64,
            gop: u64,
            ftype: FrameType,
            bytes: u32,
            cpu: SimDuration,
        }
        let mut kept: Vec<Kept> = Vec::with_capacity(trace.len());
        for frame in trace.frames() {
            if let Some(t) = &transforms.transcode {
                if !t.keeps_frame(frame.index) {
                    continue;
                }
            }
            if !filter.admit(frame.ftype) {
                continue;
            }
            let bytes = match &transforms.transcode {
                Some(t) => t.output_bytes(frame.bytes),
                None => frame.bytes,
            };
            let mut cpu = cost.stream_cpu_per_frame(bytes);
            if let Some(t) = &transforms.transcode {
                cpu += t.cpu_per_frame(&cost.transcode);
            }
            cpu += transforms.cipher.cpu_for(bytes as u64);
            kept.push(Kept {
                display_index: frame.index,
                gop: gop.gop_of(frame.index),
                ftype: frame.ftype,
                bytes,
                cpu,
            });
        }

        // Pass 2: dispatch times.
        let spacing = interval.mul_f64(dispatch.intra_burst_spacing.max(0.0));
        let mut frames: Vec<ScheduledFrame> = Vec::with_capacity(kept.len());
        if dispatch.decode_order_burst {
            // Group: pending B frames attach to the next anchor; the group
            // dispatches at the earliest member's display slot, anchor
            // first.
            let mut pending_b: Vec<usize> = Vec::new();
            let emit_group = |anchor: Option<usize>,
                              pending: &mut Vec<usize>,
                              out: &mut Vec<ScheduledFrame>| {
                let mut members: Vec<usize> = Vec::with_capacity(pending.len() + 1);
                if let Some(a) = anchor {
                    members.push(a);
                }
                members.append(pending);
                if members.is_empty() {
                    return;
                }
                let slot =
                    members.iter().map(|&i| kept[i].display_index).min().expect("non-empty group");
                let base = interval * slot;
                for (j, &i) in members.iter().enumerate() {
                    let k = &kept[i];
                    out.push(ScheduledFrame {
                        display_index: k.display_index,
                        gop: k.gop,
                        ftype: k.ftype,
                        due: base + spacing * j as u64,
                        bytes: k.bytes,
                        cpu: k.cpu,
                    });
                }
            };
            for (i, k) in kept.iter().enumerate() {
                match k.ftype {
                    FrameType::B => pending_b.push(i),
                    FrameType::I | FrameType::P => emit_group(Some(i), &mut pending_b, &mut frames),
                }
            }
            // Trailing B frames with no following anchor.
            emit_group(None, &mut pending_b, &mut frames);
            frames.sort_by_key(|f| (f.due, f.display_index));
        } else {
            for k in &kept {
                frames.push(ScheduledFrame {
                    display_index: k.display_index,
                    gop: k.gop,
                    ftype: k.ftype,
                    due: interval * k.display_index,
                    bytes: k.bytes,
                    cpu: k.cpu,
                });
            }
        }

        FrameSchedule { frames, playback: trace.duration(), gop_len: gop.len() }
    }

    /// The scheduled frames in due order.
    pub fn frames(&self) -> &[ScheduledFrame] {
        &self.frames
    }

    /// Number of delivered frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when nothing is delivered.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Source playback duration (streaming time is fixed regardless of
    /// the plan, as the paper notes).
    pub fn playback(&self) -> SimDuration {
        self.playback
    }

    /// Frames per source GOP.
    pub fn gop_len(&self) -> usize {
        self.gop_len
    }

    /// Total delivered bytes.
    pub fn delivered_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.bytes as u64).sum()
    }

    /// Mean delivered rate in bytes/second.
    pub fn delivered_rate_bps(&self) -> f64 {
        let secs = self.playback.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.delivered_bytes() as f64 / secs
        }
    }

    /// Total CPU work.
    pub fn total_cpu(&self) -> SimDuration {
        self.frames.iter().map(|f| f.cpu).sum()
    }

    /// Mean CPU share (fraction of one processor) over playback.
    pub fn mean_cpu_share(&self) -> f64 {
        let secs = self.playback.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.total_cpu().as_secs_f64() / secs
        }
    }

    /// The absolute due time of frame `i` for a session starting at
    /// `start`.
    pub fn due_at(&self, start: SimTime, i: usize) -> SimTime {
        start + self.frames[i].due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_media::{CipherAlgo, DropStrategy, FrameRate, GopPattern, TraceParams};

    fn trace() -> FrameTrace {
        FrameTrace::generate(
            7,
            &TraceParams::with_bitrate(
                FrameRate::NTSC_FILM,
                SimDuration::from_secs(30),
                GopPattern::mpeg1_n15(),
                193_000.0,
            ),
        )
    }

    fn cost() -> DeliveryCostModel {
        DeliveryCostModel::default()
    }

    #[test]
    fn uniform_dispatch_matches_display_slots() {
        let t = trace();
        let s = FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::uniform());
        assert_eq!(s.len(), t.len());
        let interval = t.frame_rate().frame_interval();
        for f in s.frames() {
            assert_eq!(f.due, interval * f.display_index);
        }
        assert_eq!(s.delivered_bytes(), t.total_bytes());
    }

    #[test]
    fn burst_dispatch_preserves_frames_and_mean_rate() {
        let t = trace();
        let s = FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::default());
        assert_eq!(s.len(), t.len());
        // Due times are sorted and within the playback window (+ slack).
        for w in s.frames().windows(2) {
            assert!(w[0].due <= w[1].due);
        }
        let last = s.frames().last().unwrap().due;
        assert!(last <= s.playback() + t.frame_rate().frame_interval() * 2);
    }

    #[test]
    fn burst_pulls_anchor_before_its_b_frames() {
        let t = trace();
        let s = FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::default());
        // Pattern IBBPBB…: P at display 3 groups with Bs at 1, 2 and the
        // group dispatches at slot 1 — so the P is due *before* its
        // display time, and before both Bs in the schedule order.
        let interval = t.frame_rate().frame_interval();
        let p3 = s.frames().iter().find(|f| f.display_index == 3).unwrap();
        assert_eq!(p3.due, interval * 1);
        let b1 = s.frames().iter().find(|f| f.display_index == 1).unwrap();
        assert!(b1.due > p3.due);
    }

    #[test]
    fn burst_interframe_stats_match_table2_shape() {
        // The schedule's dispatch pattern alone (no contention) should
        // produce a frame-level delay SD of roughly 0.6-0.9x the mean, and
        // GOP-level SD far smaller — the paper's low-contention signature.
        let t = trace();
        let s = FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::default());
        let mut frame_stats = quasaq_sim::OnlineStats::new();
        for w in s.frames().windows(2) {
            frame_stats.push((w[1].due - w[0].due).as_millis_f64());
        }
        let mean = frame_stats.mean();
        let sd = frame_stats.std_dev();
        assert!((mean - 41.72).abs() < 1.5, "mean {mean}");
        assert!((20.0..45.0).contains(&sd), "sd {sd}");
        // GOP level: first frame of each GOP.
        let mut gop_stats = quasaq_sim::OnlineStats::new();
        let mut last: Option<(u64, SimDuration)> = None;
        for f in s.frames() {
            if last.is_none_or(|(g, _)| f.gop > g) {
                if let Some((_, prev)) = last {
                    gop_stats.push((f.due - prev).as_millis_f64());
                }
                last = Some((f.gop, f.due));
            }
        }
        assert!((gop_stats.mean() - 625.8).abs() < 10.0, "gop mean {}", gop_stats.mean());
        assert!(gop_stats.std_dev() < sd, "gop sd {}", gop_stats.std_dev());
    }

    #[test]
    fn drop_strategy_removes_frames() {
        let t = trace();
        let all =
            FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::default());
        let no_b = FrameSchedule::build(
            &t,
            &Transforms { drop: DropStrategy::AllB, ..Transforms::none() },
            &cost(),
            &DispatchConfig::default(),
        );
        assert!(no_b.len() < all.len());
        assert!(no_b.frames().iter().all(|f| f.ftype != FrameType::B));
        assert!(no_b.delivered_bytes() < all.delivered_bytes());
        // Exactly the I and P frames of the source survive.
        let anchors = t.frames().iter().filter(|f| f.ftype != FrameType::B).count();
        assert_eq!(no_b.len(), anchors);
    }

    #[test]
    fn encryption_adds_cpu_only() {
        let t = trace();
        let plain =
            FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::default());
        let enc = FrameSchedule::build(
            &t,
            &Transforms { cipher: CipherAlgo::Block, ..Transforms::none() },
            &cost(),
            &DispatchConfig::default(),
        );
        assert_eq!(plain.delivered_bytes(), enc.delivered_bytes());
        assert!(enc.total_cpu() > plain.total_cpu());
        assert!(enc.mean_cpu_share() > plain.mean_cpu_share());
    }

    #[test]
    fn cpu_share_is_plausible() {
        let t = trace();
        let s = FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::default());
        let share = s.mean_cpu_share();
        // A T1-class stream should cost a few percent of a CPU.
        assert!((0.01..0.15).contains(&share), "share {share}");
    }

    #[test]
    fn due_at_offsets_by_start() {
        let t = trace();
        let s = FrameSchedule::build(&t, &Transforms::none(), &cost(), &DispatchConfig::uniform());
        let start = SimTime::from_secs(100);
        assert_eq!(s.due_at(start, 0), start);
        assert!(s.due_at(start, 5) > start);
    }
}
