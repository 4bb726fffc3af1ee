//! Per-session measurement reports.
//!
//! The paper's QoS metric is the inter-frame delay, "defined as the
//! interval between the processing time of two consecutive frames in a
//! video stream", collected "on the server side, e.g. the processing time
//! is when the video frame is first handled" (Fig 5), with GOP-level
//! aggregation to smooth intrinsic VBR variance (Table 2). A
//! [`SessionReport`] records both the server-side processing instants and
//! the client-side delivery instants of every frame.

use quasaq_sim::{OnlineStats, SimDuration, SimTime};

/// Measurement of one delivered frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameRecord {
    /// Display-order index in the source trace.
    pub display_index: u64,
    /// GOP number.
    pub gop: u64,
    /// When the frame's transmission was due.
    pub due: SimTime,
    /// Server-side processing completion ("when the video frame is first
    /// handled"), `None` while pending.
    pub processed: Option<SimTime>,
    /// Client-side delivery (transfer completion), `None` while pending.
    pub delivered: Option<SimTime>,
}

/// All measurements of one streaming session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    frames: Vec<FrameRecord>,
    start: SimTime,
    playback: SimDuration,
    finish: Option<SimTime>,
}

impl SessionReport {
    /// Creates a report for a session of `n` scheduled frames.
    pub(crate) fn new(start: SimTime, playback: SimDuration) -> Self {
        SessionReport { frames: Vec::new(), start, playback, finish: None }
    }

    pub(crate) fn push_frame(&mut self, display_index: u64, gop: u64, due: SimTime) -> usize {
        self.frames.push(FrameRecord { display_index, gop, due, processed: None, delivered: None });
        self.frames.len() - 1
    }

    pub(crate) fn mark_processed(&mut self, idx: usize, at: SimTime) {
        self.frames[idx].processed = Some(at);
    }

    pub(crate) fn mark_delivered(&mut self, idx: usize, at: SimTime) {
        self.frames[idx].delivered = Some(at);
    }

    pub(crate) fn mark_finished(&mut self, at: SimTime) {
        self.finish = Some(at);
    }

    /// Session start time.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Source playback duration.
    pub fn playback(&self) -> SimDuration {
        self.playback
    }

    /// Completion time (last frame delivered), `None` while streaming.
    pub fn finish(&self) -> Option<SimTime> {
        self.finish
    }

    /// True when every frame has been delivered.
    pub fn is_complete(&self) -> bool {
        self.finish.is_some()
    }

    /// Per-frame records in schedule order.
    pub fn frames(&self) -> &[FrameRecord] {
        &self.frames
    }

    /// Server-side processing instants of frames processed so far, in
    /// processing order.
    pub fn processing_times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.frames.iter().filter_map(|f| f.processed).collect();
        times.sort_unstable();
        times
    }

    /// Server-side inter-frame delays in milliseconds (the Fig 5 series).
    pub fn inter_frame_delays_ms(&self) -> Vec<f64> {
        Self::deltas_ms(&self.processing_times())
    }

    /// Client-side inter-frame delays in milliseconds.
    pub fn client_inter_frame_delays_ms(&self) -> Vec<f64> {
        let mut times: Vec<SimTime> = self.frames.iter().filter_map(|f| f.delivered).collect();
        times.sort_unstable();
        Self::deltas_ms(&times)
    }

    /// Inter-GOP delays in milliseconds: intervals between the processing
    /// of each GOP's first processed frame (Table 2's smoothing level).
    pub fn inter_gop_delays_ms(&self) -> Vec<f64> {
        let mut firsts: Vec<(u64, SimTime)> = Vec::new();
        for f in &self.frames {
            let Some(t) = f.processed else { continue };
            match firsts.iter_mut().find(|(g, _)| *g == f.gop) {
                Some((_, at)) => {
                    if t < *at {
                        *at = t;
                    }
                }
                None => firsts.push((f.gop, t)),
            }
        }
        firsts.sort_unstable_by_key(|&(g, _)| g);
        let times: Vec<SimTime> = firsts.into_iter().map(|(_, t)| t).collect();
        Self::deltas_ms(&times)
    }

    fn deltas_ms(times: &[SimTime]) -> Vec<f64> {
        times.windows(2).map(|w| (w[1] - w[0]).as_millis_f64()).collect()
    }

    /// Mean/S.D. of server-side inter-frame delays.
    pub fn frame_delay_stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for d in self.inter_frame_delays_ms() {
            s.push(d);
        }
        s
    }

    /// Mean/S.D. of inter-GOP delays.
    pub fn gop_delay_stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for d in self.inter_gop_delays_ms() {
            s.push(d);
        }
        s
    }

    /// Worst lateness of any processed frame relative to its due time.
    pub fn max_lateness(&self) -> SimDuration {
        self.frames
            .iter()
            .filter_map(|f| f.processed.map(|p| p.duration_since(f.due)))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn delays_from_processing_times() {
        let mut r = SessionReport::new(SimTime::ZERO, SimDuration::from_secs(1));
        for (i, t) in [(0u64, 0u64), (1, 42), (2, 84), (3, 125)] {
            let idx = r.push_frame(i, i / 2, ms(t));
            r.mark_processed(idx, ms(t + 1));
        }
        let d = r.inter_frame_delays_ms();
        assert_eq!(d, vec![42.0, 42.0, 41.0]);
        let stats = r.frame_delay_stats();
        assert_eq!(stats.count(), 3);
        assert!((stats.mean() - 125.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn gop_delays_use_first_frame_of_each_gop() {
        let mut r = SessionReport::new(SimTime::ZERO, SimDuration::from_secs(1));
        // GOP 0: frames at 1, 10; GOP 1: frames at 500, 520.
        for (i, g, t) in [(0u64, 0u64, 1u64), (1, 0, 10), (2, 1, 500), (3, 1, 520)] {
            let idx = r.push_frame(i, g, ms(t));
            r.mark_processed(idx, ms(t));
        }
        assert_eq!(r.inter_gop_delays_ms(), vec![499.0]);
    }

    #[test]
    fn unprocessed_frames_are_skipped() {
        let mut r = SessionReport::new(SimTime::ZERO, SimDuration::from_secs(1));
        let a = r.push_frame(0, 0, ms(0));
        let _b = r.push_frame(1, 0, ms(42));
        r.mark_processed(a, ms(1));
        assert!(r.inter_frame_delays_ms().is_empty());
        assert!(!r.is_complete());
    }

    #[test]
    fn lateness_measures_worst_case() {
        let mut r = SessionReport::new(SimTime::ZERO, SimDuration::from_secs(1));
        let a = r.push_frame(0, 0, ms(10));
        let b = r.push_frame(1, 0, ms(52));
        r.mark_processed(a, ms(12));
        r.mark_processed(b, ms(152));
        assert_eq!(r.max_lateness(), SimDuration::from_millis(100));
    }

    #[test]
    fn client_delays_separate_from_server() {
        let mut r = SessionReport::new(SimTime::ZERO, SimDuration::from_secs(1));
        let a = r.push_frame(0, 0, ms(0));
        let b = r.push_frame(1, 0, ms(42));
        r.mark_processed(a, ms(1));
        r.mark_processed(b, ms(43));
        r.mark_delivered(a, ms(5));
        r.mark_delivered(b, ms(95));
        assert_eq!(r.inter_frame_delays_ms(), vec![42.0]);
        assert_eq!(r.client_inter_frame_delays_ms(), vec![90.0]);
        r.mark_finished(ms(95));
        assert_eq!(r.finish(), Some(ms(95)));
    }
}
