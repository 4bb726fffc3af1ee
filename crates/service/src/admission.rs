//! The queued admission front end: backpressure for rejected queries.
//!
//! The paper's architecture (§3) places an admission step between query
//! parsing and streaming, with the User Profile's degraded alternatives
//! offered as a "second chance" when admission fails. The synchronous
//! drivers model a client that issues one request and walks away on
//! rejection; real clients *wait*. This module adds that behaviour as a
//! bounded, deterministic queue in simulated time:
//!
//! * a rejected query waits and retries with exponential backoff,
//! * each retry walks one step down the profile's degradation ladder
//!   (lower floors reach more replicas, so a waiting client converges on
//!   something admittable),
//! * a client abandons once its patience is exhausted — both while
//!   queued and mid-stream, when a best-effort session overruns its
//!   nominal duration by more than the patience window.
//!
//! Every decision is keyed on `(SimTime, sequence)` in a `BTreeMap`, so
//! queue behaviour is a pure function of the run's inputs and results
//! stay bit-identical under the scenario-parallel runner.

use quasaq_core::{Rejection, UserProfile};
use quasaq_sim::{OnlineStats, Series, SimDuration, SimTime};
use quasaq_vdbms::QueuedQuery;
use std::collections::BTreeMap;

/// Front-end parameters.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum queries waiting at once; arrivals beyond this are dropped
    /// (load shedding).
    pub queue_capacity: usize,
    /// Delay before the first retry.
    pub base_backoff: SimDuration,
    /// Multiplier applied to the delay on each further retry.
    pub backoff_factor: f64,
    /// Ceiling on the retry delay.
    pub max_backoff: SimDuration,
    /// How long a client is willing to wait past its arrival — in the
    /// queue, and past a session's nominal duration mid-stream.
    pub patience: SimDuration,
    /// Profile whose weights order the degradation ladder walked on
    /// retries.
    pub profile: UserProfile,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 256,
            base_backoff: SimDuration::from_secs(2),
            backoff_factor: 2.0,
            max_backoff: SimDuration::from_secs(32),
            patience: SimDuration::from_secs(60),
            profile: UserProfile::new("queued"),
        }
    }
}

/// What the queue recorded over one run. `PartialEq` compares floats
/// bit-for-bit (via [`OnlineStats`] / [`Series`] equality) for the
/// serial-vs-parallel determinism checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueueMetrics {
    /// Wait between arrival and admission, in seconds, over every
    /// admitted query (0 for queries admitted on arrival).
    pub wait: OnlineStats,
    /// Re-admission attempts beyond each query's first.
    pub retries: u64,
    /// Retries that stepped down the degradation ladder.
    pub degraded: u64,
    /// Arrivals dropped because the queue was full.
    pub overflow: u64,
    /// Queries dropped as statically infeasible with the ladder exhausted.
    pub hopeless: u64,
    /// Clients that gave up while waiting in the queue.
    pub abandoned_waiting: u64,
    /// Admitted sessions cancelled mid-stream after overrunning their
    /// nominal duration by more than the patience window.
    pub abandoned_streaming: u64,
    /// Queries still queued when the run ended.
    pub pending_at_horizon: u64,
    /// Largest queue depth observed.
    pub peak_waiting: u64,
    /// Cumulative abandonments (waiting + streaming) over time.
    pub abandonment: Series,
}

impl QueueMetrics {
    /// Total abandonments, waiting and mid-stream.
    pub fn abandoned(&self) -> u64 {
        self.abandoned_waiting + self.abandoned_streaming
    }
}

/// One query waiting for readmission.
#[derive(Debug, Clone)]
pub struct Waiting {
    /// The request, with its (possibly already degraded) QoS range.
    pub query: QueuedQuery,
    /// When the client first asked.
    pub arrival: SimTime,
    /// Admission attempts consumed so far (>= 1 once queued).
    pub attempts: u32,
    /// Set when this entry is a session displaced by a server crash
    /// (the crash instant), re-entering the queue because failover found
    /// no feasible replica. Displaced entries reuse the queue's backoff,
    /// ladder, patience, and capacity machinery but stay out of its
    /// admission accounting: they were already admitted once, so counting
    /// them again would break `admitted + rejected == queries`.
    pub interrupted: Option<SimTime>,
}

/// Terminal-or-not outcome of handing a failed attempt to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Scheduled for a retry; not a terminal outcome.
    Queued,
    /// Dropped: the queue was full.
    Overflow,
    /// Dropped: statically infeasible with no ladder step left.
    Hopeless,
    /// Dropped: the next retry would land past the client's patience.
    Abandoned,
}

impl Disposition {
    /// True when the query left the system without being admitted.
    pub fn is_rejection(self) -> bool {
        self != Disposition::Queued
    }
}

/// What brownout admission does with an arrival of a given service
/// class while the system is shedding load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrownoutAction {
    /// Admit the request one degradation-ladder step below what it asked
    /// for; reject it only if even the degraded form is infeasible.
    DegradeThenReject,
    /// Turn the request away immediately — its class is below the
    /// brownout floor.
    Reject,
}

/// The brownout shedding policy: Economy-class requests are refused
/// outright (they contribute the least utility per byte and their users
/// have the least invested), while Standard and Premium requests are
/// offered a degraded session before being turned away.
pub fn brownout_action(class: crate::command::QopClass) -> BrownoutAction {
    match class {
        crate::command::QopClass::Economy => BrownoutAction::Reject,
        crate::command::QopClass::Standard | crate::command::QopClass::Premium => {
            BrownoutAction::DegradeThenReject
        }
    }
}

/// The bounded retry queue. All state lives in a `BTreeMap` keyed by
/// `(ready_at, seq)`: iteration order — and therefore every retry and
/// abandonment decision — is deterministic.
pub struct AdmissionQueue {
    cfg: AdmissionConfig,
    waiting: BTreeMap<(SimTime, u64), Waiting>,
    seq: u64,
    metrics: QueueMetrics,
    abandoned_total: u64,
}

impl AdmissionQueue {
    /// Creates an empty queue.
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.backoff_factor >= 1.0, "backoff must not shrink");
        AdmissionQueue {
            cfg,
            waiting: BTreeMap::new(),
            seq: 0,
            metrics: QueueMetrics::default(),
            abandoned_total: 0,
        }
    }

    /// The configuration this queue runs under.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Queries currently waiting.
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// True when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &QueueMetrics {
        &self.metrics
    }

    /// Earliest instant a waiting query becomes due.
    pub fn next_ready(&self) -> Option<SimTime> {
        self.waiting.keys().next().map(|&(t, _)| t)
    }

    /// Pops the next query due at or before `now`, counting it as a retry
    /// attempt.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Waiting> {
        let &key = self.waiting.keys().next().filter(|&&(t, _)| t <= now)?;
        let w = self.waiting.remove(&key).expect("key just observed");
        if w.interrupted.is_none() {
            self.metrics.retries += 1;
        }
        Some(w)
    }

    /// Hands a failed admission attempt to the queue. Walks one ladder
    /// step when the profile still has one, then either schedules a
    /// backed-off retry or drops the query (full queue, hopeless request,
    /// or patience exhausted). The caller folds any rejection disposition
    /// into its rejected count.
    pub fn admit_failure(&mut self, now: SimTime, mut w: Waiting, why: &Rejection) -> Disposition {
        // Displaced sessions ride the machinery without touching the
        // admission accounting; the fault metrics track their fate.
        let fresh = w.interrupted.is_none();
        // Walk the second-chance ladder: lower floors reach more replicas
        // (and cheaper plans), so every retry asks for something easier.
        // Dimensions with lower profile weight are relaxed first.
        match self.cfg.profile.degrade_step(&w.query.qos) {
            Some(next) => {
                w.query.qos = next;
                if fresh {
                    self.metrics.degraded += 1;
                }
            }
            None if !why.is_transient() => {
                // Bottom of the ladder and still no feasible plan: waiting
                // cannot conjure a replica.
                if fresh {
                    self.metrics.hopeless += 1;
                }
                return Disposition::Hopeless;
            }
            None => {} // Bottom of the ladder, but overload clears: retry.
        }
        // k-th failure backs off base * factor^(k-1), capped.
        let exponent = w.attempts.saturating_sub(1).min(32);
        w.attempts += 1;
        let delay = self
            .cfg
            .base_backoff
            .mul_f64(self.cfg.backoff_factor.powi(exponent as i32))
            .min(self.cfg.max_backoff)
            .max(SimDuration::from_micros(1));
        let ready = now + delay;
        if ready > w.arrival + self.cfg.patience {
            if fresh {
                self.metrics.abandoned_waiting += 1;
                self.abandoned_total += 1;
                self.metrics.abandonment.push(now, self.abandoned_total as f64);
            }
            return Disposition::Abandoned;
        }
        if self.waiting.len() >= self.cfg.queue_capacity {
            if fresh {
                self.metrics.overflow += 1;
            }
            return Disposition::Overflow;
        }
        let seq = self.seq;
        self.seq += 1;
        self.waiting.insert((ready, seq), w);
        self.metrics.peak_waiting = self.metrics.peak_waiting.max(self.waiting.len() as u64);
        Disposition::Queued
    }

    /// Records an admission (direct or via retry): the wait statistic
    /// covers every admitted query, so its count equals the run's admitted
    /// total.
    pub fn record_admitted(&mut self, now: SimTime, arrival: SimTime) {
        self.metrics.wait.push((now - arrival).as_secs_f64());
    }

    /// Records a mid-stream abandonment (session cancelled after
    /// overrunning nominal duration + patience).
    pub fn record_stream_abandoned(&mut self, at: SimTime) {
        self.metrics.abandoned_streaming += 1;
        self.abandoned_total += 1;
        self.metrics.abandonment.push(at, self.abandoned_total as f64);
    }

    /// Ends the run. Every fresh query still waiting becomes a rejection;
    /// displaced sessions still waiting were admitted once and are lost
    /// instead. Returns `(fresh, displaced)` pending counts — the caller
    /// folds the first into its rejected total and the second into the
    /// fault metrics' dropped total.
    pub fn finish(&mut self) -> (u64, u64) {
        let displaced = self.waiting.values().filter(|w| w.interrupted.is_some()).count() as u64;
        let fresh = self.waiting.len() as u64 - displaced;
        self.metrics.pending_at_horizon = fresh;
        self.waiting.clear();
        (fresh, displaced)
    }

    /// Consumes the queue, yielding its metrics.
    pub fn into_metrics(mut self) -> QueueMetrics {
        std::mem::take(&mut self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_core::{QopRequest, UserProfile};
    use quasaq_media::VideoId;

    fn waiting(at: SimTime) -> Waiting {
        let profile = UserProfile::new("u");
        Waiting {
            query: QueuedQuery {
                video: VideoId(0),
                qos: profile.translate(&QopRequest::diagnostic()),
            },
            arrival: at,
            attempts: 1,
            interrupted: None,
        }
    }

    fn displaced(at: SimTime) -> Waiting {
        Waiting { interrupted: Some(at), ..waiting(at) }
    }

    #[test]
    fn backoff_grows_and_caps() {
        let cfg = AdmissionConfig {
            base_backoff: SimDuration::from_secs(2),
            backoff_factor: 2.0,
            max_backoff: SimDuration::from_secs(5),
            patience: SimDuration::from_secs(1_000),
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        let t0 = SimTime::from_secs(10);
        let mut w = waiting(t0);
        // First failure: retry after base (2 s).
        assert_eq!(q.admit_failure(t0, w, &Rejection::AdmissionFailed), Disposition::Queued);
        assert_eq!(q.next_ready(), Some(t0 + SimDuration::from_secs(2)));
        assert!(q.pop_due(t0).is_none(), "not due yet");
        let due = t0 + SimDuration::from_secs(2);
        w = q.pop_due(due).expect("due now");
        assert_eq!(w.attempts, 2);
        // Second failure: 2 * 2 = 4 s.
        assert_eq!(q.admit_failure(due, w, &Rejection::AdmissionFailed), Disposition::Queued);
        assert_eq!(q.next_ready(), Some(due + SimDuration::from_secs(4)));
        let due2 = due + SimDuration::from_secs(4);
        w = q.pop_due(due2).expect("due again");
        // Third failure: 8 s capped at 5 s.
        assert_eq!(q.admit_failure(due2, w, &Rejection::AdmissionFailed), Disposition::Queued);
        assert_eq!(q.next_ready(), Some(due2 + SimDuration::from_secs(5)));
        assert_eq!(q.metrics().retries, 2);
    }

    #[test]
    fn retries_walk_the_ladder() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        let t = SimTime::from_secs(1);
        let original = waiting(t);
        let floor = original.query.qos.min_resolution;
        assert_eq!(q.admit_failure(t, original, &Rejection::AdmissionFailed), Disposition::Queued);
        let w = q.pop_due(t + SimDuration::from_secs(60)).expect("due");
        assert!(w.query.qos.min_resolution < floor, "one ladder step taken");
        assert_eq!(q.metrics().degraded, 1);
    }

    #[test]
    fn hopeless_requests_drop_at_ladder_bottom() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        let t = SimTime::ZERO;
        let mut w = waiting(t);
        // Grind the range to the global floor so no degrade step remains.
        while let Some(r) = q.cfg.profile.degrade_step(&w.query.qos) {
            w.query.qos = r;
        }
        // Static infeasibility at the bottom: dropped as hopeless.
        assert_eq!(
            q.admit_failure(t, w.clone(), &Rejection::NoFeasiblePlan),
            Disposition::Hopeless
        );
        // Transient overload at the bottom: still worth waiting.
        assert_eq!(q.admit_failure(t, w, &Rejection::AdmissionFailed), Disposition::Queued);
        assert_eq!(q.metrics().hopeless, 1);
    }

    #[test]
    fn patience_bounds_waiting() {
        let cfg = AdmissionConfig {
            base_backoff: SimDuration::from_secs(10),
            backoff_factor: 1.0,
            max_backoff: SimDuration::from_secs(10),
            patience: SimDuration::from_secs(25),
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        let t0 = SimTime::ZERO;
        let mut w = waiting(t0);
        // Retries at 10 s and 20 s fit inside 25 s of patience...
        for now in [t0, SimTime::from_secs(10)] {
            assert_eq!(q.admit_failure(now, w, &Rejection::AdmissionFailed), Disposition::Queued);
            w = q.pop_due(now + SimDuration::from_secs(10)).expect("due");
        }
        // ...but the next would land at 30 s: the client walks away.
        let now = SimTime::from_secs(20);
        assert_eq!(q.admit_failure(now, w, &Rejection::AdmissionFailed), Disposition::Abandoned);
        assert_eq!(q.metrics().abandoned_waiting, 1);
        assert_eq!(q.metrics().abandonment.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_sheds_load() {
        let cfg = AdmissionConfig { queue_capacity: 2, ..AdmissionConfig::default() };
        let mut q = AdmissionQueue::new(cfg);
        let t = SimTime::ZERO;
        assert_eq!(
            q.admit_failure(t, waiting(t), &Rejection::AdmissionFailed),
            Disposition::Queued
        );
        assert_eq!(
            q.admit_failure(t, waiting(t), &Rejection::AdmissionFailed),
            Disposition::Queued
        );
        assert_eq!(
            q.admit_failure(t, waiting(t), &Rejection::AdmissionFailed),
            Disposition::Overflow
        );
        assert_eq!(q.metrics().overflow, 1);
        assert_eq!(q.metrics().peak_waiting, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn finish_counts_pending() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        let t = SimTime::ZERO;
        q.admit_failure(t, waiting(t), &Rejection::AdmissionFailed);
        q.record_admitted(SimTime::from_secs(3), t);
        q.record_stream_abandoned(SimTime::from_secs(4));
        assert_eq!(q.finish(), (1, 0));
        let m = q.into_metrics();
        assert_eq!(m.pending_at_horizon, 1);
        assert_eq!(m.wait.count(), 1);
        assert_eq!(m.abandoned(), 1);
        assert!((m.wait.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn displaced_entries_back_off_and_degrade_without_queue_accounting() {
        let cfg = AdmissionConfig {
            base_backoff: SimDuration::from_secs(2),
            backoff_factor: 2.0,
            max_backoff: SimDuration::from_secs(32),
            patience: SimDuration::from_secs(1_000),
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        let crash = SimTime::from_secs(100);
        let floor = displaced(crash).query.qos.min_resolution;
        // Same backoff schedule as a fresh entry: 2 s, then 4 s.
        assert_eq!(
            q.admit_failure(crash, displaced(crash), &Rejection::AdmissionFailed),
            Disposition::Queued
        );
        assert_eq!(q.next_ready(), Some(crash + SimDuration::from_secs(2)));
        let due = crash + SimDuration::from_secs(2);
        let w = q.pop_due(due).expect("due now");
        assert_eq!(w.attempts, 2);
        assert_eq!(w.interrupted, Some(crash), "displacement marker survives the round trip");
        assert!(w.query.qos.min_resolution < floor, "ladder step still taken");
        assert_eq!(q.admit_failure(due, w, &Rejection::AdmissionFailed), Disposition::Queued);
        assert_eq!(q.next_ready(), Some(due + SimDuration::from_secs(4)));
        // ...but none of it shows up in the admission accounting.
        let m = q.metrics();
        assert_eq!(m.retries, 0);
        assert_eq!(m.degraded, 0);
    }

    #[test]
    fn displaced_drops_stay_out_of_rejection_metrics() {
        // Patience exhaustion: the disposition is terminal but the
        // abandonment counters (which decompose the rejected total) stay
        // untouched — the session was admitted once already.
        let cfg = AdmissionConfig {
            base_backoff: SimDuration::from_secs(10),
            backoff_factor: 1.0,
            max_backoff: SimDuration::from_secs(10),
            patience: SimDuration::from_secs(5),
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        let crash = SimTime::ZERO;
        assert_eq!(
            q.admit_failure(crash, displaced(crash), &Rejection::AdmissionFailed),
            Disposition::Abandoned
        );
        assert_eq!(q.metrics().abandoned_waiting, 0);
        assert_eq!(q.metrics().abandonment.len(), 0);
        // Overflow: same story.
        let cfg = AdmissionConfig { queue_capacity: 1, ..AdmissionConfig::default() };
        let mut q = AdmissionQueue::new(cfg);
        q.admit_failure(crash, waiting(crash), &Rejection::AdmissionFailed);
        assert_eq!(
            q.admit_failure(crash, displaced(crash), &Rejection::AdmissionFailed),
            Disposition::Overflow
        );
        assert_eq!(q.metrics().overflow, 0);
        // Hopeless at the ladder bottom: counted for fresh, not displaced.
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        let mut w = displaced(crash);
        while let Some(r) = q.cfg.profile.degrade_step(&w.query.qos) {
            w.query.qos = r;
        }
        assert_eq!(q.admit_failure(crash, w, &Rejection::NoFeasiblePlan), Disposition::Hopeless);
        assert_eq!(q.metrics().hopeless, 0);
    }

    #[test]
    fn finish_separates_displaced_pending_from_fresh() {
        let mut q = AdmissionQueue::new(AdmissionConfig::default());
        let t = SimTime::ZERO;
        q.admit_failure(t, waiting(t), &Rejection::AdmissionFailed);
        q.admit_failure(t, displaced(t), &Rejection::AdmissionFailed);
        q.admit_failure(t, displaced(t), &Rejection::AdmissionFailed);
        assert_eq!(q.finish(), (1, 2));
        assert_eq!(q.into_metrics().pending_at_horizon, 1);
    }

    #[test]
    fn brownout_sheds_by_class() {
        use crate::command::QopClass;
        assert_eq!(brownout_action(QopClass::Economy), BrownoutAction::Reject);
        assert_eq!(brownout_action(QopClass::Standard), BrownoutAction::DegradeThenReject);
        assert_eq!(brownout_action(QopClass::Premium), BrownoutAction::DegradeThenReject);
    }

    #[test]
    fn due_order_is_fifo_within_equal_ready_times() {
        let cfg = AdmissionConfig {
            base_backoff: SimDuration::from_secs(1),
            backoff_factor: 1.0,
            max_backoff: SimDuration::from_secs(1),
            ..AdmissionConfig::default()
        };
        let mut q = AdmissionQueue::new(cfg);
        let t = SimTime::ZERO;
        let mut a = waiting(t);
        a.query.video = VideoId(1);
        let mut b = waiting(t);
        b.query.video = VideoId(2);
        q.admit_failure(t, a, &Rejection::AdmissionFailed);
        q.admit_failure(t, b, &Rejection::AdmissionFailed);
        let due = SimTime::from_secs(1);
        assert_eq!(q.pop_due(due).unwrap().query.video, VideoId(1));
        assert_eq!(q.pop_due(due).unwrap().query.video, VideoId(2));
    }
}
