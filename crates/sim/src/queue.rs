//! The discrete-event queue at the heart of the simulator.
//!
//! [`EventQueue`] is generic over the event payload so each experiment
//! driver can define its own event enum. Ordering is total and
//! deterministic: events fire in `(time, sequence-number)` order, where the
//! sequence number records insertion order. Cancellation is supported via
//! the [`EventId`] returned by [`EventQueue::schedule`]; cancelled entries
//! are dropped lazily when they surface.
//!
//! Internally the queue is one `BinaryHeap` keyed on `(time, seq)`, plus
//! two sets: `live` (scheduled, neither fired nor cancelled) and
//! `cancelled` (tombstones not yet reaped). Every caller stores at most a
//! few dozen entries at once, where a heap's `log` factor is a handful of
//! comparisons.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Identifies a scheduled event so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic priority queue of timed events.
pub struct EventQueue<E> {
    /// Every stored entry, earliest `(time, seq)` on top, including
    /// unreaped tombstones.
    heap: BinaryHeap<Entry<E>>,
    /// Sequence numbers scheduled but not yet fired or cancelled. Needed so
    /// `cancel` can tell a live event from one that already fired: blindly
    /// tombstoning an already-fired seq would leave it in `cancelled`
    /// forever (nothing stored ever matches it again).
    live: HashSet<u64>,
    /// Tombstones for cancelled-but-unreaped entries.
    cancelled: HashSet<u64>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }

    /// Current simulated time: the firing time of the most recently popped
    /// event (zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past would silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past ({at} < now {now})",
            now = self.now
        );
        let id = self.seq;
        self.seq += 1;
        self.live.insert(id);
        self.heap.push(Entry { time: at, seq: id, payload });
        EventId(id)
    }

    /// Schedules `payload` to fire `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, payload: E) -> EventId {
        self.schedule(self.now + after, payload)
    }

    /// Cancels a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op (and leaves no tombstone behind).
    pub fn cancel(&mut self, id: EventId) {
        if self.live.remove(&id.0) {
            self.cancelled.insert(id.0);
        }
    }

    /// Removes and returns the next event, advancing the clock to its firing
    /// time. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.seq) {
                continue;
            }
            self.live.remove(&entry.seq);
            debug_assert!(entry.time >= self.now, "event queue time went backwards");
            self.now = entry.time;
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The firing time of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(entry) = self.heap.peek() {
            if !self.cancelled.remove(&entry.seq) {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Number of scheduled (possibly including cancelled-but-unreaped)
    /// entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Number of live (scheduled, neither fired nor cancelled) events. Unlike
    /// [`len`](Self::len) this never counts tombstones.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// True when no live or stale entries remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_secs(3));
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "first");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(7));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert!(q.pop().is_some());
        q.cancel(a);
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn peek_then_schedule_behind_the_peek_stays_ordered() {
        // A schedule between `now` and an already-peeked event must still
        // fire first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(62), "pop-me");
        q.schedule(SimTime::from_micros(130), "far");
        assert_eq!(q.pop().map(|(_, e)| e), Some("pop-me"));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(130)));
        q.schedule(SimTime::from_micros(70), "near");
        q.schedule(SimTime::from_micros(135), "farther");
        assert_eq!(q.pop(), Some((SimTime::from_micros(70), "near")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(130), "far")));
        assert_eq!(q.pop(), Some((SimTime::from_micros(135), "farther")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_fire_in_order() {
        // Times spanning the whole `u64` microsecond range.
        let mut q = EventQueue::new();
        let times = [1u64, 63, 64, 65, 4096, 262144, 1 << 40, u64::MAX / 2, u64::MAX - 1];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_micros())).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "x");
        q.pop();
        q.schedule(SimTime::from_secs(1), "y");
    }

    #[test]
    fn cancel_after_fire_leaves_no_tombstone() {
        // Regression: cancelling an already-fired event used to park its seq
        // in the tombstone set forever, because no stored entry could ever
        // match it again.
        let mut q = EventQueue::new();
        for _ in 0..100 {
            let id = q.schedule_in(SimDuration::from_secs(1), "ev");
            assert_eq!(q.live_len(), 1);
            q.pop();
            q.cancel(id); // fired already — must not leak
        }
        assert_eq!(q.len(), 0, "no stale entries may accumulate");
        assert_eq!(q.live_len(), 0);
        assert_eq!(q.cancelled.len(), 0, "tombstone set must stay empty");
    }

    #[test]
    fn cancelled_entries_are_reaped_lazily() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        let b = q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(3), "c");
        q.cancel(b);
        q.cancel(a);
        assert_eq!(q.live_len(), 1);
        // Tombstones drop when they surface: after draining, nothing stale
        // remains anywhere.
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
        assert_eq!(q.cancelled.len(), 0);
    }

    #[test]
    fn double_cancel_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.live_len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        assert!(q.pop().is_none());
        assert_eq!(q.cancelled.len(), 0);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn schedule_at_now_after_pop_fires() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "a");
        q.pop();
        q.schedule(SimTime::from_micros(100), "b");
        assert_eq!(q.pop(), Some((SimTime::from_micros(100), "b")));
    }

    #[test]
    fn colliding_times_fire_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for i in 0..40u64 {
            // 40 events over 23 distinct times, so most times repeat.
            let t = (i * 37) % 23 + 1;
            q.schedule(SimTime::from_micros(t), i);
            expected.push((t, i));
        }
        expected.sort_unstable();
        let got: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn interleaved_trace_with_cancels_fires_survivors_in_order() {
        // A quick inline check; the randomized version against a linear-scan
        // model lives in tests/proptests.rs.
        let mut q = EventQueue::new();
        let times = [5u64, 5, 3, 700, 700, 64, 65, 1_000_000, 12, 13];
        let ids: Vec<EventId> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_micros(t), i))
            .collect();
        q.cancel(ids[1]);
        q.cancel(ids[3]);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(3)));
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_micros(), e))).collect();
        assert_eq!(
            got,
            vec![(3, 2), (5, 0), (12, 8), (13, 9), (64, 5), (65, 6), (700, 4), (1_000_000, 7)]
        );
        assert_eq!(q.now(), SimTime::from_micros(1_000_000));
        assert_eq!(q.cancelled.len(), 0);
    }
}
