//! Shared-bandwidth resources: network links and disks.
//!
//! The paper's testbed bottleneck is each server's outbound link, with
//! 3200 KB/s of total streaming bandwidth. [`SharedLink`] models such a
//! resource as a fluid-flow server under one of two policies:
//!
//! * [`SharePolicy::FairShare`] — all backlogged flows split the capacity
//!   equally (processor sharing). This is the plain-VDBMS regime: with no
//!   admission control an oversubscribed link stretches every transfer.
//! * [`SharePolicy::Reserved`] — each flow transmits at its reserved rate,
//!   and opening a flow fails if the reservations would exceed capacity.
//!   This is the QoS-API regime.
//!
//! Like the CPU schedulers, the link is a passive incremental simulator:
//! submit transfers, query [`SharedLink::next_event`], advance, drain
//! completions. Each transfer carries its sender's tag `T` (a session id
//! for the fluid engine, a `(session, frame)` pair for the frame engine),
//! and its [`XferDone`] hands that tag back, so a caller needs no registry
//! of its own to learn whose transfer finished: the per-flow FIFO is the
//! only record of who owns what is in flight.
//!
//! # Layout
//!
//! Flow state lives in a struct-of-arrays arena (`slots` plus a free list)
//! instead of a `BTreeMap<FlowId, Flow>`: public [`FlowId`]s stay monotonic
//! (so ids are never reused and stale handles fail cleanly), and a dense
//! `slot_of` table maps them to reusable slots. Two small sorted index
//! vectors track the backlogged set incrementally — `active_by_id`
//! (ascending `FlowId`, the completion-scan and Reserved-allocation order)
//! and `wf` (ascending `(cap, FlowId)`, the water-filling order) — so the
//! fair-share allocation is rebuilt in one O(backlogged) pass with no
//! sorting and no scan over idle flows.
//!
//! # Step-invariant arithmetic
//!
//! A backlogged flow's front transfer is held as `(bytes at anchor,
//! anchor, rate, done_at)`, where `done_at = anchor + ceil(bytes / rate)`
//! rounded up to the microsecond. The allocation is recomputed eagerly
//! whenever the backlogged set, a cap or the capacity changes, and only a
//! flow whose rate changes bitwise is re-anchored (its bytes drained by
//! `old rate × (now − anchor)`). A flow's bytes therefore change only at
//! its own rate changes and completions, never because the link was
//! advanced: draining to `t` in one call or in many gives the same bits,
//! and a link's state does not depend on how often a caller steps it. A
//! front completes when its `done_at` is reached, so on a link whose
//! allocation never changes (every uncongested Reserved link) a transfer
//! completes at exactly `send + ceil(bytes / rate)` — the paper's fixed
//! streaming time. The link caches its earliest `done_at`:
//! [`SharedLink::next_event`] is a field read, and advancing a link with
//! nothing due only moves its clock.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Identifies an open flow (one streaming session's use of a link).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// A finished transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct XferDone<T> {
    /// Flow the transfer belonged to.
    pub flow: FlowId,
    /// The tag the sender gave the transfer.
    pub tag: T,
    /// Completion instant.
    pub at: SimTime,
}

/// Bandwidth-sharing discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharePolicy {
    /// Max-min fair sharing: backlogged flows split capacity equally, up
    /// to each flow's optional pacing cap (water-filling).
    FairShare,
    /// Reservation: each flow transmits at its own reserved rate; admission
    /// keeps the sum within capacity.
    Reserved,
}

/// Why a flow could not be opened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkError {
    /// Requested reservation exceeds the remaining capacity.
    Saturated {
        /// Requested rate in bytes/second.
        requested: u64,
        /// Remaining reservable rate in bytes/second.
        available: u64,
    },
    /// A reservation rate was required (Reserved policy) but not given, or
    /// given under FairShare.
    PolicyMismatch,
    /// The referenced flow is not open on this link — it was never opened
    /// here, or has already been closed (e.g. by a fault-injection path
    /// racing a caller that still holds the id).
    UnknownFlow(FlowId),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Saturated { requested, available } => write!(
                f,
                "link reservation refused: requested {requested} B/s exceeds available {available} B/s"
            ),
            LinkError::PolicyMismatch => {
                write!(f, "reservation rate required under Reserved policy and forbidden under FairShare")
            }
            LinkError::UnknownFlow(id) => {
                write!(f, "flow {} is not open on this link", id.0)
            }
        }
    }
}

impl std::error::Error for LinkError {}

/// Sentinel in `slot_of` for closed flows.
const NO_SLOT: u32 = u32::MAX;

/// `done_at` of an idle slot, and of a front that cannot finish (rate 0).
const NEVER: SimTime = SimTime::MAX;

#[derive(Debug)]
struct FlowSlot<T> {
    /// Public id of the flow currently occupying this slot.
    id: u64,
    /// Reserved rate (Reserved policy) or pacing cap (FairShare, 0 = no
    /// cap), in bytes/second.
    rate_bps: u64,
    /// FIFO of `(tag, bytes)`: the front's bytes as of `anchor`, the rest
    /// at full size. Kept allocated across slot reuse so steady-state churn
    /// does not touch the allocator.
    queue: VecDeque<(T, f64)>,
    /// Allocated rate in bytes/second (0 while idle).
    alloc: f64,
    /// When the front's bytes were last settled: its start, or the last
    /// change of `alloc`.
    anchor: SimTime,
    /// When the front completes at `alloc` (`NEVER` while idle).
    done_at: SimTime,
}

impl<T> FlowSlot<T> {
    /// Water-filling cap: 0 means unconstrained.
    fn cap(&self) -> f64 {
        if self.rate_bps == 0 {
            f64::INFINITY
        } else {
            self.rate_bps as f64
        }
    }

    /// The front's undelivered bytes at `now` (0 when idle).
    fn front_left(&self, now: SimTime) -> f64 {
        self.queue
            .front()
            .map_or(0.0, |&(_, b)| (b - self.alloc * (now - self.anchor).as_secs_f64()).max(0.0))
    }

    /// Sets `done_at` from the front's anchored bytes, rounded *up* to the
    /// next microsecond so the front has fully drained by its completion.
    fn schedule_front(&mut self) {
        self.done_at = match self.queue.front() {
            None => NEVER,
            Some(_) if self.alloc <= 0.0 => NEVER,
            Some(&(_, bytes)) => self
                .anchor
                .saturating_add(SimDuration::from_micros((bytes / self.alloc * 1e6).ceil() as u64)),
        };
    }

    /// Moves the flow to `rate` at `now`. Only a bitwise change settles the
    /// front's bytes and re-anchors it, so an unchanged rate leaves the
    /// flow's arithmetic untouched.
    fn set_alloc(&mut self, now: SimTime, rate: f64) {
        if rate.to_bits() == self.alloc.to_bits() {
            return;
        }
        let left = self.front_left(now);
        if let Some(front) = self.queue.front_mut() {
            front.1 = left;
        }
        self.anchor = now;
        self.alloc = rate;
        self.schedule_front();
    }
}

/// A fluid-flow shared bandwidth resource whose transfers carry tags of
/// type `T`.
#[derive(Debug)]
pub struct SharedLink<T> {
    capacity_bps: u64,
    policy: SharePolicy,
    now: SimTime,
    /// Flow arena; `free` lists reusable entries.
    slots: Vec<FlowSlot<T>>,
    free: Vec<u32>,
    /// Dense map from public flow id to slot (`NO_SLOT` once closed).
    slot_of: Vec<u32>,
    /// Backlogged slots in ascending public-id order: the completion-scan
    /// order and the Reserved allocation order.
    active_by_id: Vec<u32>,
    /// FairShare only: backlogged slots as `(cap, slot)` in ascending
    /// `(cap, FlowId)` order, the water-filling order.
    wf: Vec<(f64, u32)>,
    /// FairShare only: the sum of the caps in `wf` (uncapped flows count
    /// 0), which decides [`at_nominal_rates`](Self::at_nominal_rates).
    wf_caps: u64,
    reserved_total: u64,
    /// Sum of the nominal rates of all *open* flows (reserved rates under
    /// `Reserved`, pacing caps under `FairShare`; uncapped flows contribute
    /// nothing). This is the link's offered load — the congestion signal:
    /// backlog is useless for that purpose because fluid senders queue
    /// everything up front, but demand vs capacity says whether the
    /// water-filling allocation is squeezing flows below their caps.
    demand_bps: u64,
    completions: Vec<XferDone<T>>,
    next_flow: u64,
    /// Earliest `done_at` over the backlogged flows, kept current by every
    /// mutation.
    next_done: Option<SimTime>,
}

impl<T: Copy> SharedLink<T> {
    /// Creates a fair-share (processor-sharing) link.
    pub fn fair_share(capacity_bps: u64) -> Self {
        Self::new(capacity_bps, SharePolicy::FairShare)
    }

    /// Creates a reservation-based link.
    pub fn reserved(capacity_bps: u64) -> Self {
        Self::new(capacity_bps, SharePolicy::Reserved)
    }

    /// Creates a link under the given policy.
    pub fn new(capacity_bps: u64, policy: SharePolicy) -> Self {
        assert!(capacity_bps > 0, "link capacity must be positive");
        SharedLink {
            capacity_bps,
            policy,
            now: SimTime::ZERO,
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            active_by_id: Vec::new(),
            wf: Vec::new(),
            wf_caps: 0,
            reserved_total: 0,
            demand_bps: 0,
            completions: Vec::new(),
            next_flow: 0,
            next_done: None,
        }
    }

    /// Total capacity in bytes/second.
    pub fn capacity_bps(&self) -> u64 {
        self.capacity_bps
    }

    /// The sharing policy.
    pub fn policy(&self) -> SharePolicy {
        self.policy
    }

    /// Sum of reserved rates (0 under FairShare).
    pub fn reserved_bps(&self) -> u64 {
        self.reserved_total
    }

    /// Sum of the nominal rates of all open flows — the offered load in
    /// bytes/second. `demand_bps() > capacity_bps()` means the link cannot
    /// serve every flow at its nominal rate (congestion), regardless of
    /// policy. O(1): maintained on open/close.
    pub fn demand_bps(&self) -> u64 {
        self.demand_bps
    }

    /// Rate still reservable. Saturates at zero when a capacity cut (fault
    /// injection) dropped the link below its outstanding reservations.
    pub fn available_bps(&self) -> u64 {
        self.capacity_bps.saturating_sub(self.reserved_total)
    }

    /// Changes the link's capacity mid-run (fault injection: degradation
    /// when lowered, recovery when restored). Existing flows stay open —
    /// under `Reserved` the link may become temporarily oversubscribed, in
    /// which case nothing new is admitted until enough flows close; under
    /// `FairShare` the water-filling allocation simply tightens.
    pub fn set_capacity(&mut self, now: SimTime, capacity_bps: u64) {
        assert!(capacity_bps > 0, "link capacity must be positive");
        // Settle transfers at the old rates before the allocation changes.
        self.advance_to(now);
        if self.capacity_bps != capacity_bps {
            self.capacity_bps = capacity_bps;
            self.reallocate();
        }
    }

    /// Number of open flows.
    pub fn open_flows(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Number of flows with queued bytes. O(1): reads the maintained
    /// backlogged index.
    pub fn backlogged_flows(&self) -> usize {
        self.active_by_id.len()
    }

    /// Total bytes still queued across all flows. O(backlogged queue
    /// entries): walks only the backlogged index, in id-then-FIFO order —
    /// idle flows contribute no terms. Reads the anchored state without
    /// changing it.
    pub fn backlog_bytes(&self) -> f64 {
        self.active_by_id.iter().flat_map(|&s| self.queued(s, self.now)).sum()
    }

    /// A flow's queued bytes at `now`, front first.
    fn queued(&self, slot: u32, now: SimTime) -> impl Iterator<Item = f64> + '_ {
        let f = &self.slots[slot as usize];
        let front = f.front_left(now);
        f.queue.iter().enumerate().map(move |(i, &(_, b))| if i == 0 { front } else { b })
    }

    /// Looks up a flow's slot, if it is open.
    fn slot(&self, flow: FlowId) -> Option<u32> {
        match self.slot_of.get(flow.0 as usize) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// Inserts `slot` into the backlogged indexes (idle -> backlogged).
    fn mark_backlogged(&mut self, slot: u32) {
        let id = self.slots[slot as usize].id;
        let slots = &self.slots;
        let pos =
            self.active_by_id.binary_search_by(|&s| slots[s as usize].id.cmp(&id)).unwrap_err();
        self.active_by_id.insert(pos, slot);
        if self.policy == SharePolicy::FairShare {
            let cap = self.slots[slot as usize].cap();
            let pos = self
                .wf
                .binary_search_by(|&(c, s)| c.total_cmp(&cap).then(slots[s as usize].id.cmp(&id)))
                .unwrap_err();
            self.wf.insert(pos, (cap, slot));
            self.wf_caps += self.slots[slot as usize].rate_bps;
        }
    }

    /// Removes `slot` from the backlogged indexes (backlogged -> gone).
    fn unmark_backlogged(&mut self, slot: u32) {
        let id = self.slots[slot as usize].id;
        let slots = &self.slots;
        if let Ok(pos) = self.active_by_id.binary_search_by(|&s| slots[s as usize].id.cmp(&id)) {
            self.active_by_id.remove(pos);
        }
        self.remove_from_wf(slot);
    }

    /// Removes `slot` from the water-filling index (FairShare only).
    fn remove_from_wf(&mut self, slot: u32) {
        if self.policy != SharePolicy::FairShare {
            return;
        }
        let id = self.slots[slot as usize].id;
        let cap = self.slots[slot as usize].cap();
        let slots = &self.slots;
        if let Ok(pos) = self
            .wf
            .binary_search_by(|&(c, s)| c.total_cmp(&cap).then(slots[s as usize].id.cmp(&id)))
        {
            self.wf.remove(pos);
            self.wf_caps -= self.slots[slot as usize].rate_bps;
        }
    }

    /// Whether every backlogged flow runs at exactly its nominal rate, so
    /// that adding or removing one backlogged flow moves no other flow's
    /// rate. Always under `Reserved`. Under `FairShare`, when every
    /// backlogged flow is capped and the caps sum to at most the capacity:
    /// water-filling then gives each flow its cap, since the caps and the
    /// capacity are exact integers in `f64` (below 2^53) and rounding is
    /// monotone, so each equal share rounds to at least the cap it is
    /// compared with.
    fn at_nominal_rates(&self) -> bool {
        match self.policy {
            SharePolicy::Reserved => true,
            SharePolicy::FairShare => {
                self.wf.last().is_none_or(|&(cap, _)| cap.is_finite())
                    && self.wf_caps <= self.capacity_bps
                    && self.capacity_bps <= 1 << f64::MANTISSA_DIGITS
            }
        }
    }

    /// Moves the newly backlogged `slot` to its nominal rate while every
    /// other flow keeps its own (see
    /// [`at_nominal_rates`](Self::at_nominal_rates)), and folds its
    /// completion into the cached next one.
    fn start_at_nominal_rate(&mut self, slot: u32) {
        let f = &mut self.slots[slot as usize];
        f.set_alloc(self.now, f.rate_bps as f64);
        if f.done_at != NEVER {
            self.next_done = Some(self.next_done.map_or(f.done_at, |d| d.min(f.done_at)));
        }
    }

    /// Opens a flow. Under [`SharePolicy::Reserved`] a rate must be given
    /// and is admission-checked; under [`SharePolicy::FairShare`] an
    /// optional rate acts as a pacing cap (no admission check).
    pub fn open_flow(&mut self, now: SimTime, rate_bps: Option<u64>) -> Result<FlowId, LinkError> {
        self.advance_to(now);
        let (rate, reserved) = match (self.policy, rate_bps) {
            (SharePolicy::Reserved, Some(rate)) => {
                let available = self.available_bps();
                if rate > available {
                    return Err(LinkError::Saturated { requested: rate, available });
                }
                (rate, rate)
            }
            (SharePolicy::FairShare, cap) => (cap.unwrap_or(0), 0),
            (SharePolicy::Reserved, None) => return Err(LinkError::PolicyMismatch),
        };
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                let f = &mut self.slots[s as usize];
                f.id = id.0;
                f.rate_bps = rate;
                debug_assert!(f.queue.is_empty() && f.alloc == 0.0 && f.done_at == NEVER);
                s
            }
            None => {
                self.slots.push(FlowSlot {
                    id: id.0,
                    rate_bps: rate,
                    queue: VecDeque::new(),
                    alloc: 0.0,
                    anchor: SimTime::ZERO,
                    done_at: NEVER,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.slot_of.push(slot);
        debug_assert_eq!(self.slot_of.len() as u64, self.next_flow);
        self.reserved_total += reserved;
        self.demand_bps += rate;
        // A new flow opens idle: the backlogged set — and therefore the
        // allocation — is unchanged.
        Ok(id)
    }

    /// Closes a flow, discarding any queued transfers and releasing its
    /// reservation.
    pub fn close_flow(&mut self, now: SimTime, flow: FlowId) {
        self.advance_to(now);
        let Some(slot) = self.slot(flow) else { return };
        let backlogged = !self.slots[slot as usize].queue.is_empty();
        // Removing a flow keeps the others at their nominal rates.
        let others_keep_rates = self.at_nominal_rates();
        let held_next = self.next_done == Some(self.slots[slot as usize].done_at);
        if backlogged {
            self.unmark_backlogged(slot);
        }
        let f = &mut self.slots[slot as usize];
        if self.policy == SharePolicy::Reserved {
            self.reserved_total -= f.rate_bps;
        }
        self.demand_bps -= f.rate_bps;
        f.queue.clear();
        f.alloc = 0.0;
        f.done_at = NEVER;
        self.slot_of[flow.0 as usize] = NO_SLOT;
        self.free.push(slot);
        if backlogged && !others_keep_rates {
            self.reallocate();
        } else if backlogged && held_next {
            self.refresh_next_done();
        }
    }

    /// Queues `bytes` for transmission on `flow`; its completion carries
    /// `tag`. Fails with [`LinkError::UnknownFlow`] when the flow was never
    /// opened or has already been closed.
    pub fn send(
        &mut self,
        now: SimTime,
        flow: FlowId,
        bytes: u64,
        tag: T,
    ) -> Result<(), LinkError> {
        self.advance_to(now);
        let slot = self.slot(flow).ok_or(LinkError::UnknownFlow(flow))?;
        let f = &mut self.slots[slot as usize];
        let was_idle = f.queue.is_empty();
        f.queue.push_back((tag, bytes as f64));
        if was_idle {
            // Idle -> backlogged changes the active set; queueing behind an
            // existing transfer does not. An idle slot holds rate 0, so the
            // allocation anchors the new front at `now` as it moves it to
            // its share (a zero-byte front is then due at once). When the
            // flows stay at their nominal rates, only this one moves.
            self.mark_backlogged(slot);
            if self.at_nominal_rates() {
                self.start_at_nominal_rate(slot);
            } else {
                self.reallocate();
            }
        }
        Ok(())
    }

    /// Bytes still queued on one flow (0 for unknown/closed flows). This is
    /// what a failover path needs to resume a displaced transfer elsewhere.
    pub fn flow_backlog_bytes(&self, flow: FlowId) -> f64 {
        self.flow_backlog_bytes_at(flow, self.now)
    }

    /// [`flow_backlog_bytes`](Self::flow_backlog_bytes) as of `now`, for a
    /// caller whose clock runs ahead of a link it has not stepped (an
    /// instant before the link's own clock reads at that clock). With
    /// nothing due by `now`, stepping the link to `now` changes no bytes,
    /// so this has the same bits as stepping first and then reading.
    pub fn flow_backlog_bytes_at(&self, flow: FlowId, now: SimTime) -> f64 {
        self.slot(flow).map_or(0.0, |s| self.queued(s, now.max(self.now)).sum())
    }

    /// Instantaneous per-flow transmission rates for all backlogged flows,
    /// in ascending flow id.
    ///
    /// Under `Reserved`, each flow runs at its reserved rate. Under
    /// `FairShare`, rates are the max-min fair (water-filling) allocation
    /// of the capacity subject to each flow's pacing cap.
    pub fn current_rates(&self) -> Vec<(FlowId, f64)> {
        self.active_by_id
            .iter()
            .map(|&s| {
                let f = &self.slots[s as usize];
                (FlowId(f.id), f.alloc)
            })
            .collect()
    }

    /// Recomputes the allocation after the backlogged set, a cap or the
    /// capacity changed, in one pass over the maintained order —
    /// `active_by_id` for Reserved, `wf` (tight caps first) for
    /// water-filling — and refreshes the cached next completion.
    fn reallocate(&mut self) {
        let now = self.now;
        match self.policy {
            SharePolicy::Reserved => {
                for &s in &self.active_by_id {
                    let f = &mut self.slots[s as usize];
                    f.set_alloc(now, f.rate_bps as f64);
                }
            }
            SharePolicy::FairShare => {
                let mut remaining = self.capacity_bps as f64;
                // Once a cap exceeds the equal share, every later flow
                // (with a cap at least as large) gets that same share.
                let mut level: Option<f64> = None;
                let n = self.wf.len();
                for (i, &(cap, s)) in self.wf.iter().enumerate() {
                    let rate = match level {
                        Some(share) => share,
                        None => {
                            let share = (remaining / (n - i) as f64).max(0.0);
                            if cap <= share {
                                remaining = (remaining - cap).max(0.0);
                                cap
                            } else {
                                level = Some(share);
                                share
                            }
                        }
                    };
                    self.slots[s as usize].set_alloc(now, rate);
                }
            }
        }
        self.refresh_next_done();
    }

    fn refresh_next_done(&mut self) {
        let slots = &self.slots;
        self.next_done = self
            .active_by_id
            .iter()
            .map(|&s| slots[s as usize].done_at)
            .filter(|&d| d != NEVER)
            .min();
    }

    /// Earliest future transfer completion, or `None` when nothing is
    /// transmitting. O(1): the link keeps it current.
    pub fn next_event(&self) -> Option<SimTime> {
        self.next_done
    }

    /// Advances the fluid model to `t`. O(1) when nothing completes by
    /// `t`: the clock moves and no flow's state changes.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_to into the past");
        while let Some(at) = self.next_done.filter(|&at| at <= t) {
            self.complete_at(at);
        }
        self.now = t;
    }

    /// Pops every front due by `at` (the earliest `done_at`), scanning
    /// backlogged flows in id order and compacting the index in place. A
    /// flow moving on to its next queued transfer anchors it at `at` and
    /// keeps its rate; only a backlogged->idle transition reallocates, and
    /// not while every flow runs at its nominal rate.
    fn complete_at(&mut self, at: SimTime) {
        self.now = at;
        // Flows draining to idle keep the rest at their nominal rates.
        let others_keep_rates = self.at_nominal_rates();
        let mut drained_to_idle = false;
        let mut kept = 0;
        for i in 0..self.active_by_id.len() {
            let slot = self.active_by_id[i];
            let f = &mut self.slots[slot as usize];
            while f.done_at <= at {
                let (tag, _) = f.queue.pop_front().expect("a due flow has a front");
                self.completions.push(XferDone { flow: FlowId(f.id), tag, at });
                f.anchor = at;
                f.schedule_front();
            }
            if f.queue.is_empty() {
                f.alloc = 0.0;
                drained_to_idle = true;
                self.remove_from_wf(slot);
            } else {
                self.active_by_id[kept] = slot;
                kept += 1;
            }
        }
        self.active_by_id.truncate(kept);
        if drained_to_idle && !others_keep_rates {
            self.reallocate();
        } else {
            self.refresh_next_done();
        }
    }

    /// Number of completions recorded but not yet drained. Drivers must
    /// check this when scheduling wakes: internal advances (inside `send`,
    /// `open_flow`, `close_flow`) can buffer completions while leaving the
    /// link idle, so `next_event()` alone under-reports pending work.
    pub fn pending_completions(&self) -> usize {
        self.completions.len()
    }

    /// Removes and returns completions recorded so far.
    pub fn drain_completions(&mut self) -> Vec<XferDone<T>> {
        std::mem::take(&mut self.completions)
    }

    /// Appends completions recorded so far onto `out` without giving up the
    /// internal buffer — the allocation-free batching path for per-server
    /// merge loops.
    pub fn drain_completions_into(&mut self, out: &mut Vec<XferDone<T>>) {
        out.append(&mut self.completions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_idle<T: Copy>(link: &mut SharedLink<T>, horizon: SimTime) -> Vec<XferDone<T>> {
        let mut done = Vec::new();
        loop {
            match link.next_event() {
                Some(t) if t <= horizon => {
                    link.advance_to(t);
                    done.extend(link.drain_completions());
                }
                _ => {
                    link.advance_to(horizon);
                    done.extend(link.drain_completions());
                    return done;
                }
            }
        }
    }

    const KB: u64 = 1_000;

    /// A link whose transfers carry no tag.
    type Link = SharedLink<()>;

    #[test]
    fn reserved_flow_transmits_at_its_rate() {
        let mut link = Link::reserved(3200 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        link.send(SimTime::ZERO, f, 50 * KB, ()).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        // 50 KB at 100 KB/s = 0.5 s.
        let at = done[0].at.as_micros();
        assert!((499_000..=501_000).contains(&at), "{at}");
    }

    #[test]
    fn reserved_flows_do_not_interfere() {
        let mut link = Link::reserved(3200 * KB);
        let a = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        let b = link.open_flow(SimTime::ZERO, Some(200 * KB)).unwrap();
        link.send(SimTime::ZERO, a, 100 * KB, ()).unwrap();
        link.send(SimTime::ZERO, b, 100 * KB, ()).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        let t_a = done.iter().find(|d| d.flow == a).unwrap().at.as_secs_f64();
        let t_b = done.iter().find(|d| d.flow == b).unwrap().at.as_secs_f64();
        assert!((t_a - 1.0).abs() < 1e-3);
        assert!((t_b - 0.5).abs() < 1e-3);
    }

    #[test]
    fn demand_tracks_open_flow_rates() {
        let mut link = Link::fair_share(300 * KB);
        assert_eq!(link.demand_bps(), 0);
        let a = link.open_flow(SimTime::ZERO, Some(200 * KB)).unwrap();
        let b = link.open_flow(SimTime::ZERO, Some(150 * KB)).unwrap();
        // Demand exceeds capacity regardless of queued bytes: it is the
        // offered load, not the backlog.
        assert_eq!(link.demand_bps(), 350 * KB);
        assert!(link.demand_bps() > link.capacity_bps());
        link.close_flow(SimTime::ZERO, a);
        assert_eq!(link.demand_bps(), 150 * KB);
        // Uncapped fair-share flows offer no measurable demand.
        let c = link.open_flow(SimTime::ZERO, None).unwrap();
        assert_eq!(link.demand_bps(), 150 * KB);
        link.close_flow(SimTime::ZERO, b);
        link.close_flow(SimTime::ZERO, c);
        assert_eq!(link.demand_bps(), 0);
    }

    #[test]
    fn reservation_admission_control() {
        let mut link = Link::reserved(1000 * KB);
        link.open_flow(SimTime::ZERO, Some(800 * KB)).unwrap();
        let err = link.open_flow(SimTime::ZERO, Some(300 * KB)).unwrap_err();
        assert_eq!(err, LinkError::Saturated { requested: 300 * KB, available: 200 * KB });
        assert_eq!(link.available_bps(), 200 * KB);
    }

    #[test]
    fn closing_a_flow_releases_its_reservation() {
        let mut link = Link::reserved(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(800 * KB)).unwrap();
        link.close_flow(SimTime::from_secs(1), f);
        assert_eq!(link.available_bps(), 1000 * KB);
        link.open_flow(SimTime::from_secs(1), Some(1000 * KB)).unwrap();
    }

    #[test]
    fn fair_share_splits_capacity() {
        let mut link = Link::fair_share(1000 * KB);
        let a = link.open_flow(SimTime::ZERO, None).unwrap();
        let b = link.open_flow(SimTime::ZERO, None).unwrap();
        link.send(SimTime::ZERO, a, 500 * KB, ()).unwrap();
        link.send(SimTime::ZERO, b, 500 * KB, ()).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        // Both get 500 KB/s -> both finish at ~1 s.
        for d in &done {
            assert!((d.at.as_secs_f64() - 1.0).abs() < 1e-3, "{}", d.at);
        }
    }

    #[test]
    fn fair_share_speeds_up_when_a_flow_drains() {
        let mut link = Link::fair_share(1000 * KB);
        let a = link.open_flow(SimTime::ZERO, None).unwrap();
        let b = link.open_flow(SimTime::ZERO, None).unwrap();
        link.send(SimTime::ZERO, a, 250 * KB, ()).unwrap();
        link.send(SimTime::ZERO, b, 750 * KB, ()).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        let t_a = done.iter().find(|d| d.flow == a).unwrap().at.as_secs_f64();
        let t_b = done.iter().find(|d| d.flow == b).unwrap().at.as_secs_f64();
        // a: 250 KB at 500 KB/s = 0.5 s. b: 250 KB by then, 500 KB left at
        // full rate -> 0.5 + 0.5 = 1.0 s.
        assert!((t_a - 0.5).abs() < 1e-3, "{t_a}");
        assert!((t_b - 1.0).abs() < 1e-3, "{t_b}");
    }

    #[test]
    fn fair_share_oversubscription_stretches_transfers() {
        // The plain-VDBMS failure mode: 10 concurrent 100 KB/s-worth
        // streams on a link sized for 5.
        let mut link = Link::fair_share(500 * KB);
        let flows: Vec<FlowId> =
            (0..10).map(|_| link.open_flow(SimTime::ZERO, None).unwrap()).collect();
        for &f in &flows {
            link.send(SimTime::ZERO, f, 100 * KB, ()).unwrap();
        }
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        // Each flow gets 50 KB/s -> 2 s instead of the nominal 1 s.
        for d in &done {
            assert!((d.at.as_secs_f64() - 2.0).abs() < 1e-2);
        }
    }

    #[test]
    fn per_flow_fifo_order() {
        let mut link = SharedLink::reserved(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        link.send(SimTime::ZERO, f, 10 * KB, 1).unwrap();
        link.send(SimTime::ZERO, f, 10 * KB, 2).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        assert_eq!(done[0].tag, 1);
        assert_eq!(done[1].tag, 2);
        assert!(done[0].at < done[1].at);
    }

    #[test]
    fn policy_mismatch_errors() {
        let mut res = Link::reserved(KB);
        assert_eq!(res.open_flow(SimTime::ZERO, None).unwrap_err(), LinkError::PolicyMismatch);
    }

    #[test]
    fn fair_share_pacing_cap_limits_lone_flow() {
        // A paced streaming flow alone on the link transmits at its
        // bitrate, not the full capacity.
        let mut link = Link::fair_share(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        link.send(SimTime::ZERO, f, 100 * KB, ()).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        assert!((done[0].at.as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn water_filling_redistributes_capped_slack() {
        // Cap 100 KB/s + uncapped flow on a 1000 KB/s link: the uncapped
        // flow gets 900 KB/s, not 500.
        let mut link = Link::fair_share(1000 * KB);
        let capped = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        let free = link.open_flow(SimTime::ZERO, None).unwrap();
        link.send(SimTime::ZERO, capped, 1000 * KB, ()).unwrap();
        link.send(SimTime::ZERO, free, 900 * KB, ()).unwrap();
        let rates = link.current_rates();
        let rate_of = |id| rates.iter().find(|&&(f, _)| f == id).map(|&(_, r)| r).unwrap();
        assert!((rate_of(capped) - 100_000.0).abs() < 1e-6);
        assert!((rate_of(free) - 900_000.0).abs() < 1e-6);
    }

    #[test]
    fn oversubscribed_caps_fall_back_to_equal_share() {
        // Ten 100 KB/s-capped flows on a 500 KB/s link: each gets 50 KB/s.
        let mut link = Link::fair_share(500 * KB);
        let flows: Vec<FlowId> =
            (0..10).map(|_| link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap()).collect();
        for &f in &flows {
            link.send(SimTime::ZERO, f, KB, ()).unwrap();
        }
        for (_, r) in link.current_rates() {
            assert!((r - 50_000.0).abs() < 1e-6, "rate {r}");
        }
    }

    /// A from-scratch allocation: the backlogged flows sorted by
    /// `(cap, id)` and water-filled, reported in ascending flow id.
    fn fresh_rates<T>(link: &SharedLink<T>) -> Vec<(FlowId, f64)> {
        let mut flows: Vec<&FlowSlot<T>> =
            link.active_by_id.iter().map(|&s| &link.slots[s as usize]).collect();
        if link.policy == SharePolicy::Reserved {
            return flows.iter().map(|f| (FlowId(f.id), f.rate_bps as f64)).collect();
        }
        flows.sort_by(|a, b| a.cap().total_cmp(&b.cap()).then(a.id.cmp(&b.id)));
        let mut remaining = link.capacity_bps as f64;
        let mut rates = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            let share = (remaining / (flows.len() - i) as f64).max(0.0);
            if f.cap() <= share {
                rates.push((FlowId(f.id), f.cap()));
                remaining = (remaining - f.cap()).max(0.0);
            } else {
                rates.extend(flows[i..].iter().map(|g| (FlowId(g.id), share)));
                break;
            }
        }
        rates.sort_by_key(|r| r.0);
        rates
    }

    #[test]
    fn eager_rates_match_fresh_water_fill() {
        // After every mutation the eagerly maintained per-flow rates must
        // equal a from-scratch water-filling pass.
        let mut link = Link::fair_share(1000 * KB);
        let check = |link: &SharedLink<()>| {
            assert_eq!(link.current_rates(), fresh_rates(link), "stale allocation");
        };
        let a = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        let b = link.open_flow(SimTime::ZERO, None).unwrap();
        check(&link);
        link.send(SimTime::ZERO, a, 50 * KB, ()).unwrap();
        link.send(SimTime::ZERO, a, 50 * KB, ()).unwrap(); // queued behind — same set
        link.send(SimTime::ZERO, b, 200 * KB, ()).unwrap();
        check(&link);
        link.advance_to(SimTime::from_millis(100));
        check(&link);
        link.set_capacity(SimTime::from_millis(150), 800 * KB);
        check(&link);
        // Drive b idle (900 KB/s drains 200 KB well before 1 s), then past
        // a's queue too.
        link.advance_to(SimTime::from_secs(1));
        check(&link);
        link.advance_to(SimTime::from_secs(5));
        check(&link);
        assert_eq!(link.backlog_bytes(), 0.0);
        link.close_flow(SimTime::from_secs(5), a);
        check(&link);
        assert_eq!(link.drain_completions().len(), 3);
    }

    #[test]
    fn idle_link_reports_no_events() {
        let mut link = Link::fair_share(KB);
        assert_eq!(link.next_event(), None);
        link.advance_to(SimTime::from_secs(100));
        assert_eq!(link.backlog_bytes(), 0.0);
    }

    #[test]
    fn close_flow_discards_queue() {
        let mut link = Link::reserved(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(10 * KB)).unwrap();
        link.send(SimTime::ZERO, f, 1000 * KB, ()).unwrap();
        link.close_flow(SimTime::from_millis(1), f);
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        assert!(done.is_empty());
        assert_eq!(link.open_flows(), 0);
    }

    #[test]
    fn send_on_closed_flow_is_a_typed_error() {
        let mut link = Link::fair_share(KB);
        let f = link.open_flow(SimTime::ZERO, None).unwrap();
        link.close_flow(SimTime::ZERO, f);
        assert_eq!(link.send(SimTime::ZERO, f, KB, ()).unwrap_err(), LinkError::UnknownFlow(f));
        assert_eq!(
            link.send(SimTime::ZERO, FlowId(99), KB, ()).unwrap_err(),
            LinkError::UnknownFlow(FlowId(99))
        );
    }

    #[test]
    fn flow_backlog_tracks_remaining_bytes() {
        let mut link = Link::reserved(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        link.send(SimTime::ZERO, f, 100 * KB, ()).unwrap();
        assert_eq!(link.flow_backlog_bytes(f), 100_000.0);
        link.advance_to(SimTime::from_millis(500));
        assert!((link.flow_backlog_bytes(f) - 50_000.0).abs() < 1.0);
        assert_eq!(link.flow_backlog_bytes(FlowId(42)), 0.0);
    }

    #[test]
    fn flow_backlog_at_reads_a_lagging_link_at_the_callers_clock() {
        let mut link = Link::reserved(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        link.send(SimTime::ZERO, f, 100 * KB, ()).unwrap();
        let ahead = link.flow_backlog_bytes_at(f, SimTime::from_millis(500));
        assert!((ahead - 50_000.0).abs() < 1.0, "{ahead}");
        link.advance_to(SimTime::from_millis(500));
        assert_eq!(link.flow_backlog_bytes(f).to_bits(), ahead.to_bits());
        // An instant behind the link's own clock reads at that clock.
        let behind = link.flow_backlog_bytes_at(f, SimTime::from_millis(100));
        assert_eq!(behind.to_bits(), ahead.to_bits());
    }

    #[test]
    fn capacity_cut_stretches_and_recovery_restores() {
        // 100 KB on a 100 KB/s lone fair-share flow; halve the link at
        // t=0.5 s, restore at t=0.75 s. First half: 50 KB at full rate.
        // Quarter second at 50 KB/s: 12.5 KB. Remaining 37.5 KB at full
        // rate: done at 0.75 + 0.375 = 1.125 s.
        let mut link = Link::fair_share(100 * KB);
        let f = link.open_flow(SimTime::ZERO, None).unwrap();
        link.send(SimTime::ZERO, f, 100 * KB, ()).unwrap();
        link.set_capacity(SimTime::from_millis(500), 50 * KB);
        link.set_capacity(SimTime::from_millis(750), 100 * KB);
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        assert!((done[0].at.as_secs_f64() - 1.125).abs() < 1e-3, "{}", done[0].at);
        // The allocation followed both edges.
        assert_eq!(link.current_rates(), fresh_rates(&link));
    }

    #[test]
    fn capacity_cut_below_reservations_saturates_available() {
        let mut link = Link::reserved(1000 * KB);
        link.open_flow(SimTime::ZERO, Some(800 * KB)).unwrap();
        link.set_capacity(SimTime::ZERO, 500 * KB);
        assert_eq!(link.available_bps(), 0);
        assert!(link.open_flow(SimTime::ZERO, Some(KB)).is_err());
        link.set_capacity(SimTime::ZERO, 1000 * KB);
        assert_eq!(link.available_bps(), 200 * KB);
    }

    #[test]
    fn late_send_measured_from_submission() {
        let mut link = Link::reserved(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, Some(100 * KB)).unwrap();
        link.send(SimTime::from_secs(5), f, 100 * KB, ()).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        assert!((done[0].at.as_secs_f64() - 6.0).abs() < 1e-3);
    }

    #[test]
    fn backlog_counters_track_transitions() {
        let mut link = Link::fair_share(1000 * KB);
        assert_eq!(link.backlogged_flows(), 0);
        let a = link.open_flow(SimTime::ZERO, None).unwrap();
        let b = link.open_flow(SimTime::ZERO, None).unwrap();
        assert_eq!((link.open_flows(), link.backlogged_flows()), (2, 0));
        link.send(SimTime::ZERO, a, 100 * KB, ()).unwrap();
        link.send(SimTime::ZERO, a, 100 * KB, ()).unwrap();
        link.send(SimTime::ZERO, b, 50 * KB, ()).unwrap();
        assert_eq!(link.backlogged_flows(), 2);
        assert_eq!(link.backlog_bytes(), 250_000.0);
        // b (500 KB/s share) drains at 0.1 s; a still has its second xfer.
        link.advance_to(SimTime::from_millis(200));
        assert_eq!(link.backlogged_flows(), 1);
        link.close_flow(SimTime::from_millis(200), a);
        assert_eq!((link.open_flows(), link.backlogged_flows()), (1, 0));
        assert_eq!(link.backlog_bytes(), 0.0);
    }

    #[test]
    fn slot_reuse_keeps_public_ids_distinct() {
        let mut link = Link::fair_share(1000 * KB);
        let a = link.open_flow(SimTime::ZERO, None).unwrap();
        link.send(SimTime::ZERO, a, 10 * KB, ()).unwrap();
        link.close_flow(SimTime::ZERO, a);
        // The new flow reuses a's arena slot but gets a fresh public id;
        // a's id stays dead.
        let b = link.open_flow(SimTime::ZERO, None).unwrap();
        assert_ne!(a, b);
        assert_eq!(link.send(SimTime::ZERO, a, KB, ()).unwrap_err(), LinkError::UnknownFlow(a));
        link.send(SimTime::ZERO, b, 10 * KB, ()).unwrap();
        let done = run_until_idle(&mut link, SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].flow, b);
    }

    #[test]
    fn zero_byte_send_completes_at_next_advance() {
        let mut link = SharedLink::fair_share(1000 * KB);
        let f = link.open_flow(SimTime::ZERO, None).unwrap();
        link.send(SimTime::ZERO, f, 0, 7).unwrap();
        assert_eq!(link.next_event(), Some(SimTime::ZERO));
        link.advance_to(SimTime::ZERO);
        let done = link.drain_completions();
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].tag, done[0].at), (7, SimTime::ZERO));
        assert_eq!(link.backlogged_flows(), 0);
    }

    /// Every slot's `(alloc bits, anchor, done_at, front bytes bits)` and
    /// the cached next completion.
    type Snapshot = (Vec<(u64, SimTime, SimTime, u64)>, Option<SimTime>);

    fn snapshot<T>(link: &SharedLink<T>) -> Snapshot {
        let slots = link.slots.iter().map(|f| {
            let front = f.queue.front().map_or(0, |&(_, b)| b.to_bits());
            (f.alloc.to_bits(), f.anchor, f.done_at, front)
        });
        (slots.collect(), link.next_done)
    }

    #[test]
    fn nominal_rate_shortcut_leaves_what_reallocation_would() {
        // `send`, `close_flow` and drain-to-idle move only the touched flow
        // while every flow runs at its nominal rate. After each op a full
        // reallocation must change nothing: no rate, anchor, completion or
        // cached next event. Caps of 60..420 KB/s on a 1000 KB/s link keep
        // the cap sum crossing the capacity both ways.
        let (mut nominal, mut squeezed) = (0, 0);
        for seed in 0..40u64 {
            let reserved = seed % 2 == 1;
            let mut rng = crate::Rng::new(seed);
            let mut link =
                if reserved { Link::reserved(1000 * KB) } else { Link::fair_share(1000 * KB) };
            let mut flows = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..300 {
                match rng.below(6) {
                    0 => {
                        let cap = match rng.below(8) {
                            0 if !reserved => None,
                            r => Some(r.max(1) * 60 * KB),
                        };
                        flows.extend(link.open_flow(now, cap).ok());
                    }
                    1 if !flows.is_empty() => {
                        let flow = flows.swap_remove(rng.index(flows.len()));
                        link.close_flow(now, flow);
                    }
                    2 | 3 if !flows.is_empty() => {
                        let flow = flows[rng.index(flows.len())];
                        if !reserved && link.backlogged_flows() > 0 {
                            if link.at_nominal_rates() {
                                nominal += 1;
                            } else {
                                squeezed += 1;
                            }
                        }
                        link.send(now, flow, rng.range_u64(1, 200) * KB, ()).unwrap();
                    }
                    _ => {
                        now += SimDuration::from_millis(rng.below(500));
                        link.advance_to(now);
                    }
                }
                let before = snapshot(&link);
                link.reallocate();
                assert_eq!(snapshot(&link), before, "seed {seed}");
            }
        }
        assert!(nominal > 0 && squeezed > 0, "nominal {nominal}, squeezed {squeezed}");
    }
}
