//! Fluid session model for throughput-scale experiments.
//!
//! The Fig 6/7 experiments run thousands of sessions for thousands of
//! simulated seconds; frame-level fidelity is unnecessary there because
//! the measured quantities (outstanding sessions, completions per minute,
//! rejects) are governed by bandwidth occupancy, not per-frame jitter. A
//! [`FluidEngine`] models each session as one paced byte transfer on the
//! serving node's outbound link:
//!
//! * Reserved links (QuaSAQ / QoS-API): the session transmits at its
//!   reserved rate, so it completes at exactly `start + bytes/rate`
//!   rounded up to the microsecond — the fixed streaming time the paper
//!   notes.
//! * Fair-share links (plain VDBMS): the session is paced at its bitrate
//!   but squeezed when the link oversubscribes, so "it took much longer
//!   time to finish each job" — the plain-VDBMS signature of Fig 6.
//!
//! The engine holds one [`SharedLink`] per server, each transfer tagged
//! with its session's id, and indexes the links by their next completion:
//! an ordered set of `(next completion, link)` holds every link with a
//! transfer due, and each link's current key is kept beside it.
//! [`FluidEngine::next_event`] reads the set's head, and advancing to `t`
//! steps only the links keyed at or before `t` (plus any holding buffered
//! completions), in `ServerId` order, merging each one's completions on
//! the spot — which fixes the `(time, seq)` event order every result
//! depends on. Every call that changes a link re-keys that one link.
//! Skipping the idle links is exact because a link is step-invariant (see
//! [`quasaq_sim::link`]): stepping a link with nothing due only moves its
//! clock, and how often it is stepped never changes its bytes. So an event
//! costs work on the servers whose transfers complete plus a logarithmic
//! index update, not a pass over the cluster, and a session's arithmetic
//! does not depend on what other servers are doing.
//!
//! Each server also keeps the list of sessions *registered* on it, in no
//! particular order; each session stores its position there, so adding,
//! completing and forgetting one is O(1) (a push or a swap-remove). A
//! session is registered from [`FluidEngine::add_session`] until its
//! completion is merged, it is forgotten, or its server crashes — so a
//! cancelled session stays registered until
//! [`FluidEngine::forget_session`] or a crash. The per-server reads
//! (`active_on`, `sessions_on`, `fail_server`) walk that one list.
//!
//! The engine is passive (`next_event`/`advance_to`/`drain_completions`)
//! so the experiment driver owns the master event loop.

use quasaq_sim::link::{LinkError, SharePolicy, XferDone};
use quasaq_sim::{FlowId, ServerId, SharedLink, SimDuration, SimTime};
use std::collections::BTreeSet;

/// Identifies a fluid session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FluidSessionId(pub usize);

/// A finished fluid session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FluidDone {
    /// The session.
    pub id: FluidSessionId,
    /// Its serving node.
    pub server: ServerId,
    /// Completion instant.
    pub at: SimTime,
}

struct FluidSession {
    server: ServerId,
    flow: FlowId,
    done: bool,
    /// Index in its server's registration list (`UNREGISTERED` once out).
    pos: u32,
}

/// `FluidSession::pos` of a session no longer registered on its server.
const UNREGISTERED: u32 = u32::MAX;

/// Drops `id` from its server's registration list `list` if it is still
/// there: a swap-remove, re-pointing the session moved into its place.
fn unregister(sessions: &mut [FluidSession], list: &mut Vec<FluidSessionId>, id: FluidSessionId) {
    let pos = std::mem::replace(&mut sessions[id.0].pos, UNREGISTERED);
    if pos == UNREGISTERED {
        return;
    }
    list.swap_remove(pos as usize);
    if let Some(&moved) = list.get(pos as usize) {
        sessions[moved.0].pos = pos;
    }
}

/// Watermarks for per-link congestion detection, applied to the offered
/// load ratio `demand_bps / capacity_bps` with hysteresis in both level
/// (distinct high/low thresholds) and time (a sustain dwell before either
/// edge fires), so transient blips emit nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionConfig {
    /// Ratio at or above which the link starts ramping toward congested.
    pub high_ratio: f64,
    /// Ratio at or below which a congested link starts ramping toward
    /// clear. Must be below `high_ratio`.
    pub low_ratio: f64,
    /// How long a crossing must be sustained before the edge fires.
    pub dwell: SimDuration,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig { high_ratio: 1.1, low_ratio: 0.9, dwell: SimDuration::from_secs(5) }
    }
}

/// Which way a link crossed the congestion watermark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionEdge {
    /// Offered load held at or above the high watermark for the dwell.
    Onset,
    /// Offered load held at or below the low watermark for the dwell.
    Cleared,
}

/// A sustained watermark crossing on one server's outbound link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionEvent {
    /// The server whose link crossed.
    pub server: ServerId,
    /// Which way.
    pub edge: CongestionEdge,
    /// When the dwell elapsed (the feedback instant).
    pub at: SimTime,
}

/// Per-link hysteresis state. `Congested` and `RampDown` both count as
/// congested — the link stays flagged until `Cleared` actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CongState {
    Clear,
    RampUp { since: SimTime },
    Congested,
    RampDown { since: SimTime },
}

struct CongestionWatch {
    cfg: CongestionConfig,
    /// Parallel to `FluidEngine::links`.
    states: Vec<CongState>,
    /// Servers currently flagged congested (`Congested` or `RampDown`).
    congested: usize,
}

/// Sentinel in the dense server index for servers this engine doesn't own.
const NO_LINK: u32 = u32::MAX;

/// Byte-level session engine over per-server outbound links.
///
/// Only the links with a completion due are stepped, so an idle link's
/// own clock lags the engine's: it catches up, exactly, the next time a
/// call touches that link. Every clock-dependent read therefore goes
/// through the engine's `now` (the last [`advance_to`](Self::advance_to)
/// instant) rather than trusting a link's own clock.
pub struct FluidEngine {
    /// Sorted ascending; an advance steps its due links in this order.
    servers: Vec<ServerId>,
    /// Parallel to `servers`: each server's outbound link, every transfer
    /// tagged with its session.
    links: Vec<SharedLink<FluidSessionId>>,
    /// Parallel to `servers`: the sessions registered on each server.
    registered: Vec<Vec<FluidSessionId>>,
    /// Dense `ServerId.0` → index into `servers` (`NO_LINK` for gaps).
    index: Vec<u32>,
    /// `(next completion, link index)` for every link with a completion
    /// pending.
    due: BTreeSet<(SimTime, u32)>,
    /// Parallel to `servers`: each link's key in `due`.
    keys: Vec<Option<SimTime>>,
    /// Links holding buffered completions; the next advance steps them
    /// whatever their key.
    dirty: Vec<u32>,
    /// The last `advance_to` instant.
    now: SimTime,
    sessions: Vec<FluidSession>,
    /// Open (not-`done`) session count, maintained on every transition.
    active: usize,
    completions: Vec<FluidDone>,
    /// Reused buffers (keep the per-advance merge allocation-free): the
    /// links to step, and one link's completions.
    step_scratch: Vec<u32>,
    merge_scratch: Vec<XferDone<FluidSessionId>>,
    /// Per-link congestion detection, off unless enabled.
    congestion: Option<CongestionWatch>,
}

impl FluidEngine {
    /// Builds an engine with one outbound link per server under the given
    /// policy.
    pub fn new(
        servers: impl IntoIterator<Item = ServerId>,
        policy: SharePolicy,
        capacity_bps: u64,
    ) -> Self {
        let mut servers: Vec<ServerId> = servers.into_iter().collect();
        servers.sort_unstable();
        let max_id = servers.last().map_or(0, |s| s.0 as usize + 1);
        let mut index = vec![NO_LINK; max_id];
        for (i, s) in servers.iter().enumerate() {
            index[s.0 as usize] = i as u32;
        }
        let n = servers.len();
        FluidEngine {
            servers,
            links: (0..n).map(|_| SharedLink::new(capacity_bps, policy)).collect(),
            registered: vec![Vec::new(); n],
            index,
            due: BTreeSet::new(),
            keys: vec![None; n],
            dirty: Vec::new(),
            now: SimTime::ZERO,
            sessions: Vec::new(),
            active: 0,
            completions: Vec::new(),
            step_scratch: Vec::new(),
            merge_scratch: Vec::new(),
            congestion: None,
        }
    }

    fn link_index(&self, server: ServerId) -> Option<usize> {
        match self.index.get(server.0 as usize) {
            Some(&i) if i != NO_LINK => Some(i as usize),
            _ => None,
        }
    }

    /// Re-files link `i` under its next completion, and marks it dirty
    /// when it holds buffered completions. Every call that changes a link
    /// ends here.
    fn rekey(&mut self, i: usize) {
        let link = &self.links[i];
        let next = link.next_event();
        if next != self.keys[i] {
            if let Some(old) = self.keys[i] {
                self.due.remove(&(old, i as u32));
            }
            if let Some(at) = next {
                self.due.insert((at, i as u32));
            }
            self.keys[i] = next;
        }
        if link.pending_completions() > 0 {
            self.dirty.push(i as u32);
        }
    }

    /// Starts a session streaming `bytes` at `rate_bps` from `server`.
    /// Under reserved links this performs admission control; under fair
    /// share the rate is a pacing cap.
    pub fn add_session(
        &mut self,
        now: SimTime,
        server: ServerId,
        bytes: u64,
        rate_bps: u64,
    ) -> Result<FluidSessionId, LinkError> {
        let id = FluidSessionId(self.sessions.len());
        let i = self.link_index(server).expect("unknown server");
        let link = &mut self.links[i];
        let flow = match link.open_flow(now, Some(rate_bps)) {
            Ok(flow) => flow,
            Err(e) => {
                // A refused open still advanced the link to `now`.
                self.rekey(i);
                return Err(e);
            }
        };
        link.send(now, flow, bytes, id).expect("flow just opened");
        self.rekey(i);
        let pos = self.registered[i].len() as u32;
        self.registered[i].push(id);
        self.sessions.push(FluidSession { server, flow, done: false, pos });
        self.active += 1;
        Ok(id)
    }

    /// Aborts a session, freeing its bandwidth. The session stays
    /// registered on its server, so `active_on` keeps counting it until
    /// [`forget_session`](FluidEngine::forget_session) or a crash of that
    /// server, however long that is — matching the historical accounting
    /// the availability experiments were calibrated against.
    pub fn cancel_session(&mut self, now: SimTime, id: FluidSessionId) {
        let session = &mut self.sessions[id.0];
        if session.done {
            return;
        }
        session.done = true;
        self.active -= 1;
        let (server, flow) = (session.server, session.flow);
        let i = self.link_index(server).expect("unknown server");
        self.links[i].close_flow(now, flow);
        self.rekey(i);
    }

    /// Drops a cancelled or finished session's registration so `active_on`
    /// stops counting it. It applies to those sessions only: a session
    /// still streaming must be cancelled first, since the engine takes an
    /// unregistered session for one that is done.
    /// [`cancel_session`](FluidEngine::cancel_session) deliberately leaves
    /// the registration for the historical availability accounting; the
    /// renegotiation path must *not* inherit that — it replaces the
    /// victim with a new session at once, and counting both would charge
    /// the server a ghost stream forever.
    pub fn forget_session(&mut self, id: FluidSessionId) {
        let server = self.sessions[id.0].server;
        if let Some(i) = self.link_index(server) {
            unregister(&mut self.sessions, &mut self.registered[i], id);
        }
    }

    /// Earliest future completion across all links. O(1): the head of the
    /// completion index.
    pub fn next_event(&self) -> Option<SimTime> {
        self.due.first().map(|&(at, _)| at)
    }

    /// Advances the engine to `t`, collecting completions: steps the links
    /// with a completion due by `t` and those holding buffered
    /// completions, one at a time in `ServerId` order. Every other link
    /// has nothing due by `t`, so it is left where it is.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "advance_to into the past");
        self.now = t;
        let mut stepping = std::mem::take(&mut self.step_scratch);
        stepping.append(&mut self.dirty);
        while let Some(&(_, i)) = self.due.first().filter(|&&(at, _)| at <= t) {
            self.due.pop_first();
            self.keys[i as usize] = None;
            stepping.push(i);
        }
        stepping.sort_unstable();
        stepping.dedup();
        let mut batch = std::mem::take(&mut self.merge_scratch);
        for &i in &stepping {
            let i = i as usize;
            let link = &mut self.links[i];
            batch.clear();
            link.advance_to(t);
            link.drain_completions_into(&mut batch);
            for done in &batch {
                let id = done.tag;
                unregister(&mut self.sessions, &mut self.registered[i], id);
                // A cancelled or crashed session's completion was buffered
                // before its flow closed; it is already done.
                let session = &mut self.sessions[id.0];
                if !session.done {
                    session.done = true;
                    self.active -= 1;
                    link.close_flow(done.at.max(t), session.flow);
                    self.completions.push(FluidDone { id, server: self.servers[i], at: done.at });
                }
            }
            self.rekey(i);
        }
        batch.clear();
        self.merge_scratch = batch;
        stepping.clear();
        self.step_scratch = stepping;
    }

    /// Removes and returns completions recorded so far.
    pub fn drain_completions(&mut self) -> Vec<FluidDone> {
        std::mem::take(&mut self.completions)
    }

    /// Number of sessions still streaming. O(1): maintained on every
    /// open/complete/cancel/fail transition.
    pub fn active_sessions(&self) -> usize {
        self.active
    }

    /// Number of sessions registered on one server: those still streaming
    /// from it, plus those cancelled but not yet forgotten (see
    /// [`cancel_session`](Self::cancel_session)). O(1).
    pub fn active_on(&self, server: ServerId) -> usize {
        self.link_index(server).map_or(0, |i| self.registered[i].len())
    }

    /// Crashes a server: every session streaming from it is killed and
    /// returned as `(session, bytes still undelivered)` — what a failover
    /// path needs to resume the remainder elsewhere. The returned list is
    /// ordered by session id, so reacting to it is deterministic. The
    /// server's registrations are cleared. O(sessions registered there).
    pub fn fail_server(&mut self, now: SimTime, server: ServerId) -> Vec<(FluidSessionId, f64)> {
        let Some(i) = self.link_index(server) else { return Vec::new() };
        let link = &mut self.links[i];
        link.advance_to(now);
        let mut displaced = Vec::new();
        for id in self.registered[i].drain(..) {
            let session = &mut self.sessions[id.0];
            session.pos = UNREGISTERED;
            if !session.done {
                displaced.push(id);
            }
        }
        displaced.sort_unstable();
        let displaced: Vec<(FluidSessionId, f64)> = displaced
            .into_iter()
            .map(|id| {
                let session = &mut self.sessions[id.0];
                session.done = true;
                // Read the backlog before closing: the close tears the
                // flow's queue down.
                let left = link.flow_backlog_bytes(session.flow);
                link.close_flow(now, session.flow);
                (id, left)
            })
            .collect();
        self.active -= displaced.len();
        self.rekey(i);
        displaced
    }

    /// Applies a fault-injection capacity change to a server's outbound
    /// link (degradation when below nominal, recovery when restored).
    pub fn set_link_capacity(&mut self, now: SimTime, server: ServerId, capacity_bps: u64) {
        let i = self.link_index(server).expect("unknown server");
        self.links[i].set_capacity(now, capacity_bps);
        self.rekey(i);
    }

    /// The serving node of a session (valid for done sessions too).
    pub fn session_server(&self, id: FluidSessionId) -> ServerId {
        self.sessions[id.0].server
    }

    /// Bytes a session still has queued (0 once done), as of the last
    /// [`advance_to`](Self::advance_to) instant (or of a later call on
    /// the session's link). This is what a renegotiation path needs to
    /// scale the remainder to a new bitrate.
    pub fn session_backlog(&self, id: FluidSessionId) -> f64 {
        let s = &self.sessions[id.0];
        if s.done {
            return 0.0;
        }
        // The link may lag the engine; its bytes read the same at `now`.
        let i = self.link_index(s.server).expect("unknown server");
        self.links[i].flow_backlog_bytes_at(s.flow, self.now)
    }

    /// The sessions still streaming from one server, in ascending session
    /// id — the deterministic iteration order for an adaptation loop
    /// picking downshift victims. O(sessions registered there).
    pub fn sessions_on(&self, server: ServerId) -> Vec<FluidSessionId> {
        let Some(i) = self.link_index(server) else { return Vec::new() };
        let mut ids: Vec<FluidSessionId> =
            self.registered[i].iter().copied().filter(|id| !self.sessions[id.0].done).collect();
        ids.sort_unstable();
        ids
    }

    /// Turns on per-link congestion detection with the given watermarks.
    /// Every link starts clear.
    pub fn enable_congestion(&mut self, cfg: CongestionConfig) {
        assert!(cfg.low_ratio < cfg.high_ratio, "hysteresis band must be non-empty");
        self.congestion = Some(CongestionWatch {
            cfg,
            states: vec![CongState::Clear; self.links.len()],
            congested: 0,
        });
    }

    /// True when the server's link is currently flagged congested (between
    /// an `Onset` and the matching `Cleared`).
    pub fn is_congested(&self, server: ServerId) -> bool {
        let Some(watch) = &self.congestion else { return false };
        let Some(i) = self.link_index(server) else { return false };
        matches!(watch.states[i], CongState::Congested | CongState::RampDown { .. })
    }

    /// Number of servers currently flagged congested. O(1).
    pub fn congested_servers(&self) -> usize {
        self.congestion.as_ref().map_or(0, |w| w.congested)
    }

    /// Earliest pending congestion dwell deadline — a time source for the
    /// driver's event loop. `None` when detection is off or no link is
    /// mid-ramp.
    pub fn congestion_next_at(&self) -> Option<SimTime> {
        let watch = self.congestion.as_ref()?;
        watch
            .states
            .iter()
            .filter_map(|s| match *s {
                CongState::RampUp { since } | CongState::RampDown { since } => {
                    Some(since + watch.cfg.dwell)
                }
                _ => None,
            })
            .min()
    }

    /// Re-evaluates every link's watermark state at `now`, returning the
    /// edges that fired, in `ServerId` order. Call after any instant that
    /// can move demand or capacity (admission, completion, cancel, re-rate)
    /// and at each [`congestion_next_at`](Self::congestion_next_at)
    /// deadline; between such instants the ratio cannot change, so
    /// event-driven sampling is exact.
    pub fn poll_congestion(&mut self, now: SimTime) -> Vec<CongestionEvent> {
        let Some(watch) = &mut self.congestion else { return Vec::new() };
        let cfg = watch.cfg;
        let mut events = Vec::new();
        for (i, link) in self.links.iter().enumerate() {
            let ratio = link.demand_bps() as f64 / link.capacity_bps() as f64;
            // Iterate to a fixpoint so chained transitions (level crossing
            // followed by an already-elapsed dwell, e.g. dwell zero) settle
            // within one poll. The chain is at most two steps long: the
            // guards are mutually exclusive for a fixed ratio.
            loop {
                let next = match watch.states[i] {
                    CongState::Clear if ratio >= cfg.high_ratio => {
                        Some(CongState::RampUp { since: now })
                    }
                    // Level crossings resolve before dwell expiry, so a
                    // ratio that dropped back by the deadline fires nothing.
                    CongState::RampUp { .. } if ratio < cfg.high_ratio => Some(CongState::Clear),
                    CongState::RampUp { since } if now >= since + cfg.dwell => {
                        watch.congested += 1;
                        events.push(CongestionEvent {
                            server: self.servers[i],
                            edge: CongestionEdge::Onset,
                            at: now,
                        });
                        Some(CongState::Congested)
                    }
                    CongState::Congested if ratio <= cfg.low_ratio => {
                        Some(CongState::RampDown { since: now })
                    }
                    CongState::RampDown { .. } if ratio > cfg.low_ratio => {
                        Some(CongState::Congested)
                    }
                    CongState::RampDown { since } if now >= since + cfg.dwell => {
                        watch.congested -= 1;
                        events.push(CongestionEvent {
                            server: self.servers[i],
                            edge: CongestionEdge::Cleared,
                            at: now,
                        });
                        Some(CongState::Clear)
                    }
                    _ => None,
                };
                match next {
                    Some(s) => watch.states[i] = s,
                    None => break,
                }
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quasaq_sim::SimDuration;

    fn drain_all(eng: &mut FluidEngine, horizon: SimTime) -> Vec<FluidDone> {
        let mut out = Vec::new();
        loop {
            match eng.next_event() {
                Some(t) if t <= horizon => {
                    eng.advance_to(t);
                    out.extend(eng.drain_completions());
                }
                _ => {
                    eng.advance_to(horizon);
                    out.extend(eng.drain_completions());
                    return out;
                }
            }
        }
    }

    #[test]
    fn reserved_session_takes_exactly_playback_time() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::Reserved, 3_200_000);
        // 60 s of a 48 KB/s stream.
        let id = eng.add_session(SimTime::ZERO, ServerId(0), 48_000 * 60, 48_000).unwrap();
        let done = drain_all(&mut eng, SimTime::from_secs(120));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert!((done[0].at.as_secs_f64() - 60.0).abs() < 0.01);
        assert_eq!(eng.active_sessions(), 0);
    }

    #[test]
    fn reserved_admission_saturates() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::Reserved, 100_000);
        eng.add_session(SimTime::ZERO, ServerId(0), 1_000, 60_000).unwrap();
        assert!(eng.add_session(SimTime::ZERO, ServerId(0), 1_000, 60_000).is_err());
    }

    #[test]
    fn fair_share_admits_everything_but_stretches() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::FairShare, 100_000);
        // Four 60 s sessions at 50 KB/s each on a 100 KB/s link: each gets
        // 25 KB/s, so they take 120 s instead of 60.
        for _ in 0..4 {
            eng.add_session(SimTime::ZERO, ServerId(0), 50_000 * 60, 50_000).unwrap();
        }
        assert_eq!(eng.active_sessions(), 4);
        let done = drain_all(&mut eng, SimTime::from_secs(600));
        assert_eq!(done.len(), 4);
        for d in &done {
            assert!((d.at.as_secs_f64() - 120.0).abs() < 0.5, "{}", d.at);
        }
    }

    #[test]
    fn completion_frees_bandwidth_for_followers() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::Reserved, 100_000);
        let a = eng.add_session(SimTime::ZERO, ServerId(0), 100_000, 100_000).unwrap();
        let _ = a;
        // Saturated now; after ~1 s the first completes and frees the rate.
        assert!(eng.add_session(SimTime::ZERO, ServerId(0), 1_000, 50_000).is_err());
        let done = drain_all(&mut eng, SimTime::from_secs(2));
        assert_eq!(done.len(), 1);
        eng.add_session(SimTime::from_secs(2), ServerId(0), 1_000, 100_000).unwrap();
    }

    #[test]
    fn cancel_releases_immediately() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::Reserved, 100_000);
        let a = eng.add_session(SimTime::ZERO, ServerId(0), 1 << 30, 100_000).unwrap();
        eng.cancel_session(SimTime::from_secs(1), a);
        assert_eq!(eng.active_sessions(), 0);
        eng.add_session(SimTime::from_secs(1), ServerId(0), 1_000, 100_000).unwrap();
        // The cancelled session never completes.
        let done = drain_all(&mut eng, SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        assert_ne!(done[0].id, a);
    }

    #[test]
    fn forget_clears_transfer_registration_cancel_leaves() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::FairShare, 100_000);
        let a = eng.add_session(SimTime::ZERO, ServerId(0), 1 << 30, 100_000).unwrap();
        let b = eng.add_session(SimTime::ZERO, ServerId(0), 1 << 30, 100_000).unwrap();
        eng.cancel_session(SimTime::from_secs(1), a);
        // Historical semantics: a cancelled transfer still registers on the
        // server for availability accounting.
        assert_eq!(eng.active_on(ServerId(0)), 2);
        eng.forget_session(a);
        assert_eq!(eng.active_on(ServerId(0)), 1);
        assert_eq!(eng.sessions_on(ServerId(0)), vec![b]);
    }

    #[test]
    fn cancelled_session_counts_until_forgotten_or_crashed() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::FairShare, 100_000);
        let a = eng.add_session(SimTime::ZERO, ServerId(0), 1_000, 100_000).unwrap();
        eng.cancel_session(SimTime::ZERO, a);
        // Long after the link would have finished it, it still counts.
        eng.advance_to(SimTime::from_secs(100));
        assert_eq!(eng.active_on(ServerId(0)), 1);
        assert!(eng.sessions_on(ServerId(0)).is_empty());
        // A crash clears it without displacing it or closing its flow again.
        assert!(eng.fail_server(SimTime::from_secs(100), ServerId(0)).is_empty());
        assert_eq!(eng.active_on(ServerId(0)), 0);
    }

    #[test]
    fn completions_merge_in_server_order() {
        // Servers given out of order, completing at the same instant.
        let mut eng = FluidEngine::new([ServerId(2), ServerId(0)], SharePolicy::Reserved, 100_000);
        let late = eng.add_session(SimTime::ZERO, ServerId(2), 50_000, 100_000).unwrap();
        let early = eng.add_session(SimTime::ZERO, ServerId(0), 50_000, 100_000).unwrap();
        let done = drain_all(&mut eng, SimTime::from_secs(1));
        let order: Vec<_> = done.iter().map(|d| (d.server, d.id)).collect();
        assert_eq!(order, vec![(ServerId(0), early), (ServerId(2), late)]);
        assert_eq!((eng.active_on(ServerId(0)), eng.active_on(ServerId(2))), (0, 0));
    }

    #[test]
    fn fail_server_displaces_active_sessions_with_remaining_bytes() {
        let mut eng = FluidEngine::new(ServerId::first_n(2), SharePolicy::Reserved, 200_000);
        // 100 KB at 100 KB/s: half delivered after 0.5 s.
        let a = eng.add_session(SimTime::ZERO, ServerId(0), 100_000, 100_000).unwrap();
        let b = eng.add_session(SimTime::ZERO, ServerId(0), 100_000, 100_000).unwrap();
        let other = eng.add_session(SimTime::ZERO, ServerId(1), 100_000, 100_000).unwrap();
        eng.advance_to(SimTime::from_millis(500));
        assert_eq!(eng.active_on(ServerId(0)), 2);
        let displaced = eng.fail_server(SimTime::from_millis(500), ServerId(0));
        assert_eq!(displaced.len(), 2);
        assert_eq!(displaced[0].0, a, "ordered by session id");
        assert_eq!(displaced[1].0, b);
        for &(_, remaining) in &displaced {
            assert!((remaining - 50_000.0).abs() < 1.0, "{remaining}");
        }
        assert_eq!(eng.active_on(ServerId(0)), 0);
        // The freed link admits new reservations immediately.
        let c = eng.add_session(SimTime::from_millis(500), ServerId(0), 1_000, 200_000).unwrap();
        // The survivor and the re-admission complete; the displaced never do.
        let done = drain_all(&mut eng, SimTime::from_secs(10));
        assert_eq!(done.len(), 2);
        assert!(done.iter().any(|d| d.id == other));
        assert!(done.iter().any(|d| d.id == c));
    }

    #[test]
    fn fail_server_skips_already_finished_sessions() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::Reserved, 200_000);
        eng.add_session(SimTime::ZERO, ServerId(0), 100_000, 100_000).unwrap();
        eng.advance_to(SimTime::from_secs(2));
        assert_eq!(eng.drain_completions().len(), 1);
        assert!(eng.fail_server(SimTime::from_secs(2), ServerId(0)).is_empty());
    }

    #[test]
    fn link_degradation_stretches_fair_share_sessions() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::FairShare, 100_000);
        // 100 KB paced at 100 KB/s; halve the link for the first second.
        eng.add_session(SimTime::ZERO, ServerId(0), 100_000, 100_000).unwrap();
        eng.set_link_capacity(SimTime::ZERO, ServerId(0), 50_000);
        eng.set_link_capacity(SimTime::from_secs(1), ServerId(0), 100_000);
        let done = drain_all(&mut eng, SimTime::from_secs(10));
        assert_eq!(done.len(), 1);
        // 50 KB in the degraded second, the rest at full rate: 1.5 s.
        assert!((done[0].at.as_secs_f64() - 1.5).abs() < 1e-3, "{}", done[0].at);
    }

    #[test]
    fn servers_are_independent() {
        let mut eng = FluidEngine::new(ServerId::first_n(2), SharePolicy::Reserved, 100_000);
        eng.add_session(SimTime::ZERO, ServerId(0), 100_000 * 5, 100_000).unwrap();
        // Server 0 is saturated; server 1 is free.
        assert!(eng.add_session(SimTime::ZERO, ServerId(0), 1_000, 1_000).is_err());
        eng.add_session(SimTime::ZERO, ServerId(1), 100_000, 100_000).unwrap();
        let done = drain_all(&mut eng, SimTime::from_secs(10));
        assert_eq!(done.len(), 2);
        let _ = SimDuration::ZERO;
    }

    fn cong_cfg(dwell_secs: u64) -> CongestionConfig {
        CongestionConfig {
            high_ratio: 1.1,
            low_ratio: 0.9,
            dwell: SimDuration::from_secs(dwell_secs),
        }
    }

    #[test]
    fn congestion_onset_requires_sustained_overload() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::FairShare, 100_000);
        eng.enable_congestion(cong_cfg(5));
        // Offered load 1.5x capacity: three 50 KB/s sessions on 100 KB/s.
        for _ in 0..3 {
            eng.add_session(SimTime::ZERO, ServerId(0), 1 << 24, 50_000).unwrap();
        }
        // Crossing alone fires nothing; the dwell must elapse.
        assert!(eng.poll_congestion(SimTime::ZERO).is_empty());
        assert!(!eng.is_congested(ServerId(0)));
        assert_eq!(eng.congestion_next_at(), Some(SimTime::from_secs(5)));
        assert!(eng.poll_congestion(SimTime::from_secs(4)).is_empty());
        let events = eng.poll_congestion(SimTime::from_secs(5));
        assert_eq!(
            events,
            vec![CongestionEvent {
                server: ServerId(0),
                edge: CongestionEdge::Onset,
                at: SimTime::from_secs(5),
            }]
        );
        assert!(eng.is_congested(ServerId(0)));
        assert_eq!(eng.congested_servers(), 1);
    }

    #[test]
    fn transient_blip_fires_nothing() {
        let mut eng = FluidEngine::new([ServerId(0)], SharePolicy::FairShare, 100_000);
        eng.enable_congestion(cong_cfg(5));
        let a = eng.add_session(SimTime::ZERO, ServerId(0), 1 << 24, 80_000).unwrap();
        let b = eng.add_session(SimTime::ZERO, ServerId(0), 1 << 24, 80_000).unwrap();
        assert!(eng.poll_congestion(SimTime::ZERO).is_empty());
        // Load drops back below the high watermark before the dwell ends.
        eng.cancel_session(SimTime::from_secs(2), b);
        assert!(eng.poll_congestion(SimTime::from_secs(2)).is_empty());
        assert_eq!(eng.congestion_next_at(), None, "ramp abandoned");
        assert!(eng.poll_congestion(SimTime::from_secs(60)).is_empty());
        assert!(!eng.is_congested(ServerId(0)));
        let _ = a;
    }

    #[test]
    fn congestion_clears_with_hysteresis_after_load_drops() {
        let mut eng = FluidEngine::new(ServerId::first_n(2), SharePolicy::FairShare, 100_000);
        eng.enable_congestion(cong_cfg(5));
        let mut ids = Vec::new();
        for _ in 0..3 {
            ids.push(eng.add_session(SimTime::ZERO, ServerId(0), 1 << 24, 50_000).unwrap());
        }
        eng.poll_congestion(SimTime::ZERO);
        assert_eq!(eng.poll_congestion(SimTime::from_secs(5)).len(), 1);
        // Dropping to 2 sessions (ratio 1.0) sits inside the hysteresis
        // band: still congested, no ramp-down.
        eng.cancel_session(SimTime::from_secs(10), ids[0]);
        assert!(eng.poll_congestion(SimTime::from_secs(10)).is_empty());
        assert!(eng.is_congested(ServerId(0)));
        assert_eq!(eng.congestion_next_at(), None);
        // Dropping to 1 session (ratio 0.5) starts the ramp-down dwell.
        eng.cancel_session(SimTime::from_secs(20), ids[1]);
        assert!(eng.poll_congestion(SimTime::from_secs(20)).is_empty());
        assert!(eng.is_congested(ServerId(0)), "flagged until Cleared fires");
        assert_eq!(eng.congestion_next_at(), Some(SimTime::from_secs(25)));
        let events = eng.poll_congestion(SimTime::from_secs(25));
        assert_eq!(
            events,
            vec![CongestionEvent {
                server: ServerId(0),
                edge: CongestionEdge::Cleared,
                at: SimTime::from_secs(25),
            }]
        );
        assert!(!eng.is_congested(ServerId(0)));
        assert_eq!(eng.congested_servers(), 0);
    }

    #[test]
    fn sessions_on_and_backlog_expose_victims_in_sid_order() {
        let mut eng = FluidEngine::new(ServerId::first_n(2), SharePolicy::FairShare, 100_000);
        let a = eng.add_session(SimTime::ZERO, ServerId(1), 100_000, 50_000).unwrap();
        let b = eng.add_session(SimTime::ZERO, ServerId(0), 100_000, 50_000).unwrap();
        let c = eng.add_session(SimTime::ZERO, ServerId(1), 100_000, 50_000).unwrap();
        assert_eq!(eng.sessions_on(ServerId(1)), vec![a, c]);
        assert_eq!(eng.sessions_on(ServerId(0)), vec![b]);
        assert_eq!(eng.session_server(a), ServerId(1));
        assert!((eng.session_backlog(a) - 100_000.0).abs() < 1e-6);
        eng.advance_to(SimTime::from_secs(1));
        assert!((eng.session_backlog(a) - 50_000.0).abs() < 1.0);
        eng.cancel_session(SimTime::from_secs(1), c);
        assert_eq!(eng.sessions_on(ServerId(1)), vec![a]);
        assert_eq!(eng.session_backlog(c), 0.0);
    }
}
