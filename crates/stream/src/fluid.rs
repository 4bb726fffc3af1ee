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
//!   reserved rate, so it completes after exactly `bytes/rate` — the
//!   fixed streaming time the paper notes.
//! * Fair-share links (plain VDBMS): the session is paced at its bitrate
//!   but squeezed when the link oversubscribes, so "it took much longer
//!   time to finish each job" — the plain-VDBMS signature of Fig 6.
//!
//! The engine keeps one [`LinkDomain`] per server. Advancing time is one
//! pass over the domains in `ServerId` order: each domain steps its link
//! to the target instant and its completions are merged on the spot, which
//! fixes the `(time, seq)` event order every result depends on.
//!
//! The engine is passive (`next_event`/`advance_to`/`drain_completions`)
//! so the experiment driver owns the master event loop.

use quasaq_sim::link::{LinkError, SharePolicy, SharedLink, XferDone};
use quasaq_sim::{FlowId, LinkDomain, ServerId, SimDuration, SimTime};

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
    /// Parallel to `FluidEngine::domains`.
    states: Vec<CongState>,
    /// Servers currently flagged congested (`Congested` or `RampDown`).
    congested: usize,
}

/// Sentinel in the dense server index for servers this engine doesn't own.
const NO_DOMAIN: u32 = u32::MAX;

/// Byte-level session engine over per-server link domains.
pub struct FluidEngine {
    /// Sorted by `ServerId`; every advance walks this order.
    domains: Vec<LinkDomain<FluidSessionId>>,
    /// Dense `ServerId.0` → index into `domains` (`NO_DOMAIN` for gaps).
    index: Vec<u32>,
    sessions: Vec<FluidSession>,
    /// Open (not-`done`) session count, maintained on every transition.
    active: usize,
    completions: Vec<FluidDone>,
    /// Reused completion buffer (keeps the per-advance merge
    /// allocation-free).
    merge_scratch: Vec<XferDone>,
    /// Per-link congestion detection, off unless enabled.
    congestion: Option<CongestionWatch>,
}

impl FluidEngine {
    /// Builds an engine with one link domain per server under the given
    /// policy.
    pub fn new(
        servers: impl IntoIterator<Item = ServerId>,
        policy: SharePolicy,
        capacity_bps: u64,
    ) -> Self {
        let domains = LinkDomain::cluster(servers, policy, capacity_bps);
        let max_id = domains.iter().map(|d| d.server().0 as usize).max().map_or(0, |m| m + 1);
        let mut index = vec![NO_DOMAIN; max_id];
        for (i, d) in domains.iter().enumerate() {
            index[d.server().0 as usize] = i as u32;
        }
        FluidEngine {
            domains,
            index,
            sessions: Vec::new(),
            active: 0,
            completions: Vec::new(),
            merge_scratch: Vec::new(),
            congestion: None,
        }
    }

    fn domain_index(&self, server: ServerId) -> Option<usize> {
        match self.index.get(server.0 as usize) {
            Some(&i) if i != NO_DOMAIN => Some(i as usize),
            _ => None,
        }
    }

    fn domain(&self, server: ServerId) -> &LinkDomain<FluidSessionId> {
        &self.domains[self.domain_index(server).expect("unknown server")]
    }

    fn domain_mut(&mut self, server: ServerId) -> &mut LinkDomain<FluidSessionId> {
        let i = self.domain_index(server).expect("unknown server");
        &mut self.domains[i]
    }

    /// Link state of a server.
    pub fn link(&self, server: ServerId) -> &SharedLink {
        self.domain(server).link()
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
        let domain = self.domain_mut(server);
        let flow = domain.link_mut().open_flow(now, Some(rate_bps))?;
        let xfer = domain.link_mut().send(now, flow, bytes).expect("flow just opened");
        domain.register(xfer, flow, id);
        self.sessions.push(FluidSession { server, flow, done: false });
        self.active += 1;
        Ok(id)
    }

    /// Aborts a session, freeing its bandwidth. The session's transfer
    /// registration is left in place (it resolves to a dead session and is
    /// discarded), so `active_on` counts it until the link would have
    /// finished it — matching the historical accounting the availability
    /// experiments were calibrated against.
    pub fn cancel_session(&mut self, now: SimTime, id: FluidSessionId) {
        let session = &mut self.sessions[id.0];
        if session.done {
            return;
        }
        session.done = true;
        self.active -= 1;
        let (server, flow) = (session.server, session.flow);
        self.domain_mut(server).link_mut().close_flow(now, flow);
    }

    /// Drops a finished or cancelled session's transfer registration so
    /// `active_on` stops counting it.
    /// [`cancel_session`](FluidEngine::cancel_session) deliberately leaves
    /// the registration for the historical availability accounting; the
    /// renegotiation path must *not* inherit that — it replaces the
    /// victim with a new session at once, and counting both would charge
    /// the server a ghost stream forever.
    pub fn forget_session(&mut self, id: FluidSessionId) {
        let server = self.sessions[id.0].server;
        if let Some(i) = self.domain_index(server) {
            self.domains[i].retain(|&tag| tag != id);
        }
    }

    /// Earliest future completion across all links.
    pub fn next_event(&self) -> Option<SimTime> {
        self.domains.iter().filter_map(|d| d.next_event()).min()
    }

    /// Advances every link to `t`, one domain at a time in `ServerId`
    /// order, collecting completions.
    pub fn advance_to(&mut self, t: SimTime) {
        let mut batch = std::mem::take(&mut self.merge_scratch);
        for domain in self.domains.iter_mut() {
            batch.clear();
            domain.step_to(t, &mut batch);
            let server = domain.server();
            for done in &batch {
                if let Some(id) = domain.resolve(done.xfer) {
                    let session = &mut self.sessions[id.0];
                    if !session.done {
                        session.done = true;
                        self.active -= 1;
                        domain.link_mut().close_flow(done.at.max(t), session.flow);
                        self.completions.push(FluidDone { id, server, at: done.at });
                    }
                }
            }
        }
        batch.clear();
        self.merge_scratch = batch;
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

    /// Number of sessions still streaming from one server (O(1), not
    /// O(all sessions)).
    pub fn active_on(&self, server: ServerId) -> usize {
        self.domain_index(server).map(|i| self.domains[i].in_flight()).unwrap_or(0)
    }

    /// Crashes a server: every session streaming from it is killed and
    /// returned as `(session, bytes still undelivered)` — what a failover
    /// path needs to resume the remainder elsewhere. The returned list is
    /// ordered by session id, so reacting to it is deterministic.
    pub fn fail_server(&mut self, now: SimTime, server: ServerId) -> Vec<(FluidSessionId, f64)> {
        let Some(i) = self.domain_index(server) else { return Vec::new() };
        let sessions = &self.sessions;
        let displaced = self.domains[i].cut(now, |id| !sessions[id.0].done);
        for &(id, _) in &displaced {
            self.sessions[id.0].done = true;
            self.active -= 1;
        }
        displaced
    }

    /// Applies a fault-injection capacity change to a server's outbound
    /// link (degradation when below nominal, recovery when restored).
    pub fn set_link_capacity(&mut self, now: SimTime, server: ServerId, capacity_bps: u64) {
        self.domain_mut(server).set_capacity(now, capacity_bps);
    }

    /// The serving node of a session (valid for done sessions too).
    pub fn session_server(&self, id: FluidSessionId) -> ServerId {
        self.sessions[id.0].server
    }

    /// Bytes a session still has queued (0 once done). This is what a
    /// renegotiation path needs to scale the remainder to a new bitrate.
    pub fn session_backlog(&self, id: FluidSessionId) -> f64 {
        let s = &self.sessions[id.0];
        if s.done {
            return 0.0;
        }
        self.domain(s.server).link().flow_backlog_bytes(s.flow)
    }

    /// The sessions still streaming from one server, in ascending session
    /// id — the deterministic iteration order for an adaptation loop
    /// picking downshift victims.
    pub fn sessions_on(&self, server: ServerId) -> Vec<FluidSessionId> {
        let Some(i) = self.domain_index(server) else { return Vec::new() };
        let mut ids: Vec<FluidSessionId> =
            self.domains[i].tags().copied().filter(|id| !self.sessions[id.0].done).collect();
        ids.sort_unstable();
        ids
    }

    /// Turns on per-link congestion detection with the given watermarks.
    /// Every link starts clear.
    pub fn enable_congestion(&mut self, cfg: CongestionConfig) {
        assert!(cfg.low_ratio < cfg.high_ratio, "hysteresis band must be non-empty");
        self.congestion = Some(CongestionWatch {
            cfg,
            states: vec![CongState::Clear; self.domains.len()],
            congested: 0,
        });
    }

    /// Offered load ratio of one server's link (`demand / capacity`).
    pub fn demand_ratio(&self, server: ServerId) -> f64 {
        let link = self.domain(server).link();
        link.demand_bps() as f64 / link.capacity_bps() as f64
    }

    /// True when the server's link is currently flagged congested (between
    /// an `Onset` and the matching `Cleared`).
    pub fn is_congested(&self, server: ServerId) -> bool {
        let Some(watch) = &self.congestion else { return false };
        let Some(i) = self.domain_index(server) else { return false };
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
        for (i, domain) in self.domains.iter().enumerate() {
            let link = domain.link();
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
                            server: domain.server(),
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
                            server: domain.server(),
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
        assert!(eng.demand_ratio(ServerId(0)) > 1.1);
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
