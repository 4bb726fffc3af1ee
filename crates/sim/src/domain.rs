//! Per-server resource domains.
//!
//! Every engine above this crate (the fluid session engine and the
//! frame-level stream engine in `quasaq-stream`, the throughput driver in
//! `quasaq-workload`) is organised by server: each server owns its
//! outbound link, its in-flight transfers, and its reaction to faults —
//! the unit QuaSAQ reserves resources on. [`LinkDomain`] captures that
//! shape once so the engines stop re-implementing it: one server's
//! outbound link plus its transfer registry, with the fault reactions
//! (capacity changes on degradation, the deterministic cut on a crash)
//! implemented here instead of separately per engine. Engines step their
//! domains in one serial pass ordered by [`ServerId`], which fixes the
//! `(time, seq)` event order every result depends on.

use crate::link::{SharePolicy, SharedLink, XferDone};
use crate::time::SimTime;
use crate::topology::ServerId;
use crate::{FlowId, XferId};

/// One server's outbound link and its in-flight transfer registry.
///
/// `T` is the engine-specific tag attached to each transfer (a session id
/// for the fluid engine, a `(session, frame)` pair for the frame engine).
pub struct LinkDomain<T> {
    server: ServerId,
    link: SharedLink,
    /// Transfer registry as a slab indexed by `XferId`: the link hands out
    /// ids monotonically from zero, so `xfers[id]` is a dense direct-index
    /// lookup instead of a hash probe on the completion hot path.
    xfers: Vec<Option<(FlowId, T)>>,
    in_flight: usize,
}

impl<T> LinkDomain<T> {
    /// Wraps an existing link as a domain for `server`.
    pub fn new(server: ServerId, link: SharedLink) -> Self {
        LinkDomain { server, link, xfers: Vec::new(), in_flight: 0 }
    }

    /// Builds the domain with a fresh link under the given policy.
    pub fn with_policy(server: ServerId, policy: SharePolicy, capacity_bps: u64) -> Self {
        let link = match policy {
            SharePolicy::FairShare => SharedLink::fair_share(capacity_bps),
            SharePolicy::Reserved => SharedLink::reserved(capacity_bps),
        };
        LinkDomain::new(server, link)
    }

    /// One domain per server, sorted by [`ServerId`] so a serial merge
    /// over the returned vector reproduces the global event order.
    pub fn cluster(
        servers: impl IntoIterator<Item = ServerId>,
        policy: SharePolicy,
        capacity_bps: u64,
    ) -> Vec<LinkDomain<T>> {
        let mut domains: Vec<LinkDomain<T>> =
            servers.into_iter().map(|s| LinkDomain::with_policy(s, policy, capacity_bps)).collect();
        domains.sort_by_key(|d| d.server);
        domains
    }

    /// The owning server.
    pub fn server(&self) -> ServerId {
        self.server
    }

    /// The underlying link.
    pub fn link(&self) -> &SharedLink {
        &self.link
    }

    /// Mutable access to the underlying link (opening flows, sending).
    pub fn link_mut(&mut self) -> &mut SharedLink {
        &mut self.link
    }

    /// Registers an in-flight transfer with its flow and engine tag.
    pub fn register(&mut self, xfer: XferId, flow: FlowId, tag: T) {
        let idx = xfer.0 as usize;
        if idx >= self.xfers.len() {
            self.xfers.resize_with(idx + 1, || None);
        }
        if self.xfers[idx].replace((flow, tag)).is_none() {
            self.in_flight += 1;
        }
    }

    /// Removes a completed transfer from the registry, returning its tag.
    pub fn resolve(&mut self, xfer: XferId) -> Option<T> {
        let entry = self.xfers.get_mut(xfer.0 as usize)?.take();
        if entry.is_some() {
            self.in_flight -= 1;
        }
        entry.map(|(_, tag)| tag)
    }

    /// Number of registered in-flight transfers.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Iterates the tags of all registered in-flight transfers, in
    /// ascending `XferId` order (a pure function of the registry, so the
    /// iteration is deterministic). The adaptation loop uses this to find
    /// which sessions occupy a congested server.
    pub fn tags(&self) -> impl Iterator<Item = &T> {
        self.xfers.iter().flatten().map(|(_, tag)| tag)
    }

    /// Earliest future event on this domain's link.
    pub fn next_event(&self) -> Option<SimTime> {
        self.link.next_event()
    }

    /// Advances the link to `t`, appending its completions onto `out` in
    /// the order the link produced them.
    pub fn step_to(&mut self, t: SimTime, out: &mut Vec<XferDone>) {
        self.link.advance_to(t);
        self.link.drain_completions_into(out);
    }

    /// True when completions are waiting inside the link (e.g. produced by
    /// a `send` or capacity change that advanced the link internally).
    pub fn has_buffered(&self) -> bool {
        self.link.pending_completions() > 0
    }

    /// Shared fault reaction: applies a capacity change to this server's
    /// link (degradation below nominal, recovery when restored).
    pub fn set_capacity(&mut self, now: SimTime, capacity_bps: u64) {
        self.link.set_capacity(now, capacity_bps);
    }

    /// Drops registry entries whose tag fails `keep` (crash cleanup for
    /// engines that close flows through other bookkeeping).
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for entry in self.xfers.iter_mut() {
            if let Some((_, tag)) = entry {
                if !keep(tag) {
                    *entry = None;
                    self.in_flight -= 1;
                }
            }
        }
    }
}

impl<T: Copy + Ord> LinkDomain<T> {
    /// Shared fault reaction: crashes this server's link. Every
    /// registered transfer whose tag passes `live` is cut and returned as
    /// `(tag, bytes still undelivered)`, ordered by tag so reacting to
    /// the cut is deterministic; its flow is closed. The registry is
    /// cleared either way.
    pub fn cut(&mut self, now: SimTime, mut live: impl FnMut(&T) -> bool) -> Vec<(T, f64)> {
        self.link.advance_to(now);
        let mut displaced: Vec<(T, FlowId)> = Vec::new();
        for (flow, tag) in self.xfers.iter().flatten() {
            if live(tag) {
                displaced.push((*tag, *flow));
            }
        }
        self.xfers.clear();
        self.in_flight = 0;
        displaced.sort_by_key(|&(tag, _)| tag);
        let mut out = Vec::with_capacity(displaced.len());
        for (tag, flow) in displaced {
            // Read the backlog before closing: the close tears the flow's
            // queue down. Closing one flow never changes another's queued
            // bytes, so the interleaving is equivalent to reading every
            // backlog first.
            out.push((tag, self.link.flow_backlog_bytes(flow)));
            self.link.close_flow(now, flow);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_is_sorted_by_server() {
        let domains: Vec<LinkDomain<u32>> = LinkDomain::cluster(
            [ServerId(2), ServerId(0), ServerId(1)],
            SharePolicy::FairShare,
            100_000,
        );
        let ids: Vec<ServerId> = domains.iter().map(|d| d.server()).collect();
        assert_eq!(ids, vec![ServerId(0), ServerId(1), ServerId(2)]);
    }

    #[test]
    fn step_hands_completions_to_the_caller() {
        let mut d: LinkDomain<u32> =
            LinkDomain::with_policy(ServerId(0), SharePolicy::Reserved, 100_000);
        let flow = d.link_mut().open_flow(SimTime::ZERO, Some(100_000)).unwrap();
        let xfer = d.link_mut().send(SimTime::ZERO, flow, 50_000).unwrap();
        d.register(xfer, flow, 7);
        assert_eq!(d.in_flight(), 1);
        let t = d.next_event().expect("transfer in flight");
        let mut done = Vec::new();
        d.step_to(t, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(d.resolve(done[0].xfer), Some(7));
        assert!(!d.has_buffered());
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn cut_returns_live_transfers_in_tag_order_with_backlogs() {
        let mut d: LinkDomain<u32> =
            LinkDomain::with_policy(ServerId(0), SharePolicy::Reserved, 300_000);
        // Three transfers at 100 KB/s each; tag 1 is considered dead.
        let mut flows = Vec::new();
        for tag in [2u32, 0, 1] {
            let flow = d.link_mut().open_flow(SimTime::ZERO, Some(100_000)).unwrap();
            let xfer = d.link_mut().send(SimTime::ZERO, flow, 100_000).unwrap();
            d.register(xfer, flow, tag);
            flows.push(flow);
        }
        let cut = d.cut(SimTime::from_millis(500), |&tag| tag != 1);
        let tags: Vec<u32> = cut.iter().map(|&(tag, _)| tag).collect();
        assert_eq!(tags, vec![0, 2], "ordered by tag, dead entry skipped");
        for &(_, backlog) in &cut {
            assert!((backlog - 50_000.0).abs() < 1.0, "{backlog}");
        }
        assert_eq!(d.in_flight(), 0);
        // Only the live transfers' flows are closed: a dead tag means the
        // engine already tore that flow down through its own bookkeeping,
        // so `cut` must not close it a second time.
        assert_eq!(d.link().reserved_bps(), 100_000, "dead tag's flow left alone");
    }

    #[test]
    fn set_capacity_stretches_transfers() {
        let mut d: LinkDomain<u32> =
            LinkDomain::with_policy(ServerId(0), SharePolicy::FairShare, 100_000);
        let flow = d.link_mut().open_flow(SimTime::ZERO, Some(100_000)).unwrap();
        let xfer = d.link_mut().send(SimTime::ZERO, flow, 100_000).unwrap();
        d.register(xfer, flow, 0);
        d.set_capacity(SimTime::ZERO, 50_000);
        d.set_capacity(SimTime::from_secs(1), 100_000);
        let t = d.next_event().expect("still draining");
        let mut done = Vec::new();
        d.step_to(t, &mut done);
        assert_eq!(done.len(), 1);
        // 50 KB in the degraded second, the rest at full rate: 1.5 s.
        assert!((done[0].at.as_secs_f64() - 1.5).abs() < 1e-3, "{}", done[0].at);
    }
}
