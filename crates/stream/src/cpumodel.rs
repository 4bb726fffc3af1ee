//! Concrete CPU model selection for a streaming server node.

use quasaq_sim::cpu::{
    Completion, CpuError, CpuScheduler, Dsrt, DsrtConfig, JobId, ReservationError, TaskId,
    TimeSharing,
};
use quasaq_sim::{SimDuration, SimTime};

/// Which scheduler a node runs.
#[derive(Debug, Clone, Copy)]
pub enum CpuKind {
    /// Solaris-like round-robin time sharing (plain VDBMS).
    TimeSharing {
        /// Scheduling quantum (the paper cites 10 ms on Solaris).
        quantum: SimDuration,
    },
    /// DSRT-style reservation scheduling (QuaSAQ / VDBMS+QoS-API).
    Dsrt(DsrtConfig),
}

impl CpuKind {
    /// The paper's plain-VDBMS CPU: 10 ms quantum time sharing.
    pub fn vdbms_default() -> Self {
        CpuKind::TimeSharing { quantum: SimDuration::from_millis(10) }
    }

    /// The paper's QoS-API CPU: DSRT with 1.6 % overhead.
    pub fn dsrt_default() -> Self {
        CpuKind::Dsrt(DsrtConfig::default())
    }
}

/// A scheduler instance behind a single concrete type so nodes can hold
/// either model without dynamic dispatch.
#[derive(Debug)]
pub enum CpuModel {
    /// Round-robin time sharing.
    TimeSharing(TimeSharing),
    /// DSRT reservations.
    Dsrt(Dsrt),
}

impl CpuModel {
    /// Instantiates the chosen kind.
    pub fn new(kind: CpuKind) -> Self {
        match kind {
            CpuKind::TimeSharing { quantum } => CpuModel::TimeSharing(TimeSharing::new(quantum)),
            CpuKind::Dsrt(cfg) => CpuModel::Dsrt(Dsrt::new(cfg)),
        }
    }

    /// Admits a reserved job when the underlying scheduler supports
    /// reservations; errors on a time-sharing CPU (which cannot guarantee
    /// anything — callers fall back to best-effort jobs).
    pub fn reserve(
        &mut self,
        now: SimTime,
        slice: SimDuration,
        period: SimDuration,
    ) -> Result<JobId, ReservationError> {
        match self {
            CpuModel::Dsrt(d) => d.reserve(now, slice, period),
            CpuModel::TimeSharing(_) => Err(ReservationError::Overloaded {
                requested: slice.as_micros() as f64 / period.as_micros() as f64,
                available: 0.0,
            }),
        }
    }

    /// Reserved utilization (0 for time sharing).
    pub fn reserved_utilization(&self) -> f64 {
        match self {
            CpuModel::Dsrt(d) => d.reserved_utilization(),
            CpuModel::TimeSharing(_) => 0.0,
        }
    }
}

impl CpuScheduler for CpuModel {
    fn add_job(&mut self, now: SimTime) -> JobId {
        match self {
            CpuModel::TimeSharing(c) => c.add_job(now),
            CpuModel::Dsrt(c) => c.add_job(now),
        }
    }

    fn remove_job(&mut self, now: SimTime, job: JobId) {
        match self {
            CpuModel::TimeSharing(c) => c.remove_job(now, job),
            CpuModel::Dsrt(c) => c.remove_job(now, job),
        }
    }

    fn submit(&mut self, now: SimTime, job: JobId, work: SimDuration) -> Result<TaskId, CpuError> {
        match self {
            CpuModel::TimeSharing(c) => c.submit(now, job, work),
            CpuModel::Dsrt(c) => c.submit(now, job, work),
        }
    }

    fn next_event(&self) -> Option<SimTime> {
        match self {
            CpuModel::TimeSharing(c) => c.next_event(),
            CpuModel::Dsrt(c) => c.next_event(),
        }
    }

    fn advance_to(&mut self, t: SimTime) {
        match self {
            CpuModel::TimeSharing(c) => c.advance_to(t),
            CpuModel::Dsrt(c) => c.advance_to(t),
        }
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        match self {
            CpuModel::TimeSharing(c) => c.drain_completions(),
            CpuModel::Dsrt(c) => c.drain_completions(),
        }
    }

    fn pending_completions(&self) -> usize {
        match self {
            CpuModel::TimeSharing(c) => c.pending_completions(),
            CpuModel::Dsrt(c) => c.pending_completions(),
        }
    }

    fn backlog_jobs(&self) -> usize {
        match self {
            CpuModel::TimeSharing(c) => c.backlog_jobs(),
            CpuModel::Dsrt(c) => c.backlog_jobs(),
        }
    }

    fn backlog_work(&self) -> SimDuration {
        match self {
            CpuModel::TimeSharing(c) => c.backlog_work(),
            CpuModel::Dsrt(c) => c.backlog_work(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timesharing_rejects_reservations() {
        let mut m = CpuModel::new(CpuKind::vdbms_default());
        assert!(m
            .reserve(SimTime::ZERO, SimDuration::from_millis(1), SimDuration::from_millis(10))
            .is_err());
        assert_eq!(m.reserved_utilization(), 0.0);
    }

    #[test]
    fn dsrt_accepts_reservations() {
        let mut m = CpuModel::new(CpuKind::dsrt_default());
        let j = m
            .reserve(SimTime::ZERO, SimDuration::from_millis(1), SimDuration::from_millis(10))
            .unwrap();
        assert!(m.reserved_utilization() > 0.09);
        m.remove_job(SimTime::ZERO, j);
        assert!(m.reserved_utilization() < 1e-9);
    }

    #[test]
    fn delegation_runs_work() {
        for kind in [CpuKind::vdbms_default(), CpuKind::dsrt_default()] {
            let mut m = CpuModel::new(kind);
            let j = m.add_job(SimTime::ZERO);
            m.submit(SimTime::ZERO, j, SimDuration::from_millis(3)).unwrap();
            assert_eq!(m.backlog_jobs(), 1);
            let t = m.next_event().unwrap();
            m.advance_to(t);
            let done = m.drain_completions();
            assert_eq!(done.len(), 1);
            assert_eq!(m.backlog_work(), SimDuration::ZERO);
        }
    }
}
