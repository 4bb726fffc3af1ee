//! Deterministic scenario-parallel experiment execution.
//!
//! The paper's headline figures sweep many *independent* simulation runs —
//! 3 systems × 5 cost models × replication/skew ablations — and every run
//! owns its seeded RNG and mutable state, sharing only the immutable
//! [`Testbed`](crate::Testbed). That makes scenario fan-out embarrassingly
//! parallel: [`parallel_map`] runs one closure per scenario on scoped
//! threads and collects results **by scenario index**, so the output is
//! bit-identical to a serial loop regardless of scheduling, core count, or
//! which thread finishes first.
//!
//! [`run_throughput_scenarios`] is the ready-made fan-out for
//! [`run_throughput`] scenario lists; fig5 and ad-hoc sweeps use
//! [`parallel_map`] directly.

use crate::throughput::{run_throughput, SystemKind, ThroughputConfig, ThroughputResult};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads a fan-out over `items` scenarios will use:
/// `min(available cores, items)`, at least 1.
pub fn worker_count(items: usize) -> usize {
    let cores = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
    cores.min(items).max(1)
}

/// Applies `f` to every item on scoped worker threads and returns the
/// results in input order.
///
/// Work is distributed dynamically (an atomic cursor), so long scenarios —
/// a 7000 s horizon next to a 300 s one — don't leave workers idle behind
/// a static partition. Determinism contract: `f` receives only the item
/// (plus its index) and must not depend on shared mutable state, which is
/// exactly how the experiment drivers are built (per-run seeded RNGs); the
/// result vector is then a pure function of `items` alone.
///
/// Panics in `f` propagate with their original payload: each worker
/// catches its items' panics, the scope joins, and the panic of the
/// lowest-index failing item is re-raised — the same panic a serial loop
/// would hit first, whichever thread got there first.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = worker_count(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    type Slot<R> = Mutex<Option<std::thread::Result<R>>>;
    let slots: Vec<Slot<R>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let outcome = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                *slots[i].lock().expect("result slot poisoned") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            match slot.into_inner().expect("result slot poisoned").expect("every index was visited")
            {
                Ok(result) => result,
                Err(payload) => resume_unwind(payload),
            }
        })
        .collect()
}

/// Runs every `(system, config)` scenario concurrently via
/// [`run_throughput`], returning results in scenario order — bit-identical
/// to calling `run_throughput` in a serial loop over the same list.
pub fn run_throughput_scenarios(
    scenarios: &[(SystemKind, ThroughputConfig)],
) -> Vec<ThroughputResult> {
    parallel_map(scenarios, |_, (system, cfg)| run_throughput(*system, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::CostKind;
    use quasaq_sim::SimTime;

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, |i, &x| {
            // Stagger finish order so late indices often complete first.
            if i % 7 == 0 {
                std::thread::yield_now();
            }
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u8> = Vec::new();
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[41u8], |i, &x| x as usize + 1 + i), vec![42]);
    }

    #[test]
    #[should_panic(expected = "scenario 3 failed")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        parallel_map(&items, |i, _| {
            if i == 3 {
                panic!("scenario 3 failed");
            }
            i
        });
    }

    /// The tentpole determinism regression: the parallel runner's output is
    /// bit-identical (full `ThroughputResult` equality, floats included) to
    /// a serial loop over the same scenario list.
    #[test]
    fn parallel_scenarios_bit_identical_to_serial() {
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(120),
            seed: 23,
            ..ThroughputConfig::fig6()
        };
        let scenarios: Vec<(SystemKind, ThroughputConfig)> = vec![
            (SystemKind::Vdbms, cfg.clone()),
            (SystemKind::VdbmsQosApi, cfg.clone()),
            (SystemKind::Quasaq(CostKind::Lrb), cfg.clone()),
            (SystemKind::Quasaq(CostKind::Random), cfg),
        ];
        let serial: Vec<ThroughputResult> =
            scenarios.iter().map(|(s, c)| run_throughput(*s, c)).collect();
        let parallel = run_throughput_scenarios(&scenarios);
        assert_eq!(serial, parallel);
    }

    /// Same contract with the queued admission front end enabled: queue
    /// state (retries, ladder walks, abandonments, deadlines) is driven by
    /// the same simulated-time event loop, so parallel scheduling must not
    /// perturb a single bit of it — queue metrics included.
    #[test]
    fn queued_scenarios_bit_identical_to_serial() {
        let cfg = ThroughputConfig {
            horizon: SimTime::from_secs(120),
            seed: 29,
            admission: Some(crate::AdmissionConfig::default()),
            ..ThroughputConfig::fig6()
        };
        let scenarios: Vec<(SystemKind, ThroughputConfig)> = vec![
            (SystemKind::Vdbms, cfg.clone()),
            (SystemKind::VdbmsQosApi, cfg.clone()),
            (SystemKind::Quasaq(CostKind::Lrb), cfg),
        ];
        let serial: Vec<ThroughputResult> =
            scenarios.iter().map(|(s, c)| run_throughput(*s, c)).collect();
        let parallel = run_throughput_scenarios(&scenarios);
        assert_eq!(serial, parallel);
        for r in &parallel {
            let queue = r.queue.as_ref().expect("front end was enabled");
            assert_eq!(queue.wait.count(), r.admitted);
        }
    }
}
