//! Property-based tests of the simulation kernel's invariants.

use proptest::prelude::*;
use quasaq_sim::cpu::{CpuScheduler, Dsrt, DsrtConfig, TimeSharing};
use quasaq_sim::{EventQueue, OnlineStats, Rng, SharedLink, SimDuration, SimTime, Zipf};

#[path = "support/old_link.rs"]
mod old_link;
use old_link::OracleLink;

/// Drives a scheduler until idle, returning completions.
fn drain_cpu<S: CpuScheduler>(cpu: &mut S, horizon: SimTime) -> Vec<quasaq_sim::Completion> {
    let mut done = Vec::new();
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 1_000_000, "scheduler failed to converge");
        match cpu.next_event() {
            Some(t) if t <= horizon => {
                cpu.advance_to(t);
                done.extend(cpu.drain_completions());
            }
            _ => {
                cpu.advance_to(horizon);
                done.extend(cpu.drain_completions());
                return done;
            }
        }
    }
}

/// A Zipf rank in `[0, n)` drawn by an inverse-CDF walk that computes
/// the normaliser and every weight `1/k^s` afresh.
fn zipf_walk(rng: &mut Rng, n: usize, s: f64) -> usize {
    let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
    let mut u = rng.next_f64() * norm;
    for k in 1..=n {
        let w = 1.0 / (k as f64).powf(s);
        if u < w {
            return k - 1;
        }
        u -= w;
    }
    n - 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events always pop in non-decreasing time order regardless of the
    /// insertion order.
    #[test]
    fn event_queue_pops_in_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn event_queue_cancellation_is_exact(
        times in proptest::collection::vec(0u64..100_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule(SimTime::from_micros(t), i)))
            .collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                q.cancel(*id);
            } else {
                expected.push(*i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, e)) = q.pop() {
            got.push(e);
        }
        got.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Time-sharing conservation: every submitted task completes exactly
    /// once, no earlier than its total work, and per-job FIFO order holds.
    #[test]
    fn timesharing_conserves_tasks(
        jobs in 1usize..6,
        tasks in proptest::collection::vec((0usize..6, 0u64..20_000), 1..40),
    ) {
        let mut cpu = TimeSharing::solaris_default();
        let ids: Vec<_> = (0..jobs).map(|_| cpu.add_job(SimTime::ZERO)).collect();
        let mut total_work = 0u64;
        let mut submitted = Vec::new();
        for &(j, w) in &tasks {
            let job = ids[j % jobs];
            let task = cpu.submit(SimTime::ZERO, job, SimDuration::from_micros(w)).unwrap();
            submitted.push((job, task));
            total_work += w;
        }
        let done = drain_cpu(&mut cpu, SimTime::from_secs(3600));
        prop_assert_eq!(done.len(), submitted.len());
        // The CPU is work-conserving: the last completion is exactly the
        // total work (single processor, no idling while work pending).
        let last = done.iter().map(|c| c.at).max().unwrap();
        prop_assert_eq!(last.as_micros(), total_work);
        // FIFO per job.
        for &(job, _) in &submitted {
            let seq: Vec<_> = done.iter().filter(|c| c.job == job).map(|c| c.task).collect();
            let mut sorted = seq.clone();
            sorted.sort();
            prop_assert_eq!(seq, sorted);
        }
    }

    /// DSRT admission accounting: utilization never exceeds the effective
    /// limit and releasing restores capacity.
    #[test]
    fn dsrt_admission_accounting(reqs in proptest::collection::vec((1u64..50, 50u64..100), 1..30)) {
        let mut cpu = Dsrt::new(DsrtConfig { overhead_fraction: 0.0, ..DsrtConfig::default() });
        let mut admitted = Vec::new();
        for &(slice, period) in &reqs {
            if let Ok(j) = cpu.reserve(
                SimTime::ZERO,
                SimDuration::from_millis(slice),
                SimDuration::from_millis(period),
            ) {
                admitted.push((j, slice as f64 / period as f64));
            }
            prop_assert!(cpu.reserved_utilization() <= 1.0 + 1e-9);
        }
        let expected: f64 = admitted.iter().map(|&(_, u)| u).sum();
        prop_assert!((cpu.reserved_utilization() - expected).abs() < 1e-9);
        for (j, _) in admitted {
            cpu.remove_job(SimTime::ZERO, j);
        }
        prop_assert!(cpu.reserved_utilization().abs() < 1e-9);
    }

    /// DSRT conservation: all tasks complete (given enough slack) exactly
    /// once.
    #[test]
    fn dsrt_conserves_tasks(
        reserved_tasks in proptest::collection::vec(0u64..5_000, 1..20),
        be_tasks in proptest::collection::vec(0u64..5_000, 0..20),
    ) {
        let mut cpu = Dsrt::new(DsrtConfig { overhead_fraction: 0.0, ..DsrtConfig::default() });
        let r = cpu
            .reserve(SimTime::ZERO, SimDuration::from_millis(5), SimDuration::from_millis(10))
            .unwrap();
        let be = cpu.add_job(SimTime::ZERO);
        let mut n = 0;
        for &w in &reserved_tasks {
            cpu.submit(SimTime::ZERO, r, SimDuration::from_micros(w)).unwrap();
            n += 1;
        }
        for &w in &be_tasks {
            cpu.submit(SimTime::ZERO, be, SimDuration::from_micros(w)).unwrap();
            n += 1;
        }
        let done = drain_cpu(&mut cpu, SimTime::from_secs(3600));
        prop_assert_eq!(done.len(), n);
        prop_assert_eq!(cpu.backlog_jobs(), 0);
    }

    /// Link conservation under fair share: every transfer completes, and
    /// total completion time is at least total_bytes/capacity.
    #[test]
    fn link_conserves_transfers(
        sizes in proptest::collection::vec(1u64..200_000, 1..30),
        nflows in 1usize..5,
    ) {
        let mut link = SharedLink::fair_share(1_000_000);
        let flows: Vec<_> =
            (0..nflows).map(|_| link.open_flow(SimTime::ZERO, None).unwrap()).collect();
        for (i, &s) in sizes.iter().enumerate() {
            link.send(SimTime::ZERO, flows[i % nflows], s).unwrap();
        }
        let mut done = Vec::new();
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 100_000, "link failed to converge");
            match link.next_event() {
                Some(t) => {
                    link.advance_to(t);
                    done.extend(link.drain_completions());
                }
                None => break,
            }
        }
        prop_assert_eq!(done.len(), sizes.len());
        let total: u64 = sizes.iter().sum();
        let min_finish = total as f64 / 1_000_000.0;
        let last = done.iter().map(|d| d.at).max().unwrap().as_secs_f64();
        // Work-conserving: finishes within a tick of the fluid bound.
        prop_assert!(last >= min_finish - 1e-3, "{} < {}", last, min_finish);
        prop_assert!(last <= min_finish + 0.05 * sizes.len() as f64 + 1e-3);
    }

    /// Reserved-link isolation: a flow's completion times depend only on
    /// its own reservation.
    #[test]
    fn reserved_link_isolation(
        rate_a in 1_000u64..100_000,
        rate_b in 1_000u64..100_000,
        bytes in 1u64..1_000_000,
    ) {
        prop_assume!(rate_a + rate_b <= 3_200_000);
        // Flow A alone.
        let mut solo = SharedLink::reserved(3_200_000);
        let fa = solo.open_flow(SimTime::ZERO, Some(rate_a)).unwrap();
        solo.send(SimTime::ZERO, fa, bytes).unwrap();
        let t_solo = solo.next_event().unwrap();
        // Flow A with a competing reserved flow B.
        let mut both = SharedLink::reserved(3_200_000);
        let fa2 = both.open_flow(SimTime::ZERO, Some(rate_a)).unwrap();
        let fb = both.open_flow(SimTime::ZERO, Some(rate_b)).unwrap();
        both.send(SimTime::ZERO, fb, bytes).unwrap();
        both.send(SimTime::ZERO, fa2, bytes).unwrap();
        both.advance_to(t_solo);
        let done = both.drain_completions();
        prop_assert!(
            done.iter().any(|d| d.flow == fa2 && d.at == t_solo),
            "reserved flow was perturbed"
        );
    }

    /// OnlineStats matches a direct two-pass computation.
    #[test]
    fn online_stats_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.variance() - var).abs() < 1e-4 * (1.0 + var));
    }

    /// A [`Zipf`] table draws exactly what the walk that recomputes every
    /// weight and the normaliser per draw draws, and leaves the generator
    /// in the same state.
    #[test]
    fn zipf_table_matches_the_per_draw_walk(
        seed in any::<u64>(),
        n in 1usize..1_000,
        s in 0.0f64..3.0,
        uniform in any::<bool>(),
    ) {
        let s = if uniform { 0.0 } else { s };
        let zipf = Zipf::new(n, s);
        let (mut table, mut walk) = (Rng::new(seed), Rng::new(seed));
        for _ in 0..100 {
            prop_assert_eq!(zipf.sample(&mut table), zipf_walk(&mut walk, n, s));
        }
        prop_assert_eq!(table.next_u64(), walk.next_u64());
    }

    /// Forked RNG streams are reproducible and uniform draws stay in
    /// bounds.
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>(), stream in any::<u64>(), bound in 1u64..1_000_000) {
        let root = Rng::new(seed);
        let mut a = root.fork(stream);
        let mut b = root.fork(stream);
        for _ in 0..32 {
            let x = a.below(bound);
            prop_assert_eq!(x, b.below(bound));
            prop_assert!(x < bound);
        }
    }

    /// The event queue is event-for-event identical to a trivially
    /// correct model under random schedule / cancel / pop / peek traces:
    /// a `Vec` of live `(time, seq, payload)` entries whose next event is
    /// found by a linear scan for the minimum `(time, seq)`. Covers tie
    /// order, tombstoned cancellations, and cancels issued after the event
    /// already fired or was already cancelled.
    #[test]
    fn event_queue_matches_model(
        ops in proptest::collection::vec((0u8..5, 0u64..200_000, any::<usize>()), 1..400),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model: Vec<(u64, u64, u32)> = Vec::new();
        let mut now = 0u64;
        // The k-th schedule produced ids[k] in the queue and seq k in the
        // model. Popped/cancelled ids stay in the log so a later cancel
        // exercises the fired-tombstone path.
        let mut ids = Vec::new();
        let model_next = |model: &Vec<(u64, u64, u32)>| {
            (0..model.len()).min_by_key(|&k| (model[k].0, model[k].1))
        };
        for (i, &(op, offset, pick)) in ops.iter().enumerate() {
            match op {
                // Bias towards scheduling (two opcodes) so traces grow; the
                // second lands within 16 µs of now so ties are common.
                0 | 1 => {
                    let offset = if op == 0 { offset } else { offset % 16 };
                    ids.push(q.schedule_in(SimDuration::from_micros(offset), i as u32));
                    model.push((now + offset, ids.len() as u64 - 1, i as u32));
                }
                2 => {
                    if !ids.is_empty() {
                        let k = pick % ids.len();
                        q.cancel(ids[k]);
                        model.retain(|e| e.1 != k as u64);
                    }
                }
                3 => {
                    let expected = model_next(&model).map(|k| {
                        let (t, _, payload) = model.remove(k);
                        now = t;
                        (SimTime::from_micros(t), payload)
                    });
                    prop_assert_eq!(q.pop(), expected, "pop diverged at op {}", i);
                    prop_assert_eq!(q.now(), SimTime::from_micros(now));
                }
                _ => {
                    let expected = model_next(&model).map(|k| SimTime::from_micros(model[k].0));
                    prop_assert_eq!(q.peek_time(), expected, "peek diverged at op {}", i);
                }
            }
            prop_assert_eq!(q.live_len(), model.len(), "live_len diverged at op {}", i);
            prop_assert!(q.len() >= q.live_len());
        }
        // Drain to the end: the full tail must match the model's order.
        model.sort_unstable_by_key(|e| (e.0, e.1));
        for (t, _, payload) in model {
            prop_assert_eq!(q.pop(), Some((SimTime::from_micros(t), payload)), "tail drain diverged");
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }

    /// The arena-backed `SharedLink` behaves bit-identically to the old
    /// map-based implementation under random open / close / send / advance
    /// traces, on both sharing policies: same admission results, same flow
    /// ids, same rates, same event times, and the same completion stream.
    #[test]
    fn arena_link_matches_map_oracle(
        reserved in proptest::bool::ANY,
        ops in proptest::collection::vec((0u8..6, 0u64..8, any::<usize>()), 1..250),
    ) {
        const CAPACITY: u64 = 1_000_000;
        let (mut arena, mut oracle) = if reserved {
            (SharedLink::reserved(CAPACITY), OracleLink::reserved(CAPACITY))
        } else {
            (SharedLink::fair_share(CAPACITY), OracleLink::fair_share(CAPACITY))
        };
        let mut now = SimTime::ZERO;
        let mut flows = Vec::new();
        for (i, &(op, arg, pick)) in ops.iter().enumerate() {
            match op {
                0 | 1 => {
                    // Open with a rate drawn from a small menu so Reserved
                    // links saturate and FairShare caps collide (equal-cap
                    // water-filling ties are the interesting case).
                    let rate = match arg {
                        0 => None,
                        r => Some(r * CAPACITY / 8),
                    };
                    let (ra, ro) = (arena.open_flow(now, rate), oracle.open_flow(now, rate));
                    prop_assert_eq!(&ra, &ro, "open diverged at op {}", i);
                    if let Ok(id) = ra {
                        flows.push(id);
                    }
                }
                2 => {
                    if !flows.is_empty() {
                        // Close ids even after they were closed: the
                        // idempotent path must agree too.
                        let f = flows[pick % flows.len()];
                        arena.close_flow(now, f);
                        oracle.close_flow(now, f);
                    }
                }
                3 => {
                    if !flows.is_empty() {
                        let f = flows[pick % flows.len()];
                        let bytes = (arg + 1) * 40_000;
                        prop_assert_eq!(
                            arena.send(now, f, bytes),
                            oracle.send(now, f, bytes),
                            "send diverged at op {}",
                            i
                        );
                    }
                }
                4 => {
                    now += SimDuration::from_micros(arg * 125_000);
                    arena.advance_to(now);
                    oracle.advance_to(now);
                }
                _ => {
                    prop_assert_eq!(
                        arena.drain_completions(),
                        oracle.drain_completions(),
                        "completion stream diverged at op {}",
                        i
                    );
                }
            }
            prop_assert_eq!(arena.open_flows(), oracle.open_flows());
            prop_assert_eq!(arena.backlogged_flows(), oracle.backlogged_flows());
            prop_assert_eq!(arena.backlog_bytes(), oracle.backlog_bytes(), "backlog at op {}", i);
            prop_assert_eq!(arena.reserved_bps(), oracle.reserved_bps());
            prop_assert_eq!(arena.next_event(), oracle.next_event(), "next_event at op {}", i);
            // Rates must agree per flow; the reporting order is allowed to
            // differ (slot order vs id order inside equal-cap tie groups).
            let mut ra = arena.current_rates();
            let mut ro = oracle.current_rates();
            ra.sort_by_key(|r| r.0);
            ro.sort_by_key(|r| r.0);
            prop_assert_eq!(ra, ro, "rates diverged at op {}", i);
            for &f in &flows {
                prop_assert_eq!(arena.flow_backlog_bytes(f), oracle.flow_backlog_bytes(f));
            }
        }
        // Run every queued byte to completion and compare the final tally.
        loop {
            let (na, no) = (arena.next_event(), oracle.next_event());
            prop_assert_eq!(na, no, "final drain event times diverged");
            let Some(t) = na else { break };
            arena.advance_to(t);
            oracle.advance_to(t);
        }
        prop_assert_eq!(arena.drain_completions(), oracle.drain_completions());
        prop_assert_eq!(arena.backlog_bytes(), 0.0);
    }
}
