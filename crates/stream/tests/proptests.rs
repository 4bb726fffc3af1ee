//! Property-based tests of the streaming executor's conservation and
//! timeliness invariants.

use proptest::prelude::*;
use quasaq_media::{
    CipherAlgo, DeliveryCostModel, DropStrategy, FrameRate, FrameTrace, GopPattern, TraceParams,
};
use quasaq_sim::{ServerId, SharePolicy, SimDuration, SimTime};
use quasaq_stream::{
    CpuPolicy, DispatchConfig, FluidEngine, FrameSchedule, NodeConfig, SessionConfig, StreamEngine,
    Transforms,
};

fn trace(seed: u64, secs: u64, rate: u64) -> FrameTrace {
    FrameTrace::generate(
        seed,
        &TraceParams::with_bitrate(
            FrameRate::NTSC_FILM,
            SimDuration::from_secs(secs),
            GopPattern::mpeg1_n15(),
            rate as f64,
        ),
    )
}

/// Streams one watched [`FluidEngine`] session from server 0 while server
/// 1 takes `churn` — short 100 KB/s sessions as `(gap since the previous
/// arrival in µs, bytes)` — and returns the watched session's completion
/// instant and the bits of its backlog at four fixed probe instants.
fn watch_server0(
    policy: SharePolicy,
    bytes: u64,
    rate: u64,
    churn: &[(u64, u64)],
) -> (Option<SimTime>, Vec<u64>) {
    let mut eng = FluidEngine::new(ServerId::first_n(2), policy, 3_200_000);
    let watched = eng.add_session(SimTime::ZERO, ServerId(0), bytes, rate).unwrap();
    let nominal_us = bytes * 1_000_000 / rate;
    let mut probes = (1..=4).map(|k| SimTime::from_micros(nominal_us * k / 5 + 7)).peekable();
    let mut arrivals = churn
        .iter()
        .scan(SimTime::ZERO, |t, &(gap, b)| {
            *t += SimDuration::from_micros(gap);
            Some((*t, b))
        })
        .peekable();
    let (mut done_at, mut bits) = (None, Vec::new());
    while let Some(t) = [eng.next_event(), arrivals.peek().map(|a| a.0), probes.peek().copied()]
        .into_iter()
        .flatten()
        .min()
    {
        eng.advance_to(t);
        for d in eng.drain_completions() {
            if d.id == watched {
                done_at = Some(d.at);
            }
        }
        while let Some((_, b)) = arrivals.next_if(|a| a.0 == t) {
            let _ = eng.add_session(t, ServerId(1), b, 100_000);
        }
        if probes.next_if_eq(&t).is_some() {
            bits.push(eng.session_backlog(watched).to_bits());
        }
    }
    (done_at, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Schedule conservation: the schedule delivers exactly the frames
    /// the transforms keep, with non-decreasing due times and total bytes
    /// matching the per-frame filter applied directly.
    #[test]
    fn schedule_conserves_filtered_frames(
        seed in any::<u64>(),
        drop_idx in 0usize..4,
        burst in any::<bool>(),
    ) {
        let t = trace(seed, 20, 100_000);
        let transforms = Transforms {
            transcode: None,
            drop: DropStrategy::ALL[drop_idx],
            cipher: CipherAlgo::None,
        };
        let dispatch = if burst { DispatchConfig::default() } else { DispatchConfig::uniform() };
        let s = FrameSchedule::build(&t, &transforms, &DeliveryCostModel::default(), &dispatch);

        // Direct filter application.
        let mut filter = transforms.drop_filter();
        let expected: Vec<_> = t
            .frames()
            .iter()
            .filter(|f| filter.admit(f.ftype))
            .collect();
        prop_assert_eq!(s.len(), expected.len());
        prop_assert_eq!(
            s.delivered_bytes(),
            expected.iter().map(|f| f.bytes as u64).sum::<u64>()
        );
        for w in s.frames().windows(2) {
            prop_assert!(w[0].due <= w[1].due);
        }
        // Every delivered display index appears exactly once.
        let mut idx: Vec<u64> = s.frames().iter().map(|f| f.display_index).collect();
        idx.sort_unstable();
        idx.dedup();
        prop_assert_eq!(idx.len(), s.len());
    }

    /// Engine conservation: every scheduled frame of every session is
    /// processed exactly once and delivered exactly once, regardless of
    /// the contention mix.
    #[test]
    fn engine_processes_every_frame_once(
        seed in any::<u64>(),
        n_sessions in 1usize..6,
        reserved in any::<bool>(),
    ) {
        let node = if reserved {
            NodeConfig::qos(10_000_000)
        } else {
            NodeConfig::vdbms(10_000_000)
        };
        let mut engine = StreamEngine::new([(ServerId(0), node)]);
        let mut ids = Vec::new();
        for i in 0..n_sessions {
            let s = FrameSchedule::build(
                &trace(seed ^ i as u64, 10, 100_000),
                &Transforms::none(),
                &DeliveryCostModel::default(),
                &DispatchConfig::default(),
            );
            let n = s.len();
            let cpu = if reserved {
                CpuPolicy::Reserved {
                    share: (s.mean_cpu_share() * 1.3).min(0.3),
                    period: SimDuration::from_millis(625),
                }
            } else {
                CpuPolicy::BestEffort
            };
            let id = engine
                .add_session(
                    SimTime::ZERO,
                    SessionConfig {
                        server: ServerId(0),
                        schedule: s,
                        cpu,
                        link_rate_bps: Some(130_000),
                    },
                )
                .unwrap();
            ids.push((id, n));
        }
        prop_assert!(engine.run_to_completion(SimTime::from_secs(600)));
        for (id, n) in ids {
            let report = engine.report(id);
            prop_assert!(report.is_complete());
            prop_assert_eq!(report.frames().len(), n);
            for f in report.frames() {
                prop_assert!(f.processed.is_some());
                prop_assert!(f.delivered.is_some());
                // Causality: due <= processed <= delivered.
                prop_assert!(f.processed.unwrap() >= f.due);
                prop_assert!(f.delivered.unwrap() >= f.processed.unwrap());
            }
        }
        prop_assert_eq!(engine.active_sessions(), 0);
    }

    /// Reserved sessions are isolated: adding best-effort competitors
    /// never changes a reserved session's processing times.
    #[test]
    fn reservation_isolation(seed in any::<u64>(), hogs in 0usize..8) {
        let build = |n_hogs: usize| {
            let mut engine = StreamEngine::new([(ServerId(0), NodeConfig::qos(10_000_000))]);
            let s = FrameSchedule::build(
                &trace(seed, 10, 193_000),
                &Transforms::none(),
                &DeliveryCostModel::default(),
                &DispatchConfig::default(),
            );
            let monitored = engine
                .add_session(
                    SimTime::ZERO,
                    SessionConfig {
                        server: ServerId(0),
                        schedule: s.clone(),
                        cpu: CpuPolicy::Reserved {
                            share: (s.mean_cpu_share() * 1.3).min(0.3),
                            period: SimDuration::from_millis(625),
                        },
                        link_rate_bps: Some(250_000),
                    },
                )
                .unwrap();
            for i in 0..n_hogs {
                let hs = FrameSchedule::build(
                    &trace(seed ^ (0x9000 + i as u64), 10, 193_000),
                    &Transforms::none(),
                    &DeliveryCostModel::default(),
                    &DispatchConfig::default(),
                );
                engine
                    .add_session(
                        SimTime::ZERO,
                        SessionConfig {
                            server: ServerId(0),
                            schedule: hs,
                            cpu: CpuPolicy::BestEffort,
                            link_rate_bps: Some(250_000),
                        },
                    )
                    .unwrap();
            }
            engine.run_until(SimTime::from_secs(60));
            engine.report(monitored).processing_times()
        };
        let alone = build(0);
        let contended = build(hogs);
        prop_assert_eq!(alone, contended);
    }

    /// Links do not couple across servers: a fluid session's completion
    /// instant and its backlog bits at fixed probe times are the same
    /// whether the other server is idle or churning short sessions.
    #[test]
    fn fluid_servers_do_not_couple(
        reserved in any::<bool>(),
        bytes in 100_000u64..3_000_000,
        rate in 50_000u64..500_000,
        churn in proptest::collection::vec((1u64..2_000_000, 1_000u64..200_000), 1..40),
    ) {
        let policy = if reserved { SharePolicy::Reserved } else { SharePolicy::FairShare };
        let idle = watch_server0(policy, bytes, rate, &[]);
        prop_assert!(idle.0.is_some());
        prop_assert_eq!(idle, watch_server0(policy, bytes, rate, &churn));
    }
}
