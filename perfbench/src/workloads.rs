//! The benchmark's workloads: what each one runs, at what size, and why.
//!
//! The deployment is fixed: each workload's testbed is the repository's
//! own (`TestbedConfig::default()` or `TestbedConfig::scale`, catalog seed
//! 42), only with shorter clips where noted. Everything that arrives at
//! it is generated from the `--seed` argument: the arrival stream and the
//! link process. The program under test receives only these generated
//! inputs.

use quasaq_media::LibraryConfig;
use quasaq_sim::{LinkModel, LinkPlan, ServerId, SimDuration, SimTime};
use quasaq_workload::{
    AdaptationConfig, AdmissionConfig, CostKind, QopMix, SystemKind, TestbedConfig,
    ThroughputConfig,
};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QuaSAQ/LRB admission at 100 servers.
    AdmitLrb100,
    /// The VDBMS+QoS API baseline on the same cluster: the fluid data plane.
    DataplaneQosapi100,
    /// Zipf traffic with the plan cache, queue, bursts and link dynamics.
    ZipfAdapt30,
    /// The TCP shell on the paper's three-server testbed.
    SvcLoopback3,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AdmitLrb100,
        Workload::DataplaneQosapi100,
        Workload::ZipfAdapt30,
        Workload::SvcLoopback3,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdmitLrb100 => "admit_lrb100",
            Workload::DataplaneQosapi100 => "dataplane_qosapi100",
            Workload::ZipfAdapt30 => "zipf_adapt30",
            Workload::SvcLoopback3 => "svc_loopback3",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The system and run configuration this workload drives for `seed`.
    pub fn spec(self, seed: u64) -> Spec {
        let base = ThroughputConfig { seed, ..ThroughputConfig::fig6() };
        let short_clips = |servers, videos| {
            let tb = TestbedConfig::scale(servers, videos);
            // 30–120 s clips (the paper's go up to 18 min) so sessions
            // finish inside the horizon and churn reaches a steady state.
            TestbedConfig {
                library: LibraryConfig {
                    min_duration: SimDuration::from_secs(30),
                    max_duration: SimDuration::from_secs(120),
                    ..tb.library
                },
                ..tb
            }
        };
        match self {
            // Why: admission dominates. Every query enumerates ~1,200
            // plans, applies the feasibility cut, ranks them with LRB and
            // reserves; the fluid engine is the minor share, and with
            // uniform keys a plan cache would almost never hit, so it
            // stays at its default (off). This is where lazy admission
            // and generator changes should show.
            Workload::AdmitLrb100 => Spec {
                system: SystemKind::Quasaq(CostKind::Lrb),
                cfg: ThroughputConfig {
                    testbed: short_clips(100, 10_000),
                    horizon: SimTime::from_secs(150),
                    arrival_period: Some(SimDuration::from_millis(25)),
                    ..base
                },
            },
            // Why: admission is one reservation per query and never calls
            // the generator or a cost model, so the fluid engine does
            // nearly all the work (next-event scan, advance, water-filling,
            // completions). The main stage for data-plane changes and the
            // no-change control for admission changes.
            Workload::DataplaneQosapi100 => Spec {
                system: SystemKind::VdbmsQosApi,
                cfg: ThroughputConfig {
                    testbed: short_clips(100, 10_000),
                    horizon: SimTime::from_secs(600),
                    arrival_period: Some(SimDuration::from_millis(25)),
                    ..base
                },
            },
            // Why: the same admission layer driven the other way —
            // repeated keys (cache hits, bulk prefetch on same-instant
            // bursts), link re-rates that invalidate cache entries,
            // renegotiations that release and re-reserve, and queue
            // retries. A gain on the uniform path that costs the cached
            // or write-heavy path shows up here.
            Workload::ZipfAdapt30 => {
                let testbed = short_clips(30, 3_000);
                let horizon = SimTime::from_secs(ZIPF_HORIZON_SECS);
                let links = LinkPlan::sample(
                    seed,
                    ServerId::first_n(testbed.servers),
                    horizon,
                    LinkModel::Markov {
                        factors: [1.0, 0.5, 0.2],
                        dwell: [
                            SimDuration::from_secs(120),
                            SimDuration::from_secs(60),
                            SimDuration::from_secs(30),
                        ],
                    },
                );
                Spec {
                    system: SystemKind::Quasaq(CostKind::Lrb),
                    cfg: ThroughputConfig {
                        testbed,
                        horizon,
                        video_skew: 1.1,
                        qop_mix: QopMix::PaperSkewed,
                        arrival_period: Some(SimDuration::from_millis(ZIPF_ARRIVAL_MS)),
                        arrival_burst: ZIPF_BURST,
                        // The plan cache is how this traffic is served
                        // today; this is the one place it is switched on.
                        plan_cache: true,
                        admission: Some(AdmissionConfig::default()),
                        links: Some(links),
                        adaptation: Some(AdaptationConfig::default()),
                        ..base
                    },
                }
            }
            // Why: at three servers a decision costs a few µs, so the wire
            // codec, the channel hop to the brain thread and the socket
            // dominate, and no fluid engine runs. Run by hand, not listed
            // in BENCHMARK.json: its figures follow the host's thread
            // scheduling too closely to hold a regression bound.
            Workload::SvcLoopback3 => Spec {
                system: SystemKind::Quasaq(CostKind::Lrb),
                cfg: ThroughputConfig {
                    testbed: TestbedConfig::default(),
                    horizon: SimTime::from_secs(SVC_STREAM_SECS),
                    ..base
                },
            },
        }
    }

    /// True for the workloads that run `run_throughput_on` in process.
    pub fn in_process(self) -> bool {
        self != Workload::SvcLoopback3
    }
}

/// Horizon of the zipf workload (simulated seconds).
const ZIPF_HORIZON_SECS: u64 = 400;
/// Mean gap between arrival instants of the zipf workload.
const ZIPF_ARRIVAL_MS: u64 = 300;
/// Queries per arrival instant in the zipf workload.
const ZIPF_BURST: usize = 4;
/// Simulated length of the service workload's arrival stream (one arrival
/// per second on average). The generator replays it far faster than real
/// time and cycles it, shifted by this span, when a run outlasts it.
pub const SVC_STREAM_SECS: u64 = 20_000;

/// The `k`-th traffic seed of a run: each in-process run cycles through
/// [`SUB_SEEDS`] arrival streams derived from `--seed`, so one run's
/// figures average over several draws of the traffic, not one.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        seed
    } else {
        (seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(17)
    }
}

/// Traffic draws per in-process run.
pub const SUB_SEEDS: usize = 3;

/// A workload's system and configuration.
pub struct Spec {
    /// The system under test.
    pub system: SystemKind,
    /// The run configuration (testbed, traffic, knobs).
    pub cfg: ThroughputConfig,
}

impl Spec {
    /// The stated input size, printed with every run.
    pub fn describe(&self, queries: usize) -> String {
        let c = &self.cfg;
        let lib = &c.testbed.library;
        format!(
            "system={} servers={} videos={} clips={}-{}s arrival_mean={}ms burst={} \
             horizon={}s queries={} video_skew={} qop_mix={:?} plan_cache={} queue={} \
             links={} adaptation={}",
            self.system.label(),
            c.testbed.servers,
            lib.num_videos,
            lib.min_duration.as_secs_f64(),
            lib.max_duration.as_secs_f64(),
            c.arrival_period.map_or(1000.0, |p| p.as_secs_f64() * 1e3),
            c.arrival_burst,
            c.horizon.as_secs_f64(),
            queries,
            c.video_skew,
            c.qop_mix,
            c.plan_cache,
            c.admission.is_some(),
            c.links.is_some(),
            c.adaptation.is_some(),
        )
    }
}
