//! The throughput driver pinned by recorded results: 40 fixed
//! `(system, ThroughputConfig)` rows (load shapes over all four systems,
//! crash/restart plans, sampled link processes under the adaptation
//! stack), each recorded in `tests/golden/driver_fingerprints.golden` with
//! its four counters and a 64-bit FNV-1a digest of the whole
//! `ThroughputResult`. After an intentional behaviour change, re-bless
//! with `QUASAQ_BLESS=1 cargo test --test driver_fingerprints` and review
//! the golden diff like a gallery golden diff.

use quasaq::media::VideoId;
use quasaq::scenario::{hash_result, Fnv64};
use quasaq::sim::{FaultPlan, LinkModel, LinkPlan, Series, ServerId, SimDuration, SimTime};
use quasaq::workload::CostKind::{Lrb, Random};
use quasaq::workload::SystemKind::{self, Quasaq, Vdbms, VdbmsQosApi};
use quasaq::workload::{
    run_throughput, AdaptationConfig, AdmissionConfig, TestbedConfig, ThroughputConfig,
    ThroughputResult,
};

const GOLDEN: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/driver_fingerprints.golden");

fn base(seed: u64, servers: u32, queued: bool) -> ThroughputConfig {
    ThroughputConfig {
        testbed: TestbedConfig { servers, ..TestbedConfig::default() },
        horizon: SimTime::from_secs(150),
        seed,
        admission: queued.then(AdmissionConfig::default),
        ..ThroughputConfig::fig6()
    }
}

/// `(description, system, config)`: 8 load shapes, then 8 crash plans and
/// 8 link processes each on the plain VDBMS and on QuaSAQ/LRB.
fn rows() -> Vec<(String, SystemKind, ThroughputConfig)> {
    let mut rows = Vec::new();
    let mut push = |systems: &[SystemKind], what: String, cfg: ThroughputConfig| {
        for &system in systems {
            let (seed, servers, queued) = (cfg.seed, cfg.testbed.servers, cfg.admission.is_some());
            let line = format!("{system:?} seed={seed} servers={servers} queued={queued} {what}");
            rows.push((line, system, cfg.clone()));
        }
    };
    // (system, seed, servers, queued, Zipf skew, arrival burst, plan cache)
    for (system, seed, servers, queued, skew, burst, cache) in [
        (VdbmsQosApi, 639, 4, false, 0.8694695126523386, 1, true),
        (Vdbms, 777, 4, true, 1.2988880588031344, 4, true),
        (Quasaq(Lrb), 503, 5, false, 0.5702149768361524, 3, false),
        (VdbmsQosApi, 363, 3, false, 0.26375731885988657, 3, false),
        (Quasaq(Lrb), 224, 5, true, 1.1119921242390791, 3, false),
        (VdbmsQosApi, 578, 2, false, 1.0283576371600658, 1, false),
        (Quasaq(Lrb), 725, 4, true, 1.3571572780252443, 1, false),
        (Quasaq(Random), 105, 2, true, 0.8604537147510886, 3, false),
    ] {
        let mut cfg = base(seed, servers, queued);
        (cfg.video_skew, cfg.arrival_burst, cfg.plan_cache) = (skew, burst, cache);
        push(&[system], format!("skew={skew:?} burst={burst} cache={cache}"), cfg);
    }
    // (seed, servers, queued, crashed server, crash at s, outage s)
    for (seed, servers, queued, server, at, outage) in [
        (728, 2, false, 0, 94, 27),
        (719, 2, false, 0, 96, 47),
        (173, 2, true, 1, 22, 25),
        (52, 4, false, 0, 21, 16),
        (604, 3, true, 1, 72, 65),
        (732, 4, false, 2, 79, 10),
        (266, 2, true, 0, 33, 31),
        (190, 2, true, 1, 53, 55),
    ] {
        let mut cfg = base(seed, servers, queued);
        let secs = SimTime::from_secs;
        cfg.faults = Some(FaultPlan::crash_restart(ServerId(server), secs(at), secs(at + outage)));
        push(&[Vdbms, Quasaq(Lrb)], format!("crash={server} at={at} outage={outage}"), cfg);
    }
    // (seed, servers, queued, link seed, fading, level, dwell s)
    for (seed, servers, queued, link_seed, fading, level, dwell) in [
        (163, 4, true, 840, true, 0.2911045023964169, 47),
        (99, 3, true, 736, false, 0.22201482112529242, 34),
        (474, 4, true, 372, true, 0.6103562432895631, 48),
        (637, 4, false, 332, true, 0.27737409599170526, 43),
        (206, 4, true, 770, false, 0.4905534528001409, 45),
        (413, 2, false, 381, false, 0.47332043573758437, 46),
        (371, 3, true, 28, true, 0.686512656321327, 37),
        (563, 2, false, 397, true, 0.5606802802126973, 30),
    ] {
        let secs = SimDuration::from_secs;
        let model = if fading {
            LinkModel::Fading { mean: level, spread: 0.15, coherence: secs(dwell) }
        } else {
            let dwell = [secs(dwell * 2), secs(dwell), secs(dwell / 2 + 1)];
            LinkModel::Markov { factors: [1.0, level, level / 2.0], dwell }
        };
        let mut cfg = base(seed, servers, queued);
        cfg.links =
            Some(LinkPlan::sample(link_seed, ServerId::first_n(servers), cfg.horizon, model));
        cfg.adaptation = Some(AdaptationConfig::default());
        let what = format!("link_seed={link_seed} fading={fading} level={level:?} dwell={dwell}");
        push(&[Vdbms, Quasaq(Lrb)], what, cfg);
    }
    rows
}

/// FNV-1a over the derived `Debug` rendering: every field (the access
/// statistics and the wait sketch too, which `hash_result` skips), every
/// float in round-trip form, so it separates whatever `eq` separates while
/// every type inside derives `Debug`. `digest_is_as_strong_as_eq` checks.
fn digest(r: &ThroughputResult) -> u64 {
    let mut h = Fnv64::new();
    h.write(format!("{r:?}").as_bytes());
    h.finish()
}

/// Every row must reproduce its recorded counters and digest.
#[test]
fn driver_matches_recorded_digests() {
    let got: Vec<String> = rows()
        .into_iter()
        .map(|(what, system, cfg)| {
            let r = run_throughput(system, &cfg);
            let (q, a, rej, c, d) = (r.queries, r.admitted, r.rejected, r.completed, digest(&r));
            format!(
                "{what} | queries={q} admitted={a} rejected={rej} completed={c} digest={d:016x}"
            )
        })
        .collect();
    if std::env::var_os("QUASAQ_BLESS").is_some_and(|v| v == "1") {
        let text = got.join("\n") + "\n";
        std::fs::write(GOLDEN, text).unwrap_or_else(|e| panic!("cannot bless {GOLDEN}: {e}"));
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden; bless with QUASAQ_BLESS=1");
    let want: Vec<&str> = golden.lines().collect();
    assert_eq!(want.len(), got.len(), "the golden must hold one line per row");
    let drifted: Vec<String> = (want.iter().zip(&got))
        .filter(|(w, g)| w != g)
        .map(|(w, g)| {
            let moved = w.split(' ').zip(g.split(' ')).filter(|(a, b)| a != b);
            let moved: Vec<String> = moved.map(|(a, b)| format!("{a} -> {b}")).collect();
            format!("{}\n  moved: {}", w.split(" | ").next().unwrap(), moved.join(", "))
        })
        .collect();
    assert!(drifted.is_empty(), "drifted (bless if intended):\n{}", drifted.join("\n"));
}

/// A copy of `s` with its last value one ulp off.
fn nudge(s: &Series) -> Series {
    let (mut out, last) = (Series::new(), s.len() - 1);
    for (i, &(t, v)) in s.points().iter().enumerate() {
        out.push(t, if i == last { f64::from_bits(v.to_bits() ^ 1) } else { v });
    }
    out
}

/// The digest moves whenever `eq` sees a change: a run with every
/// optional metric block present (a `None` would fail its toggle),
/// perturbed one field at a time.
#[test]
fn digest_is_as_strong_as_eq() {
    let (_, system, cfg) =
        rows().into_iter().find(|r| r.0.starts_with("Quasaq(Lrb) seed=206 ")).unwrap();
    let base = run_throughput(system, &cfg);
    type Perturb = fn(&mut ThroughputResult);
    let perturbations: [(&str, Perturb); 11] = [
        ("label", |r| r.label.push('.')),
        ("outstanding", |r| r.outstanding = nudge(&r.outstanding)),
        ("rejects", |r| r.rejects = nudge(&r.rejects)),
        ("abandon", |r| r.queue.iter_mut().for_each(|q| q.abandonment = nudge(&q.abandonment))),
        ("completions", |r| r.completions_per_min.record(SimTime::ZERO)),
        ("queue.wait", |r| r.queue.as_mut().unwrap().wait.push(0.0)),
        ("access", |r| r.access.record(VideoId(0), ServerId(0))),
        ("mean_utility", |r| r.mean_utility = None),
        ("queue", |r| r.queue = None),
        ("faults", |r| r.faults = None),
        ("degradation", |r| r.degradation = None),
    ];
    for (what, perturb) in perturbations {
        let mut r = base.clone();
        perturb(&mut r);
        assert_ne!(r, base, "{what}: eq must see the perturbation");
        assert_ne!(digest(&r), digest(&base), "{what}: eq sees it, the digest does not");
    }
    // The sketch alone: after a one-second sample, one at the sketch's
    // 1e-9 zero floor and one an ulp above it agree in every moment.
    let [floor, above] = [1e-9_f64, f64::from_bits(1e-9_f64.to_bits() + 1)].map(|x| {
        let mut r = base.clone();
        r.queue.as_mut().unwrap().wait.push(1.0);
        r.queue.as_mut().unwrap().wait.push(x);
        r
    });
    assert_eq!(hash_result(&floor), hash_result(&above), "only the sketch moved");
    assert_ne!(floor, above);
    assert_ne!(digest(&floor), digest(&above));
}
