//! Wall-clock benchmark of the scenario-parallel experiment runner.
//!
//! Runs the Fig 6, Fig 7, queued-admission, and availability-under-faults
//! harness scenario suites twice — once as a plain serial loop over
//! [`run_throughput`], once through [`run_throughput_scenarios`] — verifies
//! the outputs are bit-identical, and records the timings (plus the fault
//! suite's robustness metrics) in `BENCH_throughput.json` at the repo root:
//!
//! ```text
//! cargo run --release -p quasaq-bench --bin bench [-- --quick]
//! ```
//!
//! `--quick` shrinks the horizons so the determinism check stays cheap
//! enough for CI, and skips the JSON write so CI runs never clobber the
//! committed full-mode artifact.
//!
//! `--scenario <file>` drives the declarative scenario DSL
//! (`quasaq-scenario`): it executes one TOML scenario serially and on the
//! scenario-parallel runner, asserts byte-identical reports, and prints
//! harness-shaped JSON rows. (The committed `scenarios/*.toml` gallery and
//! its goldens are checked by `cargo test --test scenario_gallery`.)
//! Speedup is bounded by the machine: on a single core the runner degrades to the
//! serial loop (speedup ~1.0), which the artifact records via the `cores`
//! field rather than pretending otherwise.
//!
//! `--load [--quick]` drives the served control plane (`quasaq-shell`) in
//! the service-shell throughput study: it first pins decision-identity
//! against the in-process driver, then measures wall-clock requests/sec
//! and admissions/sec through the loopback at 1/2/4 shell threads and
//! splices a `"service"` section into `BENCH_throughput.json` (skipped in
//! `--quick`, which is the CI smoke variant). A shell that runs until
//! killed is `quasaq-shell`'s `serve` binary.

use std::time::Instant;

use quasaq_sim::{FaultPlan, LinkModel, LinkPlan, LinkSpec, ServerId, SimDuration, SimTime};
use quasaq_workload::{
    run_throughput, run_throughput_scenarios, worker_count, AdaptationConfig, CostKind,
    DegradationMetrics, FaultMetrics, SystemKind, Testbed, TestbedConfig, ThroughputConfig,
    ThroughputResult,
};

struct Suite {
    name: &'static str,
    scenarios: Vec<(SystemKind, ThroughputConfig)>,
}

struct Timing {
    name: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    bit_identical: bool,
    /// Robustness metrics per fault-injected scenario (label, metrics).
    robustness: Vec<(String, FaultMetrics)>,
}

fn suites(quick: bool) -> Vec<Suite> {
    let mut fig6 = ThroughputConfig::fig6();
    let mut fig7 = ThroughputConfig::fig7();
    let mut queued = ThroughputConfig::queued();
    let mut avail = ThroughputConfig::availability();
    if quick {
        fig6.horizon = SimTime::from_secs(120);
        fig7.horizon = SimTime::from_secs(120);
        queued.horizon = SimTime::from_secs(120);
        // Shrink the outage with the horizon so the crash still fires.
        avail.horizon = SimTime::from_secs(120);
        avail.faults = Some(FaultPlan::crash_restart(
            ServerId(0),
            SimTime::from_secs(40),
            SimTime::from_secs(80),
        ));
    }
    vec![
        Suite {
            name: "fig6",
            scenarios: vec![
                (SystemKind::VdbmsQosApi, fig6.clone()),
                (SystemKind::Quasaq(CostKind::Lrb), fig6.clone()),
                (SystemKind::Vdbms, fig6),
            ],
        },
        Suite {
            name: "fig7",
            scenarios: vec![
                (SystemKind::Quasaq(CostKind::Lrb), fig7.clone()),
                (SystemKind::Quasaq(CostKind::Random), fig7),
            ],
        },
        // The queued admission front end stresses a different event mix
        // (retries, ladder walks, stream deadlines) through the same
        // serial-vs-parallel bit-identity check.
        Suite {
            name: "queued",
            scenarios: vec![
                (SystemKind::Vdbms, queued.clone()),
                (SystemKind::VdbmsQosApi, queued.clone()),
                (SystemKind::Quasaq(CostKind::Lrb), queued),
            ],
        },
        // Fault injection adds crash/failover/requeue edges to the event
        // mix; the robustness metrics land in the JSON artifact.
        Suite {
            name: "availability",
            scenarios: vec![
                (SystemKind::Vdbms, avail.clone()),
                (SystemKind::VdbmsQosApi, avail.clone()),
                (SystemKind::Quasaq(CostKind::Lrb), avail),
            ],
        },
    ]
}

/// One cluster size of the scaling study: a Spread-placement testbed with
/// load proportional to the cluster.
struct ScaleTiming {
    servers: u32,
    videos: usize,
    ms: f64,
}

fn scale_cases(quick: bool) -> Vec<(u32, usize)> {
    // 100 videos per server keeps the catalog proportional to the
    // cluster: the 100-server rung is the ISSUE's 10^4-video testbed.
    let sizes: &[u32] = if quick { &[3, 30] } else { &[3, 30, 100] };
    sizes.iter().map(|&s| (s, s as usize * 100)).collect()
}

/// Samples per timed run: cheap rungs get more, since their runs are so
/// short that a single scheduler hiccup shifts a ratio by several percent.
fn reps_for(servers: u32) -> usize {
    if servers <= 3 {
        20
    } else if servers <= 30 {
        5
    } else {
        3
    }
}

/// Interleaved best-of-`reps` timing of two deterministic runs. A
/// single-shot timing on a shared box jitters by ~10%, which swamps the
/// few-percent deltas the comparison rows exist to measure; alternating
/// the sides inside one sampling loop makes clock drift hit both equally,
/// and best-of-N converges on each side's undisturbed cost.
#[allow(clippy::type_complexity)]
fn timed_pair<R>(
    reps: usize,
    mut a: impl FnMut() -> R,
    mut b: impl FnMut() -> R,
) -> ((f64, R), (f64, R)) {
    fn ms(t: Instant) -> f64 {
        t.elapsed().as_secs_f64() * 1e3
    }
    let t = Instant::now();
    let a_out = a();
    let mut a_ms = ms(t);
    let t = Instant::now();
    let b_out = b();
    let mut b_ms = ms(t);
    for _ in 1..reps {
        let t = Instant::now();
        let _ = a();
        a_ms = a_ms.min(ms(t));
        let t = Instant::now();
        let _ = b();
        b_ms = b_ms.min(ms(t));
    }
    ((a_ms, a_out), (b_ms, b_out))
}

/// One rung of the plan-cache study: the same Zipf-skewed run with full
/// enumeration vs the memoized plan cache. `burst > 1` turns it into the
/// flash-crowd case, where same-instant arrivals go through the
/// bulk-admit prefetch that amortizes enumeration across the batch.
struct CachedTiming {
    servers: u32,
    videos: usize,
    burst: usize,
    uncached_ms: f64,
    cached_ms: f64,
    bit_identical: bool,
}

fn run_cached(servers: u32, videos: usize, burst: usize, quick: bool) -> CachedTiming {
    let horizon = SimTime::from_secs(if quick { 30 } else { 120 });
    let period_us = (3_000_000 / servers as u64).max(1);
    let uncached_cfg = ThroughputConfig {
        testbed: quasaq_workload::TestbedConfig::scale(servers, videos),
        horizon,
        arrival_period: Some(quasaq_sim::SimDuration::from_micros(period_us)),
        // Uniform access over a 10^4-video catalog with 36 uniform QoP
        // rungs would make cache hits vanishingly rare; the Zipf skew
        // plus the paper-calibrated QoP mix (~85% of requests at the top
        // rung) model the popular-title traffic the cache exists for
        // (EXPERIMENTS.md).
        video_skew: 1.1,
        qop_mix: quasaq_workload::QopMix::PaperSkewed,
        arrival_burst: burst,
        ..ThroughputConfig::fig6()
    };
    let cached_cfg = ThroughputConfig { plan_cache: true, ..uncached_cfg.clone() };
    let _ = Testbed::shared(uncached_cfg.testbed.clone());
    let ((uncached_ms, uncached), (cached_ms, cached)) = timed_pair(
        reps_for(servers),
        || run_throughput(SystemKind::Quasaq(CostKind::Lrb), &uncached_cfg),
        || run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cached_cfg),
    );
    CachedTiming {
        servers,
        videos,
        burst,
        uncached_ms,
        cached_ms,
        bit_identical: uncached == cached,
    }
}

/// One rung of the stochastic-link study: the same scaled testbed run
/// three ways — steady (fixed links), degraded (a sampled Markov capacity
/// process with the QoP ladder frozen), and adaptive (same process with
/// the congestion-driven renegotiation loop and admission brownout on) —
/// with the adaptive run checked to replay bit-identically and its
/// degradation counters recorded.
struct StochasticTiming {
    servers: u32,
    videos: usize,
    steady_ms: f64,
    degraded_ms: f64,
    adaptive_ms: f64,
    bit_identical: bool,
    degraded_violation_s: f64,
    adaptive_violation_s: f64,
    degradation: DegradationMetrics,
}

/// The Markov good/degraded/bad capacity process the stochastic rows
/// sample, dwell times scaled so several transitions land inside the
/// horizon. The bad state holds a third of the stationary distribution:
/// brownout arms when ≥25% of servers are congested at once, and at 100
/// servers the concurrently-bad fraction concentrates on its mean, so a
/// rarer bad state would never trip the fleet-wide threshold there even
/// though smaller rungs cross it on binomial noise.
fn stochastic_links(servers: u32, horizon: SimTime, seed: u64, quick: bool) -> LinkPlan {
    let dwell = if quick { [15, 10, 10] } else { [50, 30, 40] };
    LinkPlan::sample(
        seed,
        ServerId::first_n(servers),
        horizon,
        LinkModel::Markov { factors: [1.0, 0.45, 0.2], dwell: dwell.map(SimDuration::from_secs) },
    )
}

fn run_stochastic(servers: u32, videos: usize, quick: bool) -> StochasticTiming {
    // A longer quick horizon than the other studies: utilization has to
    // build up before a capacity dip congests, so 30 s would leave the
    // adaptation loop with nothing to do.
    let horizon = SimTime::from_secs(if quick { 60 } else { 120 });
    let period_us = (3_000_000 / servers as u64).max(1);
    let steady_cfg = ThroughputConfig {
        testbed: TestbedConfig::scale(servers, videos),
        horizon,
        arrival_period: Some(SimDuration::from_micros(period_us)),
        ..ThroughputConfig::fig6()
    };
    let degraded_cfg = ThroughputConfig {
        links: Some(stochastic_links(servers, horizon, steady_cfg.seed, quick)),
        ..steady_cfg.clone()
    };
    let adaptive_cfg =
        ThroughputConfig { adaptation: Some(AdaptationConfig::default()), ..degraded_cfg.clone() };
    let _ = Testbed::shared(steady_cfg.testbed.clone());
    let reps = reps_for(servers);
    let kind = SystemKind::Quasaq(CostKind::Lrb);
    let ((steady_ms, _steady), (degraded_ms, degraded)) = timed_pair(
        reps,
        || run_throughput(kind, &steady_cfg),
        || run_throughput(kind, &degraded_cfg),
    );
    let ((adaptive_ms, adaptive), (_, replay)) = timed_pair(
        reps,
        || run_throughput(kind, &adaptive_cfg),
        || run_throughput(kind, &adaptive_cfg),
    );
    StochasticTiming {
        servers,
        videos,
        steady_ms,
        degraded_ms,
        adaptive_ms,
        bit_identical: adaptive == replay,
        degraded_violation_s: degraded.faults.as_ref().map_or(0.0, |f| f.qos_violation_secs),
        adaptive_violation_s: adaptive.faults.as_ref().map_or(0.0, |f| f.qos_violation_secs),
        degradation: adaptive.degradation.clone().unwrap_or_default(),
    }
}

fn run_scale(servers: u32, videos: usize, quick: bool) -> ScaleTiming {
    let horizon = SimTime::from_secs(if quick { 30 } else { 120 });
    // Scale arrival rate with the cluster so every rung runs near the same
    // per-server load (the paper's 1 q/s targets three servers).
    let period_us = (3_000_000 / servers as u64).max(1);
    let cfg = ThroughputConfig {
        testbed: TestbedConfig::scale(servers, videos),
        horizon,
        arrival_period: Some(SimDuration::from_micros(period_us)),
        ..ThroughputConfig::fig6()
    };
    // Warm the shared-testbed cache so the timed region never pays
    // catalog generation.
    let _ = Testbed::shared(cfg.testbed.clone());
    let mut ms = f64::INFINITY;
    for _ in 0..reps_for(servers) {
        let t = Instant::now();
        let _ = run_throughput(SystemKind::Quasaq(CostKind::Lrb), &cfg);
        ms = ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    ScaleTiming { servers, videos, ms }
}

fn run_suite(suite: &Suite) -> Timing {
    // Warm the shared-testbed cache so neither side pays library
    // generation inside its timed region.
    for (_, cfg) in &suite.scenarios {
        let _ = Testbed::shared(cfg.testbed.clone());
    }

    let t0 = Instant::now();
    let serial: Vec<ThroughputResult> =
        suite.scenarios.iter().map(|(s, c)| run_throughput(*s, c)).collect();
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let parallel = run_throughput_scenarios(&suite.scenarios);
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

    let robustness =
        serial.iter().filter_map(|r| r.faults.clone().map(|f| (r.label.clone(), f))).collect();
    Timing {
        name: suite.name,
        serial_ms,
        parallel_ms,
        bit_identical: serial == parallel,
        robustness,
    }
}

/// `--scenario <file>` mode: execute one TOML scenario serially and on the
/// scenario-parallel runner, assert the rendered reports are
/// byte-identical, and print rows in the harness JSON shape (one per run
/// stage) so scenario timings graft onto the `BENCH_throughput.json`
/// schema.
fn run_scenario_mode(file: &str) {
    use quasaq_scenario::{run_file, ExecMode};
    let path = std::path::Path::new(file);
    let t0 = Instant::now();
    let serial = run_file(path, ExecMode::Serial).unwrap_or_else(|e| panic!("{file}: {e}"));
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let parallel = run_file(path, ExecMode::Parallel).unwrap_or_else(|e| panic!("{file}: {e}"));
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;
    let identical = serial.render() == parallel.render();
    print!("{}", serial.render());
    println!("  \"harnesses\": [");
    let rows = serial.runs.len();
    for (i, run) in serial.runs.iter().enumerate() {
        println!(
            "    {{\"name\": \"{}/{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}",
            serial.name,
            run.stage,
            serial_ms,
            parallel_ms,
            serial_ms / parallel_ms.max(1e-9),
            identical,
            if i + 1 < rows { "," } else { "" }
        );
    }
    println!("  ],");
    println!("  \"fingerprint\": \"{:016x}\"", serial.fingerprint());
    assert!(identical, "{file}: parallel report diverged from serial");
}

/// One `--load` measurement row: the loopback replay at a given shell
/// thread count, striped over as many connections.
struct ServiceRow {
    threads: usize,
    queries: u64,
    admitted: u64,
    rejected: u64,
    queued: u64,
    wall_ms: f64,
    requests_per_s: f64,
    admissions_per_s: f64,
}

/// `--load` mode: the service-shell throughput study.
///
/// First pins the refactor's acceptance claim — a single-connection
/// loopback replay at a sub-clip horizon is decision-identical to the
/// in-process driver — then measures wall-clock requests/sec and
/// admissions/sec at 1/2/4 shell threads and (full mode only) splices the
/// rows into `BENCH_throughput.json` as a `"service"` section.
fn run_load_mode(quick: bool) {
    use quasaq_shell::{run_loopback, Shell, ShellConfig};
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let system = SystemKind::Quasaq(CostKind::Lrb);
    println!("load mode: service-shell throughput study ({cores} core(s))");

    // Decision-identity gate: horizon under the shortest clip (30 s), so
    // the in-process driver issues exactly one Admit per arrival — the
    // same command sequence a single-connection replay sends.
    let ident_cfg =
        ThroughputConfig { horizon: SimTime::from_secs(25), ..ThroughputConfig::fig6() };
    let shell = Shell::serve(
        "127.0.0.1:0",
        ShellConfig { system, throughput: ident_cfg.clone(), threads: 1 },
    )
    .expect("bind loopback");
    let served = run_loopback(shell.addr(), &ident_cfg, 1).expect("loopback replay");
    shell.shutdown();
    let driven = run_throughput(system, &ident_cfg);
    let identical = served.queries == driven.queries
        && served.admitted == driven.admitted
        && served.rejected == driven.rejected
        && served.access == driven.access;
    println!(
        "  decision identity vs in-process driver: {identical} \
         ({} queries, {} admitted, {} rejected)",
        served.queries, served.admitted, served.rejected
    );
    assert!(identical, "loopback decisions diverged from the in-process driver");

    let horizon = if quick { 60 } else { 300 };
    let cfg = ThroughputConfig { horizon: SimTime::from_secs(horizon), ..ThroughputConfig::fig6() };
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let shell =
            Shell::serve("127.0.0.1:0", ShellConfig { system, throughput: cfg.clone(), threads })
                .expect("bind loopback");
        let t0 = Instant::now();
        let report = run_loopback(shell.addr(), &cfg, threads).expect("loopback replay");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        shell.shutdown();
        // Every query is one request on the wire, whatever its answer;
        // admissions count only the ones that got a session.
        let wall_s = (wall_ms / 1e3).max(1e-9);
        let requests_per_s = report.queries as f64 / wall_s;
        let admissions_per_s = report.admitted as f64 / wall_s;
        println!(
            "  {threads} shell thread(s) / {threads} connection(s): {} queries \
             ({} admitted, {} rejected, {} queued) in {wall_ms:.1} ms | \
             {requests_per_s:.0} requests/s, {admissions_per_s:.0} admissions/s",
            report.queries, report.admitted, report.rejected, report.queued
        );
        rows.push(ServiceRow {
            threads,
            queries: report.queries,
            admitted: report.admitted,
            rejected: report.rejected,
            queued: report.queued,
            wall_ms,
            requests_per_s,
            admissions_per_s,
        });
    }

    if quick {
        println!("quick mode: skipping BENCH_throughput.json (full run owns the artifact)");
        return;
    }
    splice_service_section(&rows, identical, cores);
}

/// Replaces (or inserts) the `"service"` object in
/// `BENCH_throughput.json`, preserving the rest of the artifact so
/// `--load` composes with the main bench run in either order.
fn splice_service_section(rows: &[ServiceRow], identical: bool, cores: usize) {
    let mut section = String::from("  \"service\": {\n");
    section.push_str(&format!("    \"decision_identical\": {identical},\n"));
    section.push_str("    \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        section.push_str(&format!(
            "      {{\"shell_threads\": {}, \"connections\": {}, \"queries\": {}, \
             \"admitted\": {}, \"rejected\": {}, \"queued\": {}, \"wall_ms\": {:.3}, \
             \"requests_per_s\": {:.1}, \"admissions_per_s\": {:.1}}}{}\n",
            r.threads,
            r.threads,
            r.queries,
            r.admitted,
            r.rejected,
            r.queued,
            r.wall_ms,
            r.requests_per_s,
            r.admissions_per_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    section.push_str("    ]\n  },\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let json = match std::fs::read_to_string(path) {
        Ok(mut existing) => {
            // Drop a previous service object (fixed two-space layout).
            if let Some(start) = existing.find("  \"service\": {") {
                let tail = &existing[start..];
                let end = tail.find("\n  },\n").map(|e| start + e + "\n  },\n".len());
                if let Some(end) = end {
                    existing.replace_range(start..end, "");
                }
            }
            let anchor = existing
                .find("  \"overall_speedup\"")
                .expect("BENCH_throughput.json missing overall_speedup anchor");
            existing.insert_str(anchor, &section);
            existing
        }
        // No artifact yet: a minimal standalone one.
        Err(_) => format!(
            "{{\n  \"cores\": {cores},\n{section}  \"all_bit_identical\": {identical}\n}}\n"
        ),
    };
    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    println!("wrote service section into {path}");
}

/// The command line, printed with any argument error.
const USAGE: &str = "usage: bench [--quick] [--smoke] [--scenario <file>] [--load [--quick]]";

/// Exits with status 2 and the usage line unless every argument is a
/// known flag and every flag that takes a value has one, so a typo never
/// falls through to the full suite (which rewrites the artifact).
fn check_args(args: &[String]) {
    const SWITCHES: [&str; 3] = ["--quick", "--smoke", "--load"];
    const VALUED: [&str; 1] = ["--scenario"];
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        let error = if SWITCHES.contains(&arg.as_str()) {
            continue;
        } else if VALUED.contains(&arg.as_str()) {
            match rest.next() {
                Some(_) => continue,
                None => format!("{arg} takes a value"),
            }
        } else {
            format!("unknown argument {arg}")
        };
        eprintln!("bench: {error}\n{USAGE}");
        std::process::exit(2);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let smoke = args.iter().any(|a| a == "--smoke");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if args.iter().any(|a| a == "--load") {
        run_load_mode(quick);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        run_scenario_mode(&args[i + 1]);
        return;
    }

    if smoke {
        // CI smoke on the 3-server quick rung. Seconds, not minutes.
        // Cached admission: flash-crowd bursts, full enumeration vs the
        // memoized plan cache, asserting bit-identity.
        println!("smoke mode: 3-server cached-admission and brownout checks ({cores} core(s))");
        let c = run_cached(3, 300, 4, true);
        println!(
            "  uncached {:>9.1} ms | cached {:>9.1} ms | bit-identical: {}",
            c.uncached_ms, c.cached_ms, c.bit_identical
        );
        assert!(c.bit_identical, "cached admission diverged from full enumeration");
        // Stochastic-link brownout smoke: crush every link to 5% mid-run.
        // The plain system must detect congestion and start shedding
        // arrivals by QoP class.
        let horizon = SimTime::from_secs(30);
        let crush = LinkPlan {
            changes: ServerId::first_n(3)
                .map(|server| LinkSpec { server, at: SimTime::from_secs(5), factor: 0.05 })
                .collect(),
        };
        let cfg = ThroughputConfig {
            testbed: TestbedConfig::scale(3, 300),
            horizon,
            arrival_period: Some(SimDuration::from_secs(1)),
            links: Some(crush),
            adaptation: Some(AdaptationConfig::default()),
            ..ThroughputConfig::fig6()
        };
        let r = run_throughput(SystemKind::Vdbms, &cfg);
        let dm = r.degradation.as_ref().expect("adaptation enabled");
        println!(
            "  brownout: {} congestion event(s), {} degraded, {} rejected",
            dm.congestion_events, dm.brownout_degraded, dm.brownout_rejected
        );
        assert!(dm.congestion_events > 0, "crushed links must congest: {dm:?}");
        assert!(dm.brownout_rejected > 0, "brownout must shed arrivals: {dm:?}");
        println!("smoke OK: bit_identical: true");
        return;
    }

    println!(
        "scenario-parallel benchmark: {cores} core(s), {} worker(s) for a 3-scenario suite{}",
        worker_count(3),
        if quick { ", quick mode" } else { "" }
    );

    let mut timings = Vec::new();
    for suite in suites(quick) {
        println!(
            "running {} ({} scenarios, horizon {} s) ...",
            suite.name,
            suite.scenarios.len(),
            suite.scenarios[0].1.horizon.as_secs_f64()
        );
        let t = run_suite(&suite);
        println!(
            "  serial {:>9.1} ms | parallel {:>9.1} ms | speedup {:.2}x | bit-identical: {}",
            t.serial_ms,
            t.parallel_ms,
            t.serial_ms / t.parallel_ms.max(1e-9),
            t.bit_identical
        );
        timings.push(t);
    }

    // The scaling study: one QuaSAQ/LRB run at growing cluster sizes.
    let mut scale = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        println!("running scale {servers}-server / {videos}-video ...");
        let s = run_scale(servers, videos, quick);
        println!("  {:>9.1} ms", s.ms);
        scale.push(s);
    }

    // The plan-cache study: the same Zipf-skewed run with full enumeration
    // vs the memoized cache (`cached`, burst 1), plus the flash-crowd
    // bulk-admit case (`bulk`, every arrival an 8-query burst through the
    // batch prefetch).
    let mut cached = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        println!("running cached {servers}-server / {videos}-video ...");
        let c = run_cached(servers, videos, 1, quick);
        println!(
            "  uncached {:>9.1} ms | cached {:>9.1} ms | speedup {:.2}x | bit-identical: {}",
            c.uncached_ms,
            c.cached_ms,
            c.uncached_ms / c.cached_ms.max(1e-9),
            c.bit_identical
        );
        cached.push(c);
    }
    let mut bulk = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        println!("running bulk {servers}-server / {videos}-video (burst 8) ...");
        let c = run_cached(servers, videos, 8, quick);
        println!(
            "  uncached {:>9.1} ms | cached {:>9.1} ms | speedup {:.2}x | bit-identical: {}",
            c.uncached_ms,
            c.cached_ms,
            c.uncached_ms / c.cached_ms.max(1e-9),
            c.bit_identical
        );
        bulk.push(c);
    }

    // The stochastic-link study: steady vs degraded (ladder frozen) vs
    // adaptive (congestion renegotiation + brownout) under the same
    // sampled Markov capacity process.
    let mut stochastic = Vec::new();
    for (servers, videos) in scale_cases(quick) {
        println!("running stochastic {servers}-server / {videos}-video ...");
        let s = run_stochastic(servers, videos, quick);
        println!(
            "  steady {:>9.1} ms | degraded {:>9.1} ms | adaptive {:>9.1} ms | \
             violation {:>8.1} s -> {:>8.1} s | down {} up {} osc {} | \
             brownout {}/{} | bit-identical: {}",
            s.steady_ms,
            s.degraded_ms,
            s.adaptive_ms,
            s.degraded_violation_s,
            s.adaptive_violation_s,
            s.degradation.downshifts,
            s.degradation.upshifts,
            s.degradation.oscillations,
            s.degradation.brownout_degraded,
            s.degradation.brownout_rejected,
            s.bit_identical
        );
        stochastic.push(s);
    }

    let all_identical = timings.iter().all(|t| t.bit_identical)
        && cached.iter().chain(&bulk).all(|c| c.bit_identical)
        && stochastic.iter().all(|s| s.bit_identical);
    let total_serial: f64 = timings.iter().map(|t| t.serial_ms).sum();
    let total_parallel: f64 = timings.iter().map(|t| t.parallel_ms).sum();
    let overall = total_serial / total_parallel.max(1e-9);
    println!("overall speedup: {overall:.2}x | all outputs bit-identical: {all_identical}");

    if quick {
        println!("quick mode: skipping BENCH_throughput.json (full run owns the artifact)");
        assert!(all_identical, "parallel runner output diverged from serial");
        return;
    }

    // Hand-rolled JSON: no serde in the dependency closure, and the shape
    // is small and fixed.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str("  \"harnesses\": [\n");
    for (i, t) in timings.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
            t.name,
            t.serial_ms,
            t.parallel_ms,
            t.serial_ms / t.parallel_ms.max(1e-9),
            t.bit_identical,
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Robustness metrics from the fault-injected (availability) suite.
    let robustness: Vec<_> = timings.iter().flat_map(|t| t.robustness.iter()).collect();
    json.push_str("  \"robustness\": [\n");
    for (i, (label, f)) in robustness.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"label\": \"{}\", \"interrupted\": {}, \"failed_over\": {}, \
             \"failover_degraded\": {}, \"requeued\": {}, \"recovered\": {}, \
             \"dropped\": {}, \"mean_recovery_s\": {:.3}, \"qos_violation_s\": {:.3}}}{}\n",
            label,
            f.interrupted,
            f.failed_over,
            f.failover_degraded,
            f.requeued,
            f.recovered,
            f.dropped,
            f.recovery.mean(),
            f.qos_violation_secs,
            if i + 1 < robustness.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // The scaling section: one run's wall time per cluster size.
    json.push_str("  \"scale\": [\n");
    for (i, s) in scale.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"servers\": {}, \"videos\": {}, \"ms\": {:.3}}}{}\n",
            s.servers,
            s.videos,
            s.ms,
            if i + 1 < scale.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // The plan-cache (`cached`) and flash-crowd bulk-admit (`bulk`) rows.
    for (section, rows) in [("cached", &cached), ("bulk", &bulk)] {
        json.push_str(&format!("  \"{section}\": [\n"));
        for (i, c) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"servers\": {}, \"videos\": {}, \"burst\": {}, \
                 \"uncached_ms\": {:.3}, \"cached_ms\": {:.3}, \"speedup\": {:.3}, \
                 \"bit_identical\": {}}}{}\n",
                c.servers,
                c.videos,
                c.burst,
                c.uncached_ms,
                c.cached_ms,
                c.uncached_ms / c.cached_ms.max(1e-9),
                c.bit_identical,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ],\n");
    }
    // The stochastic-link degradation rows: per cluster size, the cost of
    // the capacity process and the adaptation loop's effect on QoS
    // violation exposure, plus its counters.
    json.push_str("  \"stochastic\": [\n");
    for (i, s) in stochastic.iter().enumerate() {
        let d = &s.degradation;
        json.push_str(&format!(
            "    {{\"servers\": {}, \"videos\": {}, \"steady_ms\": {:.3}, \
             \"degraded_ms\": {:.3}, \"adaptive_ms\": {:.3}, \
             \"degraded_violation_s\": {:.3}, \"adaptive_violation_s\": {:.3}, \
             \"downshifts\": {}, \"upshifts\": {}, \"oscillations\": {}, \
             \"violation_s_avoided\": {:.3}, \"brownout_degraded\": {}, \
             \"brownout_rejected\": {}, \"bit_identical\": {}}}{}\n",
            s.servers,
            s.videos,
            s.steady_ms,
            s.degraded_ms,
            s.adaptive_ms,
            s.degraded_violation_s,
            s.adaptive_violation_s,
            d.downshifts,
            d.upshifts,
            d.oscillations,
            d.violation_secs_avoided,
            d.brownout_degraded,
            d.brownout_rejected,
            s.bit_identical,
            if i + 1 < stochastic.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"overall_speedup\": {overall:.3},\n"));
    json.push_str(&format!("  \"all_bit_identical\": {all_identical}\n"));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, &json).expect("write BENCH_throughput.json");
    println!("wrote {path}");

    assert!(all_identical, "parallel runner output diverged from serial");
}
