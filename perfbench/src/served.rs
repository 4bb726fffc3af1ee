//! The served workload's two runs: end-to-end (open-loop latency at a
//! fixed rate, closed-loop capacity) and per-layer (wire codec, plane and
//! shell overhead split of the round trip, and the open-loop maximum rate).

use crate::report::{peak_rss_mb, Report};
use crate::stats;
use crate::svc::{search_max_rate, sessions_stable, Generator, Recording, Step, P99_LIMIT_US};
use crate::workloads::Spec;
use quasaq_service::wire::{
    decode_effects, decode_request, encode_effects, encode_request, FrameBuffer, Request,
};
use quasaq_service::{AdaptPolicy, Command, ControlPlane, Effect, PlaneConfig};
use quasaq_shell::{Shell, ShellConfig};
use quasaq_workload::{arrival_stream, build_core, GeneratedQuery, Testbed};
use std::hint::black_box;
use std::time::Instant;

/// Set-up repetitions per run (the reported set-up time is their median;
/// one set-up takes milliseconds).
const SETUP_REPS: usize = 21;
/// The fixed offered rate latency is reported at (requests/s).
pub const FIXED_RPS: f64 = 8_000.0;
/// Bounds of the maximum-rate search (requests/s).
const FLOOR_RPS: f64 = 250.0;
const CEILING_RPS: f64 = 512_000.0;

/// Requests kept in flight by the closed-loop capacity pass. Deep enough
/// to keep the shell busy; deeper windows (64 and up) measured less
/// steadily, their replies stalling behind unacknowledged segments.
const WINDOW: u64 = 16;
/// Capacity windows per run (the reported capacity is their median).
const CAPACITY_WINDOWS: usize = 7;

/// Connections (and shell acceptor threads): half the cores, the other
/// half being left to this process's generator and reader threads; at
/// least one, at most four.
fn connections(cores: usize) -> usize {
    (cores / 2).clamp(1, 4)
}

fn shell_config(spec: &Spec, threads: usize) -> ShellConfig {
    ShellConfig { system: spec.system, throughput: spec.cfg.clone(), threads }
}

/// Times set-up `SETUP_REPS` times: a fresh testbed, the arrival stream,
/// the core, and `Shell::serve` until it is accepting. Returns the samples
/// and the arrival stream.
fn timed_setups(spec: &Spec, threads: usize) -> (Vec<f64>, Vec<GeneratedQuery>) {
    let mut samples = Vec::new();
    let mut queries = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let tb = Testbed::build(spec.cfg.testbed.clone());
        queries = arrival_stream(&tb, &spec.cfg);
        black_box(build_core(&tb, spec.system, &spec.cfg));
        let shell =
            Shell::serve("127.0.0.1:0", shell_config(spec, threads)).expect("loopback bind");
        samples.push(t.elapsed().as_secs_f64());
        shell.shutdown();
    }
    (samples, queries)
}

fn describe(spec: &Spec, conns: usize, queries: usize) -> String {
    format!(
        "{} connections={conns} shell_threads={conns} open_loop fixed_rate={FIXED_RPS} req/s",
        spec.describe(queries)
    )
}

fn print_step(s: &Step) {
    println!(
        "  step {:>9.0} req/s: sent {:>6} p50 {:>8.1} us p99 {:>9.1} us lag_p99 {:>8.1} us backlog mid/end/max {}/{}/{} failed {} {}{}",
        s.rate,
        s.sent,
        s.p50_us,
        s.p99_us,
        s.lag_p99_us,
        s.backlog_mid,
        s.backlog_end,
        s.backlog_max,
        s.failed,
        if s.met() { "met" } else { "NOT met" },
        if s.aborted { " (aborted: backlog)" } else { "" }
    );
}

/// End-to-end run: open-loop latency at the fixed rate, then the
/// closed-loop capacity (replies per second with `WINDOW` requests in
/// flight, median over `CAPACITY_WINDOWS` windows).
pub fn e2e(spec: &Spec, seconds: f64, cores: usize) -> Report {
    let conns = connections(cores);
    let (setup, queries) = timed_setups(spec, conns);
    println!("size: {} capacity_window={WINDOW}", describe(spec, conns, queries.len()));
    let mut r = Report::default();
    r.set("setup_s", stats::median(&setup).unwrap_or(0.0));
    crate::print_summary("setup", "s", &setup);

    let shell = Shell::serve("127.0.0.1:0", shell_config(spec, conns)).expect("loopback bind");
    let mut gen = Generator::connect(shell.addr(), conns, queries, spec.cfg.horizon)
        .expect("loopback connect");
    let fixed = gen.step(FIXED_RPS, seconds * 0.3, None);
    print_step(&fixed);
    if let Some(l) = &fixed.latency {
        println!("  round trip at {FIXED_RPS} req/s, open loop [us]: {l}");
    }
    let mut steps = vec![fixed];
    let window_s = seconds * 0.6 / CAPACITY_WINDOWS as f64;
    for _ in 0..CAPACITY_WINDOWS {
        let s = gen.saturate(WINDOW, window_s);
        println!(
            "  closed loop, {WINDOW} in flight: {:>9.0} replies/s, p50 {:>8.1} us p99 {:>9.1} us",
            s.replies_per_s, s.p50_us, s.p99_us
        );
        steps.push(s);
    }
    let stable = sessions_stable(&gen.lifetimes, steps[0].sim_window);
    gen.close();
    shell.shutdown();

    let capacity: Vec<f64> = steps[1..].iter().map(|s| s.replies_per_s).collect();
    crate::print_summary("capacity", "replies/s", &capacity);
    println!(
        "svc_p50_us: {:.2}  svc_p99_us: {:.2} (open loop at {FIXED_RPS} req/s)",
        steps[0].p50_us, steps[0].p99_us
    );
    for s in &steps {
        r.attempted += s.sent;
        r.failed += s.failed;
        r.problems.extend(s.problems());
    }
    println!("error_frac: {}", r.failed as f64 / r.attempted.max(1) as f64);
    r.set("queries_per_s", stats::median(&capacity).unwrap_or(0.0));
    r.set("sessions_stable", stable);
    r.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    r
}

/// Per-call time of `f` over `items`, in µs, measured over batches of 32
/// calls (one sample per batch) so the clock read stays out of the figure.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> Vec<f64> {
    items
        .chunks(32)
        .map(|c| {
            let t = Instant::now();
            for x in c {
                f(x);
            }
            t.elapsed().as_secs_f64() * 1e6 / c.len() as f64
        })
        .collect()
}

fn p50(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

/// Times the wire codec on real frames — `requests` and the effect lists
/// that answered them — sets the four `wire.*` metrics, and returns the
/// sum of their medians (one round trip's codec work).
pub fn time_codec(r: &mut Report, requests: &[Request], effects: &[Vec<Effect>]) -> f64 {
    let mut buf = Vec::new();
    let enc_req = per_call_us(requests, |q| {
        buf.clear();
        encode_request(black_box(q), &mut buf);
    });
    let payloads = |frames: Vec<Vec<u8>>| -> Vec<Vec<u8>> {
        frames
            .into_iter()
            .map(|framed| {
                let mut fb = FrameBuffer::new();
                fb.extend(&framed);
                fb.next_frame().expect("own frame").expect("complete frame")
            })
            .collect()
    };
    let req_payloads = payloads(
        requests
            .iter()
            .map(|q| {
                let mut framed = Vec::new();
                encode_request(q, &mut framed);
                framed
            })
            .collect(),
    );
    let dec_req = per_call_us(&req_payloads, |p| {
        black_box(decode_request(black_box(p)).ok());
    });
    let enc_eff = per_call_us(effects, |e| {
        buf.clear();
        encode_effects(black_box(e), &mut buf);
    });
    let eff_payloads = payloads(
        effects
            .iter()
            .map(|e| {
                let mut framed = Vec::new();
                encode_effects(e, &mut framed);
                framed
            })
            .collect(),
    );
    let dec_eff = per_call_us(&eff_payloads, |p| {
        black_box(decode_effects(black_box(p)).ok());
    });
    let medians = [p50(&enc_req), p50(&dec_req), p50(&enc_eff), p50(&dec_eff)];
    for (name, v) in [
        "wire.encode_request_us_p50",
        "wire.decode_request_us_p50",
        "wire.encode_effects_us_p50",
        "wire.decode_effects_us_p50",
    ]
    .into_iter()
    .zip(medians)
    {
        r.set(name, v);
    }
    medians.iter().sum()
}

/// Per-layer run: an unrecorded and a recorded step at the fixed rate,
/// then the codec timed on the recorded frames and the plane timed by
/// replaying the same commands in process.
pub fn layers(spec: &Spec, seconds: f64, cores: usize) -> Report {
    let conns = connections(cores);
    let mut r = Report::default();
    let t = Instant::now();
    let tb = Testbed::build(spec.cfg.testbed.clone());
    r.set("workload.testbed.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let queries = arrival_stream(&tb, &spec.cfg);
    r.set("workload.traffic.arrival_stream_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    black_box(build_core(&tb, spec.system, &spec.cfg));
    r.set("workload.build_core_s", t.elapsed().as_secs_f64());
    println!("size: {}", describe(spec, conns, queries.len()));

    let shell = Shell::serve("127.0.0.1:0", shell_config(spec, conns)).expect("loopback bind");
    let mut gen = Generator::connect(shell.addr(), conns, queries, spec.cfg.horizon)
        .expect("loopback connect");
    gen.keep_history = true;
    let step_s = seconds * 0.2;
    let plain = gen.step(FIXED_RPS, step_s, None);
    print_step(&plain);
    let replay_from = gen.history.len();
    let mut rec = Recording::default();
    let recorded = gen.step(FIXED_RPS, step_s, Some(&mut rec));
    print_step(&recorded);
    let history = std::mem::take(&mut gen.history);
    gen.keep_history = false;

    // The open-loop maximum rate: bisection over fixed-length steps for
    // the highest rate meeting the p99 limit with no errors, no growing
    // backlog and an on-time generator.
    let t0 = Instant::now();
    let search_s = seconds * 0.5;
    let bisect_s = seconds * 0.06;
    let search = search_max_rate(
        Some(plain.clone()),
        |rate| {
            let s = gen.step(rate, bisect_s, None);
            print_step(&s);
            s
        },
        || t0.elapsed().as_secs_f64() + bisect_s * 1.5 <= search_s,
        FIXED_RPS,
        FLOOR_RPS,
        CEILING_RPS,
    );
    gen.close();
    shell.shutdown();
    println!(
        "svc_max_rps (p99 <= {P99_LIMIT_US} us, open loop, {} steps): {:.0}",
        search.steps.len(),
        search.max_rps
    );
    r.set("svc.max_rps", search.max_rps);
    for s in search.steps.iter().skip(1).chain([&plain, &recorded]) {
        r.attempted += s.sent;
        r.failed += s.failed;
        r.problems.extend(s.problems());
    }
    if rec.replies.len() != rec.requests.len() {
        r.problem(format!(
            "{} replies recorded for {} requests",
            rec.replies.len(),
            rec.requests.len()
        ));
    }

    // Wire codec on the recorded frames.
    let effects: Vec<Vec<Effect>> =
        rec.replies.iter().filter_map(|p| decode_effects(p).ok()).collect();
    let codec = time_codec(&mut r, &rec.requests, &effects);

    // The plane, replaying every command sent in send order.
    let mut plane = ControlPlane::new(
        build_core(&tb, spec.system, &spec.cfg),
        PlaneConfig {
            seed: spec.cfg.seed ^ 0x9e37_79b9,
            admission: spec.cfg.admission.clone(),
            adaptation: spec.cfg.adaptation.as_ref().map(|a| AdaptPolicy {
                upgrade_period: a.upgrade_period,
                max_downshifts_per_event: a.max_downshifts_per_event,
            }),
            track_ctx: true,
        },
    );
    let mut out = Vec::new();
    let (mut plane_us, mut admit_us, mut teardown_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut diverged = 0u64;
    for (i, req) in history.into_iter().enumerate() {
        let is_admit = matches!(req, Request::Admit { .. });
        let cmd = match req {
            Request::Admit { query, class, now } => {
                Command::Admit { query, class, brownout: false, now }
            }
            Request::Teardown { session, abandoned, now } => {
                Command::Teardown { session, abandoned, now }
            }
            other => unreachable!("the generator sends admits and teardowns only, not {other:?}"),
        };
        out.clear();
        let t = Instant::now();
        plane.handle_into(&tb.engine, cmd, &mut out);
        let us = t.elapsed().as_secs_f64() * 1e6;
        diverged += u64::from(out.iter().any(|e| matches!(e, Effect::Error(_))));
        if i >= replay_from {
            plane_us.push(us);
            if is_admit {
                admit_us.push(us)
            } else {
                teardown_us.push(us)
            }
        }
    }
    if diverged > 0 {
        println!("  replay: {diverged} commands answered with an error (connection interleaving reordered the plane's input)");
    }

    r.set("service.plane.admit_calls", admit_us.len() as f64);
    r.set("service.plane.admit_us_p50", p50(&admit_us));
    r.set("service.plane.admit_us_p99", stats::percentile(&admit_us, 99.0).unwrap_or(0.0));
    r.set("service.plane.admit_us_total", admit_us.iter().sum());
    r.set("service.plane.teardown_us_total", teardown_us.iter().sum());
    let plane_p50 = p50(&plane_us);
    r.set("shell.overhead_us_p50", recorded.p50_us - plane_p50 - codec);
    r.set("svc.rtt_us_p50", plain.p50_us);
    r.set("svc.rtt_us_p99", plain.p99_us);
    r.set("svc.gen_lag_us_p99", plain.lag_p99_us.max(recorded.lag_p99_us));
    r.set("svc.backlog_max", plain.backlog_max.max(recorded.backlog_max) as f64);
    r.set("trace.overhead_ratio", recorded.p50_us / plain.p50_us);
    r.set("workload.untraced_wall_s", plain.wall_s);
    r.set("workload.traced_wall_s", recorded.wall_s);
    println!(
        "tracing overhead: recorded step p50 {:.2} us vs unrecorded {:.2} us = {:.4}x of unrecorded ({:.4}x of recorded)",
        recorded.p50_us,
        plain.p50_us,
        recorded.p50_us / plain.p50_us,
        plain.p50_us / recorded.p50_us
    );
    println!("round trip p50 split at {FIXED_RPS} req/s ({:.2} us):", recorded.p50_us);
    for (layer, us) in [
        ("service.plane (in-process replay, p50 per command)", plane_p50),
        ("wire codec (encode+decode request and effects, p50s)", codec),
        (
            "shell overhead (remainder: socket, channel hop, threads)",
            recorded.p50_us - plane_p50 - codec,
        ),
    ] {
        println!("  {layer:<60} {us:>9.2} us {:>6.1}%", 100.0 * us / recorded.p50_us);
    }
    println!("  (the shell's internal decode, channel, brain and encode steps are unmeasured separately)");
    r
}
