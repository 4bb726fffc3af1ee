//! The per-layer report of an in-process workload: set-up pieces timed
//! alone, one untraced run, and the traced loop over the same inputs,
//! folded into per-layer metrics and a layer-share table.

use crate::report::Report;
use crate::spans::{aggregate, Agg};
use crate::workloads::Spec;
use crate::{inproc, print_summary, stats, traced};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sum of self time over spans whose name starts with `prefix`, seconds.
fn self_s(agg: &BTreeMap<&'static str, Agg>, prefix: &str) -> f64 {
    agg.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, a)| a.self_ns).sum::<u64>() as f64
        / 1e9
}

fn total_us(agg: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    agg.get(name).map_or(0.0, |a| a.durations.iter().sum::<f64>() / 1e3)
}

fn p_us(agg: &BTreeMap<&'static str, Agg>, name: &str, p: f64) -> f64 {
    agg.get(name).and_then(|a| stats::percentile(&a.durations, p)).map_or(0.0, |ns| ns / 1e3)
}

/// Per-layer metrics of an in-process workload: a timed set-up, one
/// untraced run, and the traced loop over the same inputs.
pub fn in_process(spec: &Spec) -> Report {
    let mut r = Report::default();
    let t_run = Instant::now();
    let (mut builds, mut streams, mut cores) = (Vec::new(), Vec::new(), Vec::new());
    let mut testbed = None;
    for _ in 0..3 {
        let t = Instant::now();
        let tb = quasaq_workload::Testbed::build(spec.cfg.testbed.clone());
        builds.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(quasaq_workload::arrival_stream(&tb, &spec.cfg));
        streams.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(quasaq_workload::build_core(&tb, spec.system, &spec.cfg));
        cores.push(t.elapsed().as_secs_f64());
        testbed = Some(tb);
    }
    let testbed = testbed.expect("three set-ups ran");
    r.set("workload.testbed.build_s", stats::median(&builds).unwrap_or(0.0));
    r.set("workload.traffic.arrival_stream_s", stats::median(&streams).unwrap_or(0.0));
    r.set("workload.build_core_s", stats::median(&cores).unwrap_or(0.0));

    let t = Instant::now();
    let untraced = quasaq_workload::run_throughput_on(&testbed, spec.system, &spec.cfg);
    let untraced_s = t.elapsed().as_secs_f64();
    let fp_u = inproc::Fingerprint::of(&untraced, spec.cfg.horizon);
    println!("size: {}", spec.describe(untraced.queries as usize));
    r.problems.extend(inproc::check_result(&untraced, &fp_u, None));

    let run = traced::traced_loop(&testbed, spec.system, &spec.cfg);
    r.attempted = 2 * untraced.queries;
    println!("fingerprint untraced: {fp_u}");
    println!("fingerprint traced:   {}", run.fingerprint);
    if run.fingerprint != fp_u {
        r.problem("the traced loop did not reproduce run_throughput's decision fingerprint");
        r.failed += untraced.queries;
    }
    if run.counts.teardown_errors > 0 {
        r.problem(format!("{} teardowns not answered TornDown", run.counts.teardown_errors));
    }

    let agg = aggregate(run.tracer.spans());
    let shadow_agg = run.shadow.as_ref().map(|s| aggregate(s.tracer.spans())).unwrap_or_default();
    let shadow_s: f64 =
        shadow_agg.values().map(|a| a.durations.iter().sum::<f64>()).sum::<f64>() / 1e9;
    let wall = (run.wall_s - shadow_s).max(1e-9);
    let main_self: f64 = agg.values().map(|a| a.self_ns).sum::<u64>() as f64 / 1e9;
    let residual = (wall - main_self).max(0.0);
    r.set("workload.untraced_wall_s", untraced_s);
    r.set("workload.traced_wall_s", wall);
    r.set("workload.driver.residual_s", residual);
    r.set("trace.overhead_ratio", wall / untraced_s);
    println!(
        "tracing overhead: traced loop {wall:.4} s vs untraced {untraced_s:.4} s = {:.4}x of untraced \
         ({:.4}x of traced)",
        wall / untraced_s,
        untraced_s / wall
    );
    if run.shadow.is_some() {
        println!("  (the shadow pipeline's {shadow_s:.4} s is excluded from the traced wall)");
    }

    // Plane calls.
    let admit = agg.get("service.plane.admit");
    r.set("service.plane.admit_calls", admit.map_or(0.0, |a| a.calls as f64));
    r.set("service.plane.admit_us_p50", p_us(&agg, "service.plane.admit", 50.0));
    r.set("service.plane.admit_us_p99", p_us(&agg, "service.plane.admit", 99.0));
    if let Some(a) = admit {
        print_summary(
            "service.plane.admit",
            "us",
            &a.durations.iter().map(|ns| ns / 1e3).collect::<Vec<_>>(),
        );
    }
    for (metric, span) in [
        ("service.plane.admit_us_total", "service.plane.admit"),
        ("service.plane.teardown_us_total", "service.plane.teardown"),
        ("service.plane.tick_us_total", "service.plane.tick"),
        ("service.plane.congestion_us_total", "service.plane.congestion"),
        ("service.plane.prefetch_us_total", "service.plane.prefetch"),
        ("stream.fluid.advance_us_total", "stream.fluid.advance"),
        ("stream.fluid.next_event_us_total", "stream.fluid.next_event"),
        ("stream.fluid.add_session_us_total", "stream.fluid.add_session"),
        ("stream.fluid.poll_congestion_us_total", "stream.fluid.poll_congestion"),
    ] {
        r.set(metric, total_us(&agg, span));
    }
    r.set("service.plane.renegotiated", run.counts.renegotiated as f64);
    for name in traced::REJECT_METRICS {
        r.set(name, run.counts.rejected_by.get(name).copied().unwrap_or(0) as f64);
    }
    let n = &run.counts;
    r.set(
        "stream.fluid.advance_calls",
        agg.get("stream.fluid.advance").map_or(0.0, |a| a.calls as f64),
    );
    r.set(
        "stream.fluid.advance_us_per_event",
        total_us(&agg, "stream.fluid.advance") / n.fluid_events.max(1) as f64,
    );
    r.set("stream.fluid.active_sessions_mean", n.active_sum as f64 / n.instants.max(1) as f64);
    if n.utility_n > 0 {
        r.set("core.quality.mean_utility", n.utility_sum / n.utility_n as f64);
    }

    // The wire codec on this run's own commands and answers.
    let (requests, answers): (Vec<_>, Vec<_>) = run.counts.wire_sample.iter().cloned().unzip();
    let codec = crate::served::time_codec(&mut r, &requests, &answers);
    println!(
        "wire codec on {} admit/teardown frames: {codec:.3} us per round trip (encode+decode both ways)",
        requests.len()
    );

    // Plan cache.
    if let Some(c) = run.cache {
        r.set("core.plancache.hit_ratio", c.hits as f64 / (c.hits + c.misses).max(1) as f64);
        r.set("core.plancache.hits", c.hits as f64);
        r.set("core.plancache.evictions", c.evictions as f64);
        r.set("core.plancache.invalidations", c.invalidations as f64);
        r.set("core.plancache.doorkeeper_bypasses", c.doorkeeper_bypasses as f64);
        println!("plan cache: {c:?}");
    }

    // Admission stages, from the shadow pipeline.
    let mut stage_s = 0.0;
    let (mut core_s, mut qosapi_s) = (0.0, 0.0);
    if let Some(s) = &run.shadow {
        println!(
            "shadow: {} admits, {} plans generated, {} feasible, {} reserve attempts, {} succeeded, {} mismatches",
            s.admits, s.generated, s.feasible, s.attempts, s.successes, s.mismatches
        );
        r.set("shadow.mismatches", s.mismatches as f64);
        if let Some(m) = &s.first_mismatch {
            r.problem(format!(
                "shadow pipeline disagreed with the plane ({} queries), first: {m}",
                s.mismatches
            ));
        }
        r.set("core.generator.generate_us_p50", p_us(&shadow_agg, "core.generator.generate", 50.0));
        r.set("core.generator.feasible_us_p50", p_us(&shadow_agg, "core.generator.feasible", 50.0));
        r.set("core.cost.rank_us_p50", p_us(&shadow_agg, "core.cost.rank", 50.0));
        r.set("qosapi.reserve_us_p50", p_us(&shadow_agg, "qosapi.reserve", 50.0));
        r.set("vdbms.select_us_p50", p_us(&shadow_agg, "vdbms.select", 50.0));
        if s.generated > 0 {
            r.set("core.generator.plans_per_admit", s.generated as f64 / s.admits.max(1) as f64);
            r.set("core.generator.feasible_ratio", s.feasible as f64 / s.generated as f64);
        }
        r.set("qosapi.reserve_attempts_per_admit", s.attempts as f64 / s.admits.max(1) as f64);
        r.set("qosapi.reserve_success_ratio", s.successes as f64 / s.attempts.max(1) as f64);
        core_s = self_s(&shadow_agg, "core.");
        qosapi_s = self_s(&shadow_agg, "qosapi.");
        stage_s = shadow_s;
    }

    // Layer shares of the traced wall time.
    let plane_s = (self_s(&agg, "service.") - stage_s).max(0.0);
    let fluid_s = self_s(&agg, "stream.fluid.");
    let setup_s = self_s(&agg, "workload.");
    let vdbms_s = self_s(&shadow_agg, "vdbms.");
    r.set("share.workload.driver", residual / wall);
    r.set("share.service.plane", plane_s / wall);
    r.set("share.core", core_s / wall);
    r.set("share.qosapi", qosapi_s / wall);
    r.set("share.stream.fluid", fluid_s / wall);
    println!("layer shares of the traced wall ({wall:.4} s):");
    let unsplit =
        if run.shadow.is_some() { "" } else { " (core and qosapi inside, not split: unmeasured)" };
    for (layer, s) in [
        ("workload.driver (residual)", residual),
        ("workload (arrival_stream, build_core)", setup_s),
        (&*format!("service.plane{unsplit}"), plane_s),
        ("core (generate, feasible, rank)", core_s),
        ("qosapi (reserve, release)", qosapi_s),
        ("vdbms (replica selection)", vdbms_s),
        ("stream.fluid", fluid_s),
    ] {
        println!("  {layer:<72} {:>9.4} s {:>6.1}%", s, 100.0 * s / wall);
    }
    if run.shadow.is_none() {
        println!(
            "  (stage split inside the plane unmeasured on this workload: no shadow pipeline)"
        );
    }
    println!("traced run took {:.3} s", t_run.elapsed().as_secs_f64());
    r
}
