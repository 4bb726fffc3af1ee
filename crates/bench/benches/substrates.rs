//! Criterion micro-benchmarks of the simulation substrates themselves —
//! not a paper experiment, but regression coverage for the hot paths that
//! every experiment runs through (event queue, CPU schedulers, fluid
//! links, trace generation).

use criterion::{criterion_group, criterion_main, Criterion};
use quasaq_media::{FrameRate, FrameTrace, GopPattern, TraceParams};
use quasaq_sim::cpu::{CpuScheduler, Dsrt, DsrtConfig, TimeSharing};
use quasaq_sim::{EventQueue, SharedLink, SimDuration, SimTime};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u64 {
                // Scatter times deterministically.
                q.schedule(SimTime::from_micros((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

/// Schedule / cancel / pop churn: four rounds of 1k schedules, a third of
/// them cancelled, the survivors drained.
fn bench_event_queue_churn(c: &mut Criterion) {
    c.bench_function("event_queue_churn_4x1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut ids = Vec::with_capacity(1_000);
            let mut n = 0;
            for round in 0..4u64 {
                ids.clear();
                for i in 0..1_000u64 {
                    // Each round's window starts past the previous round's
                    // latest event, so draining never leaves `now` ahead of
                    // a later schedule.
                    let t =
                        SimTime::from_micros(round * 1_000_000 + (i * 2_654_435_761) % 1_000_000);
                    ids.push(q.schedule(t, i));
                }
                // Cancel every third event, then drain the survivors.
                for id in ids.drain(..).step_by(3) {
                    q.cancel(id);
                }
                while q.pop().is_some() {
                    n += 1;
                }
            }
            black_box(n)
        })
    });
}

fn bench_cpu_schedulers(c: &mut Criterion) {
    c.bench_function("timesharing_50_jobs_1k_tasks", |b| {
        b.iter(|| {
            let mut cpu = TimeSharing::solaris_default();
            let jobs: Vec<_> = (0..50).map(|_| cpu.add_job(SimTime::ZERO)).collect();
            for i in 0..1_000 {
                cpu.submit(SimTime::ZERO, jobs[i % 50], SimDuration::from_micros(1_500)).unwrap();
            }
            let mut done = 0;
            while let Some(t) = cpu.next_event() {
                cpu.advance_to(t);
                done += cpu.drain_completions().len();
            }
            black_box(done)
        })
    });

    c.bench_function("dsrt_20_reserved_1k_tasks", |b| {
        b.iter(|| {
            let mut cpu = Dsrt::new(DsrtConfig::default());
            let jobs: Vec<_> = (0..20)
                .map(|_| {
                    cpu.reserve(
                        SimTime::ZERO,
                        SimDuration::from_millis(2),
                        SimDuration::from_millis(42),
                    )
                    .expect("fits")
                })
                .collect();
            for i in 0..1_000 {
                cpu.submit(SimTime::ZERO, jobs[i % 20], SimDuration::from_micros(1_500)).unwrap();
            }
            let mut done = 0;
            while let Some(t) = cpu.next_event() {
                cpu.advance_to(t);
                done += cpu.drain_completions().len();
            }
            black_box(done)
        })
    });
}

fn bench_link(c: &mut Criterion) {
    c.bench_function("fair_link_100_flows_1k_xfers", |b| {
        b.iter(|| {
            let mut link = SharedLink::fair_share(3_200_000);
            let flows: Vec<_> =
                (0..100).map(|_| link.open_flow(SimTime::ZERO, Some(48_000)).unwrap()).collect();
            for i in 0..1_000 {
                link.send(SimTime::ZERO, flows[i % 100], 4_000).unwrap();
            }
            let mut done = 0;
            while let Some(t) = link.next_event() {
                link.advance_to(t);
                done += link.drain_completions().len();
            }
            black_box(done)
        })
    });
}

fn bench_trace(c: &mut Criterion) {
    let params = TraceParams::with_bitrate(
        FrameRate::NTSC_FILM,
        SimDuration::from_secs(600),
        GopPattern::mpeg1_n15(),
        193_000.0,
    );
    c.bench_function("trace_generate_10min", |b| {
        b.iter(|| black_box(FrameTrace::generate(black_box(7), &params)))
    });
}

/// Session churn on one link: open / send / advance / close cycles that
/// stress the flow arena's free list and the incremental fair-share
/// order, rather than steady-state draining.
fn bench_link_churn(c: &mut Criterion) {
    c.bench_function("fair_link_session_churn_2k", |b| {
        b.iter(|| {
            let mut link = SharedLink::fair_share(3_200_000);
            let mut open = Vec::new();
            let mut now = SimTime::ZERO;
            let mut done = 0;
            for i in 0..2_000u64 {
                // Mixed caps so the water-fill order sees real churn.
                let cap = if i % 3 == 0 { None } else { Some(24_000 + (i % 7) * 8_000) };
                let f = link.open_flow(now, cap).unwrap();
                link.send(now, f, 2_000 + (i % 5) * 1_000).unwrap();
                open.push(f);
                if open.len() > 64 {
                    // Close the oldest flow, completed or not.
                    let victim = open.remove(0);
                    link.close_flow(now, victim);
                }
                now += SimDuration::from_micros(500);
                link.advance_to(now);
                done += link.drain_completions().len();
            }
            black_box(done)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_event_queue_churn,
    bench_cpu_schedulers,
    bench_link,
    bench_link_churn,
    bench_trace
);
criterion_main!(benches);
