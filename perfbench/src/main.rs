//! The QuaSAQ benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload admit_lrb100 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced loop and prints the per-layer metrics and
//! layer shares. Every run checks its outputs; the last line of standard
//! output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`), and a failed check exits with status 1.

mod inproc;
mod layers;
mod report;
mod served;
mod spans;
mod stats;
mod svc;
mod traced;
mod workloads;

use report::{peak_rss_mb, Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{Spec, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} cores={cores}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let spec = args.workload.spec(args.seed);
    let mut report = match (args.workload.in_process(), args.trace) {
        (true, false) => e2e_in_process(args.workload, args.seed, args.seconds),
        (true, true) => layers::in_process(&spec),
        (false, false) => served::e2e(&spec, args.seconds, cores),
        (false, true) => served::layers(&spec, args.seconds, cores),
    };
    let metrics: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let json = report.json(metrics);
    for (name, unit) in metrics {
        println!("  {name:<46} {:>16.4} {unit}", report.values.get(name).copied().unwrap_or(0.0));
    }
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub(crate) fn print_summary(label: &str, unit: &str, xs: &[f64]) {
    if let Some(s) = stats::summarize(xs) {
        println!("  {label} [{unit}]: {s}");
    }
}

/// End-to-end metrics of an in-process workload.
fn e2e_in_process(workload: Workload, seed: u64, seconds: f64) -> Report {
    let specs: Vec<Spec> =
        (0..workloads::SUB_SEEDS).map(|k| workload.spec(workloads::sub_seed(seed, k))).collect();
    let u = inproc::run_untraced(&specs, seconds);
    for (k, spec) in specs.iter().enumerate() {
        println!("size (traffic seed {}): {}", spec.cfg.seed, spec.describe(u.queries[k]));
        if let Some(fp) = &u.fingerprints[k] {
            println!("  fingerprint: {fp}");
        }
    }
    print_summary("setup", "s", &u.setup_s);
    print_summary("queries_per_s", "1/s", &u.queries_per_s);
    let reps: Vec<String> = u.queries_per_s.iter().map(|q| format!("{q:.0}")).collect();
    println!("  queries_per_s by repetition (draws in turn): {}", reps.join(" "));
    if !u.mean_utility.is_empty() {
        println!("mean_utility per traffic draw: {:?}", u.mean_utility);
    }
    println!("error_frac: {}", u.failed as f64 / u.attempted.max(1) as f64);
    let mut r = Report { attempted: u.attempted, failed: u.failed, ..Report::default() };
    r.set("setup_s", stats::median(&u.setup_s).unwrap_or(0.0));
    match stats::median(&u.queries_per_s) {
        Some(q) => r.set("queries_per_s", q),
        None => r.problem("no repetition passed its checks"),
    }
    match u.sessions_stable() {
        Some(s) => r.set("sessions_stable", s),
        None => r.problem("a traffic draw has no passing repetition"),
    }
    r.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    r.problems.extend(u.problems);
    r
}
