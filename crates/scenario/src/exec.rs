//! Stage adapters and the scenario executor.
//!
//! A run stage's configuration is composed from its transitive dependency
//! closure in the global topological order, in three passes over a
//! Fig 6-shaped base:
//!
//! 1. **Topology** fragments (servers, catalog, placement, capacities) —
//!    these change which testbed is built.
//! 2. **Workload** fragments, then the run stage's own body — driver
//!    knobs, horizon, arrivals, admission. The run's body wins ties.
//! 3. **Faults / Links / Adaptation** fragments — these *sample* plans,
//!    so they must see the final server count and horizon; applying them
//!    last makes `mtbf_s = 20` mean the same thing no matter where the
//!    stage sits in the file.
//!
//! Run stages may only depend on fragment stages, and sinks only on run
//! stages — a run depending on another run would silently leak the other
//! run's fragments into its closure, so the executor rejects it.
//!
//! Execution itself delegates to the repo's determinism spine:
//! [`ExecMode::Serial`] runs every system in a plain loop;
//! [`ExecMode::Parallel`] fans systems across the scenario-parallel
//! runner. The rendered report contains no timing, host, or thread
//! information, so the two modes must produce byte-identical reports —
//! the gallery's CI gate.

use crate::dag::{closure_in_order, resolve_order};
use crate::fingerprint::{hash_result, Fnv64};
use crate::schema::{ScenarioError, ScenarioSpec, StageKind, View};
use quasaq_sim::{
    FaultKind, FaultModel, FaultPlan, FaultSpec, LinkModel, LinkPlan, LinkSpec, ServerId,
    SimDuration, SimTime,
};
use quasaq_workload::{
    run_throughput, run_throughput_scenarios, AdmissionConfig, CostKind, QopMix, SystemKind,
    ThroughputConfig, ThroughputResult,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a run stage's systems are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One system at a time on the calling thread. The golden reference.
    Serial,
    /// Systems fan out on the scenario-parallel runner. Must match
    /// [`ExecMode::Serial`] byte-for-byte.
    Parallel,
}

/// One executed run stage.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Stage name.
    pub stage: String,
    /// The composed horizon (for windowed sink metrics).
    pub horizon: SimTime,
    /// One result per entry in the stage's `systems` list, in order.
    pub results: Vec<ThroughputResult>,
}

/// One executed sink stage: pre-rendered metric lines.
#[derive(Debug, Clone)]
pub struct SinkOutcome {
    /// Stage name.
    pub stage: String,
    /// `"<run>/<label> <metric>=<value>"` lines, in need × result ×
    /// metric order.
    pub lines: Vec<String>,
}

/// Everything a scenario produced, plus the canonical rendering the
/// gallery pins.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub name: String,
    pub seed: u64,
    pub runs: Vec<RunOutcome>,
    pub sinks: Vec<SinkOutcome>,
}

impl ScenarioReport {
    /// The canonical text form: stage order, labels, per-result
    /// fingerprints, counters, and sink lines — and nothing
    /// time-of-day-, host-, or thread-dependent, so serial and parallel
    /// executions of the same scenario render identically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "scenario {} seed={}", self.name, self.seed);
        for run in &self.runs {
            let _ = writeln!(out, "run {}", run.stage);
            for r in &run.results {
                let _ = writeln!(
                    out,
                    "  {} fp={:016x} queries={} admitted={} rejected={} completed={}",
                    r.label,
                    hash_result(r),
                    r.queries,
                    r.admitted,
                    r.rejected,
                    r.completed
                );
            }
        }
        for sink in &self.sinks {
            let _ = writeln!(out, "sink {}", sink.stage);
            for line in &sink.lines {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }

    /// Digest of the canonical rendering — what CI compares across modes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write(self.render().as_bytes());
        h.finish()
    }
}

fn schema_err(path: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Schema { path: path.into(), message: message.into() }
}

fn parse_system(s: &str, path: &str) -> Result<SystemKind, ScenarioError> {
    Ok(match s {
        "vdbms" => SystemKind::Vdbms,
        "qosapi" => SystemKind::VdbmsQosApi,
        "quasaq:lrb" => SystemKind::Quasaq(CostKind::Lrb),
        "quasaq:random" => SystemKind::Quasaq(CostKind::Random),
        "quasaq:minbitrate" => SystemKind::Quasaq(CostKind::MinBitrate),
        "quasaq:weightedsum" => SystemKind::Quasaq(CostKind::WeightedSum),
        "quasaq:utility" => SystemKind::Quasaq(CostKind::Utility),
        other => {
            return Err(schema_err(
                path,
                format!(
                    "unknown system {other:?} (expected vdbms, qosapi, or quasaq:<lrb|random|\
                     minbitrate|weightedsum|utility>)"
                ),
            ))
        }
    })
}

fn server_ids(count: u32) -> impl Iterator<Item = ServerId> {
    (0..count).map(ServerId)
}

fn server_in_range(v: View<'_>, key: &str, servers: u32) -> Result<ServerId, ScenarioError> {
    let id = v
        .opt_u64(key)?
        .ok_or_else(|| schema_err(format!("{}.{key}", v.path), "missing required key"))?;
    if id >= servers as u64 {
        return Err(schema_err(
            format!("{}.{key}", v.path),
            format!("server {id} out of range (topology has {servers} servers)"),
        ));
    }
    Ok(ServerId(id as u32))
}

fn apply_topology(v: View<'_>, cfg: &mut ThroughputConfig) -> Result<(), ScenarioError> {
    let key = |name: &str| format!("{}.{name}", v.path);
    if let Some(servers) = v.opt_u64("servers")? {
        cfg.testbed.servers = match u32::try_from(servers) {
            Ok(0) => return Err(schema_err(key("servers"), "needs at least one server")),
            Ok(servers) => servers,
            Err(_) => return Err(schema_err(key("servers"), format!("{servers} is too many"))),
        };
    }
    if let Some(videos) = v.opt_usize("videos")? {
        if videos == 0 {
            return Err(schema_err(key("videos"), "needs at least one video"));
        }
        cfg.testbed.library.num_videos = videos;
    }
    if let Some(seed) = v.opt_u64("seed")? {
        cfg.testbed.seed = seed;
    }
    if let Some(bps) = v.opt_u64("link_capacity_bps")? {
        if bps == 0 {
            return Err(schema_err(key("link_capacity_bps"), "must be positive"));
        }
        cfg.testbed.link_capacity_bps = bps;
    }
    for (name, slot) in
        [("disk_bps", &mut cfg.testbed.disk_bps), ("memory_bytes", &mut cfg.testbed.memory_bytes)]
    {
        if let Some(amount) = v.opt_f64(name)? {
            if !(amount > 0.0 && amount.is_finite()) {
                let message = format!("must be positive and finite, found {amount}");
                return Err(schema_err(key(name), message));
            }
            *slot = amount;
        }
    }
    if let Some(s) = v.opt_secs("min_video_s")? {
        cfg.testbed.library.min_duration = SimDuration::from_secs_f64(s);
    }
    if let Some(s) = v.opt_secs("max_video_s")? {
        cfg.testbed.library.max_duration = SimDuration::from_secs_f64(s);
    }
    let tiers = quasaq_media::quality_ladder().len();
    let library = &mut cfg.testbed.library;
    for (name, slot) in
        [("min_replicas", &mut library.min_replicas), ("max_replicas", &mut library.max_replicas)]
    {
        if let Some(n) = v.opt_usize(name)? {
            if !(1..=tiers).contains(&n) {
                return Err(schema_err(key(name), format!("must be in 1..={tiers}, found {n}")));
            }
            *slot = n;
        }
    }
    if let Some(p) = v.opt_str("placement")? {
        cfg.testbed.placement = match p {
            "full" => quasaq_store::Placement::Full,
            "round_robin" => quasaq_store::Placement::RoundRobin,
            "spread" => {
                let copies = v.opt_u64("copies")?.ok_or_else(|| {
                    schema_err(format!("{}.copies", v.path), "spread placement needs copies")
                })?;
                // Copies are clamped to the server count, so saturating
                // keeps their meaning.
                let copies = u32::try_from(copies).unwrap_or(u32::MAX);
                quasaq_store::Placement::Spread { copies }
            }
            other => {
                return Err(schema_err(
                    format!("{}.placement", v.path),
                    format!("unknown placement {other:?} (expected full, round_robin, spread)"),
                ))
            }
        };
    } else if v.has("copies") {
        return Err(schema_err(
            format!("{}.copies", v.path),
            "copies only makes sense with placement = \"spread\"",
        ));
    }
    Ok(())
}

fn apply_workload(v: View<'_>, cfg: &mut ThroughputConfig) -> Result<(), ScenarioError> {
    if let Some(h) = v.opt_secs("horizon_s")? {
        cfg.horizon = SimTime::from_secs_f64(h);
    }
    if let Some(s) = v.opt_secs("sample_step_s")? {
        cfg.sample_step = SimDuration::from_secs_f64(s);
    }
    if let Some(seed) = v.opt_u64("seed")? {
        cfg.seed = seed;
    }
    if let Some(p) = v.opt_secs("arrival_period_s")? {
        cfg.arrival_period = Some(SimDuration::from_secs_f64(p));
    }
    if let Some(b) = v.opt_usize("burst")? {
        if b == 0 {
            return Err(schema_err(format!("{}.burst", v.path), "burst must be at least 1"));
        }
        cfg.arrival_burst = b;
    }
    if let Some(skew) = v.opt_f64("video_skew")? {
        if !(0.0..=10.0).contains(&skew) {
            return Err(schema_err(
                format!("{}.video_skew", v.path),
                format!("Zipf skew must be in [0, 10], found {skew}"),
            ));
        }
        cfg.video_skew = skew;
    }
    if let Some(mix) = v.opt_str("qop_mix")? {
        cfg.qop_mix = match mix {
            "uniform" => QopMix::Uniform,
            "paper_skewed" => QopMix::PaperSkewed,
            other => {
                return Err(schema_err(
                    format!("{}.qop_mix", v.path),
                    format!("unknown qop_mix {other:?} (expected uniform, paper_skewed)"),
                ))
            }
        };
    }
    if let Some(b) = v.opt_bool("local_plans_only")? {
        cfg.local_plans_only = b;
    }
    if let Some(b) = v.opt_bool("plan_cache")? {
        cfg.plan_cache = b;
    }
    if let Some((table, path)) = v.opt_table("admission")? {
        let av = View::new(table, &path);
        av.deny_unknown(&[
            "queue_capacity",
            "base_backoff_s",
            "backoff_factor",
            "max_backoff_s",
            "patience_s",
        ])?;
        let mut adm = AdmissionConfig::default();
        if let Some(c) = av.opt_usize("queue_capacity")? {
            if c == 0 {
                return Err(schema_err(
                    format!("{}.queue_capacity", av.path),
                    "queue capacity must be at least 1",
                ));
            }
            adm.queue_capacity = c;
        }
        if let Some(s) = av.opt_secs("base_backoff_s")? {
            adm.base_backoff = SimDuration::from_secs_f64(s);
        }
        if let Some(f) = av.opt_f64("backoff_factor")? {
            if !(f.is_finite() && f >= 1.0) {
                return Err(schema_err(
                    format!("{}.backoff_factor", av.path),
                    format!("backoff factor must be finite and at least 1, found {f}"),
                ));
            }
            adm.backoff_factor = f;
        }
        if let Some(s) = av.opt_secs("max_backoff_s")? {
            adm.max_backoff = SimDuration::from_secs_f64(s);
        }
        if let Some(s) = av.opt_secs("patience_s")? {
            adm.patience = SimDuration::from_secs_f64(s);
        }
        cfg.admission = Some(adm);
    }
    Ok(())
}

fn parse_fault_kind(v: View<'_>, servers_hint: &str) -> Result<FaultKind, ScenarioError> {
    let kind = v.opt_str("kind")?.unwrap_or("crash");
    let factor = v.opt_f64("factor")?;
    let need_factor = |f: Option<f64>| {
        f.ok_or_else(|| {
            schema_err(format!("{}.factor", v.path), format!("{servers_hint} needs a factor"))
        })
        .and_then(|f| {
            if f > 0.0 && f <= 1.0 {
                Ok(f)
            } else {
                Err(schema_err(
                    format!("{}.factor", v.path),
                    format!("factor must be in (0, 1], found {f}"),
                ))
            }
        })
    };
    Ok(match kind {
        "crash" => {
            if factor.is_some() {
                return Err(schema_err(
                    format!("{}.factor", v.path),
                    "a crash has no factor (the server is gone)",
                ));
            }
            FaultKind::ServerCrash
        }
        "link" => FaultKind::LinkDegradation { factor: need_factor(factor)? },
        "disk" => FaultKind::DiskSlowdown { factor: need_factor(factor)? },
        other => {
            return Err(schema_err(
                format!("{}.kind", v.path),
                format!("unknown fault kind {other:?} (expected crash, link, disk)"),
            ))
        }
    })
}

fn apply_faults(v: View<'_>, cfg: &mut ThroughputConfig) -> Result<(), ScenarioError> {
    let mut plan = cfg.faults.take().unwrap_or_else(FaultPlan::none);
    if let Some(windows) = v.opt_table_array("windows")? {
        for (table, path) in windows {
            let wv = View::new(table, &path);
            wv.deny_unknown(&["server", "at_s", "duration_s", "kind", "factor"])?;
            let server = server_in_range(wv, "server", cfg.testbed.servers)?;
            let at = wv
                .opt_secs("at_s")?
                .ok_or_else(|| schema_err(format!("{path}.at_s"), "missing required key"))?;
            let duration = wv
                .opt_secs("duration_s")?
                .ok_or_else(|| schema_err(format!("{path}.duration_s"), "missing required key"))?;
            let kind = parse_fault_kind(wv, "a link/disk window")?;
            plan.faults.push(FaultSpec {
                server,
                at: SimTime::from_secs_f64(at),
                duration: SimDuration::from_secs_f64(duration),
                kind,
            });
        }
    }
    if let Some((table, path)) = v.opt_table("model")? {
        let mv = View::new(table, &path);
        mv.deny_unknown(&["mtbf_s", "mttr_s", "kind", "factor"])?;
        let mtbf = mv
            .opt_secs("mtbf_s")?
            .ok_or_else(|| schema_err(format!("{path}.mtbf_s"), "missing required key"))?;
        let mttr = mv
            .opt_secs("mttr_s")?
            .ok_or_else(|| schema_err(format!("{path}.mttr_s"), "missing required key"))?;
        let kind = parse_fault_kind(mv, "a link/disk model")?;
        let seed = v.opt_u64("seed")?.unwrap_or(cfg.seed);
        let sampled = FaultPlan::sample(
            seed,
            server_ids(cfg.testbed.servers),
            cfg.horizon,
            FaultModel {
                mtbf: SimDuration::from_secs_f64(mtbf),
                mttr: SimDuration::from_secs_f64(mttr),
                kind,
            },
        );
        plan.faults.extend(sampled.faults);
    }
    if plan.is_empty() {
        return Err(schema_err(v.path, "a faults stage needs windows, a model, or both"));
    }
    cfg.faults = Some(plan);
    Ok(())
}

fn apply_links(v: View<'_>, cfg: &mut ThroughputConfig) -> Result<(), ScenarioError> {
    let mut plan = cfg.links.take().unwrap_or_else(LinkPlan::none);
    if let Some(points) = v.opt_table_array("setpoints")? {
        for (table, path) in points {
            let pv = View::new(table, &path);
            pv.deny_unknown(&["server", "at_s", "factor"])?;
            let server = server_in_range(pv, "server", cfg.testbed.servers)?;
            let at = pv
                .opt_secs("at_s")?
                .ok_or_else(|| schema_err(format!("{path}.at_s"), "missing required key"))?;
            let factor = pv.req_f64("factor")?;
            if !(factor > 0.0 && factor <= 1.0) {
                return Err(schema_err(
                    format!("{path}.factor"),
                    format!("factor must be in (0, 1], found {factor}"),
                ));
            }
            plan.changes.push(LinkSpec { server, at: SimTime::from_secs_f64(at), factor });
        }
    }
    if let Some((table, path)) = v.opt_table("model")? {
        let mv = View::new(table, &path);
        let kind = mv.req_str("kind")?;
        let model = match kind {
            "markov" => {
                mv.deny_unknown(&["kind", "factors", "dwell_s"])?;
                let factors = mv
                    .opt_f64_array("factors")?
                    .ok_or_else(|| schema_err(format!("{path}.factors"), "missing required key"))?;
                let dwell = mv
                    .opt_f64_array("dwell_s")?
                    .ok_or_else(|| schema_err(format!("{path}.dwell_s"), "missing required key"))?;
                if factors.len() != 3 || dwell.len() != 3 {
                    return Err(schema_err(
                        path,
                        "markov links need exactly 3 factors and 3 dwell_s entries",
                    ));
                }
                LinkModel::Markov {
                    factors: [factors[0], factors[1], factors[2]],
                    dwell: [
                        SimDuration::from_secs_f64(dwell[0]),
                        SimDuration::from_secs_f64(dwell[1]),
                        SimDuration::from_secs_f64(dwell[2]),
                    ],
                }
            }
            "fading" => {
                mv.deny_unknown(&["kind", "mean", "spread", "coherence_s"])?;
                LinkModel::Fading {
                    mean: mv.req_f64("mean")?,
                    spread: mv.req_f64("spread")?,
                    coherence: SimDuration::from_secs_f64(mv.opt_secs("coherence_s")?.ok_or_else(
                        || schema_err(format!("{path}.coherence_s"), "missing required key"),
                    )?),
                }
            }
            "diurnal" => {
                mv.deny_unknown(&["kind", "trough", "period_s", "step_s"])?;
                LinkModel::Diurnal {
                    trough: mv.req_f64("trough")?,
                    period: SimDuration::from_secs_f64(mv.opt_secs("period_s")?.ok_or_else(
                        || schema_err(format!("{path}.period_s"), "missing required key"),
                    )?),
                    step: SimDuration::from_secs_f64(mv.opt_secs("step_s")?.ok_or_else(|| {
                        schema_err(format!("{path}.step_s"), "missing required key")
                    })?),
                }
            }
            other => {
                return Err(schema_err(
                    format!("{path}.kind"),
                    format!("unknown link model {other:?} (expected markov, fading, diurnal)"),
                ))
            }
        };
        model.check().map_err(|e| {
            // Duration fields carry a `_s` suffix in scenario files.
            let key = match e.field {
                "dwell" | "coherence" | "period" | "step" => format!("{}_s", e.field),
                field => field.to_string(),
            };
            schema_err(format!("{path}.{key}"), e.message)
        })?;
        let seed = v.opt_u64("seed")?.unwrap_or(cfg.seed);
        let sampled = LinkPlan::sample(seed, server_ids(cfg.testbed.servers), cfg.horizon, model);
        plan.changes.extend(sampled.changes);
    }
    if plan.changes.is_empty() {
        return Err(schema_err(v.path, "a links stage needs setpoints, a model, or both"));
    }
    cfg.links = Some(plan);
    Ok(())
}

fn apply_adaptation(v: View<'_>, cfg: &mut ThroughputConfig) -> Result<(), ScenarioError> {
    let mut a = cfg.adaptation.take().unwrap_or_default();
    if let Some(r) = v.opt_f64("high_ratio")? {
        a.congestion.high_ratio = r;
    }
    if let Some(r) = v.opt_f64("low_ratio")? {
        a.congestion.low_ratio = r;
    }
    if let Some(s) = v.opt_secs("dwell_s")? {
        a.congestion.dwell = SimDuration::from_secs_f64(s);
    }
    if a.congestion.low_ratio >= a.congestion.high_ratio {
        return Err(schema_err(
            v.path,
            format!(
                "low_ratio ({}) must be below high_ratio ({})",
                a.congestion.low_ratio, a.congestion.high_ratio
            ),
        ));
    }
    if let Some(s) = v.opt_secs("upgrade_period_s")? {
        a.upgrade_period = SimDuration::from_secs_f64(s);
    }
    if let Some(n) = v.opt_usize("max_downshifts_per_event")? {
        a.max_downshifts_per_event = n;
    }
    if let Some(r) = v.opt_f64("brownout_ratio")? {
        if !(0.0..=1.0).contains(&r) {
            return Err(schema_err(
                format!("{}.brownout_ratio", v.path),
                format!("must be in [0, 1], found {r}"),
            ));
        }
        a.brownout_ratio = r;
    }
    cfg.adaptation = Some(a);
    Ok(())
}

/// The Fig 6-shaped base every run composes over.
fn base_config(spec: &ScenarioSpec) -> ThroughputConfig {
    let mut cfg = ThroughputConfig::fig6();
    cfg.seed = spec.seed;
    cfg.horizon = SimTime::from_secs_f64(spec.horizon_s);
    cfg
}

/// The bounds that two topology keys set together, checked on the composed
/// topology: one fragment may set a maximum that a later one's minimum
/// fits.
fn check_composed_topology(cfg: &ThroughputConfig, path: String) -> Result<(), ScenarioError> {
    let library = &cfg.testbed.library;
    if library.min_replicas > library.max_replicas {
        return Err(schema_err(path, "the topology's min_replicas exceeds its max_replicas"));
    }
    if library.min_duration > library.max_duration {
        return Err(schema_err(path, "the topology's min_video_s exceeds its max_video_s"));
    }
    Ok(())
}

/// The most arrivals one run may imply (`horizon_s` ÷ `arrival_period_s`
/// × `burst`): a thousand times the paper's 1,000 s Fig 6 stream. The
/// driver builds the whole arrival stream before it starts, so a file
/// beyond this would take memory without bound.
pub const MAX_ARRIVALS: f64 = 1e6;

/// The arrivals the composed workload implies, checked against
/// [`MAX_ARRIVALS`] at the run stage's path.
fn check_composed_workload(cfg: &ThroughputConfig, path: String) -> Result<(), ScenarioError> {
    // No period keeps the paper's 1 s Poisson stream.
    let period_s = cfg.arrival_period.map_or(1.0, SimDuration::as_secs_f64);
    let arrivals = cfg.horizon.as_secs_f64() / period_s * cfg.arrival_burst.max(1) as f64;
    if arrivals > MAX_ARRIVALS {
        return Err(schema_err(
            path,
            format!(
                "horizon_s / arrival_period_s * burst implies {arrivals:.3e} arrivals, \
                 above the cap of {MAX_ARRIVALS:e}"
            ),
        ));
    }
    Ok(())
}

/// Composes the effective configuration for one run stage.
fn compose_run_config(
    spec: &ScenarioSpec,
    graph: &BTreeMap<String, Vec<String>>,
    order: &[String],
    run_name: &str,
) -> Result<ThroughputConfig, ScenarioError> {
    let mut cfg = base_config(spec);
    let closure = closure_in_order(graph, order, &[run_name.to_string()]);
    for pass in [
        &[StageKind::Topology][..],
        &[StageKind::Workload],
        &[StageKind::Faults, StageKind::Links, StageKind::Adaptation],
    ] {
        for name in &closure {
            let stage = &spec.stages[name.as_str()];
            if !pass.contains(&stage.kind) {
                continue;
            }
            let path = format!("stage.{name}");
            let v = View::new(&stage.body, &path);
            match stage.kind {
                StageKind::Topology => apply_topology(v, &mut cfg)?,
                StageKind::Workload => apply_workload(v, &mut cfg)?,
                StageKind::Faults => apply_faults(v, &mut cfg)?,
                StageKind::Links => apply_links(v, &mut cfg)?,
                StageKind::Adaptation => apply_adaptation(v, &mut cfg)?,
                StageKind::Run | StageKind::Sink => unreachable!("filtered by pass"),
            }
        }
        if pass == [StageKind::Topology] {
            check_composed_topology(&cfg, format!("stage.{run_name}"))?;
        }
        // The run's own body overrides its workload fragments, but is
        // applied before fault/link sampling so a run-local horizon still
        // bounds the sampled plans.
        if pass == [StageKind::Workload] {
            let path = format!("stage.{run_name}");
            apply_workload(View::new(&spec.stages[run_name].body, &path), &mut cfg)?;
            check_composed_workload(&cfg, path)?;
        }
    }
    Ok(cfg)
}

/// Renders one sink metric for one result. Floats print via `{:?}`
/// (shortest exact representation), keeping sink lines bit-faithful.
fn sink_metric(
    metric: &str,
    run: &RunOutcome,
    r: &ThroughputResult,
    path: &str,
) -> Result<String, ScenarioError> {
    Ok(match metric {
        "stable_outstanding" => format!("{:?}", r.stable_outstanding(run.horizon)),
        "completions_total" => format!("{}", r.completions_per_min.total()),
        "admitted_ratio" => {
            let ratio = if r.queries == 0 { 0.0 } else { r.admitted as f64 / r.queries as f64 };
            format!("{ratio:?}")
        }
        "mean_utility" => match r.mean_utility {
            Some(u) => format!("{u:?}"),
            None => "none".to_string(),
        },
        "queue_abandoned" => match &r.queue {
            Some(q) => format!("{}", q.abandoned()),
            None => "none".to_string(),
        },
        "queue_wait_mean" => match &r.queue {
            Some(q) => format!("{:?}", q.wait.mean()),
            None => "none".to_string(),
        },
        "queue_wait_p95" => match r.queue_wait_p95() {
            Some(p) => format!("{p:?}"),
            None => "none".to_string(),
        },
        "queue_wait_p99" => match r.queue_wait_p99() {
            Some(p) => format!("{p:?}"),
            None => "none".to_string(),
        },
        "fault_dropped" => match &r.faults {
            Some(f) => format!("{}", f.dropped),
            None => "none".to_string(),
        },
        "fault_failed_over" => match &r.faults {
            Some(f) => format!("{}", f.failed_over),
            None => "none".to_string(),
        },
        "congestion_events" => match &r.degradation {
            Some(d) => format!("{}", d.congestion_events),
            None => "none".to_string(),
        },
        "congested_secs" => match &r.degradation {
            Some(d) => format!("{:?}", d.congested_secs),
            None => "none".to_string(),
        },
        "downshifts" => match &r.degradation {
            Some(d) => format!("{}", d.downshifts),
            None => "none".to_string(),
        },
        "oscillations" => match &r.degradation {
            Some(d) => format!("{}", d.oscillations),
            None => "none".to_string(),
        },
        "brownout_rejected" => match &r.degradation {
            Some(d) => format!("{}", d.brownout_rejected),
            None => "none".to_string(),
        },
        "violation_secs_avoided" => match &r.degradation {
            Some(d) => format!("{:?}", d.violation_secs_avoided),
            None => "none".to_string(),
        },
        other => {
            return Err(schema_err(
                path,
                format!(
                    "unknown sink metric {other:?} (expected stable_outstanding, \
                     completions_total, admitted_ratio, mean_utility, queue_abandoned, \
                     queue_wait_mean, queue_wait_p95, queue_wait_p99, fault_dropped, \
                     fault_failed_over, congestion_events, congested_secs, downshifts, \
                     oscillations, brownout_rejected, violation_secs_avoided)"
                ),
            ))
        }
    })
}

/// Executes a scenario: resolves the stage graph, composes and runs every
/// run stage in topological order, then evaluates sinks.
pub fn execute(spec: &ScenarioSpec, mode: ExecMode) -> Result<ScenarioReport, ScenarioError> {
    let graph = spec.graph();
    let order = resolve_order(&graph)?;

    // Edge-kind validation: runs consume fragments, sinks consume runs.
    for (name, stage) in &spec.stages {
        for dep in &stage.needs {
            let dep_kind = spec.stages[dep.as_str()].kind;
            let ok = match stage.kind {
                StageKind::Run => !matches!(dep_kind, StageKind::Run | StageKind::Sink),
                StageKind::Sink => dep_kind == StageKind::Run,
                // Fragments composing other fragments is fine (e.g. a
                // faults stage anchored on a topology stage for reading
                // clarity), as long as the graph stays acyclic.
                _ => !matches!(dep_kind, StageKind::Run | StageKind::Sink),
            };
            if !ok {
                return Err(schema_err(
                    format!("stage.{name}.needs"),
                    format!(
                        "a {} stage cannot depend on {} stage {dep:?}",
                        stage.kind.label(),
                        dep_kind.label()
                    ),
                ));
            }
        }
    }

    let mut runs: Vec<RunOutcome> = Vec::new();
    let mut sinks: Vec<SinkOutcome> = Vec::new();
    for name in &order {
        let stage = &spec.stages[name.as_str()];
        match stage.kind {
            StageKind::Run => {
                let path = format!("stage.{name}");
                let v = View::new(&stage.body, &path);
                let systems = v
                    .opt_str_array("systems")?
                    .ok_or_else(|| schema_err(format!("{path}.systems"), "missing required key"))?;
                if systems.is_empty() {
                    return Err(schema_err(format!("{path}.systems"), "needs at least one system"));
                }
                let cfg = compose_run_config(spec, &graph, &order, name)?;
                let kinds = systems
                    .iter()
                    .map(|s| parse_system(s, &format!("{path}.systems")))
                    .collect::<Result<Vec<_>, _>>()?;
                let horizon = cfg.horizon;
                let results = match mode {
                    ExecMode::Serial => kinds.iter().map(|k| run_throughput(*k, &cfg)).collect(),
                    ExecMode::Parallel => {
                        let jobs: Vec<(SystemKind, ThroughputConfig)> =
                            kinds.iter().map(|k| (*k, cfg.clone())).collect();
                        run_throughput_scenarios(&jobs)
                    }
                };
                runs.push(RunOutcome { stage: name.clone(), horizon, results });
            }
            StageKind::Sink => {
                let path = format!("stage.{name}");
                let v = View::new(&stage.body, &path);
                let metrics = v
                    .opt_str_array("metrics")?
                    .ok_or_else(|| schema_err(format!("{path}.metrics"), "missing required key"))?;
                if stage.needs.is_empty() {
                    return Err(schema_err(
                        format!("{path}.needs"),
                        "a sink needs at least one run stage",
                    ));
                }
                let mut lines = Vec::new();
                for dep in &stage.needs {
                    let run = runs
                        .iter()
                        .find(|r| &r.stage == dep)
                        .expect("runs execute before dependent sinks");
                    for r in &run.results {
                        for metric in &metrics {
                            let value = sink_metric(metric, run, r, &format!("{path}.metrics"))?;
                            lines.push(format!("{dep}/{} {metric}={value}", r.label));
                        }
                    }
                }
                sinks.push(SinkOutcome { stage: name.clone(), lines });
            }
            _ => {} // fragments are applied lazily by the runs above
        }
    }
    Ok(ScenarioReport { name: spec.name.clone(), seed: spec.seed, runs, sinks })
}

/// Parses and executes a scenario document.
pub fn run_str(text: &str, mode: ExecMode) -> Result<ScenarioReport, ScenarioError> {
    execute(&text.parse::<ScenarioSpec>()?, mode)
}

/// Reads, parses, and executes a scenario file.
pub fn run_file(path: &std::path::Path, mode: ExecMode) -> Result<ScenarioReport, ScenarioError> {
    execute(&ScenarioSpec::from_path(path)?, mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "\
[scenario]
name = \"smoke\"
seed = 11
horizon_s = 20

[stage.topo]
kind = \"topology\"
servers = 3
videos = 12

[stage.load]
kind = \"workload\"
needs = [\"topo\"]
burst = 2

[stage.bench]
kind = \"run\"
needs = [\"load\"]
systems = [\"vdbms\", \"quasaq:lrb\"]

[stage.summary]
kind = \"sink\"
needs = [\"bench\"]
metrics = [\"stable_outstanding\", \"admitted_ratio\", \"mean_utility\"]
";

    #[test]
    fn smoke_scenario_runs_and_reports() {
        let report = run_str(SMOKE, ExecMode::Serial).unwrap();
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.runs[0].results.len(), 2);
        assert_eq!(report.runs[0].results[0].label, "VDBMS");
        assert!(report.runs[0].results[0].queries > 0);
        let text = report.render();
        assert!(text.starts_with("scenario smoke seed=11\n"), "{text}");
        assert!(text.contains("run bench\n"), "{text}");
        assert!(text.contains("sink summary\n"), "{text}");
        assert!(text.contains("bench/VDBMS stable_outstanding="), "{text}");
        // The VDBMS row reports no utility; QuaSAQ reports one.
        assert!(text.contains("bench/VDBMS mean_utility=none"), "{text}");
        assert!(!text.contains("bench/VDBMS+QuaSAQ(LRB) mean_utility=none"), "{text}");
    }

    #[test]
    fn serial_and_parallel_render_identically() {
        let serial = run_str(SMOKE, ExecMode::Serial).unwrap().render();
        let parallel = run_str(SMOKE, ExecMode::Parallel).unwrap().render();
        assert_eq!(serial, parallel, "scenario reports must be mode-independent");
    }

    #[test]
    fn run_on_run_dependencies_are_rejected() {
        let doc = format!(
            "{SMOKE}\n[stage.second]\nkind = \"run\"\nneeds = [\"bench\"]\nsystems = [\"vdbms\"]\n"
        );
        let err = run_str(&doc, ExecMode::Serial).unwrap_err();
        assert!(err.to_string().contains("cannot depend on run stage"), "{err}");
    }

    #[test]
    fn sinks_only_consume_runs() {
        let doc = SMOKE.replace("needs = [\"bench\"]\nmetrics", "needs = [\"load\"]\nmetrics");
        let err = run_str(&doc, ExecMode::Serial).unwrap_err();
        assert!(err.to_string().contains("cannot depend on workload stage"), "{err}");
    }

    #[test]
    fn unknown_system_and_metric_are_schema_errors() {
        let doc = SMOKE.replace("\"quasaq:lrb\"", "\"quasaq:psychic\"");
        let err = run_str(&doc, ExecMode::Serial).unwrap_err();
        assert!(err.to_string().contains("unknown system"), "{err}");
        let doc = SMOKE.replace("\"admitted_ratio\"", "\"vibes\"");
        let err = run_str(&doc, ExecMode::Serial).unwrap_err();
        assert!(err.to_string().contains("unknown sink metric"), "{err}");
    }

    #[test]
    fn fault_window_server_out_of_range_is_caught() {
        let doc = format!(
            "{SMOKE}\n[stage.crash]\nkind = \"faults\"\n\
             windows = [{{ server = 9, at_s = 5, duration_s = 5 }}]\n"
        );
        // Attach it to the run so it actually composes.
        let doc =
            doc.replace("needs = [\"load\"]\nsystems", "needs = [\"load\", \"crash\"]\nsystems");
        let err = run_str(&doc, ExecMode::Serial).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn faults_and_links_sample_against_the_composed_horizon() {
        let doc = format!(
            "{}\n[stage.weather]\nkind = \"links\"\n[stage.weather.model]\nkind = \"fading\"\n\
             mean = 0.8\nspread = 0.1\ncoherence_s = 4\n",
            SMOKE
                .replace("needs = [\"load\"]\nsystems", "needs = [\"load\", \"weather\"]\nsystems")
        );
        let report = run_str(&doc, ExecMode::Serial).unwrap();
        // Link dynamics mark results with fault metrics (QoS violation
        // exposure tracking); presence proves the plan reached the driver.
        assert!(report.runs[0].results[0].faults.is_some());
    }

    /// Runs the smoke scenario with a links stage whose model table is
    /// `model`, and asserts it fails with a schema error at `key`.
    fn assert_link_model_rejected(model: &str, key: &str) {
        let doc = format!(
            "{}\n[stage.w]\nkind = \"links\"\n[stage.w.model]\n{model}\n",
            SMOKE.replace("needs = [\"load\"]\nsystems", "needs = [\"load\", \"w\"]\nsystems")
        );
        match run_str(&doc, ExecMode::Serial) {
            Err(ScenarioError::Schema { path, .. }) => assert_eq!(path, key),
            other => panic!("expected a schema error at {key}, got {other:?}"),
        }
    }

    /// Runs the smoke scenario with `admission` as its workload's
    /// admission table, and asserts it fails with a schema error at `key`.
    fn assert_admission_rejected(admission: &str, key: &str) {
        let doc = SMOKE
            .replace("burst = 2\n", &format!("burst = 2\n[stage.load.admission]\n{admission}\n"));
        match run_str(&doc, ExecMode::Serial) {
            Err(ScenarioError::Schema { path, .. }) => assert_eq!(path, key),
            other => panic!("expected a schema error at {key}, got {other:?}"),
        }
    }

    #[test]
    fn zero_queue_capacity_is_a_schema_error() {
        assert_admission_rejected("queue_capacity = 0", "stage.load.admission.queue_capacity");
    }

    /// Runs the smoke scenario with `line` added to its workload stage,
    /// and asserts it fails with a schema error at `key`.
    fn assert_workload_rejected(line: &str, key: &str) {
        let doc = SMOKE.replace("burst = 2\n", &format!("burst = 2\n{line}\n"));
        match run_str(&doc, ExecMode::Serial) {
            Err(ScenarioError::Schema { path, .. }) => assert_eq!(path, key),
            other => panic!("expected a schema error at {key}, got {other:?}"),
        }
    }

    #[test]
    fn sub_microsecond_arrival_period_is_a_schema_error() {
        assert_workload_rejected("arrival_period_s = 0.0000001", "stage.load.arrival_period_s");
    }

    /// A run implying more than [`MAX_ARRIVALS`] arrivals is refused
    /// before its arrival stream is built, whichever key makes it so.
    #[test]
    fn unbounded_arrival_streams_are_a_schema_error() {
        let baseline = include_str!("../../../scenarios/baseline_three_systems.toml");
        let edits = [
            ("horizon_s = 40", "horizon_s = 1e300"),
            ("arrival_period_s = 0.4", "arrival_period_s = 0.000001"),
            ("sample_step_s = 5", "sample_step_s = 5\nburst = 100000"),
        ];
        for (from, to) in edits {
            assert!(baseline.contains(from), "{from}");
            match run_str(&baseline.replace(from, to), ExecMode::Serial) {
                Err(ScenarioError::Schema { path, message }) => {
                    assert_eq!(path, "stage.bench", "{to}");
                    assert!(message.contains("horizon_s / arrival_period_s * burst"), "{message}");
                }
                other => panic!("{to}: expected a schema error, got {other:?}"),
            }
        }
    }

    #[test]
    fn sub_microsecond_sample_step_is_a_schema_error() {
        assert_workload_rejected("sample_step_s = 0.0000001", "stage.load.sample_step_s");
    }

    /// Runs the smoke scenario with `topology` as its topology stage's
    /// body, and asserts it fails with a schema error at `key`.
    fn assert_topology_rejected(topology: &str, key: &str) {
        let doc = SMOKE.replace("servers = 3\nvideos = 12\n", &format!("{topology}\n"));
        match run_str(&doc, ExecMode::Serial) {
            Err(ScenarioError::Schema { path, .. }) => assert_eq!(path, key, "{topology}"),
            other => panic!("{topology}: expected a schema error at {key}, got {other:?}"),
        }
    }

    #[test]
    fn zero_link_capacity_is_a_schema_error() {
        assert_topology_rejected("link_capacity_bps = 0", "stage.topo.link_capacity_bps");
    }

    #[test]
    fn non_positive_or_infinite_disk_bandwidth_is_a_schema_error() {
        for bps in ["0", "-1", "1e400"] {
            assert_topology_rejected(&format!("disk_bps = {bps}"), "stage.topo.disk_bps");
        }
    }

    #[test]
    fn non_positive_or_infinite_memory_is_a_schema_error() {
        for bytes in ["0", "-5e8", "1e400"] {
            assert_topology_rejected(&format!("memory_bytes = {bytes}"), "stage.topo.memory_bytes");
        }
    }

    #[test]
    fn zero_videos_is_a_schema_error() {
        assert_topology_rejected("videos = 0", "stage.topo.videos");
    }

    #[test]
    fn min_replicas_outside_the_ladder_is_a_schema_error() {
        for n in [0, 5] {
            assert_topology_rejected(&format!("min_replicas = {n}"), "stage.topo.min_replicas");
        }
        assert_topology_rejected("min_replicas = 4\nmax_replicas = 3", "stage.bench");
    }

    #[test]
    fn max_replicas_outside_the_ladder_is_a_schema_error() {
        for n in [0, 5] {
            assert_topology_rejected(&format!("max_replicas = {n}"), "stage.topo.max_replicas");
        }
        // Below the default minimum of 3.
        assert_topology_rejected("max_replicas = 2", "stage.bench");
    }

    /// Two topology fragments may bound the replica count and the clip
    /// length in either order: only the composed topology must be
    /// consistent.
    #[test]
    fn topology_bounds_are_checked_once_composed() {
        // Each first fragment alone is inconsistent with the defaults.
        let pairs = [
            ("max_replicas = 2", "min_replicas = 1"),
            ("min_video_s = 2000", "max_video_s = 2400"),
        ];
        for (first, second) in pairs {
            let topo2 =
                format!("[stage.topo2]\nkind = \"topology\"\nneeds = [\"topo\"]\n{second}\n");
            let doc = SMOKE
                .replace("videos = 12\n", &format!("videos = 12\n{first}\n{topo2}"))
                .replace("needs = [\"topo\"]\nburst", "needs = [\"topo2\"]\nburst");
            assert!(doc.contains("needs = [\"topo2\"]\nburst"), "{doc}");
            assert!(run_str(&doc, ExecMode::Serial).is_ok(), "{first} then {second}");
        }
    }

    /// Spread copies are clamped to the server count, so a count beyond
    /// `u32` places as many copies as one equal to it (2^32 + 1 used to
    /// become 1 copy).
    #[test]
    fn spread_copies_beyond_u32_saturate() {
        let render = |copies: u64| {
            let topology =
                format!("servers = 3\nvideos = 12\nplacement = \"spread\"\ncopies = {copies}\n");
            let doc = SMOKE.replace("servers = 3\nvideos = 12\n", &topology);
            run_str(&doc, ExecMode::Serial).unwrap().render()
        };
        assert_eq!(render((1 << 32) + 1), render(3));
    }

    /// A server count is a `u32`: 2^32 used to become 0 servers, and
    /// 2^32 + 3 to become 3.
    #[test]
    fn servers_beyond_u32_is_a_schema_error() {
        for servers in [1u64 << 32, (1u64 << 32) + 3, i64::MAX as u64] {
            assert_topology_rejected(&format!("servers = {servers}"), "stage.topo.servers");
        }
    }

    #[test]
    fn shrinking_backoff_factor_is_a_schema_error() {
        for factor in ["0.5", "0", "-2", "1e400"] {
            assert_admission_rejected(
                &format!("backoff_factor = {factor}"),
                "stage.load.admission.backoff_factor",
            );
        }
    }

    #[test]
    fn markov_factor_above_one_is_a_schema_error() {
        assert_link_model_rejected(
            "kind = \"markov\"\nfactors = [1.5, 0.4, 0.15]\ndwell_s = [8, 5, 4]",
            "stage.w.model.factors",
        );
    }

    #[test]
    fn markov_non_positive_dwell_is_a_schema_error() {
        assert_link_model_rejected(
            "kind = \"markov\"\nfactors = [1, 0.4, 0.15]\ndwell_s = [8, -5, 4]",
            "stage.w.model.dwell_s",
        );
        assert_link_model_rejected(
            "kind = \"markov\"\nfactors = [1, 0.4, 0.15]\ndwell_s = [8, 5, 0]",
            "stage.w.model.dwell_s",
        );
    }

    #[test]
    fn fading_mean_out_of_range_is_a_schema_error() {
        for mean in ["0", "1.2", "-0.5"] {
            assert_link_model_rejected(
                &format!("kind = \"fading\"\nmean = {mean}\nspread = 0.1\ncoherence_s = 4"),
                "stage.w.model.mean",
            );
        }
    }

    #[test]
    fn negative_fading_spread_is_a_schema_error() {
        assert_link_model_rejected(
            "kind = \"fading\"\nmean = 0.8\nspread = -0.1\ncoherence_s = 4",
            "stage.w.model.spread",
        );
    }

    #[test]
    fn diurnal_trough_out_of_range_is_a_schema_error() {
        for trough in ["0", "1.5"] {
            assert_link_model_rejected(
                &format!("kind = \"diurnal\"\ntrough = {trough}\nperiod_s = 60\nstep_s = 5"),
                "stage.w.model.trough",
            );
        }
    }
}
