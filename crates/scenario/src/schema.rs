//! The scenario document schema: typed extraction from parsed TOML with
//! path-tagged validation errors.
//!
//! A scenario file has one `[scenario]` header (name, seed, horizon) and
//! any number of `[stage.<name>]` tables, each with a `kind`, an optional
//! `needs` list, and kind-specific keys. The schema layer checks document
//! *shape* — every key spelled here is either consumed or rejected with
//! its full path (`stage.load.qop_mix`), so a typo fails the parse instead
//! of silently running a default experiment. Value semantics (ranges,
//! cross-stage consistency) are checked at application time in `exec`.

use crate::dag::DagError;
use crate::toml::{self, ParseError, Table, Value};
use quasaq_sim::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// Any failure between TOML text and an executed scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// Malformed TOML.
    Parse(ParseError),
    /// Well-formed TOML that violates the scenario schema; `path` is the
    /// dotted location of the offending key or table.
    Schema { path: String, message: String },
    /// The stage graph failed to resolve.
    Dag(DagError),
    /// The scenario file could not be read.
    Io { path: String, message: String },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse(e) => write!(f, "{e}"),
            ScenarioError::Schema { path, message } => {
                write!(f, "scenario schema error at `{path}`: {message}")
            }
            ScenarioError::Dag(e) => write!(f, "scenario stage graph error: {e}"),
            ScenarioError::Io { path, message } => {
                write!(f, "cannot read scenario {path:?}: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ParseError> for ScenarioError {
    fn from(e: ParseError) -> Self {
        ScenarioError::Parse(e)
    }
}

impl From<DagError> for ScenarioError {
    fn from(e: DagError) -> Self {
        ScenarioError::Dag(e)
    }
}

fn schema_err(path: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Schema { path: path.into(), message: message.into() }
}

/// A typed window onto one table, carrying its dotted path for errors.
#[derive(Clone, Copy)]
pub struct View<'a> {
    pub table: &'a Table,
    pub path: &'a str,
}

impl<'a> View<'a> {
    pub fn new(table: &'a Table, path: &'a str) -> Self {
        View { table, path }
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    fn wrong_type(&self, key: &str, want: &str, got: &Value) -> ScenarioError {
        schema_err(self.key_path(key), format!("expected {want}, found {}", got.type_name()))
    }

    pub fn has(&self, key: &str) -> bool {
        self.table.contains_key(key)
    }

    /// Rejects any key outside `allowed` — the DSL's typo guard.
    pub fn deny_unknown(&self, allowed: &[&str]) -> Result<(), ScenarioError> {
        for key in self.table.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(schema_err(
                    self.key_path(key),
                    format!("unknown key (expected one of: {})", allowed.join(", ")),
                ));
            }
        }
        Ok(())
    }

    pub fn opt_str(&self, key: &str) -> Result<Option<&'a str>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s)),
            Some(v) => Err(self.wrong_type(key, "a string", v)),
        }
    }

    pub fn req_str(&self, key: &str) -> Result<&'a str, ScenarioError> {
        self.opt_str(key)?.ok_or_else(|| schema_err(self.key_path(key), "missing required key"))
    }

    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Bool(b)) => Ok(Some(*b)),
            Some(v) => Err(self.wrong_type(key, "a boolean", v)),
        }
    }

    /// Integer-valued key; floats are rejected (no silent truncation).
    pub fn opt_u64(&self, key: &str) -> Result<Option<u64>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
            Some(Value::Int(i)) => {
                Err(schema_err(self.key_path(key), format!("must be non-negative, found {i}")))
            }
            Some(v) => Err(self.wrong_type(key, "a non-negative integer", v)),
        }
    }

    pub fn opt_usize(&self, key: &str) -> Result<Option<usize>, ScenarioError> {
        Ok(self.opt_u64(key)?.map(|v| v as usize))
    }

    /// Numeric key: integers coerce to floats (so `horizon_s = 45` works).
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Float(f)) => Ok(Some(*f)),
            Some(Value::Int(i)) => Ok(Some(*i as f64)),
            Some(v) => Err(self.wrong_type(key, "a number", v)),
        }
    }

    pub fn req_f64(&self, key: &str) -> Result<f64, ScenarioError> {
        self.opt_f64(key)?.ok_or_else(|| schema_err(self.key_path(key), "missing required key"))
    }

    /// A positive number of seconds, at least the simulator's 1 µs
    /// resolution: a shorter span rounds to a zero `SimDuration`.
    pub fn opt_secs(&self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.opt_f64(key)? {
            None => Ok(None),
            Some(s) if s.is_finite() && !SimDuration::from_secs_f64(s).is_zero() => Ok(Some(s)),
            Some(s) => Err(schema_err(
                self.key_path(key),
                format!("must be positive seconds of at least 1 µs, found {s}"),
            )),
        }
    }

    pub fn opt_str_array(&self, key: &str) -> Result<Option<Vec<&'a str>>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Ok(s.as_str()),
                    other => Err(self.wrong_type(key, "an array of strings", other)),
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(v) => Err(self.wrong_type(key, "an array of strings", v)),
        }
    }

    pub fn opt_f64_array(&self, key: &str) -> Result<Option<Vec<f64>>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Array(items)) => items
                .iter()
                .map(|v| match v {
                    Value::Float(f) => Ok(*f),
                    Value::Int(i) => Ok(*i as f64),
                    other => Err(self.wrong_type(key, "an array of numbers", other)),
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(v) => Err(self.wrong_type(key, "an array of numbers", v)),
        }
    }

    /// An array of tables (inline or `[[...]]`), each returned as a view
    /// path like `stage.crash.windows[1]`.
    pub fn opt_table_array(
        &self,
        key: &str,
    ) -> Result<Option<Vec<(&'a Table, String)>>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Array(items)) => items
                .iter()
                .enumerate()
                .map(|(i, v)| match v {
                    Value::Table(t) => Ok((t, format!("{}[{i}]", self.key_path(key)))),
                    other => Err(self.wrong_type(key, "an array of tables", other)),
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
            Some(v) => Err(self.wrong_type(key, "an array of tables", v)),
        }
    }

    pub fn opt_table(&self, key: &str) -> Result<Option<(&'a Table, String)>, ScenarioError> {
        match self.table.get(key) {
            None => Ok(None),
            Some(Value::Table(t)) => Ok(Some((t, self.key_path(key)))),
            Some(v) => Err(self.wrong_type(key, "a table", v)),
        }
    }
}

/// What a stage contributes to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Deployment shape: servers, catalog, placement, capacities.
    Topology,
    /// Traffic and driver knobs: horizon, arrivals, bursts, QoP mix,
    /// admission front end, plan cache.
    Workload,
    /// An outage schedule (`sim::fault`).
    Faults,
    /// A link-capacity process (`sim::linkdyn`).
    Links,
    /// The congestion-adaptation loop and brownout policy.
    Adaptation,
    /// Executes systems × the composed configuration on the
    /// scenario-parallel runner.
    Run,
    /// A metric sink over finished run stages.
    Sink,
}

impl StageKind {
    pub fn parse(s: &str, path: &str) -> Result<Self, ScenarioError> {
        Ok(match s {
            "topology" => StageKind::Topology,
            "workload" => StageKind::Workload,
            "faults" => StageKind::Faults,
            "links" => StageKind::Links,
            "adaptation" => StageKind::Adaptation,
            "run" => StageKind::Run,
            "sink" => StageKind::Sink,
            other => {
                return Err(schema_err(
                    path,
                    format!(
                        "unknown stage kind {other:?} (expected topology, workload, faults, \
                         links, adaptation, run, or sink)"
                    ),
                ))
            }
        })
    }

    pub fn label(self) -> &'static str {
        match self {
            StageKind::Topology => "topology",
            StageKind::Workload => "workload",
            StageKind::Faults => "faults",
            StageKind::Links => "links",
            StageKind::Adaptation => "adaptation",
            StageKind::Run => "run",
            StageKind::Sink => "sink",
        }
    }

    /// The keys this kind's body may carry (besides `kind` / `needs`).
    fn allowed_keys(self) -> &'static [&'static str] {
        match self {
            StageKind::Topology => &[
                "kind",
                "needs",
                "servers",
                "videos",
                "seed",
                "link_capacity_bps",
                "disk_bps",
                "memory_bytes",
                "placement",
                "copies",
                "min_video_s",
                "max_video_s",
                "min_replicas",
                "max_replicas",
            ],
            StageKind::Workload | StageKind::Run => &[
                "kind",
                "needs",
                "systems", // run only; workload application ignores it
                "horizon_s",
                "sample_step_s",
                "seed",
                "arrival_period_s",
                "burst",
                "video_skew",
                "qop_mix",
                "local_plans_only",
                "plan_cache",
                "admission",
            ],
            StageKind::Faults => &["kind", "needs", "windows", "model", "seed"],
            StageKind::Links => &["kind", "needs", "setpoints", "model", "seed"],
            StageKind::Adaptation => &[
                "kind",
                "needs",
                "high_ratio",
                "low_ratio",
                "dwell_s",
                "upgrade_period_s",
                "max_downshifts_per_event",
                "brownout_ratio",
            ],
            StageKind::Sink => &["kind", "needs", "metrics"],
        }
    }
}

/// One declared stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    pub kind: StageKind,
    pub needs: Vec<String>,
    /// The stage body (including `kind`/`needs`, which application skips).
    pub body: Table,
}

/// A parsed, shape-validated scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    pub name: String,
    pub seed: u64,
    /// Run length in seconds (stages may override per-run).
    pub horizon_s: f64,
    pub stages: BTreeMap<String, StageSpec>,
}

impl std::str::FromStr for ScenarioSpec {
    type Err = ScenarioError;

    /// Parses and shape-checks a scenario document.
    fn from_str(text: &str) -> Result<Self, ScenarioError> {
        let root = toml::parse(text)?;
        let root_view = View::new(&root, "");
        root_view.deny_unknown(&["scenario", "stage"])?;
        let (scenario, spath) = root_view
            .opt_table("scenario")?
            .ok_or_else(|| schema_err("scenario", "missing required [scenario] table"))?;
        let sv = View::new(scenario, &spath);
        sv.deny_unknown(&["name", "seed", "horizon_s"])?;
        let name = sv.req_str("name")?.to_string();
        let seed = sv.opt_u64("seed")?.unwrap_or(7);
        let horizon_s = sv
            .opt_secs("horizon_s")?
            .ok_or_else(|| schema_err("scenario.horizon_s", "missing required key"))?;

        let mut stages = BTreeMap::new();
        if let Some((stage_tables, stpath)) = root_view.opt_table("stage")? {
            for (stage_name, v) in stage_tables {
                let path = format!("{stpath}.{stage_name}");
                let Value::Table(body) = v else {
                    return Err(schema_err(&path, "a stage must be a table"));
                };
                let bv = View::new(body, &path);
                let kind = StageKind::parse(bv.req_str("kind")?, &format!("{path}.kind"))?;
                bv.deny_unknown(kind.allowed_keys())?;
                if kind != StageKind::Run && bv.has("systems") {
                    return Err(schema_err(
                        format!("{path}.systems"),
                        "only run stages take a systems list",
                    ));
                }
                let needs = bv
                    .opt_str_array("needs")?
                    .map(|v| v.into_iter().map(String::from).collect())
                    .unwrap_or_default();
                stages.insert(stage_name.clone(), StageSpec { kind, needs, body: body.clone() });
            }
        }
        if !stages.values().any(|s| s.kind == StageKind::Run) {
            return Err(schema_err("stage", "a scenario needs at least one run stage"));
        }
        Ok(ScenarioSpec { name, seed, horizon_s, stages })
    }
}

impl ScenarioSpec {
    /// Reads and parses a scenario file.
    pub fn from_path(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        text.parse()
    }

    /// The stage graph as name → needs, for the resolver.
    pub fn graph(&self) -> BTreeMap<String, Vec<String>> {
        self.stages.iter().map(|(n, s)| (n.clone(), s.needs.clone())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    const MINIMAL: &str = "\
[scenario]
name = \"t\"
horizon_s = 30

[stage.bench]
kind = \"run\"
systems = [\"vdbms\"]
";

    #[test]
    fn minimal_scenario_parses() {
        let spec = ScenarioSpec::from_str(MINIMAL).unwrap();
        assert_eq!(spec.name, "t");
        assert_eq!(spec.seed, 7, "seed defaults");
        assert_eq!(spec.horizon_s, 30.0);
        assert_eq!(spec.stages["bench"].kind, StageKind::Run);
    }

    #[test]
    fn unknown_keys_fail_with_their_path() {
        let doc = MINIMAL.replace("systems = [\"vdbms\"]", "systems = [\"vdbms\"]\nbogus = 1");
        let err = ScenarioSpec::from_str(&doc).unwrap_err();
        match err {
            ScenarioError::Schema { path, .. } => assert_eq!(path, "stage.bench.bogus"),
            other => panic!("expected schema error, got {other}"),
        }
    }

    #[test]
    fn unknown_stage_kind_is_rejected() {
        let doc = MINIMAL.replace("\"run\"", "\"telemetry\"");
        let err = ScenarioSpec::from_str(&doc).unwrap_err();
        assert!(err.to_string().contains("unknown stage kind"), "{err}");
    }

    #[test]
    fn systems_only_on_run_stages() {
        let doc = format!("{MINIMAL}\n[stage.load]\nkind = \"workload\"\nsystems = [\"vdbms\"]\n");
        let err = ScenarioSpec::from_str(&doc).unwrap_err();
        assert!(err.to_string().contains("only run stages"), "{err}");
    }

    #[test]
    fn scenario_without_run_stage_is_rejected() {
        let doc = "\
[scenario]
name = \"t\"
horizon_s = 30

[stage.topo]
kind = \"topology\"
servers = 3
";
        let err = ScenarioSpec::from_str(doc).unwrap_err();
        assert!(err.to_string().contains("at least one run stage"), "{err}");
    }

    #[test]
    fn type_errors_name_expected_and_found() {
        let doc = MINIMAL.replace("horizon_s = 30", "horizon_s = \"long\"");
        let err = ScenarioSpec::from_str(&doc).unwrap_err();
        assert!(err.to_string().contains("expected a number, found string"), "{err}");
        let doc = MINIMAL.replace("horizon_s = 30", "horizon_s = -5");
        let err = ScenarioSpec::from_str(&doc).unwrap_err();
        assert!(err.to_string().contains("positive seconds"), "{err}");
    }
}
