//! The golden gallery: every scenario under `scenarios/` runs at smoke
//! scale and must render byte-identically to its committed golden, both
//! serially and on the scenario-parallel runner. The gallery doubles as the system-level
//! regression suite — any change to traffic generation, admission,
//! streaming, fault/link injection, or adaptation shows up as a
//! fingerprint diff here before it reaches a figure.
//!
//! Regenerating after an intentional behaviour change:
//!
//! ```text
//! QUASAQ_BLESS=1 cargo test --test scenario_gallery
//! ```
//!
//! then review the `scenarios/golden/*.golden` diff like any other code.

use quasaq::scenario::{run_file, ExecMode};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn gallery() -> Vec<PathBuf> {
    let dir = repo_root().join("scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "the gallery must keep at least 6 scenarios, found {}", files.len());
    files
}

fn golden_path(scenario: &Path) -> PathBuf {
    let stem = scenario.file_stem().expect("toml files have stems");
    repo_root().join("scenarios").join("golden").join(stem).with_extension("golden")
}

fn blessing() -> bool {
    std::env::var_os("QUASAQ_BLESS").is_some_and(|v| v == "1")
}

/// Serial execution must match the committed golden byte-for-byte.
#[test]
fn gallery_matches_goldens() {
    let mut stale = Vec::new();
    for scenario in gallery() {
        let name = scenario.file_name().unwrap().to_string_lossy().into_owned();
        let report =
            run_file(&scenario, ExecMode::Serial).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = report.render();
        let golden = golden_path(&scenario);
        if blessing() {
            std::fs::write(&golden, &rendered)
                .unwrap_or_else(|e| panic!("cannot bless {}: {e}", golden.display()));
            continue;
        }
        let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {} ({e}); run QUASAQ_BLESS=1 cargo test --test \
                 scenario_gallery to generate it",
                golden.display()
            )
        });
        if rendered != expected {
            stale.push(format!(
                "{name}: report drifted from {}\n--- expected\n{expected}--- got\n{rendered}",
                golden.display()
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "{}\nIf the change is intentional, rebless with QUASAQ_BLESS=1.",
        stale.join("\n")
    );
}

/// Parallel execution (systems fanned out on the scenario-parallel
/// runner) must render byte-identically to serial — the determinism gate.
#[test]
fn gallery_is_parallel_invariant() {
    for scenario in gallery() {
        let name = scenario.file_name().unwrap().to_string_lossy().into_owned();
        let serial =
            run_file(&scenario, ExecMode::Serial).unwrap_or_else(|e| panic!("{name}: {e}"));
        let parallel =
            run_file(&scenario, ExecMode::Parallel).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            serial.render(),
            parallel.render(),
            "{name}: serial and parallel reports diverged"
        );
        assert_eq!(serial.fingerprint(), parallel.fingerprint(), "{name}");
    }
}

/// Every scenario must round-trip through the DSL's own serializer: the
/// canonical re-rendering parses back to the same document, so gallery
/// files cannot depend on syntax the serializer would lose.
#[test]
fn gallery_sources_round_trip() {
    use quasaq::scenario::toml;
    for scenario in gallery() {
        let name = scenario.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&scenario).unwrap();
        let parsed = toml::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let canonical = toml::to_string(&parsed);
        let reparsed =
            toml::parse(&canonical).unwrap_or_else(|e| panic!("{name} (canonical): {e}"));
        assert_eq!(parsed, reparsed, "{name}: serializer is not a parse fixed point");
    }
}
