//! The bench binary's command line: a malformed one exits 2 with the
//! usage line before running anything.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("spawn bench")
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    for args in [&["--gallry"][..], &["--quick", "--bogus"], &["quick"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown argument") && stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn valued_flags_without_a_value_exit_2() {
    let out = run(&["--scenario"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("takes a value"));
}
