#!/usr/bin/env bash
# Offline-safe CI gate: everything here runs without network access — the
# workspace's only dependencies are in-tree path crates (see Cargo.toml),
# so no registry fetch is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> library line counts per crate (print only: nothing here gates; scripts/loc.sh REV counts another revision)"
scripts/loc.sh

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# `perfbench/` is its own workspace, so the two steps above miss it.
echo "==> perfbench: cargo fmt --check + cargo clippy (deny warnings)"
cargo fmt --manifest-path perfbench/Cargo.toml -- --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc (deny rustdoc warnings: dangling or private intra-doc links fail here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (tier-1)"
cargo test -q

echo "==> cargo test --workspace"
cargo test --workspace -q

# `available_parallelism` honours the affinity mask, so on one core
# `parallel_map` takes its serial branch: a test must pass on every core
# count, not only the runner's.
if command -v taskset >/dev/null; then
    echo "==> determinism-sensitive tests pinned to one core"
    time taskset -c 0 cargo test -q -p quasaq -p quasaq-workload -p quasaq-scenario -p quasaq-core \
        -p quasaq-qosapi -p quasaq-store -p quasaq-vdbms -p quasaq-sim -p quasaq-stream -p quasaq-service
fi

echo "==> perfbench unit tests (the benchmark must keep building against the crate APIs)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> traced benchmark run (admit_lrb100, 100 servers: fingerprint + full-enumeration shadow checks; exits 1 on a mismatch)"
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload admit_lrb100 --seconds 3 --trace 1

echo "==> traced benchmark run (dataplane_qosapi100: QoS-API baseline, the fluid data plane does nearly all the work; fingerprint + shadow checks)"
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload dataplane_qosapi100 --seconds 3 --trace 1

echo "==> traced benchmark run (zipf_adapt30: plan cache + bulk prefetch on; the traced plane must reproduce run_throughput_on's fingerprint)"
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload zipf_adapt30 --seconds 3 --trace 1

echo "==> serial/parallel determinism (quick mode: one round of the fig6/fig7/queued/availability suites; the full run writes the timing artifact)"
cargo run --release -p quasaq-bench --bin bench -- --quick

echo "==> overhead micro-benchmarks, one smoke run (admission at 3 and 100 servers: idle, loaded, refused; fluid per-event step at 100 and 1,000 servers; catalog load at 100 servers; every case's expects run)"
cargo bench -p quasaq-bench --bench overhead

echo "==> cached-admission + stochastic-link brownout smoke (3 servers; asserts bit-identity and nonzero brownout shedding)"
cargo run --release -p quasaq-bench --bin bench -- --smoke

echo "==> service-shell loopback smoke (TCP shell vs in-process driver decision identity, 1/2/4 threads)"
cargo run --release -p quasaq-bench --bin bench -- --load --quick

echo "CI green."
