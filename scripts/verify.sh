#!/usr/bin/env bash
# Tier-1 verify path for this repository.
#
# Beyond build + tests, this checks formatting, compiles every bench target
# (`cargo bench --no-run`) and lints with `-D warnings`, so benches and shims cannot
# bit-rot silently between PRs. It also runs the repo benchmark's own tests and its
# smoke mode (`benchmark/run.sh --smoke`: every workload at 1/20 size, output checks
# only), so a change that breaks an output check — a missing state message, a leaked
# slot, a wait that times out — fails here rather than at the benchmark gate.
# Set BENCH_GUARD=1 to additionally run the scheduler bench-regression guard
# (scripts/bench_guard.sh), which CI runs as its own job.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> no scheduler_lookahead knob (the serve window is a constant since PR 22)"
if grep -rn "scheduler_lookahead" crates src examples tests; then
    echo "verify: scheduler_lookahead is gone; use the default window" >&2
    exit 1
fi

echo "==> runtime waits have no real-time bound (no gang ageing, no real-time pool timers, no registry waits)"
if grep -rnE "gang_drain_after|wake_at_wall|WallTimer|DEPENDENCY_TIMEOUT|wait_matching" crates src examples tests; then
    echo "verify: gang ageing, the pool's real-time timers and the registry waits are gone" >&2
    exit 1
fi
for f in crates/core/src/executor.rs crates/sim/src/pool.rs; do
    if awk '/^#\[cfg\(test\)\]/ { exit } /Instant/ { print FILENAME ":" FNR ": " $0; found = 1 } END { exit !found }' "$f"; then
        echo "verify: $f acts on the session clock only; Instant belongs to its tests" >&2
        exit 1
    fi
done
if awk '/^#\[cfg\(test\)\]/ { exit } /Condvar/ { print FILENAME ":" FNR ": " $0; found = 1 } END { exit !found }' crates/comm/src/registry.rs; then
    echo "verify: the endpoint registry never waits; a task waits on a service in the executor" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (root package: integration suites)"
cargo test -q

echo "==> cargo test -q --workspace (all crates incl. shims)"
cargo test -q --workspace

echo "==> allocation and retention budgets, release profile (the workspace run above is debug)"
cargo test -q --release --test task_path_allocs --test request_path_allocs

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run (bench targets must keep compiling)"
cargo bench --no-run

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings: docs must not bit-rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q --manifest-path benchmark/Cargo.toml (the repo benchmark's own tests)"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark/run.sh --smoke (output checks of all four workloads)"
bash benchmark/run.sh --smoke

if [[ "${BENCH_GUARD:-0}" == "1" ]]; then
    echo "==> BENCH_GUARD=1: scripts/bench_guard.sh"
    scripts/bench_guard.sh
fi

echo "verify: OK"
