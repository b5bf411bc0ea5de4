#!/usr/bin/env bash
# The repo benchmark in one command (see benchmark/README.md).
#
#   benchmark/run.sh                      build, run the four workloads (one process
#                                         each, so VmHWM starts fresh), then the four
#                                         traced runs; print every metric by name and
#                                         write benchmark/out/*.json
#   benchmark/run.sh --smoke              outputs checked at 1/20 size, no numbers kept
#   benchmark/run.sh --repeat N           A/A: two interleaved sets of N runs per
#                                         workload, a new seed per run; per metric the
#                                         median, quartiles, spread and drift vs bound
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, as BENCHMARK.json's command is called
#
# --seed N and --seconds S also apply to the first and third form.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export BENCH_RUSTC="${BENCH_RUSTC:-$(rustc -V 2>/dev/null || echo unknown)}"
export BENCH_COMMIT="${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
BIN="$CARGO_TARGET_DIR/release/e2e"
OUT=benchmark/out
WORKLOADS=(task_burst task_queue svc_roundtrip hybrid_campaign)

build() {
    # Everything cargo says goes to stderr: stdout carries results only.
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
}

mode=suite
seed=42
seconds=20
repeat=0
args=("$@")
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) mode=single; shift 2 ;;
        --smoke) mode=smoke; shift ;;
        --repeat) mode=repeat; repeat="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

build

case "$mode" in
single)
    exec "$BIN" "${args[@]}"
    ;;
smoke)
    for w in "${WORKLOADS[@]}"; do
        "$BIN" --workload "$w" --seed "$seed" --trace 1 --smoke --out-dir "$OUT/smoke" | tail -n 1
    done
    ;;
suite)
    for trace in 0 1; do
        for w in "${WORKLOADS[@]}"; do
            # The result line is for the driver; the table above it is for people.
            "$BIN" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed '$d'
        done
    done
    echo "# wrote $OUT/{$(IFS=,; echo "${WORKLOADS[*]}")}{,.traced}.json and $OUT/trace.*.json"
    ;;
repeat)
    mkdir -p "$OUT"
    runs="$OUT/runs.tsv"
    rm -f "$runs"
    for i in $(seq 1 "$repeat"); do
        for set in A B; do
            for w in "${WORKLOADS[@]}"; do
                echo "# set $set run $i/$repeat $w seed $((seed + i))" >&2
                "$BIN" --workload "$w" --seed "$((seed + i))" --seconds "$seconds" --trace 0 \
                    --record "$runs" --label "$set.$i" >/dev/null
            done
        done
    done
    "$BIN" --summarize "$runs"
    ;;
esac
