#!/usr/bin/env bash
# Bench-regression guard for the scheduler hot paths.
#
# Runs the criterion hot-path benches and fails when:
#   1. any scheduler/allocate_release sweep point regresses more than
#      BENCH_GUARD_THRESHOLD (default 2x) against the committed baseline in
#      BENCH_scheduler.json — compared machine-independently: each value is first
#      normalised by the same run's registry/lookup_64 reference bench, so a slower
#      CI runner scales the reference and the measurement alike instead of
#      false-failing on absolute nanoseconds; or
#   2. scheduler/gang_allocate stops being flat (max/min beyond the same threshold)
#      across the 4/256/4096-node sweep — gang placement must stay O(gang size); or
#   3. scheduler/gang_partial is missing from the parsed results (the bench cannot
#      silently drop out of the suite) or stops being flat across the same sweep —
#      partial-packing best-fit claims must stay O(gang size + GPU levels),
#      independent of allocation width; or
#   4. scheduler/gang_backfill stops being flat across the same sweep — the
#      backfill-reservation cycle (begin_drain + allocate_reserved + release) must
#      stay O(gang size + pinned nodes), independent of allocation width; or
#   6. any of the four serving-plane datapoints (serving/unbatched,
#      serving/batched/8, serving/overload_p99/shed_on, .../shed_off) is missing
#      from the serving bench's parsed results, or continuous micro-batching
#      stops beating the unbatched service (unbatched/batched per-request time
#      >= BENCH_SERVING_MIN_SPEEDUP, default 1.5x), or deadline shedding stops
#      bounding the overload tail (shed_off p99 / shed_on p99 >=
#      BENCH_SERVING_MIN_TAIL_IMPROVEMENT, default 1.5x). These measure
#      **virtual** time — the simulation's deterministic cost model — so the
#      bounds are machine-independent and flat; the env overrides exist for
#      intentional cost-model changes, not slow hardware. Recorded in their own
#      baseline, BENCH_serving.json. The same bench's serving/clients/{1,2} pair —
#      real time: what one NOOP request costs a whole session with one closed-loop
#      client and with two, against two services — must be present, and its ratio
#      (two clients' aggregate requests per second over one client's, two numbers
#      of this run) is printed, NOT bounded: ROADMAP arc 3 asks for >= 1.3x on >= 2
#      CPUs, to be enforced once ten consecutive runs all clear it, and the 2-vCPU
#      reference host reads 1.13-1.77x, four of ten below 1.3, since clients route
#      by load (1.25-1.42x, seven of ten below, while they alternated over both
#      services; 0.8-1.0x while every request was queued and taken back three times
#      on its way, 0.52-0.57x before senders took the service's turn themselves),
#      so it stays a printed number
#      rather than a check that fails on most runs or was fitted to the result.
#      Below 2 CPUs the ratio is not printed. BENCH_serving.json records
#      `host_cpus` beside the pair; or
#   7. any comm_fabric datapoint (comm/fanout/{share,clone_each}/{1,8,64},
#      comm/registry/lookup_churn) is missing from the comm bench's parsed
#      results, or shared fan-out at 64 subscribers stops beating the
#      clone-per-subscriber baseline (clone_each/64 / share/64 >=
#      BENCH_COMM_MIN_FANOUT_SPEEDUP, default 1.5x — the saving is N-1 avoided
#      deep clones of a message that owns its run-time values, allocation-bound
#      and so host-independent; each point is the median of seven alternating
#      runs a side). Recorded in their own baseline, BENCH_comm.json.
#
# Guard numbers stay stable when a guard is retired, so there is no guard 5.
#
# Every run also writes its raw criterion output, the parsed results, and the
# candidate baseline JSON under target/bench-guard/ so CI can upload them as a
# workflow artifact for trajectory inspection.
#
# The baseline is only (re)written when it does not exist yet or when
# BENCH_BASELINE_UPDATE=1 is set, so a passing-but-slower run cannot silently
# ratchet the baseline: refreshing the trajectory datapoint is an explicit act to
# commit alongside an intentional perf change.
#
# Usage: scripts/bench_guard.sh
#        BENCH_BASELINE_UPDATE=1 scripts/bench_guard.sh   # refresh both baselines
# Also reachable through `BENCH_GUARD=1 scripts/verify.sh`.
set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE="BENCH_scheduler.json"
SERVING_BASELINE="BENCH_serving.json"
COMM_BASELINE="BENCH_comm.json"
THRESHOLD="${BENCH_GUARD_THRESHOLD:-2.0}"
REFERENCE="registry/lookup_64"
ARTIFACTS="target/bench-guard"
mkdir -p "$ARTIFACTS"

echo "==> cargo bench -p hpcml-bench --bench runtime_hotpaths (guard threshold ${THRESHOLD}x)"
RAW="$(cargo bench -p hpcml-bench --bench runtime_hotpaths 2>&1)"
echo "$RAW"
echo "$RAW" > "$ARTIFACTS/criterion-output.txt"

# The criterion shim (and the serving bench's reporter) print
# `name  time: [  XXX.XX <unit>/iter]  samples: N`.
# Normalise every such line to "name <ns/iter>" pairs.
parse_results() { # parse_results <raw bench output> -> "name ns" lines on stdout
    echo "$1" | awk '
    /time: \[/ {
        name = $1
        if (match($0, /\[ *[0-9.]+ +[a-zA-Zµ]+\/iter\]/)) {
            s = substr($0, RSTART + 1, RLENGTH - 2)
            sub(/^ +/, "", s)
            split(s, parts, /[ \/]+/)
            value = parts[1] + 0
            unit = parts[2]
            if (unit == "µs") value *= 1000
            else if (unit == "ms") value *= 1000000
            else if (unit != "ns") next
            printf "%s %.2f\n", name, value
        }
    }'
}
RESULTS="$(parse_results "$RAW")"

echo "$RESULTS" > "$ARTIFACTS/results-parsed.txt"

if ! echo "$RESULTS" | grep -q "^scheduler/allocate_release/"; then
    echo "bench_guard: FAILED — could not parse scheduler/allocate_release results" >&2
    exit 1
fi

lookup() { # lookup <results-or-baseline-text> <bench name> -> value or empty
    echo "$1" | sed -n "s|^[[:space:]]*\"\?$2\"\?[: ] *\([0-9.]*\).*|\1|p" | head -1
}

NEW_REF="$(lookup "$RESULTS" "$REFERENCE")"
if [[ -z "$NEW_REF" ]]; then
    echo "bench_guard: FAILED — reference bench $REFERENCE missing from results" >&2
    exit 1
fi

OLD=""
if [[ -f "$BASELINE" ]]; then
    # Strip JSON punctuation so lookup() sees `"name": value` lines uniformly.
    OLD="$(sed 's/,$//' "$BASELINE")"
fi

fail=0

# Guard 1: allocate_release sweep points vs the committed baseline, normalised by the
# reference bench measured in the same run/on the same machine as each side.
if [[ -n "$OLD" ]]; then
    OLD_REF="$(lookup "$OLD" "$REFERENCE")"
    if [[ -z "$OLD_REF" ]]; then
        echo "guard: baseline predates reference normalisation — comparing raw ns"
        OLD_REF="$NEW_REF"
    fi
    while read -r name value; do
        case "$name" in
        scheduler/allocate_release/*)
            old_value="$(lookup "$OLD" "$name")"
            if [[ -n "$old_value" ]]; then
                awk -v new="$value" -v old="$old_value" \
                    -v new_ref="$NEW_REF" -v old_ref="$OLD_REF" \
                    -v t="$THRESHOLD" -v n="$name" '
                    BEGIN {
                        norm_new = (new_ref > 0) ? new / new_ref : 0
                        norm_old = (old_ref > 0) ? old / old_ref : 0
                        ratio = (norm_old > 0) ? norm_new / norm_old : 0
                        printf "guard: %-38s %9.1f ns (%.2fx ref) vs baseline %9.1f ns (%.2fx ref): %.2fx, bound %.1fx\n", \
                            n, new, norm_new, old, norm_old, ratio, t
                        exit !(ratio <= t)
                    }' || fail=1
            else
                echo "guard: $name has no committed baseline yet"
            fi
            ;;
        esac
    done <<<"$RESULTS"
else
    echo "guard: no committed baseline — recording the first trajectory datapoint"
fi

# Guards 2-4: gang placement, partial-packing, and backfill-reservation flatness
# across the node-count sweep (same machine, same run — absolute comparison is
# correct here).
flatness_guard() { # flatness_guard <bench group name>
    echo "$RESULTS" | awk -v t="$THRESHOLD" -v g="$1" '
        $1 ~ "^scheduler/" g "/" {
            if (!n || $2 < min) min = $2
            if (!n || $2 > max) max = $2
            n++
        }
        END {
            if (n < 2) { printf "guard: %s sweep has fewer than 2 points\n", g >"/dev/stderr"; exit 1 }
            ratio = max / min
            printf "guard: %s flatness %.2fx across %d sweep points (bound %.1fx)\n", g, ratio, n, t
            exit !(ratio <= t)
        }'
}
# Existence assertion: the partial-packing bench must be present in the parsed
# results at all — a refactor that renames or drops the group must fail loudly
# here, not silently shrink the guarded surface.
if ! echo "$RESULTS" | grep -q "^scheduler/gang_partial/"; then
    echo "bench_guard: FAILED — scheduler/gang_partial missing from parsed results" >&2
    fail=1
fi
flatness_guard "gang_allocate" || fail=1
flatness_guard "gang_partial" || fail=1
flatness_guard "gang_backfill" || fail=1

# Guard 6: the serving plane. A separate bench binary because it measures virtual
# (simulated) time rather than host nanoseconds: the batched/unbatched ratio and the
# shed-on/shed-off tail ratio are properties of the serving cost model, deterministic
# up to mild thread-interleaving effects, so the bounds are flat and the trajectory
# lives in its own baseline file.
echo "==> cargo bench -p hpcml-bench --bench serving_plane"
SERVING_RAW="$(cargo bench -p hpcml-bench --bench serving_plane 2>&1)"
echo "$SERVING_RAW"
echo "$SERVING_RAW" > "$ARTIFACTS/serving-output.txt"
SERVING_RESULTS="$(parse_results "$SERVING_RAW")"
echo "$SERVING_RESULTS" > "$ARTIFACTS/serving-parsed.txt"

for point in "serving/unbatched" "serving/batched/8" \
    "serving/overload_p99/shed_on" "serving/overload_p99/shed_off"; do
    if ! echo "$SERVING_RESULTS" | grep -q "^$point "; then
        echo "bench_guard: FAILED — $point missing from serving bench results" >&2
        fail=1
    fi
done
SERVING_UNBATCHED="$(lookup "$SERVING_RESULTS" "serving/unbatched")"
SERVING_BATCHED="$(lookup "$SERVING_RESULTS" "serving/batched/8")"
if [[ -n "$SERVING_UNBATCHED" && -n "$SERVING_BATCHED" ]]; then
    SERVING_MIN_SPEEDUP="${BENCH_SERVING_MIN_SPEEDUP:-1.5}"
    awk -v batched="$SERVING_BATCHED" -v unbatched="$SERVING_UNBATCHED" \
        -v min="$SERVING_MIN_SPEEDUP" '
        BEGIN {
            speedup = (batched > 0) ? unbatched / batched : 0
            printf "guard: serving per-request unbatched %.0f ns vs batched-8 %.0f ns (virtual): %.2fx speedup (bound %.2fx)\n", \
                unbatched, batched, speedup, min
            exit !(speedup >= min)
        }' || fail=1
fi
SHED_ON_P99="$(lookup "$SERVING_RESULTS" "serving/overload_p99/shed_on")"
SHED_OFF_P99="$(lookup "$SERVING_RESULTS" "serving/overload_p99/shed_off")"
if [[ -n "$SHED_ON_P99" && -n "$SHED_OFF_P99" ]]; then
    SERVING_MIN_TAIL="${BENCH_SERVING_MIN_TAIL_IMPROVEMENT:-1.5}"
    awk -v on="$SHED_ON_P99" -v off="$SHED_OFF_P99" -v min="$SERVING_MIN_TAIL" '
        BEGIN {
            ratio = (on > 0) ? off / on : 0
            printf "guard: overload p99 shed_off %.0f ns vs shed_on %.0f ns (virtual): %.2fx tail improvement (bound %.2fx)\n", \
                off, on, ratio, min
            exit !(ratio >= min)
        }' || fail=1
fi

# Guard 6, continued: one client vs two on the request path (real time, same run).
# The pair must exist; its ratio is reported, not bounded (see the header).
for point in "serving/clients/1" "serving/clients/2"; do
    if ! echo "$SERVING_RESULTS" | grep -q "^$point "; then
        echo "bench_guard: FAILED — $point missing from serving bench results" >&2
        fail=1
    fi
done
HOST_CPUS="$(nproc 2>/dev/null || echo 1)"
CLIENTS_ONE="$(lookup "$SERVING_RESULTS" "serving/clients/1")"
CLIENTS_TWO="$(lookup "$SERVING_RESULTS" "serving/clients/2")"
if [[ "$HOST_CPUS" -lt 2 ]]; then
    echo "report: serving/clients scaling not computed — $HOST_CPUS CPU, two clients cannot run side by side"
elif [[ -n "$CLIENTS_ONE" && -n "$CLIENTS_TWO" ]]; then
    awk -v one="$CLIENTS_ONE" -v two="$CLIENTS_TWO" -v cpus="$HOST_CPUS" '
        BEGIN {
            # ns per request of the whole session: requests per second is its inverse.
            scaling = (two > 0) ? one / two : 0
            printf "report: request path one client %.0f ns/request vs two clients %.0f ns/request: %.2fx requests per second on %d CPUs (ROADMAP arc 3 asks 1.3x; not enforced until ten runs in a row clear it)\n", \
                one, two, scaling, cpus
        }'
fi

# Guard 7: the comm fabric. The fan-out and registry points are real nanoseconds of
# allocation-bound CPU work (host-independent ratios). Existence of every point
# first, then the fan-out ratio bound.
echo "==> cargo bench -p hpcml-bench --bench comm_fabric"
COMM_RAW="$(cargo bench -p hpcml-bench --bench comm_fabric 2>&1)"
echo "$COMM_RAW"
echo "$COMM_RAW" > "$ARTIFACTS/comm-output.txt"
COMM_RESULTS="$(parse_results "$COMM_RAW")"
echo "$COMM_RESULTS" > "$ARTIFACTS/comm-parsed.txt"

for point in \
    "comm/fanout/share/1" "comm/fanout/share/8" "comm/fanout/share/64" \
    "comm/fanout/clone_each/1" "comm/fanout/clone_each/8" "comm/fanout/clone_each/64" \
    "comm/registry/lookup_churn"; do
    if ! echo "$COMM_RESULTS" | grep -q "^$point "; then
        echo "bench_guard: FAILED — $point missing from comm bench results" >&2
        fail=1
    fi
done
FANOUT_SHARE="$(lookup "$COMM_RESULTS" "comm/fanout/share/64")"
FANOUT_CLONE_EACH="$(lookup "$COMM_RESULTS" "comm/fanout/clone_each/64")"
if [[ -n "$FANOUT_SHARE" && -n "$FANOUT_CLONE_EACH" ]]; then
    COMM_MIN_FANOUT="${BENCH_COMM_MIN_FANOUT_SPEEDUP:-1.5}"
    awk -v share="$FANOUT_SHARE" -v clone="$FANOUT_CLONE_EACH" \
        -v min="$COMM_MIN_FANOUT" '
        BEGIN {
            speedup = (share > 0) ? clone / share : 0
            printf "guard: fan-out to 64 share %.0f ns vs clone-each %.0f ns: %.2fx speedup (bound %.2fx)\n", \
                share, clone, speedup, min
            exit !(speedup >= min)
        }' || fail=1
fi

# The candidate baseline is always written to the artifact dir (inspectable from the
# Actions UI next to the committed baseline), whatever the guard verdict.
write_baseline() { # write_baseline <path>
    echo "$RESULTS" | awk -v ref="$REFERENCE" '
        BEGIN { print "{"; print "  \"unit\": \"ns_per_iter\"," }
        $1 == ref || /^scheduler\// {
            if (n++) printf ",\n"
            printf "  \"%s\": %s", $1, $2
        }
        END { print ""; print "}" }' > "$1"
}
write_baseline "$ARTIFACTS/BENCH_scheduler.candidate.json"
if [[ -f "$BASELINE" ]]; then
    cp "$BASELINE" "$ARTIFACTS/BENCH_scheduler.committed.json"
fi

write_serving_baseline() { # write_serving_baseline <path>
    echo "$SERVING_RESULTS" | awk -v cpus="$HOST_CPUS" '
        BEGIN {
            print "{"
            print "  \"unit\": \"virtual_ns_per_iter (serving/clients/* real ns per request)\","
            printf "  \"host_cpus\": %d,\n", cpus
        }
        /^serving\// {
            if (n++) printf ",\n"
            printf "  \"%s\": %s", $1, $2
        }
        END { print ""; print "}" }' > "$1"
}
write_serving_baseline "$ARTIFACTS/BENCH_serving.candidate.json"
if [[ -f "$SERVING_BASELINE" ]]; then
    cp "$SERVING_BASELINE" "$ARTIFACTS/BENCH_serving.committed.json"
fi

write_comm_baseline() { # write_comm_baseline <path>
    echo "$COMM_RESULTS" | awk '
        BEGIN {
            print "{"
            print "  \"unit\": \"ns_per_iter\","
            print "  \"note\": \"comm/registry/lookup_churn is bimodal by placement: 780-960 ns when the churn thread has a CPU of its own (every lookup meets a writer swapping the snapshot), 180-210 ns when both threads share one CPU or the host is busy, because the churner then runs only while the reader is descheduled and there is no churn to race (taskset -c 0 reproduces it); a reading near 200 ns, like the 211.5 recorded before PR 23, is such a run and says nothing about the registry\","
        }
        /^comm\// {
            if (n++) printf ",\n"
            printf "  \"%s\": %s", $1, $2
        }
        END { print ""; print "}" }' > "$1"
}
write_comm_baseline "$ARTIFACTS/BENCH_comm.candidate.json"
if [[ -f "$COMM_BASELINE" ]]; then
    cp "$COMM_BASELINE" "$ARTIFACTS/BENCH_comm.committed.json"
fi

if [[ "$fail" != 0 ]]; then
    echo "bench_guard: FAILED (baselines $BASELINE / $SERVING_BASELINE / $COMM_BASELINE left untouched)" >&2
    exit 1
fi

if [[ ! -f "$BASELINE" || "${BENCH_BASELINE_UPDATE:-0}" == "1" ]]; then
    write_baseline "$BASELINE"
    echo "==> wrote $BASELINE"
else
    echo "==> baseline unchanged (set BENCH_BASELINE_UPDATE=1 to record a new datapoint)"
fi
if [[ ! -f "$SERVING_BASELINE" || "${BENCH_BASELINE_UPDATE:-0}" == "1" ]]; then
    write_serving_baseline "$SERVING_BASELINE"
    echo "==> wrote $SERVING_BASELINE"
else
    echo "==> serving baseline unchanged (set BENCH_BASELINE_UPDATE=1 to record a new datapoint)"
fi
if [[ ! -f "$COMM_BASELINE" || "${BENCH_BASELINE_UPDATE:-0}" == "1" ]]; then
    write_comm_baseline "$COMM_BASELINE"
    echo "==> wrote $COMM_BASELINE"
else
    echo "==> comm baseline unchanged (set BENCH_BASELINE_UPDATE=1 to record a new datapoint)"
fi
echo "bench_guard: OK"
