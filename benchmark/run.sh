#!/usr/bin/env bash
# The repository benchmark: builds vrbench into build-bench/, then runs it.
#
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#       One workload in one process; prints `workload metric value unit`
#       lines, then one JSON result line.
#   benchmark/run.sh [--seed N] [--seconds S]
#       3 interleaved rounds of all four workloads, S seconds each
#       (default 9, about 110 s in all), the order rotated each round;
#       prints the medians over rounds and writes them, with their
#       quartiles, to build-bench/result-seed<N>.json.
#   benchmark/run.sh --trace [--seed N] [--seconds S]
#       One traced round of all four workloads: the per-layer metrics.
#   benchmark/run.sh --smoke
#       Self-test at tiny scales (under 30 s).
#   benchmark/run.sh --write-reference [--seed N]
#       Re-record benchmark/reference/ for seed N (default: 1 and 2).
#
# Exit codes: 0 ok, 1 correctness failure, 2 usage or build failure.
set -uo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/build-bench"
bin="$build/vrbench"
workloads=(hpcdb-detailed gap-detailed ff-prefix sampled-bfs-ur)

die() { echo "run.sh: $*" >&2; exit 2; }

build_harness() {
    [ -f "$root/CMakeLists.txt" ] && [ -d "$root/src" ] ||
        die "no simulator sources in $root"
    if [ ! -f "$build/CMakeCache.txt" ]; then
        cmake -S "$here" -B "$build" >&2 || die "configure failed"
    fi
    cmake --build "$build" --target vrbench -j "$(nproc)" >&2 ||
        die "build failed"
}

mode=rounds
seed=
seconds=9
trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    case "${args[i]}" in
      --workload) mode=single; break ;;
      --smoke) mode=smoke ;;
      --write-reference) mode=reference ;;
      --seed) seed=${args[i+1]:-}; i=$((i + 1)) ;;
      --seconds) seconds=${args[i+1]:-}; i=$((i + 1)) ;;
      --trace)
        trace=1
        case "${args[i+1]:-}" in 0|1) trace=${args[i+1]}; i=$((i + 1)) ;; esac
        ;;
      *) die "unknown argument '${args[i]}'" ;;
    esac
done

case "$mode" in
  single)
    # Everything before --workload is re-passed as-is; vrbench validates.
    build_harness
    exec "$bin" "${args[@]}" --reference-dir "$here/reference"
    ;;
  smoke)
    build_harness
    exec "$bin" --self-test "$root/BENCHMARK.json"
    ;;
  reference)
    build_harness
    mkdir -p "$here/reference"
    for w in "${workloads[@]}"; do
        for s in ${seed:-1 2}; do
            "$bin" --write-reference --workload "$w" --seed "$s" \
                --reference-dir "$here/reference" || exit $?
        done
    done
    exit 0
    ;;
esac

build_harness
seed=${seed:-1}
rounds=$([ "$trace" = 1 ] && echo 1 || echo 3)
tag="seed$seed$([ "$trace" = 1 ] && echo -trace)"
records="$build/records-$tag.ndjson"
log="$build/runs-$tag.log"
: > "$records"
: > "$log"
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
status=0
for ((r = 0; r < rounds; r++)); do
    for ((k = 0; k < ${#workloads[@]}; k++)); do
        w=${workloads[$(((k + r) % ${#workloads[@]}))]}
        echo "run.sh: round $((r + 1))/$rounds: $w" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" --reference-dir "$here/reference" \
            --record "$records" >> "$log"
        rc=$?
        [ "$rc" = 2 ] && exit 2
        [ "$rc" = 0 ] || status=1
    done
done
"$bin" --aggregate "$records" --out "$build/result-$tag.json" \
    --commit "$commit" || status=1
exit "$status"
