#!/usr/bin/env bash
# Tier-1 CI gate: build and run the unit/integration test suite three
# ways — plain (with VRSIM_JOBS=2 so every sweep-driven test exercises
# the parallel executor; followed by `benchmark/run.sh --smoke`, which
# builds the repository benchmark against the simulator's current API
# and self-tests it), under AddressSanitizer + UBSan, and under
# ThreadSanitizer for the concurrency-bearing subset (sweep runner,
# workload cache) (VRSIM_SANITIZE, see CMakeLists.txt) — then runs a
# differential-check stage under standalone UBSan: a small real grid
# with --check-digests (every technique's committed stream must hash
# identically to the OoO baseline's) plus a repro-bundle replay
# round-trip smoke. A figures stage regenerates every paper table,
# figure and ablation with scripts/run_all.sh and compares the output
# byte for byte with the committed experiments/ files. A throughput
# stage regenerates BENCH_throughput.json (two specs, all techniques,
# enriched with commit/date/simulated-inst counts) and fails on a >20%
# camel:OoO regression against the committed file (override:
# VRSIM_PERF_OVERRIDE=1; docs/performance.md). A docs stage checks README/--help flag parity,
# exit-code parity across robustness.md / --help / README, and
# docs/performance.md knob+schema parity, that every table
# EXPERIMENTS.md quotes is a verbatim excerpt of a committed output,
# renders a trace through tools/trace2chrome.py under the ASan build,
# and builds the Doxygen API reference when doxygen is installed.
# The test suite pins every figure at a smoke scale (bench_smoke_*).
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail
JOBS="${1:-$(nproc)}"
cd "$(dirname "$0")/.."

echo "=== plain build (VRSIM_JOBS=2) ==="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-ci -j "$JOBS"
VRSIM_JOBS=2 ctest --test-dir build-ci --output-on-failure -j "$JOBS"

echo "=== benchmark self-test (benchmark/run.sh --smoke) ==="
# benchmark/ calls OooCore, SweepRunner, RunPoint and SamplingPlan
# directly, so an API change that breaks it must fail here, not on the
# next benchmark run.
bash benchmark/run.sh --smoke

echo "=== sanitized build (ASan + UBSan) ==="
cmake -B build-ci-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVRSIM_SANITIZE=address
cmake --build build-ci-asan -j "$JOBS"
ctest --test-dir build-ci-asan --output-on-failure -j "$JOBS"

echo "=== sanitized build (TSan: sweep runner + workload cache) ==="
cmake -B build-ci-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVRSIM_SANITIZE=tsan
cmake --build build-ci-tsan -j "$JOBS" \
    --target driver_sweep_runner_test workloads_cache_test
VRSIM_JOBS=4 ctest --test-dir build-ci-tsan --output-on-failure \
    -j "$JOBS" -R 'SweepRunner|RunPlan|ResultTable|WorkloadCache'

echo "=== differential check (UBSan build, small grid) ==="
cmake -B build-ci-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVRSIM_SANITIZE=undefined
cmake --build build-ci-ubsan -j "$JOBS" --target vrsim

# Every technique column must commit a stream hashing identically to
# the OoO baseline's, on real (scaled-down) workloads, in parallel.
# pr/KR is the spec whose DVR column also takes NDM-fallback and
# nested spawns at this scale.
for spec in camel kangaroo hj2 pr/KR; do
    VRSIM_JOBS=2 build-ci-ubsan/tools/vrsim \
        --workload "$spec" --all-techniques --check-digests \
        --roi 8000 --warmup 1000 --nodes 2048 --degree 8 \
        --elems 2048 --format csv >/dev/null
done
echo "differential check: all techniques match the OoO baseline"

# Repro-bundle replay round-trip: an injected divergence must be
# flagged, bundled, and reproduce (exit 70) under --replay.
REPRO_DIR="$(mktemp -d)"
trap 'rm -rf "$REPRO_DIR"' EXIT
rc=0
VRSIM_JOBS=2 build-ci-ubsan/tools/vrsim \
    --workload camel --all-techniques --check-digests --keep-going \
    --inject-fail vr:diverge --repro-dir "$REPRO_DIR" \
    --roi 8000 --warmup 1000 --nodes 2048 --degree 8 --elems 2048 \
    --format csv >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "replay smoke: injected divergence exited $rc, expected 1" >&2
    exit 1
fi
rc=0
build-ci-ubsan/tools/vrsim --replay "$REPRO_DIR/camel_VR.json" \
    >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 70 ]; then
    echo "replay smoke: --replay exited $rc, expected 70" >&2
    exit 1
fi
echo "replay smoke: bundle reproduced the divergence (exit 70)"

echo "=== chaos stage (ASan build, process isolation) ==="
# Process-isolated sweep with random process-grade fault injection:
# the parent must survive every fault class (exit 0 or 1, never a
# signal death) and still deliver a row for every cell. No --cell-mem-mb
# here: RLIMIT_AS is incompatible with ASan's shadow reservation.
CHAOS_CSV="$(mktemp)"
trap 'rm -rf "$REPRO_DIR" "$CHAOS_CSV"' EXIT
rc=0
VRSIM_JOBS=2 build-ci-asan/tools/vrsim \
    --workload camel --all-techniques --keep-going \
    --isolation process --chaos 35:0.3 --retries 2 --backoff-ms 1 \
    --cell-timeout 5 \
    --roi 6000 --warmup 500 --nodes 2048 --degree 8 --elems 2048 \
    --format csv >"$CHAOS_CSV" 2>/dev/null || rc=$?
if [ "$rc" -gt 1 ]; then
    echo "chaos stage: parent exited $rc (expected 0 or 1)" >&2
    exit 1
fi
rows="$(($(wc -l <"$CHAOS_CSV") - 1))"
if [ "$rows" -ne 8 ]; then
    echo "chaos stage: table has $rows rows, expected 8 (one per" \
        "technique; a lost cell means the parent dropped a death)" >&2
    exit 1
fi
echo "chaos stage: parent survived, all 8 cells accounted for (ASan)"

echo "=== sampling stage (ASan build, digest identity + accuracy) ==="
# Fast-forwarded and interval-sampled runs must commit the exact
# architectural stream a full-detail run does (docs/sampling.md):
# the --digest-json files from all three execution modes over the
# same 60K-instruction stream must be byte-identical. Checked for a
# plain OoO column and for VR, whose runahead engine must not
# perturb the committed stream either way.
SAMP_DIR="$(mktemp -d)"
trap 'rm -rf "$REPRO_DIR" "$CHAOS_CSV" "$SAMP_DIR"' EXIT
for tech in ooo vr; do
    build-ci-asan/tools/vrsim --workload camel --technique "$tech" \
        --roi 60000 --elems 4096 \
        --digest-json "$SAMP_DIR/full_$tech.json" \
        --format csv >/dev/null
    build-ci-asan/tools/vrsim --workload camel --technique "$tech" \
        --ff-insts 20000 --roi 40000 --elems 4096 \
        --digest-json "$SAMP_DIR/ff_$tech.json" \
        --format csv >/dev/null
    build-ci-asan/tools/vrsim --workload camel --technique "$tech" \
        --sample 2000:10000:3000 --roi 60000 --elems 4096 \
        --digest-json "$SAMP_DIR/samp_$tech.json" \
        --format csv >/dev/null
    cmp "$SAMP_DIR/full_$tech.json" "$SAMP_DIR/ff_$tech.json"
    cmp "$SAMP_DIR/full_$tech.json" "$SAMP_DIR/samp_$tech.json"
done
echo "sampling stage: ff/sampled digests byte-identical to full detail"

# Accuracy: a sampled VR run's CPI must land within its own reported
# 95% CI of the full-detail reference (the EXPERIMENTS.md contract;
# the integration test covers all 8 techniques, this exercises the
# CLI end to end under ASan). The check runs in the CPI domain — the
# quantity SMARTS estimates (docs/sampling.md).
build-ci-asan/tools/vrsim --workload camel --technique vr \
    --sample 20000:200000:50000 --roi 1600000 \
    --stats-json "$SAMP_DIR/samp_acc.json" --format csv >/dev/null
build-ci-asan/tools/vrsim --workload camel --technique vr \
    --roi 1600000 --warmup 100000 \
    --stats-json "$SAMP_DIR/full_acc.json" --format csv >/dev/null
python3 - "$SAMP_DIR" <<'EOF'
import json, os, sys
d = sys.argv[1]
samp = json.load(open(os.path.join(d, "samp_acc.json")))[0]["stats"]
full = json.load(open(os.path.join(d, "full_acc.json")))[0]["stats"]
mean, ci = samp["sample.cpi"]["mean"], samp["sample.cpi"]["ci95"]
ref = full["core.cycles"] / full["core.instructions"]
assert abs(mean - ref) <= ci + 1e-9, (
    f"sampled CPI {mean:.4f} +- {ci:.4f} vs full-detail {ref:.4f}: "
    "outside its own 95% CI (docs/sampling.md)")
print(f"sampling stage: sampled CPI {mean:.3f} +- {ci:.3f} covers "
      f"full-detail {ref:.3f} (ASan)")
EOF

echo "=== figures stage (plain build, committed outputs) ==="
# Every paper table, figure and ablation at the EXPERIMENTS.md scale,
# and Fig. 7 at 4x, regenerated and compared byte for byte with the
# committed experiments/ files (scripts/run_all.sh holds the flags).
FIG_DIR="$(mktemp -d)"
trap 'rm -rf "$REPRO_DIR" "$CHAOS_CSV" "$SAMP_DIR" "$FIG_DIR"' EXIT
VRSIM_JOBS="$JOBS" bash scripts/run_all.sh build-ci "$FIG_DIR" >/dev/null
for f in figures.txt fig7_performance.4x.txt; do
    if ! cmp "experiments/$f" "$FIG_DIR/$f"; then
        echo "figures stage: experiments/$f differs from a fresh run" \
            "(regenerate with scripts/run_all.sh and review the diff)" >&2
        exit 1
    fi
done
echo "figures stage: experiments/ matches a fresh run of every figure"

echo "=== throughput baseline (plain build, self-profiler) ==="
# Publish the host-side simulation throughput the plain build achieves
# (PR 4 self-profiler host.* columns) as BENCH_throughput.json — two
# specs so single-workload noise can't masquerade as a trend — and
# gate on it: a >20% camel:OoO regression against the committed file
# fails CI unless VRSIM_PERF_OVERRIDE=1 (docs/performance.md).
#
# De-noised gate: each spec runs 5 trials at a 200K-instruction ROI
# and the ratchet takes the best trial per point — single short
# trials were dominated by scheduler noise and fired the gate on
# phantom regressions. The functional fast-forward rate (the
# docs/sampling.md >=50 Minsts/s floor) is measured the same way
# (best of 3 x 50M instructions) and published as the top-level
# "ff" entry.
THRU_DIR="$(mktemp -d)"
trap 'rm -rf "$REPRO_DIR" "$CHAOS_CSV" "$SAMP_DIR" "$FIG_DIR" "$THRU_DIR"' EXIT
for trial in 1 2 3 4 5; do
    for spec in camel kangaroo; do
        VRSIM_JOBS=2 build-ci/tools/vrsim \
            --workload "$spec" --all-techniques --profile \
            --stats-json "$THRU_DIR/$spec.$trial.json" \
            --roi 200000 --warmup 20000 --nodes 4096 --degree 8 \
            --elems 16384 --format csv >/dev/null 2>&1
    done
done
for trial in 1 2 3; do
    build-ci/tools/vrsim --workload camel --technique ooo \
        --ff-insts 50000000 --roi 200000 --elems 2097152 --profile \
        --stats-json "$THRU_DIR/ff.$trial.json" \
        --format csv >/dev/null 2>&1
done
python3 - "$THRU_DIR" BENCH_throughput.json <<'EOF'
import datetime, json, os, subprocess, sys
thru_dir, out_path = sys.argv[1], sys.argv[2]
points, ff = {}, None
for name in sorted(os.listdir(thru_dir)):
    for ent in json.load(open(os.path.join(thru_dir, name))):
        stats = ent.get("stats", {})
        if "host.seconds" not in stats:
            continue
        if name.startswith("ff."):
            rate = stats["host.ff_minsts_per_sec"]
            if ff is None or rate > ff["minsts_per_sec"]:
                ff = {
                    "ff_insts": int(stats["sample.ff_insts"]),
                    "host_seconds": stats["host.ff_seconds"],
                    "minsts_per_sec": rate,
                }
            continue
        cur = points.get(ent["point"])
        if cur is None or stats["host.minsts_per_sec"] > \
                cur["minsts_per_sec"]:
            points[ent["point"]] = {
                "host_seconds": stats["host.seconds"],
                "minsts_per_sec": stats["host.minsts_per_sec"],
                "simulated_insts": int(stats["core.instructions"]),
            }
assert points, "no host.* columns in --profile --stats-json output"
assert ff, "no host.ff_* columns in the --ff-insts profile output"

override = os.environ.get("VRSIM_PERF_OVERRIDE") == "1"

# Regression gate: the committed file is a ratchet on camel:OoO.
new_ooo = points["camel:OoO"]["minsts_per_sec"]
if os.path.exists(out_path):
    old = json.load(open(out_path)).get("points", {}).get("camel:OoO")
    if (old and not override
            and new_ooo < 0.8 * old["minsts_per_sec"]):
        sys.exit(
            f"throughput gate: camel:OoO {new_ooo:.3f} Minsts/s is "
            f">20% below committed {old['minsts_per_sec']:.3f}; rerun "
            "with VRSIM_PERF_OVERRIDE=1 to accept a justified slowdown "
            "(docs/performance.md)")

# Absolute floor on the functional fast-forward path: interval
# sampling only pays off while ff runs at native-loop speed.
if not override and ff["minsts_per_sec"] < 50:
    sys.exit(
        f"throughput gate: functional fast-forward at "
        f"{ff['minsts_per_sec']:.2f} Minsts/s is below the 50 Minsts/s "
        "floor (docs/sampling.md); rerun with VRSIM_PERF_OVERRIDE=1 "
        "to accept a justified slowdown")

try:
    commit = subprocess.check_output(
        ["git", "rev-parse", "--short", "HEAD"], text=True).strip()
except Exception:
    commit = "unknown"
out = {
    "bench": "vrsim throughput (camel + kangaroo, all techniques)",
    "commit": commit,
    "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%d"),
    "ff": ff,
    "trials": {"detailed": 5, "ff": 3, "pick": "best"},
    "unit": "simulated Minsts per host second",
    "points": points,
}
json.dump(out, open(out_path, "w"), indent=2, sort_keys=True)
print(f"throughput baseline: {len(points)} points + ff "
      f"{ff['minsts_per_sec']:.1f} Minsts/s ->", out_path)
EOF

echo "=== docs & observability stage ==="
# README/--help parity: every --flag the CLI's help lists must be
# documented in the README, and vice versa (drift guard).
help_flags="$(build-ci/tools/vrsim --help |
    grep -oE -- '--[a-z-]+' | sort -u)"
readme_flags="$(grep -oE -- '--[a-z-]+' README.md | sort -u)"
missing_in_readme="$(comm -23 <(echo "$help_flags") \
    <(echo "$readme_flags") || true)"
if [ -n "$missing_in_readme" ]; then
    echo "docs check: flags in vrsim --help but not README.md:" >&2
    echo "$missing_in_readme" >&2
    exit 1
fi
echo "docs check: README covers every vrsim --help flag"

# Exit-code parity: every code documented in docs/robustness.md's
# table must also appear in vrsim --help and README.md (drift guard
# for the taxonomy rows: 0 / 1 / 2 / 70 / 124 / 128+N).
doc_codes="$(grep -oE '^\| +`?[0-9]+(\+N)?`? +\|' docs/robustness.md |
    grep -oE '[0-9]+(\+N)?' | sort -u)"
if [ -z "$doc_codes" ]; then
    echo "docs check: no exit-code rows found in docs/robustness.md" >&2
    exit 1
fi
help_text="$(build-ci/tools/vrsim --help)"
for code in $doc_codes; do
    # -F: "128+N" must match literally, not as an ERE quantifier.
    if ! echo "$help_text" | grep -qF "$code"; then
        echo "docs check: exit code $code (docs/robustness.md) missing" \
            "from vrsim --help" >&2
        exit 1
    fi
    if ! grep -qF "\`$code\`" README.md; then
        echo "docs check: exit code $code (docs/robustness.md) missing" \
            "from README.md's table" >&2
        exit 1
    fi
done
echo "docs check: exit-code table consistent across robustness.md," \
    "--help, README"

# Cycle-skip architecture doc (docs/performance.md): the knobs and the
# BENCH_throughput.json schema it documents must exist in the tree,
# and every top-level schema key must be documented (drift guard).
for knob in VRSIM_CYCLE_SKIP VRSIM_PERF_OVERRIDE; do
    if ! grep -q "$knob" docs/performance.md; then
        echo "docs check: $knob undocumented in docs/performance.md" >&2
        exit 1
    fi
done
if ! grep -q VRSIM_CYCLE_SKIP src/sim/event_calendar.hh; then
    echo "docs check: VRSIM_CYCLE_SKIP knob gone from" \
        "src/sim/event_calendar.hh but still documented" >&2
    exit 1
fi
for key in $(python3 -c \
    'import json; print(" ".join(sorted(json.load(open("BENCH_throughput.json")))))'); do
    if ! grep -q "\`$key\`" docs/performance.md; then
        echo "docs check: BENCH_throughput.json key '$key' undocumented" \
            "in docs/performance.md" >&2
        exit 1
    fi
done
echo "docs check: docs/performance.md covers skip knobs + BENCH schema"

# Sampling doc (docs/sampling.md): the CLI flags the sampling
# subsystem exposes must be documented there (drift guard).
for flag in ff-insts sample digest-json; do
    if ! grep -q -- "--$flag" docs/sampling.md; then
        echo "docs check: --$flag undocumented in docs/sampling.md" >&2
        exit 1
    fi
    if ! echo "$help_text" | grep -q -- "--$flag"; then
        echo "docs check: --$flag documented in docs/sampling.md but" \
            "missing from vrsim --help" >&2
        exit 1
    fi
done
echo "docs check: docs/sampling.md covers the sampling flags"

# EXPERIMENTS.md quotes its tables from the committed figure outputs:
# a fenced block whose info string names a file (```text
# experiments/figures.txt) may hold only lines of that file.
python3 - <<'EOF'
import re, sys
blocks, bad, quote = 0, [], None
for n, line in enumerate(open("EXPERIMENTS.md"), 1):
    line = line.rstrip("\n")
    if quote is None:
        m = re.match(r"^```\S*\s+(\S+)\s*$", line)
        if m:
            blocks += 1
            path = m.group(1)
            quote = set(open(path).read().split("\n"))
    elif line.startswith("```"):
        quote = None
    elif line not in quote:
        bad.append(f"EXPERIMENTS.md:{n}: not a line of {path}: {line!r}")
if quote is not None:
    sys.exit("docs check: EXPERIMENTS.md ends inside a quoted block")
if not blocks:
    sys.exit("docs check: EXPERIMENTS.md quotes no committed output")
if bad:
    sys.exit("docs check: quoted tables drifted from their files:\n"
             + "\n".join(bad))
print(f"docs check: all {blocks} quoted EXPERIMENTS.md tables match "
      "their committed outputs")
EOF

# Trace schema end-to-end under ASan: emit a real trace, convert it,
# and require valid Chrome-tracing JSON out the other side.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$REPRO_DIR" "$CHAOS_CSV" "$SAMP_DIR" "$FIG_DIR" "$THRU_DIR" \
    "$TRACE_DIR"' EXIT
build-ci-asan/tools/vrsim --workload camel --technique vr \
    --roi 6000 --warmup 500 --nodes 2048 --degree 8 \
    --trace "all:$TRACE_DIR/t.ndjson" --format csv >/dev/null 2>&1
python3 tools/trace2chrome.py "$TRACE_DIR/t.ndjson" \
    -o "$TRACE_DIR/t.chrome.json" >/dev/null
python3 - "$TRACE_DIR/t.chrome.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["traceEvents"], "empty Chrome trace"
EOF
echo "trace check: NDJSON -> Chrome tracing round-trip ok (ASan)"

# API reference, when the container has doxygen (not required).
if command -v doxygen >/dev/null 2>&1; then
    (cd docs && doxygen Doxyfile >/dev/null)
    echo "docs check: doxygen API reference built (docs/api)"
else
    echo "docs check: doxygen not installed; skipping API reference"
fi

echo "ci: all configurations passed"
