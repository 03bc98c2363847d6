#!/usr/bin/env bash
# Records the performance baseline: builds the benchmark binaries in a
# Release configuration and runs bench_throughput, bench_scaling, and
# bench_server_ingest with --benchmark_format=json, writing
# BENCH_throughput.json, BENCH_scaling.json, and BENCH_server_ingest.json
# at the repo root. Each file's context block is
# stamped with the CMake build type and the git SHA it was recorded at,
# so a baseline from an unoptimized build (or an unknown tree) can
# never silently become the perf gate — check.sh --bench-smoke verifies
# the stamp before comparing. Parallel rows (n-guess threads, server
# ingest) additionally stamp the recording host's num_cpus; the gate
# annotates-and-skips those rows when the gating host's core count
# differs, since a speedup curve only transfers between like hosts.
#
# The committed BENCH_*.json files are the perf trajectory of the repo:
# re-run this script after an optimization PR and commit the refreshed
# numbers next to the previous ones (docs/performance.md describes how
# to read them). BENCH_throughput.pre.json preserves the last
# pre-optimization snapshot for the current PR's before/after claim.
#
# Usage: scripts/bench_baseline.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS" \
  --target bench_throughput bench_scaling bench_server_ingest

BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' \
  build-release/CMakeCache.txt)
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "bench_baseline: build-release/ is configured as '$BUILD_TYPE';"
  echo "delete it and re-run so the baseline comes from a Release build"
  exit 1
fi
GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)

echo "== bench_throughput -> BENCH_throughput.json =="
build-release/bench/bench_throughput \
  --benchmark_format=json \
  --benchmark_out=BENCH_throughput.json \
  --benchmark_out_format=json

echo "== bench_scaling -> BENCH_scaling.json =="
build-release/bench/bench_scaling \
  --benchmark_format=json \
  --benchmark_out=BENCH_scaling.json \
  --benchmark_out_format=json

echo "== bench_server_ingest -> BENCH_server_ingest.json =="
build-release/bench/bench_server_ingest \
  --benchmark_format=json \
  --benchmark_out=BENCH_server_ingest.json \
  --benchmark_out_format=json

echo "== stamping build type ($BUILD_TYPE) + git sha ($GIT_SHA) =="
python3 - "$BUILD_TYPE" "$GIT_SHA" <<'EOF'
import json, sys

build_type, git_sha = sys.argv[1], sys.argv[2]
for path in ("BENCH_throughput.json", "BENCH_scaling.json",
             "BENCH_server_ingest.json"):
    with open(path) as f:
        doc = json.load(f)
    # The harness stamps its own build type (minibench compiles with the
    # project's flags); a debug harness distorts per-iteration overhead,
    # so such a recording can never become the committed baseline.
    library = doc.get("context", {}).get("library_build_type", "<unstamped>")
    if library != "release":
        sys.exit(f"bench_baseline: {path} was recorded through a "
                 f"'{library}' benchmark library; build the bench "
                 "binaries Release against minibench and re-run")
    doc.setdefault("context", {})["cmake_build_type"] = build_type
    doc["context"]["git_sha"] = git_sha
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
EOF

echo "== baseline written: BENCH_throughput.json BENCH_scaling.json BENCH_server_ingest.json =="
