#!/usr/bin/env bash
# Same-host A/B of the gated bench_throughput rows: a base git ref
# against the working tree, built the same way and measured on the same
# host, with the noise measured instead of assumed.
#
#   1. Exports <base-ref> (git archive) into a temporary directory and
#      builds bench_throughput there and from the working tree, both
#      Release, in that directory. The repository's own build trees and
#      git metadata are left untouched.
#   2. Runs the two binaries as <reps> interleaved pairs (default 10),
#      alternating which side goes first so slow drift in host load
#      lands on both sides evenly.
#   3. Prints, per row, the median edges/s and the quartiles of each
#      side, the head/base ratio of the medians, how many pairs head
#      won, and a verdict. "faster" (or "slower") needs head (or base)
#      to win at least 9 in 10 pairs *and* the medians to differ by more
#      than the base's interquartile range; anything else is "same",
#      i.e. inside the measured noise.
#
# The rows are those scripts/check.sh --bench-smoke gates at 0.7x of the
# committed baseline (ingest-ceiling/*, execute-ingest/kk,
# file-replay/*, greedy/bucket-queue), read from the one filter both
# scripts source, scripts/bench_gate_rows.sh. This script does not
# change that gate; it reports a same-host comparison next to it.
#
# Usage: scripts/bench_ab.sh <base-ref> [reps]
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/bench_gate_rows.sh

BASE_REF="${1:?usage: scripts/bench_ab.sh <base-ref> [reps]}"
REPS="${2:-10}"
JOBS="$(nproc)"

BASE_SHA=$(git rev-parse --short "$BASE_REF^{commit}")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

echo "== bench_ab: base $BASE_REF ($BASE_SHA) vs working tree; $REPS reps =="
mkdir -p "$WORK/base-src"
git archive "$BASE_SHA" | tar -x -C "$WORK/base-src"

build() {  # build <side> <source-dir>; the log is printed on failure
  echo "== building $1 =="
  if ! { cmake -S "$2" -B "$WORK/$1-build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$WORK/$1-build" -j "$JOBS" --target bench_throughput
       } >"$WORK/$1-build.log" 2>&1; then
    cat "$WORK/$1-build.log"
    echo "bench_ab: $1 build failed"
    exit 1
  fi
}
build base "$WORK/base-src"
build head .

run() {  # run <side> <rep>
  "$WORK/$1-build/bench/bench_throughput" \
    "--benchmark_filter=$THROUGHPUT_GATE_FILTER" --benchmark_format=json \
    >"$WORK/$1.$2.json"
}
for ((rep = 1; rep <= REPS; rep++)); do
  echo "== rep $rep/$REPS =="
  if ((rep % 2 == 1)); then
    run base "$rep"
    run head "$rep"
  else
    run head "$rep"
    run base "$rep"
  fi
done

python3 - "$WORK" "$REPS" <<'EOF'
import json, statistics, sys

work, reps = sys.argv[1], int(sys.argv[2])

def collect(side):
    rows = {}
    for rep in range(1, reps + 1):
        with open(f"{work}/{side}.{rep}.json") as f:
            for bench in json.load(f)["benchmarks"]:
                if "items_per_second" in bench:
                    label = bench.get("label") or bench["name"]
                    rows.setdefault(label, []).append(
                        bench["items_per_second"] / 1e6)
    return rows

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3

base, head = collect("base"), collect("head")
print(f"{'row':36} {'base Medge/s [q1,q3]':>24} {'head Medge/s [q1,q3]':>24}"
      f" {'head/base':>9} {'head wins':>9}  verdict")
for label in sorted(set(base) | set(head)):
    if label not in base or label not in head:
        side = "base" if label in base else "head"
        print(f"{label:36} only in {side}")
        continue
    b_q1, b_med, b_q3 = quartiles(base[label])
    h_q1, h_med, h_q3 = quartiles(head[label])
    pairs = list(zip(base[label], head[label]))
    wins = sum(h > b for b, h in pairs)
    losses = sum(h < b for b, h in pairs)
    clear = abs(h_med - b_med) > b_q3 - b_q1
    verdict = ("faster" if clear and wins >= 0.9 * len(pairs)
               else "slower" if clear and losses >= 0.9 * len(pairs)
               else "same")
    print(f"{label:36} {b_med:8.1f} [{b_q1:6.1f},{b_q3:6.1f}]"
          f" {h_med:8.1f} [{h_q1:6.1f},{h_q3:6.1f}]"
          f" {h_med / b_med:9.3f} {wins:>4}/{len(pairs):<4}  {verdict}")
EOF
