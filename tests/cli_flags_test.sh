#!/bin/sh
# setcover_cli and setcover_loadgen must refuse a flag they do not read
# (exit 2, naming it) before doing any work. --shards stands in for any
# removed flag: a script still passing it must fail loudly instead of
# running one pipeline as if the flag had been honored.
#
# Usage: cli_flags_test.sh <setcover_cli> <setcover_loadgen> <scratch dir>
set -u
cli=$1
loadgen=$2
dir=$3
mkdir -p "$dir"

fail() {
  echo "FAIL: $*"
  exit 1
}

"$cli" generate --family=planted --n=64 --m=256 --opt=4 \
  --out="$dir/instance.txt" >/dev/null || fail "generate"
"$cli" stream --instance="$dir/instance.txt" --out="$dir/stream.bin" \
  >/dev/null || fail "stream"

# Control: the same run without the unknown flag succeeds.
"$cli" solve-stream --stream="$dir/stream.bin" >/dev/null ||
  fail "solve-stream without --shards"

"$cli" solve-stream --stream="$dir/stream.bin" --shards=2 \
  >"$dir/out.txt" 2>"$dir/err.txt"
status=$?
[ "$status" -eq 2 ] || fail "solve-stream --shards=2 exited $status, want 2"
grep -q -- '--shards' "$dir/err.txt" || fail "stderr does not name --shards"
[ ! -s "$dir/out.txt" ] || fail "solve-stream ran despite the unknown flag"

"$loadgen" --sessions=1 --clients=1 --shards=2 \
  >"$dir/out.txt" 2>"$dir/err.txt"
status=$?
[ "$status" -eq 2 ] || fail "loadgen --shards=2 exited $status, want 2"
grep -q -- '--shards' "$dir/err.txt" || fail "loadgen stderr does not name --shards"
[ ! -s "$dir/out.txt" ] || fail "loadgen ran despite the unknown flag"

echo "OK: unknown flags rejected"
