#!/bin/sh
# setcover_cli and setcover_loadgen must refuse a flag they do not read
# (exit 2, naming it) before doing any work. The removed flags
# --shards, --no-mmap and --stream-format stand in for any other: a
# script still passing one must fail loudly instead of running as if
# the flag had been honored.
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

# Control: the same run without an unknown flag succeeds.
"$cli" solve-stream --stream="$dir/stream.bin" >/dev/null ||
  fail "solve-stream without an unknown flag"

# expect_rejected <flag> <command> [args...]: the command must exit 2,
# name <flag> on stderr and print nothing on stdout.
expect_rejected() {
  flag=$1
  shift
  "$@" >"$dir/out.txt" 2>"$dir/err.txt"
  status=$?
  [ "$status" -eq 2 ] || fail "$* exited $status, want 2"
  grep -q -- "$flag" "$dir/err.txt" || fail "$*: stderr does not name $flag"
  [ ! -s "$dir/out.txt" ] || fail "$*: ran despite the unknown flag"
}

expect_rejected --shards "$cli" solve-stream --stream="$dir/stream.bin" \
  --shards=2
expect_rejected --no-mmap "$cli" solve-stream --stream="$dir/stream.bin" \
  --no-mmap
expect_rejected --stream-format "$cli" stream \
  --instance="$dir/instance.txt" --out="$dir/v2.bin" --stream-format=v2
expect_rejected --shards "$loadgen" --sessions=1 --clients=1 --shards=2

echo "OK: unknown flags rejected"
