#!/usr/bin/env bash
# Kill-and-resume gate for the durable experiments (fig3, trace, fleet).
#
# Usage: ci/kill-resume.sh <bin> <kill-after|all> [<arg>...]
#
# Runs the uc-bench binary <bin> with <arg>... uninterrupted once, as the
# reference, then for each kill point n:
#   1. with --checkpoint-dir and --kill-after n, which must exit 42 right
#      after n checkpoint saves (no destructors run);
#   2. with --checkpoint-dir --resume, whose stdout must match the
#      reference byte for byte;
#   3. the checkpoint directory must then hold exactly one
#      <key>.seg<step>.ckpt file per key (superseded steps are pruned).
# With a number, n is that number. With `all`, n runs 1, 2, ... until the
# killed run finishes (exit 0) before its n-th save, so every boundary of
# the run is a kill point.
# Transcripts land in artifacts/<bin>-{uninterrupted,resumed}.txt.
set -euo pipefail

bin=$1
kill_after=$2
shift 2
run() { cargo run --release -q -p uc-bench --bin "$bin" -- "$@"; }

dir="${bin}-ckpt"
mkdir -p artifacts

run "$@" > "artifacts/${bin}-uninterrupted.txt"

# Crashes the run after $1 saves and resumes it. Sets finished=1 instead
# if the run finished before that save (only allowed with `all`).
finished=0
kill_and_resume() {
  local n=$1
  shift
  rm -rf "$dir"
  set +e
  run "$@" --checkpoint-dir "$dir" --kill-after "$n" > /dev/null
  local status=$?
  set -e
  if [ "$status" -eq 0 ] && [ "$kill_after" = all ] && [ "$n" -gt 1 ]; then
    finished=1
    return
  fi
  if [ "$status" -ne 42 ]; then
    echo "::error::expected the ${bin} run killed after ${n} save(s) to exit 42, got ${status}"
    exit 1
  fi
  echo "checkpoint files after ${n} save(s):"
  ls -l "$dir"

  run "$@" --checkpoint-dir "$dir" --resume > "artifacts/${bin}-resumed.txt"
  if ! cmp "artifacts/${bin}-uninterrupted.txt" "artifacts/${bin}-resumed.txt"; then
    echo "::error::${bin} run resumed after ${n} save(s) diverged from the uninterrupted run"
    exit 1
  fi

  local keys
  keys=$(find "$dir" -name '*.seg*.ckpt' -printf '%f\n' | sed 's/\.seg[0-9]*\.ckpt$//' | sort)
  if [ -z "$keys" ] || [ -n "$(uniq -d <<< "$keys")" ]; then
    echo "::error::expected one checkpoint file per key in ${dir}"
    ls -l "$dir"
    exit 1
  fi
  echo "killed after ${n} save(s): resumed byte-identical, one file per key: $(tr '\n' ' ' <<< "$keys")"
}

if [ "$kill_after" = all ]; then
  n=0
  while [ "$finished" -eq 0 ]; do
    n=$((n + 1))
    kill_and_resume "$n" "$@"
  done
  echo "kill-and-resume ${bin} run is byte-identical at all $((n - 1)) kill points"
else
  kill_and_resume "$kill_after" "$@"
  echo "kill-and-resume ${bin} run is byte-identical to the uninterrupted run"
fi
