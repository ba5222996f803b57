#!/usr/bin/env bash
# Kill-and-resume gate for the durable experiments (fig3, trace, fleet).
#
# Usage: ci/kill-resume.sh <bin> <kill-after> [<arg>...]
#
# Runs the uc-bench binary <bin> with <arg>... three times:
#   1. uninterrupted, as the reference;
#   2. with --checkpoint-dir and --kill-after <kill-after>, which must exit
#      42 right after that many checkpoint saves (no destructors run);
#   3. with --checkpoint-dir --resume, whose stdout must match the
#      reference byte for byte.
# Finally the checkpoint directory must hold exactly one
# <key>.seg<step>.ckpt file per key (superseded steps are pruned).
# Transcripts land in artifacts/<bin>-{uninterrupted,resumed}.txt.
set -euo pipefail

bin=$1
kill_after=$2
shift 2
run() { cargo run --release -q -p uc-bench --bin "$bin" -- "$@"; }

dir="${bin}-ckpt"
rm -rf "$dir"
mkdir -p artifacts

run "$@" > "artifacts/${bin}-uninterrupted.txt"

set +e
run "$@" --checkpoint-dir "$dir" --kill-after "$kill_after" > /dev/null
status=$?
set -e
if [ "$status" -ne 42 ]; then
  echo "::error::expected the killed ${bin} run to exit 42, got ${status}"
  exit 1
fi
echo "checkpoint files at the crash point:"
ls -l "$dir"

run "$@" --checkpoint-dir "$dir" --resume > "artifacts/${bin}-resumed.txt"
if ! cmp "artifacts/${bin}-uninterrupted.txt" "artifacts/${bin}-resumed.txt"; then
  echo "::error::resumed ${bin} run diverged from the uninterrupted run"
  exit 1
fi
echo "kill-and-resume ${bin} run is byte-identical to the uninterrupted run"

keys=$(find "$dir" -name '*.seg*.ckpt' -printf '%f\n' | sed 's/\.seg[0-9]*\.ckpt$//' | sort)
if [ -z "$keys" ] || [ -n "$(uniq -d <<< "$keys")" ]; then
  echo "::error::expected one checkpoint file per key in ${dir}"
  ls -l "$dir"
  exit 1
fi
echo "one checkpoint file per key: $(tr '\n' ' ' <<< "$keys")"
