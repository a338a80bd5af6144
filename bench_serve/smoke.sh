#!/bin/sh
# Smoke test of the serving benchmark on a 300-image corpus: every workload
# for one second untraced, then traced, then trace_check over the trace.
# bench_serve exits nonzero on any failed request or parity mismatch.
#
#   sh smoke.sh <bench_serve> <trace_check> <scratch dir>
set -eu
bench="$1"
check="$2"
dir="$3"
rm -rf "$dir"
mkdir -p "$dir"
common="--workload=all --images=300 --seconds=1 --cache-dir=$dir/cache"

# shellcheck disable=SC2086
"$bench" $common > "$dir/e2e.out"
tail -n 1 "$dir/e2e.out" | grep -q '"failed":0,'
# shellcheck disable=SC2086
"$bench" $common --trace=1 > "$dir/traced.out"
tail -n 1 "$dir/traced.out" | grep -q '"failed":0,'
grep -q 'layer  explore   serve.residual_us.finalize' "$dir/traced.out"
"$check" --trace="$dir/cache/run/trace_all.json" \
  --require-span=qd.finalize:1 --require-span=session:1
