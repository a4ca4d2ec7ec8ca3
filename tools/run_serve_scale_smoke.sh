#!/usr/bin/env sh
# Smoke-sized run of the event-loop scale bench.
#
#   tools/run_serve_scale_smoke.sh [build-dir]
#
# Walks every bench_serve_scale phase — the steady-state 2 -> 4 loop
# scaling windows with their >=1.7x gate, and the open-loop multiplexed
# load phase — with the load scaled down to smoke size (1 s scaling
# windows instead of 2 s, 64 concurrent connections instead of 1000), then
# validates the appended BENCH_serve_scale.json record against the
# checked-in shape schema. Wired into ctest as `serve_scale_smoke` (label:
# serve-scale-smoke).
set -eu

repo_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_dir/build"}
schema="$repo_dir/bench/bench_record_schema.json"

for binary in bench/bench_serve_scale tools/validate_bench_json; do
  if [ ! -x "$build_dir/$binary" ]; then
    echo "run_serve_scale_smoke.sh: $build_dir/$binary not built" >&2
    exit 2
  fi
done

# Smoke knobs: every phase still runs, just smaller. The nightly perf run
# uses the 1000-connection defaults.
export HEADTALK_SCALE_BENCH_CLIENTS=64
export HEADTALK_SCALE_BENCH_RPS=60
export HEADTALK_SCALE_BENCH_UTTERANCES=180
export HEADTALK_SCALE_BENCH_WINDOW_MS=1000

out_dir="$build_dir/bench/scale-smoke-out"
rm -rf "$out_dir"
mkdir -p "$out_dir"
export HEADTALK_BENCH_OUT="$out_dir"

"$build_dir/bench/bench_serve_scale"

record="$out_dir/BENCH_serve_scale.json"
if [ ! -s "$record" ]; then
  echo "run_serve_scale_smoke.sh: $record was not written" >&2
  exit 1
fi
"$build_dir/tools/validate_bench_json" "$schema" "$record"
echo "serve scale smoke OK"
