#!/usr/bin/env bash
# Builds the daemon, the shipped tools and the benchmark from the checkout
# this script sits in, then runs the benchmark. Run from the checkout root:
#
#   bash e2ebench/run.sh --workload wake_open --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail

root=$(pwd)
for need in CMakeLists.txt src tools e2ebench/CMakeLists.txt; do
  if [ ! -e "$root/$need" ]; then
    echo "e2ebench: $root/$need is missing; run from the root of a HeadTalk checkout" >&2
    exit 2
  fi
done

build="$root/.bench_build/e2ebench"
generator=()
if command -v ninja > /dev/null 2>&1; then generator=(-G Ninja); fi
if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$root/e2ebench" -B "$build" "${generator[@]}" >&2
fi
cmake --build "$build" -j "$(nproc)" --target e2ebench headtalk_serve headtalk_train >&2

exec "$build/e2ebench" --tools "$build/headtalk/tools" "$@"
