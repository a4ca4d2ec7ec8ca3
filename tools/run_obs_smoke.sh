#!/usr/bin/env sh
# End-to-end smoke test of the live telemetry plane: simulate a tiny
# corpus, train models, start the daemon with an admin socket, drive
# decisions through parallel clients and a streamed scene, then scrape the
# admin plane and check that what it reports matches what the clients
# observed:
#
#   - /healthz answers 200 "ok", /readyz answers "ready" while serving
#   - /metrics (Prometheus text) decision counters sum to the decisions
#     the clients counted, and the per-stage latency histograms and the
#     orientation fold counter are there
#   - /metrics.json parses and --watch renders a frame from it
#   - /stats.json parses and carries pid/rss/connections
#   - SIGTERM drains cleanly and the final snapshot is printed
#
#   tools/run_obs_smoke.sh [build-dir]
#
# Wired into ctest as `obs_smoke` (label: obs-live-smoke). Scrapes go
# through `headtalk_client --admin-get` — no curl/nc dependency.
set -eu

repo_dir=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_dir/build"}

for tool in headtalk_simulate headtalk_train headtalk_serve headtalk_client; do
  if [ ! -x "$build_dir/tools/$tool" ]; then
    echo "run_obs_smoke.sh: $build_dir/tools/$tool not built" >&2
    echo "  (build first: cmake --build $build_dir --target $tool)" >&2
    exit 2
  fi
done

work_dir=$(mktemp -d "${TMPDIR:-/tmp}/headtalk_obs_smoke.XXXXXX")
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2> /dev/null; then
    kill -KILL "$serve_pid" 2> /dev/null || true
  fi
  rm -rf "$work_dir"
}
trap cleanup EXIT INT TERM

export HEADTALK_CACHE="$work_dir/cache"

corpus="$work_dir/corpus"
models="$work_dir/models"
socket="$work_dir/serve.sock"
admin="$work_dir/admin.sock"
serve_log="$work_dir/serve.log"

echo "== simulate a tiny corpus =="
"$build_dir/tools/headtalk_simulate" --out "$corpus" \
  --angles 0,30,120,180 --reps 1
"$build_dir/tools/headtalk_simulate" --out "$corpus" \
  --replay phone --angles 0,120 --reps 1

echo "== train models =="
"$build_dir/tools/headtalk_train" --data "$corpus" --out "$models"

echo "== start the daemon with the admin plane =="
"$build_dir/tools/headtalk_serve" --models "$models" --socket "$socket" \
  --admin-socket "$admin" --metrics-out "$work_dir/final_metrics.json" \
  > "$serve_log" &
serve_pid=$!

tries=0
while [ ! -S "$socket" ] || [ ! -S "$admin" ]; do
  tries=$((tries + 1))
  if [ "$tries" -gt 100 ]; then
    echo "run_obs_smoke.sh: daemon never bound $socket + $admin" >&2
    exit 1
  fi
  if ! kill -0 "$serve_pid" 2> /dev/null; then
    echo "run_obs_smoke.sh: daemon exited before binding; log:" >&2
    cat "$serve_log" >&2
    exit 1
  fi
  sleep 0.1
done

admin_get() {
  "$build_dir/tools/headtalk_client" --admin-socket "$admin" --admin-get "$1"
}

echo "== liveness/readiness before load =="
health=$(admin_get /healthz)
[ "$health" = "ok" ] || { echo "run_obs_smoke.sh: /healthz said '$health'" >&2; exit 1; }
ready=$(admin_get /readyz)
[ "$ready" = "ready" ] || { echo "run_obs_smoke.sh: /readyz said '$ready'" >&2; exit 1; }

echo "== drive decisions: 2 wavs x 4 parallel connections =="
wav_a=$(find "$corpus" -name '*.wav' | sort | head -n 1)
wav_b=$(find "$corpus" -name '*.wav' | sort | tail -n 1)
"$build_dir/tools/headtalk_client" --socket "$socket" \
  --wav "$wav_a,$wav_b" --parallel 4
client_decisions=8

echo "== stream a continuous multi-utterance scene =="
scene="$work_dir/scene.wav"
"$build_dir/tools/headtalk_simulate" --stream-out "$scene" \
  --stream-script "live@0,live@120,phone@0"
stream_report=$("$build_dir/tools/headtalk_client" --socket "$socket" \
  --stream --wav "$scene")
printf '%s\n' "$stream_report"
stream_segments=$(printf '%s\n' "$stream_report" \
  | sed -n 's/.*segments=\([0-9]*\).*/\1/p')
expected=$((client_decisions + stream_segments))

echo "== scrape /metrics and reconcile the decision counters =="
metrics=$(admin_get /metrics)
counted=$(printf '%s\n' "$metrics" \
  | awk '/^pipeline_decision_[a-z_]+ [0-9]+$/ { sum += $2 } END { print sum + 0 }')
if [ "$counted" -ne "$expected" ]; then
  echo "run_obs_smoke.sh: /metrics counted $counted decisions, clients saw $expected" >&2
  printf '%s\n' "$metrics" | grep '^pipeline_decision' >&2 || true
  exit 1
fi
if ! printf '%s\n' "$metrics" | grep -q "^core_op_orientation_blocks [0-9]"; then
  echo "run_obs_smoke.sh: /metrics lacks the orientation fold counter" >&2
  exit 1
fi
for stage in incremental_accumulate liveness_features liveness_score; do
  if ! printf '%s\n' "$metrics" | grep -q "^pipeline_stage_${stage}_seconds_count "; then
    echo "run_obs_smoke.sh: /metrics lacks the ${stage} stage histogram" >&2
    exit 1
  fi
done

echo "== /metrics.json parses and --watch renders a frame =="
admin_get /metrics.json > "$work_dir/scrape.json"
grep -q '"snapshot_version":1' "$work_dir/scrape.json" \
  || { echo "run_obs_smoke.sh: /metrics.json missing snapshot_version" >&2; exit 1; }
watch_out=$("$build_dir/tools/headtalk_client" --admin-socket "$admin" \
  --watch --watch-count 1 --interval-ms 50)
printf '%s\n' "$watch_out"
printf '%s\n' "$watch_out" | grep -q "incremental_accumulate" \
  || { echo "run_obs_smoke.sh: --watch frame lacks the stage table" >&2; exit 1; }

echo "== /stats.json carries process + connection data =="
stats=$(admin_get /stats.json)
for key in '"pid"' '"rss_bytes"' '"connections"' '"slow_utterances"'; do
  if ! printf '%s' "$stats" | grep -q "$key"; then
    echo "run_obs_smoke.sh: /stats.json lacks $key" >&2
    exit 1
  fi
done

echo "== graceful shutdown emits the final snapshot =="
kill -TERM "$serve_pid"
serve_status=0
wait "$serve_pid" || serve_status=$?
serve_pid=""
if [ "$serve_status" -ne 0 ]; then
  echo "run_obs_smoke.sh: daemon exited $serve_status after SIGTERM" >&2
  cat "$serve_log" >&2
  exit 1
fi
grep -q "final metrics snapshot" "$serve_log" \
  || { echo "run_obs_smoke.sh: drain summary lacks the metrics snapshot" >&2; exit 1; }
grep -q "^pipeline_decision" "$serve_log" \
  || { echo "run_obs_smoke.sh: final snapshot lacks decision counters" >&2; exit 1; }
grep -q '"snapshot_version":1' "$work_dir/final_metrics.json" \
  || { echo "run_obs_smoke.sh: --metrics-out file is not a snapshot" >&2; exit 1; }

echo "obs smoke passed: scraped live metrics matched $expected client-observed decisions."
