#!/usr/bin/env bash
# End-to-end smoke of the HTTP serving front-end: start `serve_cli serve`,
# drive query/batch/healthz/metrics over loopback with curl, then check a
# graceful SIGTERM drain (exit 0). First, an unknown subcommand must fail
# without creating its --atlas-dir.
#
#   scripts/http_smoke.sh [build-dir]     (default: build)
#
# Environment: PORT (default 18080), LOOPS (default 2 — the server runs
# multi-reactor so the smoke covers listener sharding and the per-loop
# /metrics series).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
PORT="${PORT:-18080}"
LOOPS="${LOOPS:-2}"
BIN="$BUILD_DIR/serve_cli"
BASE="http://127.0.0.1:$PORT"

if [[ ! -x "$BIN" ]]; then
  echo "http_smoke: $BIN not built" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Warming from a store creates the directory and may quarantine files in
# it, so a mistyped subcommand must be rejected before that.
RC=0
"$BIN" nosuch --atlas-dir="$TMP/x" 2>/dev/null || RC=$?
[[ "$RC" -ne 0 && ! -e "$TMP/x" ]]

# --hi=400 keeps on-demand atlas scans quick on the simulated machine.
"$BIN" serve --port="$PORT" --hi=400 --loops="$LOOPS" &
SRV=$!
trap 'kill -9 "$SRV" 2>/dev/null || true; rm -rf "$TMP"' EXIT

for _ in $(seq 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

[[ "$(curl -sf "$BASE/healthz")" == "ok" ]]

ANSWER="$(curl -sf -X POST --data-binary 'aatb,300,260,549' "$BASE/v1/query")"
echo "query  -> $ANSWER"
[[ "$ANSWER" == *,atlas ]]

BATCH="$(printf 'aatb,100,260,549\naatb,200,260,549\naatb,300,260,549\n' \
  | curl -sf -X POST --data-binary @- "$BASE/v1/batch")"
echo "batch  -> $(echo "$BATCH" | tr '\n' ' ')"
[[ "$(echo "$BATCH" | wc -l)" -eq 3 ]]

# A malformed body must answer 400, not kill the server.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary 'aatb,not-a-size' "$BASE/v1/query")"
[[ "$CODE" == 400 ]]

METRICS="$(curl -sf "$BASE/metrics")"
echo "$METRICS" | grep -q 'lamb_http_requests_total'
echo "$METRICS" | grep -q 'lamb_selection_answers_total{source="atlas"}'
echo "$METRICS" | grep -q 'lamb_http_request_duration_seconds_bucket'
echo "$METRICS" | grep -q 'lamb_http_connections_active'
echo "$METRICS" | grep -q 'lamb_stage_seconds_bucket{stage="route"'
# Multi-reactor series: the loop-count gauge matches --loops, and one
# lamb_net_loop_* series exists per loop (cardinality is re-checked by
# metrics_lint below).
echo "$METRICS" | grep -q "lamb_net_loops $LOOPS"
for ((i = 0; i < LOOPS; i++)); do
  echo "$METRICS" | grep -q "lamb_net_loop_requests_total{loop=\"$i\"}"
done

# Exposition lint: HELP/TYPE before every family, no duplicate series, and
# counters monotonic between two scrapes separated by more traffic.
echo "$METRICS" > "$TMP/scrape1.txt"
curl -sf -X POST --data-binary 'aatb,220,260,549' "$BASE/v1/query" >/dev/null
curl -sf "$BASE/metrics" > "$TMP/scrape2.txt"
scripts/metrics_lint.sh "$TMP/scrape1.txt" "$TMP/scrape2.txt"

# Graceful drain: SIGTERM must produce a clean exit 0 from run().
kill -TERM "$SRV"
wait "$SRV"
trap - EXIT
rm -rf "$TMP"
echo "http smoke OK"
