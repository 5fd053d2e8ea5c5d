#!/usr/bin/env bash
# Boots pdnserve on a local port, drives one request through every
# endpoint (analyze, batch, lut, healthz, metrics, debug/requests,
# debug/solves), and fails on any non-2xx response, a batch item error, a missing
# X-Trace-Id, an unretrievable trace, malformed Prometheus exposition,
# or a missing structured-log start event. Hostile request bodies must
# answer 400 and leave the server serving, and the solve records must
# name the method the mesh size picks and carry the answer's Kirchhoff
# balance. Finishes with a SIGTERM to check the graceful drain path
# exits cleanly.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)/pdnserve"
go build -o "$BIN" ./cmd/pdnserve

ADDR="127.0.0.1:18080"

LOG="$(mktemp)"
# Coarse mesh pitch keeps smoke solves fast; determinism is unaffected.
"$BIN" -addr "$ADDR" -pitch 0.5 -log-format=json 2>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

up=0
for _ in $(seq 1 100); do
  if curl -sf "http://$ADDR/healthz" >/dev/null 2>&1; then up=1; break; fi
  sleep 0.1
done
if [ "$up" != 1 ]; then
  echo "pdnserve did not come up on $ADDR" >&2
  exit 1
fi

check() {
  # check <name> <path> [json-body]; curl -f fails the script on non-2xx.
  local name="$1" path="$2" data="${3:-}" out
  if [ -n "$data" ]; then
    out=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$data" "http://$ADDR$path")
  else
    out=$(curl -sf "http://$ADDR$path")
  fi
  echo "ok: $name -> $(echo "$out" | head -c 120)"
  LAST="$out"
}

check healthz /healthz
check analyze /v1/analyze '{"bench":"ddr3-off","state":"0-0-0-2","io":1.0}'
echo "$LAST" | grep -q '"max_ir_mv"' || { echo "analyze response missing max_ir_mv" >&2; exit 1; }

check batch /v1/batch '{"queries":[{"bench":"ddr3-off","state":"0-0-0-2","io":1.0},{"bench":"ddr3-off","state":"1-0-1-2","io":0.5}]}'
echo "$LAST" | grep -q '"failed":0' || { echo "batch reported item failures: $LAST" >&2; exit 1; }

check lut /v1/lut '{"bench":"ddr3-off","max_per_die":1,"io_levels":[1.0],"probe":{"state":"0-0-0-1","io":1.0}}'
echo "$LAST" | grep -q '"probe_max_ir_mv"' || { echo "lut response missing probe result" >&2; exit 1; }

# Hostile inputs are request errors, not crashes: a TSV count of 10⁹
# (the site generators would allocate one point per TSV) on analyze and
# LUT, and an I/O level outside (0,1] on LUT. check fails on any non-2xx,
# so these read the status code instead.
expect_400() {
  # expect_400 <name> <path> <json-body>
  local code
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' -d "$3" "http://$ADDR$2")
  [ "$code" = 400 ] || { echo "$1: status $code, want 400" >&2; exit 1; }
  echo "ok: $1 -> $code"
}
expect_400 hostile_tsv_analyze /v1/analyze '{"bench":"ddr3-off","state":"0-0-0-1","io":1.0,"tsv":1000000000}'
expect_400 hostile_tsv_lut /v1/lut '{"bench":"ddr3-off","tsv":1000000000}'
expect_400 lut_io_level_range /v1/lut '{"bench":"ddr3-off","io_levels":[1.5]}'
check healthz_after_hostile /healthz

check metrics /metrics
echo "$LAST" | grep -q 'serve.cache' || { echo "metrics missing serve counters" >&2; exit 1; }
echo "$LAST" | grep -q 'health.goroutines' || { echo "metrics missing runtime-health gauges" >&2; exit 1; }

# Every response carries X-Trace-Id, and /debug/requests can return the
# trace it names while it is still retained. A state no earlier request
# used keeps this analyze off the result cache, so its trace links to a
# real solve record below.
TRACE_ID=$(curl -sf -D - -o /dev/null -X POST -H 'Content-Type: application/json' \
  -d '{"bench":"ddr3-off","state":"2-0-0-2","io":1.0}' "http://$ADDR/v1/analyze" \
  | tr -d '\r' | awk 'tolower($1)=="x-trace-id:"{print $2}')
if [ -z "$TRACE_ID" ]; then
  echo "analyze response missing X-Trace-Id header" >&2
  exit 1
fi
echo "ok: trace id -> $TRACE_ID"

check debug_requests "/debug/requests?id=$TRACE_ID"
echo "$LAST" | grep -q "\"trace_id\":\"$TRACE_ID\"" || { echo "/debug/requests did not return trace $TRACE_ID: $LAST" >&2; exit 1; }
echo "$LAST" | grep -q '"name":"request"' || { echo "trace $TRACE_ID has no request span: $LAST" >&2; exit 1; }

# The solve flight recorder: /debug/solves retains the analyze solves,
# round-trips one record by its solve id, and resolves the trace id to
# the solve that request ran.
check debug_solves /debug/solves
echo "$LAST" | grep -q '"solve_id":"s-' || { echo "/debug/solves retained no solve records: $LAST" >&2; exit 1; }
SOLVE_ID=$(echo "$LAST" | grep -o '"solve_id":"s-[0-9]*"' | head -1 | cut -d'"' -f4)
check debug_solve_by_id "/debug/solves?id=$SOLVE_ID"
echo "$LAST" | grep -q "\"solve_id\":\"$SOLVE_ID\"" || { echo "/debug/solves did not round-trip $SOLVE_ID: $LAST" >&2; exit 1; }
echo "$LAST" | grep -q '"cond_est":' || { echo "solve record $SOLVE_ID missing cond_est: $LAST" >&2; exit 1; }
check debug_solve_by_trace "/debug/solves?id=$TRACE_ID"
echo "$LAST" | grep -q "\"trace_id\":\"$TRACE_ID\"" || { echo "/debug/solves did not resolve trace $TRACE_ID: $LAST" >&2; exit 1; }

# The mesh size picks the method: the pitch-0.5 mesh above (1,680 nodes)
# solves with cg-ic0, and a 0.07 mm mesh (76,048 nodes) with cg-amg. Both
# records carry the answer's Kirchhoff balance.
solve_record_reads() {
  # solve_record_reads <trace-id> <method>
  local rec
  rec=$(curl -sf "http://$ADDR/debug/solves?id=$1")
  echo "$rec" | grep -q "\"method\":\"$2\"" || { echo "solve record for $1 does not read method $2: $rec" >&2; exit 1; }
  echo "$rec" | grep -q '"balance":' || { echo "solve record for $1 missing balance: $rec" >&2; exit 1; }
  echo "ok: trace $1 solved by $2, balance $(echo "$rec" | grep -o '"balance":[^,}]*' | cut -d: -f2)"
}
solve_record_reads "$TRACE_ID" cg-ic0
FINE_ID=$(curl -sf -D - -o /dev/null -X POST -H 'Content-Type: application/json' \
  -d '{"bench":"ddr3-off","state":"0-0-0-2","io":1.0,"pitch":0.07}' "http://$ADDR/v1/analyze" \
  | tr -d '\r' | awk 'tolower($1)=="x-trace-id:"{print $2}')
[ -n "$FINE_ID" ] || { echo "pitch-0.07 analyze response missing X-Trace-Id header" >&2; exit 1; }
solve_record_reads "$FINE_ID" cg-amg

# Content-negotiated Prometheus exposition: typed, and every line is a
# valid v0.0.4 comment, sample, or blank.
PROM=$(curl -sf "http://$ADDR/metrics?format=prometheus")
echo "$PROM" | grep -q '^# TYPE serve_analyze_requests counter$' || { echo "prom exposition missing TYPE line" >&2; exit 1; }
echo "$PROM" | grep -q '^serve_analyze_latency_ms_bucket{le="+Inf"} ' || { echo "prom exposition missing histogram buckets" >&2; exit 1; }
echo "$PROM" | grep -q '^# TYPE serve_solve_iterations histogram$' || { echo "prom exposition missing solve iterations histogram" >&2; exit 1; }
echo "$PROM" | grep -q '^serve_solve_iterations_bucket{le="+Inf"} ' || { echo "prom exposition missing solve iteration buckets" >&2; exit 1; }
echo "$PROM" | grep -q '^# TYPE serve_solve_cond_est histogram$' || { echo "prom exposition missing cond_est histogram" >&2; exit 1; }
BAD=$(echo "$PROM" | grep -Ev '^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [+-]?([0-9.eE+-]+|Inf)|[[:space:]]*)$' || true)
if [ -n "$BAD" ]; then
  echo "invalid Prometheus exposition lines:" >&2
  echo "$BAD" >&2
  exit 1
fi
echo "ok: prometheus exposition lints clean"

# The structured JSON log carries the lifecycle start event and one
# record per request.
grep -q '"event":"start"' "$LOG" || { echo "JSON log missing start event:" >&2; cat "$LOG" >&2; exit 1; }
grep -q "\"event\":\"request\".*\"trace_id\":\"$TRACE_ID\"" "$LOG" || { echo "JSON log missing request record for $TRACE_ID" >&2; cat "$LOG" >&2; exit 1; }
echo "ok: structured log"

kill -TERM "$PID"
wait "$PID"
trap - EXIT
echo "serve smoke passed"
