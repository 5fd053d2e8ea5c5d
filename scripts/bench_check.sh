#!/usr/bin/env bash
# CI regression gate for the committed BENCH_solver.json: re-runs the
# solver-side benchmark suite once and compares every fresh line against
# the committed snapshot.
#
#   - iters_per_solve: deterministic integers from the sharded kernels,
#     compared exactly. Any drift — a regression or an improvement —
#     must be acknowledged by refreshing the snapshot
#     (scripts/bench_snapshot.sh), so the committed convergence story
#     never goes stale.
#   - ns_per_op: compared within a multiplicative band (NSOP_BAND,
#     default 4.0). Wall time at -benchtime 1x on shared CI hardware is
#     noisy and host-dependent, so the band only catches
#     order-of-magnitude blowups (an accidental dense fallback, a
#     reallocating restamp), not small drifts.
#
# Generalizes the former check_amg_iters.sh (cg-amg iterations only) to
# every benchmark in the snapshot.
#
# Usage: scripts/bench_check.sh [snapshot.json]
#   NSOP_BAND  ns/op tolerance multiplier (default 4.0)
set -euo pipefail

cd "$(dirname "$0")/.."

SNAPSHOT="${1:-BENCH_solver.json}"
NSOP_BAND="${NSOP_BAND:-4.0}"
[ -f "$SNAPSHOT" ] || { echo "bench_check: no snapshot at $SNAPSHOT" >&2; exit 1; }

# Same packages and pattern as bench_snapshot.sh, so every committed
# line gets a fresh counterpart.
out="$(go test ./internal/solve ./internal/rmesh -run '^$' \
  -bench 'BenchmarkCG_IC0|BenchmarkCG_AMG|BenchmarkAMGSetup|BenchmarkValueSweep|BenchmarkRestamp$|BenchmarkBuildTopology' \
  -benchtime 1x)"
echo "$out"

# lookup NAME KEY: extract one numeric field of the named benchmark from
# the snapshot (the generator writes one benchmark object per line).
lookup() {
  awk -v n="$1" -v k="$2" -F'[,{}]' '
    $0 ~ "\"name\": \"" n "\"" {
      for (i = 1; i <= NF; i++)
        if ($i ~ "\"" k "\":") { split($i, kv, ":"); gsub(/ /, "", kv[2]); print kv[2] }
    }' "$SNAPSHOT"
}

# A row fails when it is missing from the snapshot, its iterations
# drifted, or its wall time blew the band; failed counts rows, not checks.
rows=0
checked=0
failed=0
while read -r name nsop iters; do
  rows=$((rows + 1))
  committed_ns=$(lookup "$name" ns_per_op)
  if [ -z "$committed_ns" ]; then
    echo "bench_check: $name is not in $SNAPSHOT — refresh it with scripts/bench_snapshot.sh" >&2
    failed=$((failed + 1))
    continue
  fi
  checked=$((checked + 1))
  row_ok=1
  committed_iters=$(lookup "$name" iters_per_solve)
  if [ "$iters" != "null" ] && [ -n "$committed_iters" ] && [ "$committed_iters" != "null" ]; then
    if [ "$iters" -ne "$committed_iters" ]; then
      echo "bench_check: $name iteration drift: $iters iterations vs committed $committed_iters — deterministic kernels, so this is a numerical change; refresh the snapshot to acknowledge it" >&2
      row_ok=0
    else
      echo "bench_check: $name ok: $iters iterations (committed $committed_iters)"
    fi
  fi
  if awk -v f="$nsop" -v c="$committed_ns" -v band="$NSOP_BAND" \
      'BEGIN { exit !(f > c * band) }'; then
    echo "bench_check: $name wall-time blowup: $nsop ns/op vs committed $committed_ns (band ${NSOP_BAND}x)" >&2
    row_ok=0
  fi
  [ "$row_ok" -eq 1 ] || failed=$((failed + 1))
done < <(echo "$out" | awk '$1 ~ /^Benchmark/ && / ns\/op/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  nsop = "null"; iters = "null"
  for (i = 3; i <= NF; i++) {
    if ($(i) == "ns/op")       nsop = $(i - 1)
    if ($(i) == "iters/solve") iters = int($(i - 1))
  }
  print name, nsop, iters
}')

if [ "$failed" -gt 0 ]; then
  echo "bench_check: $failed of $rows benchmarks failed" >&2
  exit 1
fi
if [ "$checked" -eq 0 ]; then
  echo "bench_check: no fresh benchmark matched the snapshot" >&2
  exit 1
fi
echo "bench_check: $checked benchmarks within bands"
