#!/usr/bin/env bash
# Runs the solver-side benchmark suite (with the memory-controller runs,
# listed in scripts/solver_bench.sh), the serving-side suite, pdnlint and
# the differential harness, and writes the machine-readable perf
# snapshots BENCH_solver.json, BENCH_serve.json, BENCH_lint.json and
# BENCH_diff.json at the repo root.
# These are the tracked baselines a perf-sensitive PR refreshes (and CI
# uploads as artifacts); compare against the committed copies before
# accepting a regression.
#
# Usage: scripts/bench_snapshot.sh [benchtime] [snapshot...]
#   benchtime  go test -benchtime value (default 10x; CI smoke uses 1x)
#   snapshot   solver, serve, lint or diff: write only the snapshots
#              named (default all four), so a solver refresh leaves the
#              serving and lint files as committed
set -euo pipefail

cd "$(dirname "$0")/.."
source scripts/solver_bench.sh

BENCHTIME="${1:-10x}"
shift || true
SNAPSHOTS=("$@")
[ ${#SNAPSHOTS[@]} -gt 0 ] || SNAPSHOTS=(solver serve lint diff)
for s in "${SNAPSHOTS[@]}"; do
  case "$s" in
    solver | serve | lint | diff) ;;
    *) echo "bench_snapshot: unknown snapshot $s (want solver, serve, lint or diff)" >&2; exit 2 ;;
  esac
done

# wanted NAME: whether snapshot NAME was asked for.
wanted() {
  local s
  for s in "${SNAPSHOTS[@]}"; do
    [ "$s" = "$1" ] && return 0
  done
  return 1
}

# bench_json PKGS PATTERN OUT
# Runs the benchmarks and converts `go test -bench` lines to JSON.
bench_json() {
  local pkgs="$1" pattern="$2" out="$3"
  local raw
  raw="$(go test $pkgs -run '^$' -bench "$pattern" -benchtime "$BENCHTIME" -benchmem)"
  echo "$raw"
  awk -v benchtime="$BENCHTIME" '
    BEGIN {
      printf "{\n  \"benchtime\": \"%s\",\n", benchtime
      n = 0
    }
    $1 == "goos:"   { goos = $2 }
    $1 == "goarch:" { goarch = $2 }
    $1 == "pkg:"    { pkg = $2 }
    $1 ~ /^Benchmark/ && $0 ~ / ns\/op/ {
      name = $1
      sub(/-[0-9]+$/, "", name)
      iters = $2
      nsop = bytesop = allocsop = solveiters = "null"
      for (i = 3; i <= NF; i++) {
        if ($(i) == "ns/op")       nsop = $(i - 1)
        if ($(i) == "B/op")        bytesop = $(i - 1)
        if ($(i) == "allocs/op")   allocsop = $(i - 1)
        # CG benchmarks report their convergence story; committing it
        # lets CI gate on iteration-count regressions (exact integers,
        # deterministic kernels) rather than on noisy wall time.
        if ($(i) == "iters/solve") solveiters = int($(i - 1))
      }
      line = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"iters_per_solve\": %s}",
                     pkg, name, iters, nsop, bytesop, allocsop, solveiters)
      bench[n++] = line
    }
    END {
      printf "  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"benchmarks\": [\n", goos, goarch
      for (i = 0; i < n; i++) printf "%s%s\n", bench[i], (i < n - 1 ? "," : "")
      print "  ]\n}"
    }
  ' <<<"$raw" >"$out"
  echo "wrote $out"
}

if wanted solver; then
  bench_json "$SOLVER_BENCH_PKGS" "$SOLVER_BENCH_PATTERN" BENCH_solver.json
fi

if wanted serve; then
  bench_json "./internal/serve" 'BenchmarkAnalyze' BENCH_serve.json
fi

# pdnlint wall time: the lint suite gates every CI run, so its latency
# is a tracked perf surface like the solver and serving suites. Build
# once so the snapshot times analysis, not compilation.
if wanted lint; then
  lint_bin="$(mktemp -d)/pdnlint"
  go build -o "$lint_bin" ./cmd/pdnlint
  lint_out="$(mktemp)"
  lint_status=0
  lint_start=$(date +%s%N)
  "$lint_bin" -json ./... >"$lint_out" || lint_status=$?
  lint_end=$(date +%s%N)
  lint_ms=$(( (lint_end - lint_start) / 1000000 ))
  lint_findings=$(grep -c '"analyzer"' "$lint_out" || true)
  printf '{\n  "target": "pdnlint ./...",\n  "wall_ms": %s,\n  "findings": %s,\n  "exit_status": %s\n}\n' \
    "$lint_ms" "$lint_findings" "$lint_status" >BENCH_lint.json
  echo "wrote BENCH_lint.json (pdnlint ./... in ${lint_ms} ms, ${lint_findings} findings)"
fi

# Differential-coverage snapshot: how much of the solver registry × corpus
# matrix the differential harness checks and how tightly it agrees
# (corpus size, per-mesh solver runs, max observed relative error), plus
# the -convergence section: per-run condition estimates / terminations
# from the solve flight recorder and the per-family iteration/κ envelope.
# No timestamps or host data — the numbers move only when the corpus, the
# solver registry, or solver numerics change.
if wanted diff; then
  go run ./cmd/pdnbench -convergence -out BENCH_diff.json >/dev/null
  echo "wrote BENCH_diff.json ($(go run ./cmd/pdnbench -list | wc -l) corpus entries)"
fi
