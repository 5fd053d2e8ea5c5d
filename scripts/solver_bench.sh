# The solver-side benchmark rows, with the memory-controller runs: the
# packages and -bench pattern that scripts/bench_snapshot.sh records in
# BENCH_solver.json and scripts/bench_check.sh gates against it. Both
# source this file, so no row is snapshotted without also being gated.
SOLVER_BENCH_PKGS="./internal/solve ./internal/rmesh ./internal/memctrl"
SOLVER_BENCH_PATTERN='BenchmarkCG_IC0|BenchmarkSpMV$|BenchmarkCG_AMG|BenchmarkAMGSetup|BenchmarkValueSweep|BenchmarkRestamp$|BenchmarkBuildTopology|BenchmarkSimulate$'
