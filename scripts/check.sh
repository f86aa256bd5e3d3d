#!/usr/bin/env sh
# Pre-PR gate: formatting, vet, full tests with coverage (which also
# run the Example functions, the golden snapshots, and the schedule-space
# and multi-tenant explorers), a race-detector pass over the packages
# with parallel kernels or concurrent runtime machinery (FCFS
# resources and MPI rank goroutines included; with the scheduler
# invariant auditor on and a fixed chaos seed), repeated
# race-detector runs of the metrics and netsim concurrency tests,
# repeated runs of the dask, core, harness and simtest tests under
# several GOMAXPROCS,
# the reach audit (which also runs the CLI acceptance command, chaos plus
# every quick-scale view, auditor on; see scripts/reach.sh), short fuzz
# smokes of the scheduler auditor and the worker memory governor, the
# planted-mutant self-test of the schedule-space oracle, and the
# benchmark's own tests (bench/ is a module of its own; run the
# benchmark itself with `bash bench/run.sh`, see BENCHMARK.json). Each
# stage after the coverage pass differs from it in flags, build tags or
# environment.
# Usage: ./scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

echo "== go test ./... with coverage =="
# One pass runs the whole suite and records statement coverage; the
# gates read the per-package lines it prints and the profile's
# total.
# internal/metrics is the observability substrate every claim-checking
# test leans on; hold it at >= 90%. internal/simtest is the
# schedule-space oracle itself — hold the oracle at >= 85% (its
# subprocess-driven mutant test does not record child coverage, so the
# in-process floor is what keeps the model/shrinker honest). The
# repo-wide floor tracks the total statement coverage as it rises PR
# over PR (80.8 pre-metrics, 83.0 after the memory-governance battery)
# — keep it from regressing.
METRICS_MIN=90.0
SIMTEST_MIN=85.0
REPO_MIN=83.0
profile=$(mktemp)
out=$(mktemp)
trap 'rm -f "$profile" "$out"' EXIT
if ! go test -coverprofile="$profile" ./... > "$out"; then
    cat "$out"
    exit 1
fi
cat "$out"
pkg_cov() {
    awk -v pkg="$1" '$2 == pkg { for (i = 1; i <= NF; i++) if ($i == "coverage:") { sub(/%.*/, "", $(i+1)); print $(i+1); exit } }' "$out"
}
metrics_cov=$(pkg_cov deisago/internal/metrics)
simtest_cov=$(pkg_cov deisago/internal/simtest)
repo_cov=$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
echo "internal/metrics coverage:    ${metrics_cov}% (min ${METRICS_MIN}%)"
echo "internal/simtest coverage:    ${simtest_cov}% (min ${SIMTEST_MIN}%)"
echo "repo-wide statement coverage: ${repo_cov}% (min ${REPO_MIN}%)"
awk -v got="$metrics_cov" -v min="$METRICS_MIN" 'BEGIN { exit !(got+0 >= min+0) }' || {
    echo "internal/metrics coverage below ${METRICS_MIN}%" >&2; exit 1; }
awk -v got="$simtest_cov" -v min="$SIMTEST_MIN" 'BEGIN { exit !(got+0 >= min+0) }' || {
    echo "internal/simtest coverage below ${SIMTEST_MIN}%" >&2; exit 1; }
awk -v got="$repo_cov" -v min="$REPO_MIN" 'BEGIN { exit !(got+0 >= min+0) }' || {
    echo "repo-wide coverage below the pre-metrics baseline ${REPO_MIN}%" >&2; exit 1; }

echo "== go test -race, auditor on (kernel + runtime packages) =="
# DEISA_AUDIT=1 makes every cluster re-check the scheduler invariants
# after each operation; violations panic with the transition log.
DEISA_AUDIT=1 go test -race \
    ./internal/ndarray \
    ./internal/linalg \
    ./internal/ml \
    ./internal/dask \
    ./internal/core \
    ./internal/chaos \
    ./internal/harness \
    ./internal/simtest \
    ./internal/netsim \
    ./internal/metrics \
    ./internal/pfs \
    ./internal/vtime \
    ./internal/mpi

echo "== go test -race -count=10: metrics and netsim concurrency tests =="
# The registry, each gauge and each histogram hold one plain mutex, and
# the fabric's fault hook is a plain field set before traffic. Ten
# race-detector runs of their concurrency, stress, churn and reset tests
# give those locks many interleavings.
go test -race -count=10 -run 'Concurrent|Stress|Churn|Reset' ./internal/metrics ./internal/netsim

echo "== repeated runs: dask, core, harness and simtest under -cpu 1,2,4 =="
# Host-order races in the scheduler, the bridges, the sweep engine and
# the in-transit driver (which both schedule explorers drive) show up as
# run-to-run flakes; three runs at each of three GOMAXPROCS values give
# them nine chances per test.
go test -count=3 -cpu 1,2,4 ./internal/dask ./internal/core ./internal/harness ./internal/simtest

echo "== reach audit: CLI acceptance, README invocations, examples, bench tests =="
# A coverage-instrumented CLI runs the acceptance command (the chaos
# scenario, then every figure, ablation and summary as views of one run
# set; fixed seed, auditor on) and each README invocation. Merged with
# the Example functions and the benchmark module's tests, the profile
# must leave no function at 0 % that the script's allow-list does not
# name, and every allow-listed function must still be at 0 %.
./scripts/reach.sh

echo "== fuzz smoke: scheduler auditor =="
go test -fuzz=FuzzSchedulerAudit -fuzztime=5s -run '^$' ./internal/dask

echo "== fuzz smoke: memory governance =="
# Random op interleavings on a memory-limited cluster with chaos-style
# squeeze windows; the auditor's memory-conservation invariant panics on
# any ledger drift, tier overlap, or pinned-block spill.
go test -fuzz=FuzzMemoryGovernance -fuzztime=5s -run '^$' ./internal/dask

echo "== simtest planted-mutant self-test =="
# The coverage pass already swept the production build's permuted
# tie-break schedules (TestExploreSchedulesIdentical and friends). Here
# the -tags daskmutant build plants a scheduler fault the explorer must
# catch and the shrinker must reduce to a one-line DSL reproducer.
go test -tags daskmutant -count=1 -run 'TestMutantCaughtAndShrunk' ./internal/simtest

echo "== harness parallel-determinism gate (-race) =="
# The sweep engine fans independent simulations onto a bounded pool;
# every deterministic run output (canonical counters, analytics values,
# chaos logs) must be byte-identical to serial execution, under the race
# detector.
go test -race -count=1 -run 'TestSweepParallelDeterminism|TestChaosParallelDeterminism|TestRunPool' \
    ./internal/harness

echo "== benchmark module tests =="
(cd bench && go test ./...)

echo "OK"
