#!/usr/bin/env sh
# Reach audit: which library code does any entry point reach?
#
# Merges statement coverage from the three ways the code is used:
#   1. a coverage-instrumented cmd/experiments running the CLI acceptance
#      command (chaos plus every quick-scale view) and each README
#      invocation at quick scale, with the invariant auditor on
#      (DEISA_AUDIT=1); any command that fails fails the audit;
#   2. the Example functions (go test -run '^Example');
#   3. the benchmark module's tests (bench/ is a module of its own).
# Unit tests do not count: code only a unit test calls is reached by
# nothing a user runs.
#
# It prints the merged reach, then every function at 0 % outside test
# files and internal/simtest that the allow-list below does not name,
# and every allow-listed function that is no longer at 0 %. Either kind
# of line fails the audit (exit 1). Profiles are merged in a temporary
# directory that is removed on exit. Only the Go toolchain and sh/awk
# are used.
#
# Usage: ./scripts/reach.sh
set -eu

cd "$(dirname "$0")/.."

# Functions no entry point reaches that stay, one per line as
# "<file> <function> <reason>" (lines starting with # are comments). The
# function is the name `go tool cover -func` prints: a method's name
# without its receiver, so one entry covers same-named methods of one
# file. The reason is one of:
#   fault   release or fault path that only the dask unit tests and
#           fuzzers take; the bench-gated fault workloads (ROADMAP item 9)
#           will reach it
#   input   parses input from outside the program
#   iface   method an interface with reached methods requires
#   seam    test seam
#   oracle  test oracle used across packages
allow=$(cat <<'EOF'
# The release, erred and drop paths, and the stale-assignment check a
# release of a queued task's dependency makes: no run releases keys.
deisago/internal/dask/audit.go recordReleaseLocked fault
deisago/internal/dask/client.go Release fault
deisago/internal/dask/scheduler.go erredLocked fault
deisago/internal/dask/scheduler.go noteReleaseLocked fault
deisago/internal/dask/scheduler.go processingOn fault
deisago/internal/dask/scheduler.go release fault
deisago/internal/dask/scheduler.go taskErred fault
deisago/internal/dask/worker.go drop fault
# The invariant auditor: its violation report, and the transition
# classifier internal/simtest re-derives its model from.
deisago/internal/dask/audit.go String oracle
deisago/internal/dask/audit.go WorkerDeath oracle
deisago/internal/dask/audit.go failLocked oracle
# The run-order-invariant snapshot the harness goldens and the netsim
# and harness determinism tests compare.
deisago/internal/metrics/snapshot.go CanonicalJSON oracle
# Client and cluster state the dask, core and simtest tests read, and
# the tie-break path only an installed TieBreaker (internal/simtest)
# takes.
deisago/internal/dask/client.go Cluster seam
deisago/internal/dask/client.go Done seam
deisago/internal/dask/client.go Name seam
deisago/internal/dask/client.go Persist seam
deisago/internal/dask/client.go Result seam
deisago/internal/dask/client.go State seam
deisago/internal/dask/client.go String seam
deisago/internal/dask/cluster.go Config seam
deisago/internal/dask/cluster.go SchedulerNode seam
deisago/internal/dask/resilience.go LiveWorkers seam
deisago/internal/dask/scheduler.go Len seam
deisago/internal/dask/scheduler.go Less seam
deisago/internal/dask/scheduler.go Swap seam
deisago/internal/dask/scheduler.go idFor seam
deisago/internal/dask/tiebreak.go clampPick seam
# Kernel worker count and resource reset, set by tests in several
# packages.
deisago/internal/ndarray/kernels.go SetWorkers seam
deisago/internal/vtime/vtime.go Reset seam
# pdi.Plugin methods no run calls on these plugins: each run attaches
# one plugin, so AddPlugin compares no names, and the HDF5 writer of the
# post hoc ranks is attached to a pre-created file and sees no events.
deisago/internal/core/plugin.go Name iface
deisago/internal/h5/plugin.go Event iface
deisago/internal/h5/plugin.go Finalize iface
deisago/internal/h5/plugin.go Name iface
# Configuration-driven paths: float operands in PDI expressions, and
# datasets whose configured size is not a multiple of the chunk.
deisago/internal/pdi/expr.go toFloat input
deisago/internal/h5/h5.go getFloatBuf input
EOF
)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cov" "$tmp/out"

echo "== reach: CLI (instrumented cmd/experiments, auditor on) =="
go build -cover -coverpkg=./... -o "$tmp/experiments" ./cmd/experiments
cli() {
    echo "experiments $*"
    if ! GOCOVERDIR="$tmp/cov" DEISA_AUDIT=1 "$tmp/experiments" "$@" > "$tmp/cli.log" 2>&1; then
        cat "$tmp/cli.log" >&2
        echo "reach: experiments $* failed" >&2
        exit 1
    fi
}
# The CLI acceptance run: the chaos scenario and then every figure,
# ablation and summary as views of one run set, each configuration once.
cli -quick -all -ablation all -chaos-seed 7
# The README invocations, at quick scale.
cli -quick -all -csv -svg "$tmp/out"
cli -system deisa3 -ranks 4 -workers 2 -steps 3 -block-mib 8 -metrics-out "$tmp/out/m.json" -trace "$tmp/out/t.json"
cli -system deisa3 -ranks 4 -workers 2 -steps 3 -block-mib 8 -seed 7 -metrics-out "$tmp/out/m.csv"
cli -system deisa1 -ranks 4 -workers 2 -steps 3 -block-mib 8 -per-rank
cli -system deisa3 -ranks 4 -workers 2 -steps 3 -block-mib 64 -worker-mem 100
cli -quick -chaos-seed 7 -worker-mem 16
cli -quick -worker-mem 16 -chaos-plan 'kill:0@0/1;degrade:0-1:3@0-inf;drop:1/3:2;delay:0/2:0.25;memlimit:1:8388608@0-0.5'
cli -quick -jobs 8 -tenant-weights 1,2,8
cli -quick -jobs 3 -chaos-plan 'killjob:job1@2'
go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cli.txt"

echo "== reach: Example functions =="
go test -count=1 -run '^Example' -coverpkg=./... -coverprofile="$tmp/examples.txt" ./... > "$tmp/examples.log" ||
    { cat "$tmp/examples.log" >&2; exit 1; }

echo "== reach: benchmark module tests =="
pkgs=$(go list ./... | paste -sd, -)
(cd bench && go test -count=1 -coverpkg="$pkgs" -coverprofile="$tmp/bench.txt" ./... > "$tmp/bench.log" 2>&1) ||
    { cat "$tmp/bench.log" >&2; exit 1; }

# One profile: every mode is "set", and go tool cover ORs blocks that
# appear more than once.
{
    echo "mode: set"
    grep -hv '^mode:' "$tmp/cli.txt" "$tmp/examples.txt" "$tmp/bench.txt"
} > "$tmp/merged.txt"

awk 'NR > 1 {
        if (!($1 in n)) { n[$1] = $2; total += $2 }
        if ($3 > 0 && !($1 in hit)) { hit[$1] = 1; reached += n[$1] }
    }
    END { printf "reach: %.1f%% of %d statements\n", 100 * reached / total, total }' "$tmp/merged.txt"

go tool cover -func="$tmp/merged.txt" |
    awk -v allow="$allow" '
    BEGIN {
        ok["fault"]; ok["input"]; ok["iface"]; ok["seam"]; ok["oracle"]
        n = split(allow, lines, "\n")
        for (i = 1; i <= n; i++) {
            if (split(lines[i], f, " ") == 0 || f[1] ~ /^#/) continue
            if (!(f[3] in ok)) { printf "reach: allow-list entry %s %s: unknown reason %q\n", f[1], f[2], f[3]; bad = 1; continue }
            listed[f[1] " " f[2]] = 1
        }
    }
    $1 == "total:" { next }
    {
        file = $1; sub(/:[0-9]+:$/, "", file)
        if (file ~ /\/internal\/simtest\//) next
        key = file " " $2
        if ($3 == "0.0%") { zero[key] = 1; count++; if (!(key in listed)) { print "unreached: " key; bad = 1 } }
    }
    END {
        for (key in listed) if (!(key in zero)) { print "reached, drop from allow-list: " key; bad = 1 }
        printf "reach: %d functions at 0%% outside simtest\n", count
        exit bad
    }'
