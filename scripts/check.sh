#!/usr/bin/env bash
# check.sh — the full verification gate: vet, build, race-enabled tests,
# and a short run of every fuzz target. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== coverage floors =="
# Statement-coverage floor per package, held at or below the level each was
# established at so later work can't silently shed tests:
#   datalog     the engine, hottest and most-refactored code (87.3%)
#   reasonapi   the HTTP error-envelope and observability contracts (86%)
#   persist     durability, where silent regressions cost data (83.7%)
#   replication failure paths that only run when things go wrong (85.8%)
#   pg, store, whatif  the MVCC substrate (92.6 / 83.5 / 90.2%)
#   ivm         stale derived state keeps reads "succeeding" (90.0%)
#   qcache      a bug serves stale answers with a fresh seq (91.4%)
cover_dir="$(mktemp -d)"
trap 'rm -rf "$cover_dir"' EXIT
while read -r pkg floor; do
    go test -coverprofile="${cover_dir}/${pkg}.cover" "./internal/${pkg}" </dev/null >/dev/null
    cov="$(go tool cover -func="${cover_dir}/${pkg}.cover" | awk '/^total:/ { gsub(/%/, "", $3); print $3 }')"
    echo "internal/${pkg} coverage: ${cov}% (floor ${floor}%)"
    awk -v c="$cov" -v f="$floor" 'BEGIN { exit (c + 0 >= f + 0) ? 0 : 1 }' || {
        echo "internal/${pkg} coverage ${cov}% fell below the ${floor}% floor" >&2
        exit 1
    }
done <<'FLOORS'
datalog 86.0
reasonapi 75.0
persist 80.0
replication 80.0
pg 80.0
store 80.0
whatif 80.0
ivm 80.0
qcache 80.0
FLOORS

echo "== differential what-if harness =="
# 100+ randomized graphs: scoped overlay evaluation == unscoped == the
# flatten-and-re-chase oracle, on control and closelink alike.
go test -run '^TestDifferentialWhatIf$' -v ./internal/whatif | grep -E 'PASS|FAIL|ok '

echo "== differential maintenance harness =="
# 100+ randomized mutation streams: the mutation-driven differential chase
# must equal the full re-chase after every commit, on control and closelink
# alike; the concurrent case runs under -race because maintenance publishes
# new baselines while snapshot readers walk the old ones.
go test -run '^TestDifferentialMaintenance$' -v ./internal/ivm | grep -E 'cases|PASS|FAIL|ok '
go test -race -run '^TestConcurrentReadsDuringApply$' -v ./internal/ivm | grep -E 'PASS|FAIL|ok '

echo "== crash-recovery harness (kill -9 loop) =="
# 20 consecutive SIGKILLs mid-write; every acknowledged fact must survive and
# every restart must load a consistent store. Runs under -race on purpose:
# the WAL's group-commit loop is concurrent with appends.
go test -race -run '^TestCrashRecoveryLoop$' -v ./internal/persist | grep -E 'survived|PASS|FAIL'

echo "== replication crash harness (leader + 2 followers, kill -9 loop) =="
# 20 cycles of interleaved SIGKILLs across a leader and two followers; every
# fact the leader acknowledged must survive on the leader AND converge on
# both followers. Under -race: frame apply races against API-style reads.
go test -race -run '^TestReplicationCrashLoop$' -v ./internal/replication | grep -E 'kills|converged|PASS|FAIL'

echo "== leader-kill failover harness (3-node replica group, kill -9 loop) =="
# 20 cycles of SIGKILLing whichever member currently leads a 3-node
# self-healing group. The survivors must elect a new leader, every
# acknowledged fact must survive onto the final leader, no two epochs may
# acknowledge the same sequence number with different facts, and writes
# must come back within the failover bound. Under -race: the role state
# machine runs concurrently with streaming, elections and commits.
go test -race -run '^TestReplicationFailoverLoop$' -v ./internal/replication | grep -E 'survived|outage|PASS|FAIL'

echo "== perfbench build and tests =="
# The end-to-end benchmark is its own module compiled against the internal
# packages: an internal API change that breaks it fails here, offline.
go -C perfbench vet ./...
go -C perfbench test ./...

echo "== benchmark smoke (1x) =="
# Run every regression benchmark once so the harness can't bit-rot; real
# measurements go through scripts/bench.sh with a time-based BENCHTIME.
BENCH_OUT="${BENCH_OUT:-/tmp}" ./scripts/bench.sh

echo "== fuzz targets (${FUZZTIME} each) =="
# Discover every Fuzz* target and give each a short budget; a regression in
# input hardening shows up here before it ships.
for pkg in $(go list ./...); do
    for target in $(go test -list 'Fuzz.*' "$pkg" 2>/dev/null | grep '^Fuzz' || true); do
        echo "-- $pkg $target"
        go test -run=NONE -fuzz="^${target}\$" -fuzztime="$FUZZTIME" "$pkg"
    done
done

echo "== all checks passed =="
