#!/bin/sh
# check.sh — the CI gate, runnable locally: formatting, vet, build, and the
# race-enabled short test suite. Slow multi-second campaign tests are
# guarded by testing.Short(); run `make test` (or `go test ./...`) for the
# full suite.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> go test -race -short"
go test -race -short ./...

# Fuzzing: the record-stream reader (the one framing of the spill log,
# snapshot files and handoff bodies) and the record-payload decoder must
# never panic on untrusted bytes; the reader must never hand out a record
# past its cap and must re-write what it accepts byte for byte, and the
# decoder must re-encode what it accepts to a fixed point. Every `go test`
# replays the committed corpora (testdata/fuzz in internal/predsvc/store
# and internal/predsvc); these steps search for new inputs, and a failure
# they find is written into that corpus.
echo "==> fuzz FuzzRecordStream (10s)"
go test ./internal/predsvc/store -run '^$' -fuzz '^FuzzRecordStream$' -fuzztime 10s -fuzzminimizetime 2s
echo "==> fuzz FuzzPathSnapshotRestore (10s)"
go test ./internal/predsvc -run '^$' -fuzz '^FuzzPathSnapshotRestore$' -fuzztime 10s -fuzzminimizetime 2s

# The benchmark harness is its own module and is not part of ./...: its
# unit tests also compile it against the predsvc API it drives.
echo "==> go test -C bench ./..."
go test -C bench ./...

# Benchmark smoke: one short run of the single-request and batch service
# workloads and a campaign workload from BENCHMARK.json. The harness exits
# non-zero when a run's correctness check (served vs shadow replay) fails
# or a declared metric is missing; the figures themselves are judged
# against their bounds by a full `go run -C bench .`, not here.
for w in svc-single svc-batch campaign-paper; do
    echo "==> benchmark smoke: $w (1s)"
    go run -C bench . --workload "$w" --seconds 1
done

# The short suite above carries the in-process end-to-end gates (daemon
# under the load generator, chaos, store conformance, cluster digest,
# handoff/drain lifecycle, wire fastpath vs oracle digest); the sections
# below run the same properties against the real binaries.
# 4-node digest equality over heterogeneous stores, a rolling restart of every node under paced
# load, and a 2→3 resize whose first handoff is killed mid-transfer and
# must converge on retry.
echo "==> cluster robustness gates (real binaries)"
./scripts/cluster.sh

# Scenario-matrix gate: the CC × link smoke campaign (reno/cubic/bbr over
# droptail/randomdrop/cellular/rwnd) collected twice with digest equality,
# then scored by repro's ext-cc — FB must degrade on BBR cells while the
# history-based control group holds.
echo "==> scenario-matrix gate (real binaries)"
./scripts/scenarios.sh

# Coverage ratchet: the short suite's statement coverage may drift, but
# never more than 2 points below the recorded baseline. When a PR raises
# coverage meaningfully, raise COVER_BASELINE to match `go tool cover
# -func` — the ratchet only ever moves up.
COVER_BASELINE=80.3
echo "==> coverage ratchet (baseline ${COVER_BASELINE}%, tolerance -2.0)"
cover_tmp=$(mktemp)
trap 'rm -f "$cover_tmp"' EXIT
go test -short -coverprofile="$cover_tmp" ./... >/dev/null
total=$(go tool cover -func="$cover_tmp" | awk '/^total:/ { sub(/%/, "", $NF); print $NF }')
echo "    total statement coverage: ${total}%"
if ! awk -v t="$total" -v b="$COVER_BASELINE" 'BEGIN { exit !(t >= b - 2.0) }'; then
    echo "FAIL: coverage ${total}% is more than 2 points below the ${COVER_BASELINE}% baseline" >&2
    exit 1
fi

# Size ledger: simplification is a tracked number (ROADMAP item 2).
echo "==> size ledger"
./scripts/loc.sh

echo "OK"
