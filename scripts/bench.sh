#!/bin/sh
# bench.sh — tracked benchmark runs. Runs the substrate micro-benches and
# the campaign macro-benches N times, distills the output into
# BENCH_<pr>.json (best ns/op, B/op, allocs/op per benchmark), and compares
# against the most recent committed BENCH_*.json, failing on a >25% ns/op
# regression in the gated hot-path benchmarks.
#
# Usage:
#   scripts/bench.sh           full run; writes BENCH_<next>.json
#   scripts/bench.sh -short    CI mode: micro + hot-path benches only, one
#                              pass, compare-only (nothing written)
#   scripts/bench.sh 7         full run; writes BENCH_7.json
#
# See DESIGN.md §10 for how to read the JSON.
set -eu

cd "$(dirname "$0")/.."

GATE='BenchmarkEngineEvents,BenchmarkTCPTransfer,BenchmarkCUBICTransfer,BenchmarkBBRTransfer,BenchmarkHWLSOObserve,BenchmarkRegressionObserve,BenchmarkECMObserve,BenchmarkWireObserveDecode,BenchmarkWireObserveEncode,BenchmarkWirePredictEncode'
MAX_REGRESS=25
# The wire codec benches, the per-ACK congestion-control hot path and the
# per-packet forwarding path must stay allocation-free: zero allocs/op is
# their contract, enforced absolutely (not as a percentage).
ZERO_ALLOC='BenchmarkPacketPath,BenchmarkQueueForwarding,BenchmarkCUBICTransfer,BenchmarkBBRTransfer,BenchmarkWireObserveDecode,BenchmarkWireObserveEncode,BenchmarkWirePredictEncode,BenchmarkWirePredictRoundTrip'
WIRE_BENCH='BenchmarkWireObserveDecode|BenchmarkJSONObserveDecode|BenchmarkWireObserveEncode|BenchmarkJSONObserveEncode|BenchmarkWirePredictEncode|BenchmarkJSONPredictEncode|BenchmarkWirePredictRoundTrip|BenchmarkWireObserveHandler|BenchmarkOracleObserveHandler'

short=0
pr=""
for arg in "$@"; do
    case "$arg" in
    -short) short=1 ;;
    *) pr="$arg" ;;
    esac
done

# The latest committed BENCH_*.json is the comparison baseline. Plain
# glob + numeric max: no ls/sort pipeline, so a repo with zero baselines
# (or a shell where the failed glob aborts under set -e) degrades to an
# explicit warning below instead of a silent nonzero exit.
latest=""
latest_n=-1
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    n=${f#BENCH_}
    n=${n%.json}
    case "$n" in
    '' | *[!0-9]*) continue ;;
    esac
    if [ "$n" -gt "$latest_n" ]; then
        latest_n=$n
        latest=$f
    fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [ "$short" = 1 ]; then
    # CI mode: the hot-path benches only (the figure benches need a multi-
    # second dataset collection), one pass, reduced benchtime.
    echo "==> go test -bench (short)"
    go test -bench 'BenchmarkEngineEvents|BenchmarkEngineSchedCancel|BenchmarkPacketPath|BenchmarkQueueForwarding|BenchmarkTCPTransfer|BenchmarkCUBICTransfer|BenchmarkBBRTransfer|BenchmarkHWLSOObserve|BenchmarkPFTK|BenchmarkRegressionObserve|BenchmarkECMObserve' \
        -benchmem -benchtime 0.3s -run '^$' -count 1 . | tee "$tmp/bench.txt"
    echo "==> go test -bench wire codec (short)"
    go test -bench "$WIRE_BENCH" \
        -benchmem -benchtime 0.3s -run '^$' -count 1 ./internal/predsvc | tee -a "$tmp/bench.txt"
    go run ./cmd/benchjson parse -label short <"$tmp/bench.txt" >"$tmp/new.json"
    if [ -n "$latest" ]; then
        echo "==> compare vs $latest (gate: >$MAX_REGRESS% on $GATE; 0 allocs on $ZERO_ALLOC)"
        go run ./cmd/benchjson compare -old "$latest" -new "$tmp/new.json" \
            -gate "$GATE" -max-regress "$MAX_REGRESS" -zero-alloc "$ZERO_ALLOC"
    else
        echo "WARNING: no committed BENCH_*.json baseline found; skipping the regression gate." >&2
        echo "         Run 'scripts/bench.sh' on a healthy tree and commit the BENCH_<n>.json it writes." >&2
    fi
    echo "OK"
    exit 0
fi

# Full run: everything, three passes (benchjson keeps the best of each).
if [ -z "$pr" ]; then
    if [ -n "$latest" ]; then
        pr=$(( $(echo "$latest" | sed 's/BENCH_\([0-9]*\).json/\1/') + 1 ))
    else
        pr=1
    fi
fi
out="BENCH_${pr}.json"

echo "==> go test -bench . -count 3 (writes $out)"
go test -bench . -benchmem -run '^$' -count 3 . | tee "$tmp/bench.txt"
echo "==> go test -bench wire codec -count 3"
go test -bench "$WIRE_BENCH" \
    -benchmem -run '^$' -count 3 ./internal/predsvc | tee -a "$tmp/bench.txt"

# Record first, gate second: a failed gate must not lose the measurement
# (a baseline from a faster host fails every ns/op gate, and the way out
# is precisely to commit this machine's numbers).
go run ./cmd/benchjson parse -label "pr$pr" <"$tmp/bench.txt" >"$out"
echo "wrote $out"
if [ -n "$latest" ] && [ "$latest" != "$out" ]; then
    echo "==> compare vs $latest (gate: >$MAX_REGRESS% on $GATE; 0 allocs on $ZERO_ALLOC)"
    go run ./cmd/benchjson compare -old "$latest" -new "$out" \
        -gate "$GATE" -max-regress "$MAX_REGRESS" -zero-alloc "$ZERO_ALLOC"
fi
