#!/bin/sh
# scenarios.sh — scenario-matrix acceptance gate against the real binaries.
#
# Collects the CC × link scenario matrix (reno/cubic/bbr senders over
# droptail/randomdrop/cellular/rwnd bottlenecks) twice at smoke scale with
# ronsim and asserts:
#
#   1. the two runs produce byte-identical datasets (digest equality —
#      the whole campaign, congestion controls included, is deterministic),
#   2. repro's ext-cc experiment runs on the dataset and emits the full
#      matrix and FB-degradation tables,
#   3. the paper-extending result holds even at smoke scale: FB's RMSRE
#      degrades under BBR senders (it encodes Reno's loss response), while
#      the history-based control group stays better on every BBR cell.
#
# Set SCEN_OUT=<dir> to keep the dataset + ext-cc output as CI artifacts.
set -eu

cd "$(dirname "$0")/.."

SEED="${SCEN_SEED:-7}"
TRACES=1
EPOCHS=6

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

echo "==> building binaries"
go build -o "$tmp/ronsim" ./cmd/ronsim
go build -o "$tmp/repro" ./cmd/repro

# Uncompressed .json output: gzip framing could differ without the payload
# differing, and it is the payload determinism the gate pins.
echo "==> scenario matrix, run A (seed $SEED, $TRACES trace x $EPOCHS epochs per cell)"
"$tmp/ronsim" -scenarios -seed "$SEED" -traces "$TRACES" -epochs "$EPOCHS" \
    -progress off -out "$tmp/cc-a.json"
echo "==> scenario matrix, run B (same seed)"
"$tmp/ronsim" -scenarios -seed "$SEED" -traces "$TRACES" -epochs "$EPOCHS" \
    -progress off -out "$tmp/cc-b.json"

digest_of() { sha256sum "$1" | cut -d' ' -f1; }
dig_a=$(digest_of "$tmp/cc-a.json")
dig_b=$(digest_of "$tmp/cc-b.json")
echo "    run A sha256:$dig_a"
echo "    run B sha256:$dig_b"
if [ "$dig_a" != "$dig_b" ]; then
    echo "FAIL: scenario campaign is not reproducible across runs" >&2
    exit 1
fi

echo "==> repro -only ext-cc"
"$tmp/repro" -only ext-cc -cc "$tmp/cc-a.json" >"$tmp/ext-cc.txt"
grep -q "== ext-cc:" "$tmp/ext-cc.txt" || {
    echo "FAIL: ext-cc experiment did not run" >&2
    cat "$tmp/ext-cc.txt" >&2
    exit 1
}

# Matrix rows look like:
#   bbr/randomdrop 1 10-MA-LSO 0.07 0.08 0.09 3.07
# fields: scenario traces best MA EWMA HW FB.
# On every BBR cell the Reno-formula FB predictor ($7) must lose to the
# history-based moving average ($4), and all 12 cells must be present.
cells=$(awk '$1 ~ /^(reno|cubic|bbr)\// { n++ } END { print n+0 }' "$tmp/ext-cc.txt")
if [ "$cells" -ne 12 ]; then
    echo "FAIL: expected 12 scenario cells in the matrix, found $cells" >&2
    cat "$tmp/ext-cc.txt" >&2
    exit 1
fi
bad=$(awk '$1 ~ /^bbr\// && ($7 == "-" || $4 == "-" || $7 + 0 <= $4 + 0) { print $1 }' "$tmp/ext-cc.txt")
if [ -n "$bad" ]; then
    echo "FAIL: FB did not degrade past the 10-MA control on BBR cells: $bad" >&2
    cat "$tmp/ext-cc.txt" >&2
    exit 1
fi

# Degradation rows look like:
#   droptail 0.33 0.27 1.22 0.83x 3.70x
# At least half the links must show FB's bbr/reno error ratio above 1.5x.
degraded=$(awk '$6 ~ /x$/ { r = substr($6, 1, length($6) - 1) + 0; if (r >= 1.5) n++ } END { print n+0 }' "$tmp/ext-cc.txt")
echo "    links with FB bbr/reno >= 1.5x: $degraded/4"
if [ "$degraded" -lt 2 ]; then
    echo "FAIL: FB's BBR degradation not visible (want >= 2 links at 1.5x)" >&2
    cat "$tmp/ext-cc.txt" >&2
    exit 1
fi

if [ -n "${SCEN_OUT:-}" ]; then
    mkdir -p "$SCEN_OUT"
    cp "$tmp/ext-cc.txt" "$SCEN_OUT/ext-cc.txt"
    gzip -c "$tmp/cc-a.json" >"$SCEN_OUT/cc-seed$SEED.json.gz"
    echo "    artifacts in $SCEN_OUT/"
fi

echo "OK: scenario matrix reproducible; FB degrades on BBR, history holds"
