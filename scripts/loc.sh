#!/bin/sh
# loc.sh — the size ledger: how much code and how many knobs the repo
# carries. Printed at the end of check.sh so a PR that claims to simplify
# has a before/after number (ROADMAP item 2: "one mechanism per job").
# bench/ is the benchmark harness, a separate module, and is not counted.
set -eu

cd "$(dirname "$0")/.."

# Lines in the Go files find selects (0 when there are none).
loc() { find . -name '*.go' -not -path './bench/*' "$@" -exec cat {} + | wc -l | tr -d ' '; }
# Flag definitions (flag.String, flag.Int, ... — not flag.Parse) in a command.
flags() { grep -cE 'flag\.(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration)\(' "$1"; }

echo "non-test Go LOC (outside bench/): $(loc -not -name '*_test.go')"
echo "test Go LOC (outside bench/):     $(loc -name '*_test.go')"
echo "predserverd flags:                $(flags cmd/predserverd/main.go)"
echo "ronsim flags:                     $(flags cmd/ronsim/main.go)"
# Exported fields of predsvc.Config: "HWAlpha, HWBeta float64" counts twice.
echo "predsvc.Config fields:            $(awk '
    /^type Config struct/ { in_cfg = 1; next }
    in_cfg && /^}/        { exit }
    in_cfg && /^\t[A-Z]/  { n += gsub(/,/, ",") + 1 }
    END                   { print n }' internal/predsvc/config.go)"
