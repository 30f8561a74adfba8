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
# Exported fields of struct type $2 in file $1: "A, B int" counts twice.
fields() {
    awk -v t="$2" '
        $0 ~ "^type " t " struct" { in_cfg = 1; next }
        in_cfg && /^}/            { exit }
        in_cfg && /^\t[A-Z]/     { n += gsub(/,/, ",") + 1 }
        END                       { print n + 0 }' "$1"
}
# Exported fields of every struct type under internal/, the values a
# program can set: "A, B int" counts twice; embedded fields and fields with
# a json tag (set by the decoders) are not counted.
settable_fields() {
    find internal -name '*.go' -not -name '*_test.go' -exec awk '
        /^type [A-Za-z0-9_]+(\[[^]]*\])? struct \{$/ { in_st = 1; next }
        in_st && /^}/                                 { in_st = 0; next }
        in_st && !/json:"/ && /^\t[A-Z][A-Za-z0-9_]*(, *[A-Za-z0-9_]+)* +[^ \/]/ {
            match($0, /^\t[A-Z][A-Za-z0-9_]*(, *[A-Za-z0-9_]+)*/)
            names = substr($0, RSTART, RLENGTH); n += gsub(/,/, ",", names) + 1
        }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}
# Exported top-level identifiers (funcs, methods, types, consts, vars) in
# a package's non-test files; struct fields are not counted.
exported() {
    find "$1" -maxdepth 1 -name '*.go' -not -name '*_test.go' -exec cat {} + | awk '
        /^(const|var) \(/          { blk = 1; next }
        blk && /^\)/               { blk = 0; next }
        blk && /^\t[A-Z]/          { n++; next }
        /^func (\([^)]*\) )?[A-Z]/ { n++; next }
        /^(type|const|var) [A-Z]/  { n++ }
        END                        { print n + 0 }'
}

echo "non-test Go LOC (outside bench/): $(loc -not -name '*_test.go')"
echo "test Go LOC (outside bench/):     $(loc -name '*_test.go')"
echo "predserverd flags:                $(flags cmd/predserverd/main.go)"
echo "ronsim flags:                     $(flags cmd/ronsim/main.go)"
echo "repro flags:                      $(flags cmd/repro/main.go)"
echo "predload flags:                   $(flags cmd/predload/main.go)"
# Everything a predsvc.Config literal can set. The predictor zoo has no
# settings: every path runs the paper's configuration.
echo "predsvc.Config settable values:   $(fields internal/predsvc/config.go Config)"
# go test ./internal/treecheck fails on an exported struct field no program
# sets outside its type's defaults: it is a constant, or unexported.
echo "exported settable fields, internal/: $(settable_fields)"
# The public facade (tcppred.go at the root) carries what examples/, cmd/
# and the root tests name, and the types its functions return.
echo "exported identifiers, tcppred (facade): $(exported .)"
echo "exported identifiers, predict:    $(exported internal/predict)"
echo "exported identifiers, predsvc:    $(exported internal/predsvc)"
# Entries in the treecheck allowlist's export section ($1 = exports) or in
# its [fields] section ($1 = fields).
allowlisted() {
    awk -v want="$1" '
        /^\[fields\]$/         { f = 1; next }
        /^#/ || NF == 0          { next }
        (f == 1) == (want == "fields") { n++ }
        END                      { print n + 0 }' internal/treecheck/testdata/allowlist.txt
}
# Every exported identifier under internal/, and the allowlist of those
# only tests name (test oracles and seams), which may only shrink:
# go test ./internal/treecheck fails on any other export no program names.
total=0
for d in $(find internal -name '*.go' -not -name '*_test.go' -exec dirname {} + | sort -u); do
    total=$((total + $(exported "$d")))
done
echo "exported identifiers, internal/:  $total"
echo "treecheck allowlist entries:      $(allowlisted exports)"
# Struct fields only tests read; go test ./internal/treecheck fails on any
# other field no program reads, so an unread counter shows up here.
echo "treecheck allowlisted fields:     $(allowlisted fields)"
# The daemon should link the service and what it serves with, not the
# simulator behind the load generator and the experiments.
echo "repro packages linked by predserverd: $(go list -deps ./cmd/predserverd | grep -c '^repro/')"
