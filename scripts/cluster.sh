#!/bin/sh
# cluster.sh — cluster robustness acceptance gates against the real
# binaries (predserverd, predload, predctl). Three gates, one invariant:
# deployment shape and membership churn must never change a predict
# response byte or lose a path.
#
#   1. scale-out: a 4-node cluster (two nodes squeezed to -capacity 4
#      with spill dirs, two default) replaying via `predload -cluster
#      -batch` reproduces the single-node digest, holds disjoint path
#      sets covering the series, and serves balanced per-node QPS.
#
#   2. rolling restart: every node of a 4-node cluster is SIGTERMed and
#      restarted (snapshot restore) while a paced load runs. The drain
#      sequence (/readyz 503 → in-flight finish → final snapshot) plus
#      the client's connection-refused retry loop must ride it out: zero
#      request errors, at least one failover ridden out, digest equal to
#      the single-node run.
#
#   3. resize 2→3 mid-load: phase 1 of the series replays against two
#      nodes, `predctl rebalance` moves ownership onto a third, phase 2
#      replays against all three. Both phase digests must equal a
#      single-node run split at the same epoch, and the three nodes must
#      hold all paths exactly once — zero lost, zero duplicated.
#
# A handoff killed mid-transfer and its retried convergence are tested
# in-process (TestRebalanceRetriesExportKill and ...ImportFault in
# internal/predsvc): the daemon has no flag that injects faults.
set -eu

cd "$(dirname "$0")/.."

P0="${CLUSTER_PORT:-18455}"     # single-node reference
P1=$((P0 + 1)); P2=$((P0 + 2)); P3=$((P0 + 3)); P4=$((P0 + 4))   # gates 1-2
P5=$((P0 + 5)); P6=$((P0 + 6)); P7=$((P0 + 7))                   # gate 3
SEED=7
PATHS=40
EPOCHS=40
BOUNDARY=20

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do
        if kill -0 "$p" 2>/dev/null; then
            kill "$p" 2>/dev/null || true
            wait "$p" 2>/dev/null || true
        fi
    done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

echo "==> building binaries"
go build -o "$tmp/predserverd" ./cmd/predserverd
go build -o "$tmp/predload" ./cmd/predload
go build -o "$tmp/predctl" ./cmd/predctl

# wait_ready polls /readyz — the routing-readiness signal, which also
# covers snapshot restore (a restoring daemon answers 503).
wait_ready() {
    i=0
    while [ $i -lt 100 ]; do
        if curl -fsS "http://$1/readyz" >/dev/null 2>&1; then
            return 0
        fi
        i=$((i + 1))
        sleep 0.1
    done
    echo "daemon on $1 never became ready" >&2
    return 1
}

# stop_node <pid> <log> — SIGTERM and require the clean-shutdown marker.
stop_node() {
    kill -TERM "$1"
    wait "$1" || { echo "daemon did not exit cleanly" >&2; cat "$2" >&2; exit 1; }
    grep -q "shut down cleanly" "$2" || {
        echo "daemon missing clean-shutdown marker" >&2
        cat "$2" >&2
        exit 1
    }
}

digest_of() { grep -o 'digest sha256:[0-9a-f]*' "$1" | head -n1; }
paths_of() { curl -fsS "http://$1/v1/stats?limit=0" | grep -o '"paths":[0-9]*' | head -n1 | cut -d: -f2; }

# --------------------------------------------------------------------
echo "==> reference runs (1 node): full series, then the same series split at epoch $BOUNDARY"
"$tmp/predserverd" -addr "127.0.0.1:$P0" >"$tmp/single.log" 2>&1 &
single_pid=$!
pids="$single_pid"
wait_ready "127.0.0.1:$P0"
"$tmp/predload" -addr "127.0.0.1:$P0" -seed "$SEED" -paths "$PATHS" -epochs "$EPOCHS" \
    >"$tmp/single.out" 2>&1
stop_node "$single_pid" "$tmp/single.log"
pids=""

# The digest chain restarts per run, so the resize gate (two phases, two
# runs) is compared against a single node replaying the same two phases.
# SyntheticSeries is prefix-stable: -epochs $BOUNDARY is byte-identical
# to the first $BOUNDARY epochs of the full series.
"$tmp/predserverd" -addr "127.0.0.1:$P0" >"$tmp/single2.log" 2>&1 &
single_pid=$!
pids="$single_pid"
wait_ready "127.0.0.1:$P0"
"$tmp/predload" -addr "127.0.0.1:$P0" -seed "$SEED" -paths "$PATHS" -epochs "$BOUNDARY" \
    >"$tmp/ref-p1.out" 2>&1
"$tmp/predload" -addr "127.0.0.1:$P0" -seed "$SEED" -paths "$PATHS" -epochs "$EPOCHS" \
    -start-epoch "$BOUNDARY" >"$tmp/ref-p2.out" 2>&1
stop_node "$single_pid" "$tmp/single2.log"
pids=""

single_digest=$(digest_of "$tmp/single.out")
ref_p1=$(digest_of "$tmp/ref-p1.out")
ref_p2=$(digest_of "$tmp/ref-p2.out")
[ -n "$single_digest" ] || { echo "no digest in reference output" >&2; cat "$tmp/single.out" >&2; exit 1; }
[ -n "$ref_p1" ] && [ -n "$ref_p2" ] || { echo "no digest in phase-split reference" >&2; exit 1; }

# --------------------------------------------------------------------
echo "==> gate 1: 4-node cluster (2 spill-backed + 2 default) reproduces the digest"
"$tmp/predserverd" -addr "127.0.0.1:$P1" -shards 1 -capacity 4 -spill-dir "$tmp/spill-a" >"$tmp/node-a.log" 2>&1 &
a_pid=$!
"$tmp/predserverd" -addr "127.0.0.1:$P2" -shards 1 -capacity 4 -spill-dir "$tmp/spill-b" >"$tmp/node-b.log" 2>&1 &
b_pid=$!
"$tmp/predserverd" -addr "127.0.0.1:$P3" >"$tmp/node-c.log" 2>&1 &
c_pid=$!
"$tmp/predserverd" -addr "127.0.0.1:$P4" >"$tmp/node-d.log" 2>&1 &
d_pid=$!
pids="$a_pid $b_pid $c_pid $d_pid"
for port in $P1 $P2 $P3 $P4; do wait_ready "127.0.0.1:$port"; done

"$tmp/predload" -cluster "127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$P3,127.0.0.1:$P4" -batch \
    -seed "$SEED" -paths "$PATHS" -epochs "$EPOCHS" >"$tmp/cluster4.out" 2>&1

# Disjoint coverage across all four nodes, read while they serve.
total=0
for port in $P1 $P2 $P3 $P4; do
    n=$(paths_of "127.0.0.1:$port")
    echo "    node :$port holds ${n:-0} paths"
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "FAIL: a cluster node received no paths — routing is degenerate" >&2
        exit 1
    fi
    total=$((total + n))
done
if [ "$total" -ne "$PATHS" ]; then
    echo "FAIL: nodes hold $total paths together, series has $PATHS — ownership overlaps or leaks" >&2
    exit 1
fi

# Per-node QPS is a checked number: every node must have completed a
# non-trivial share of the load (floor 100 requests of the several
# thousand replayed — a catastrophic-imbalance guard, not a balance
# micro-assert).
for port in $P1 $P2 $P3 $P4; do
    line=$(grep "node http://127.0.0.1:$port:" "$tmp/cluster4.out" || true)
    if [ -z "$line" ]; then
        echo "FAIL: no per-node QPS line for :$port in the load report" >&2
        cat "$tmp/cluster4.out" >&2
        exit 1
    fi
    reqs=$(echo "$line" | grep -o '[0-9]* requests' | cut -d' ' -f1)
    qps=$(echo "$line" | grep -o '[0-9]* req/s' | cut -d' ' -f1)
    echo "    node :$port served $reqs requests at $qps req/s"
    if [ "${reqs:-0}" -lt 100 ] || [ "${qps:-0}" -lt 1 ]; then
        echo "FAIL: node :$port served only ${reqs:-0} requests (${qps:-0} req/s)" >&2
        exit 1
    fi
done

# The capacity squeeze really spilled on the two squeezed nodes.
for port in $P1 $P2; do
    cold=$(curl -fsS "http://127.0.0.1:$port/v1/stats?limit=0" | grep -o '"cold_paths":[0-9]*' | cut -d: -f2)
    if [ "${cold:-0}" -eq 0 ]; then
        echo "FAIL: expected node :$port to spill past -capacity 4" >&2
        exit 1
    fi
done

cluster_digest=$(digest_of "$tmp/cluster4.out")
echo "    1-node  $single_digest"
echo "    4-node  $cluster_digest"
if [ "$single_digest" != "$cluster_digest" ]; then
    echo "FAIL: 4-node run changed the predict digest" >&2
    cat "$tmp/cluster4.out" >&2
    exit 1
fi
grep -q 'coverage' "$tmp/cluster4.out" || {
    echo "FAIL: no interval-coverage report — quantiles missing from predict responses" >&2
    exit 1
}

stop_node "$a_pid" "$tmp/node-a.log"
stop_node "$b_pid" "$tmp/node-b.log"
stop_node "$c_pid" "$tmp/node-c.log"
stop_node "$d_pid" "$tmp/node-d.log"
pids=""

# --------------------------------------------------------------------
echo "==> gate 2: rolling restart of all 4 nodes under paced load"
# Snapshots carry state across the restarts; -drain-delay holds /readyz
# at 503 briefly before the listener closes so probing clients re-route.
for i in 1 2 3 4; do
    eval "port=\$P$i"
    "$tmp/predserverd" -addr "127.0.0.1:$port" -snapshot "$tmp/snap-$i.json" \
        -drain-delay 200ms >"$tmp/roll-$i.log" 2>&1 &
    eval "roll_$i=$!"
    pids="$pids $!"
done
for port in $P1 $P2 $P3 $P4; do wait_ready "127.0.0.1:$port"; done

"$tmp/predload" -cluster "127.0.0.1:$P1,127.0.0.1:$P2,127.0.0.1:$P3,127.0.0.1:$P4" \
    -seed "$SEED" -paths "$PATHS" -epochs "$EPOCHS" -pace 150ms \
    >"$tmp/rolling.out" 2>&1 &
load_pid=$!

sleep 1
for i in 1 2 3 4; do
    eval "port=\$P$i"
    eval "pid=\$roll_$i"
    stop_node "$pid" "$tmp/roll-$i.log"
    mv "$tmp/roll-$i.log" "$tmp/roll-$i.first.log"
    # Stay down for two pace intervals, so at least one paced round is
    # routed to the stopped node and the failover check has a premise: a
    # restore is fast enough that an immediate restart can fall entirely
    # between two rounds.
    sleep 0.3
    "$tmp/predserverd" -addr "127.0.0.1:$port" -snapshot "$tmp/snap-$i.json" \
        -drain-delay 200ms >"$tmp/roll-$i.log" 2>&1 &
    eval "roll_$i=$!"
    pids="$pids $!"
    wait_ready "127.0.0.1:$port"
    echo "    node :$port restarted (snapshot restored)"
done

wait "$load_pid" || {
    echo "FAIL: paced load failed across the rolling restart" >&2
    cat "$tmp/rolling.out" >&2
    exit 1
}
rolling_digest=$(digest_of "$tmp/rolling.out")
failovers=$(grep -o '[0-9]* failovers' "$tmp/rolling.out" | cut -d' ' -f1)
echo "    rolling $rolling_digest (failovers ridden out: ${failovers:-0})"
if [ "$rolling_digest" != "$single_digest" ]; then
    echo "FAIL: rolling restart changed the predict digest" >&2
    cat "$tmp/rolling.out" >&2
    exit 1
fi
if [ "${failovers:-0}" -lt 1 ]; then
    echo "FAIL: no failovers recorded — the restarts never intersected the load, gate proves nothing" >&2
    cat "$tmp/rolling.out" >&2
    exit 1
fi
for i in 1 2 3 4; do
    eval "pid=\$roll_$i"
    stop_node "$pid" "$tmp/roll-$i.log"
done
pids=""

# --------------------------------------------------------------------
echo "==> gate 3: resize 2 -> 3 mid-load"
"$tmp/predserverd" -addr "127.0.0.1:$P5" >"$tmp/rs-a.log" 2>&1 &
ra_pid=$!
"$tmp/predserverd" -addr "127.0.0.1:$P6" >"$tmp/rs-b.log" 2>&1 &
rb_pid=$!
pids="$ra_pid $rb_pid"
wait_ready "127.0.0.1:$P5"
wait_ready "127.0.0.1:$P6"

"$tmp/predload" -cluster "127.0.0.1:$P5,127.0.0.1:$P6" \
    -seed "$SEED" -paths "$PATHS" -epochs "$BOUNDARY" >"$tmp/resize-p1.out" 2>&1
p1_digest=$(digest_of "$tmp/resize-p1.out")
echo "    phase-1 ref    $ref_p1"
echo "    phase-1 2-node $p1_digest"
if [ "$p1_digest" != "$ref_p1" ]; then
    echo "FAIL: phase-1 digest diverged before the resize" >&2
    exit 1
fi

"$tmp/predserverd" -addr "127.0.0.1:$P7" >"$tmp/rs-c.log" 2>&1 &
rc_pid=$!
pids="$pids $rc_pid"
wait_ready "127.0.0.1:$P7"

"$tmp/predctl" rebalance \
    -from "127.0.0.1:$P5,127.0.0.1:$P6" \
    -to "127.0.0.1:$P5,127.0.0.1:$P6,127.0.0.1:$P7" >"$tmp/rebalance.out" 2>&1 || {
    echo "FAIL: predctl rebalance failed" >&2
    cat "$tmp/rebalance.out" >&2
    exit 1
}
sed 's/^/    /' "$tmp/rebalance.out" | tail -n 3

# Zero lost paths: the three nodes hold the series exactly once, and the
# joiner actually owns some of it.
total=0
for port in $P5 $P6 $P7; do
    n=$(paths_of "127.0.0.1:$port")
    echo "    node :$port holds ${n:-0} paths"
    total=$((total + ${n:-0}))
done
if [ "$total" -ne "$PATHS" ]; then
    echo "FAIL: $total paths across the resized cluster, series has $PATHS — the handoff lost or duplicated state" >&2
    exit 1
fi
joiner=$(paths_of "127.0.0.1:$P7")
if [ "${joiner:-0}" -eq 0 ]; then
    echo "FAIL: the joining node owns nothing after the rebalance" >&2
    exit 1
fi

"$tmp/predload" -cluster "127.0.0.1:$P5,127.0.0.1:$P6,127.0.0.1:$P7" \
    -seed "$SEED" -paths "$PATHS" -epochs "$EPOCHS" -start-epoch "$BOUNDARY" \
    >"$tmp/resize-p2.out" 2>&1
p2_digest=$(digest_of "$tmp/resize-p2.out")
echo "    phase-2 ref    $ref_p2"
echo "    phase-2 3-node $p2_digest"
if [ "$p2_digest" != "$ref_p2" ]; then
    echo "FAIL: phase-2 digest diverged after the resize" >&2
    exit 1
fi

stop_node "$ra_pid" "$tmp/rs-a.log"
stop_node "$rb_pid" "$tmp/rs-b.log"
stop_node "$rc_pid" "$tmp/rs-c.log"
pids=""

echo "OK: 4-node digest equality, rolling restart ridden out, resize 2->3 converged"
