package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestOwnerDeterministic: two independently built maps over the same nodes
// must agree on every path — the property that lets every client route
// without coordination.
func TestOwnerDeterministic(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	m1 := New(nodes...)
	m2 := New(nodes...)
	for i := 0; i < 1000; i++ {
		p := fmt.Sprintf("path-%d", i)
		if m1.Owner(p) != m2.Owner(p) {
			t.Fatalf("maps disagree on %s: %d vs %d", p, m1.Owner(p), m2.Owner(p))
		}
	}
	if got := m1.Node("path-0"); got != nodes[m1.Owner("path-0")] {
		t.Fatalf("Node/Owner inconsistent: %q", got)
	}
}

// TestBalance: rendezvous hashing must spread paths roughly evenly — each
// of 4 nodes owns within [15%, 35%] of 20k paths (fair share 25%).
func TestBalance(t *testing.T) {
	m := New("n0", "n1", "n2", "n3")
	counts := make([]int, 4)
	const paths = 20_000
	for i := 0; i < paths; i++ {
		counts[m.Owner(fmt.Sprintf("path-%d", i))]++
	}
	for n, c := range counts {
		frac := float64(c) / paths
		if frac < 0.15 || frac > 0.35 {
			t.Fatalf("node %d owns %.1f%% of paths (counts %v)", n, 100*frac, counts)
		}
	}
}

// TestMinimalDisruption: removing a node must only remap the paths it
// owned; every other path keeps its owner. This is the property that makes
// rendezvous hashing cluster-resize friendly.
func TestMinimalDisruption(t *testing.T) {
	full := New("n0", "n1", "n2")
	reduced := New("n0", "n1")
	moved := 0
	const paths = 5000
	for i := 0; i < paths; i++ {
		p := fmt.Sprintf("path-%d", i)
		before := full.Node(p)
		after := reduced.Node(p)
		if before == "n2" {
			moved++
			continue // had to move somewhere
		}
		if before != after {
			t.Fatalf("%s moved %s → %s though its owner survived", p, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("no paths were owned by the removed node — balance test should have caught this")
	}
}

// TestChurnOnlyReassignedPathsMove is the property test behind cluster
// resizes: across a random sequence of joins and leaves, a path changes
// owner only when the change forces it — its owner left, or it is
// claimed by the node that just joined. Any other movement would mean a
// resize shuffles state that never needed to move, and the handoff
// protocol would ship (and clients would re-route) far more than the
// minimal set.
func TestChurnOnlyReassignedPathsMove(t *testing.T) {
	const (
		paths  = 2000
		steps  = 60
		trials = 3
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		// Start from a mid-sized membership so both joins and leaves are
		// immediately possible.
		live := map[string]bool{"n0": true, "n1": true, "n2": true}
		next := 3
		nodesOf := func() []string {
			out := make([]string, 0, len(live))
			for n := range live {
				out = append(out, n)
			}
			return out
		}
		owner := make(map[string]string, paths)
		m := New(nodesOf()...)
		for i := 0; i < paths; i++ {
			p := fmt.Sprintf("path-%d", i)
			owner[p] = m.Node(p)
		}
		for step := 0; step < steps; step++ {
			join := len(live) == 1 || (len(live) < 8 && rng.Intn(2) == 0)
			var changed string
			if join {
				changed = fmt.Sprintf("n%d", next)
				next++
				live[changed] = true
			} else {
				names := nodesOf()
				changed = names[rng.Intn(len(names))]
				delete(live, changed)
			}
			m = New(nodesOf()...)
			moved := 0
			for i := 0; i < paths; i++ {
				p := fmt.Sprintf("path-%d", i)
				was, now := owner[p], m.Node(p)
				if was != now {
					moved++
					switch {
					case join && now != changed:
						t.Fatalf("trial %d step %d (join %s): %s moved %s → %s, but only the joining node may claim paths",
							trial, step, changed, p, was, now)
					case !join && was != changed:
						t.Fatalf("trial %d step %d (leave %s): %s moved %s → %s though its owner survived",
							trial, step, changed, p, was, now)
					}
					owner[p] = now
				} else if !join && was == changed {
					t.Fatalf("trial %d step %d: %s still owned by departed node %s", trial, step, p, changed)
				}
			}
			// A membership change with zero movement means the new/old node
			// owned nothing — statistically impossible at 2000 paths unless
			// the hash is degenerate.
			if moved == 0 {
				t.Fatalf("trial %d step %d (%s, join=%v): no paths moved across a membership change",
					trial, step, changed, join)
			}
			// And movement must stay near the fair share: a join to N nodes
			// should claim ~paths/N, never the majority of all paths.
			if moved > paths/2 && len(live) > 2 {
				t.Fatalf("trial %d step %d: %d/%d paths moved — far beyond the reassigned set",
					trial, step, moved, paths)
			}
		}
	}
}

func TestEmptyAndSingle(t *testing.T) {
	empty := New()
	if got := empty.Owner("x"); got != -1 {
		t.Fatalf("empty map Owner = %d, want -1", got)
	}
	if got := empty.Node("x"); got != "" {
		t.Fatalf("empty map Node = %q, want empty", got)
	}
	if len(empty.nodes) != 0 {
		t.Fatalf("empty map has %d nodes", len(empty.nodes))
	}
	one := New("solo")
	for _, p := range []string{"a", "b", "c"} {
		if got := one.Node(p); got != "solo" {
			t.Fatalf("single-node map routed %s to %q", p, got)
		}
	}
	if got := one.nodes; len(got) != 1 || got[0] != "solo" {
		t.Fatalf("Nodes = %v", got)
	}
}
