package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden event traces")

// goldenScript drives an engine through a deterministic, API-only
// interleaving of Schedule/At/Cancel/Step/RunUntil — including same-instant
// bursts, cancel-heavy churn (the RTO re-arm pattern that triggers
// maybeCompact), and events that schedule and cancel other events from
// inside their callbacks. Every fired event appends one trace line, so the
// full processed-event sequence (identity, order, and firing time) is
// observable. The script touches only the public engine API and draws all
// randomness from its own seeded RNG, so the trace it produces is a pure
// function of the engine's event-ordering semantics: any reimplementation
// of the engine must reproduce it byte for byte.
//
// With mixed set, odd-numbered events go through ScheduleArg (handler +
// boxed argument) and even ones through Schedule. The two forms share the
// (at, seq) order, so the mixed run must reproduce the same golden files.
func goldenScript(seed int64, eng *Engine, mixed bool) []string {
	rng := NewRNG(seed)
	var trace []string
	record := func(id int) {
		trace = append(trace, fmt.Sprintf("%d %.17g", id, eng.Now()))
	}

	type handle struct {
		id int
		tm Timer
	}
	var live []handle
	nextID := 0
	schedule := func(delay float64) {
		id := nextID
		nextID++
		body := func() {
			record(id)
			// A slice of events re-schedules follow-ups and assassinates a
			// pseudo-random victim, exercising in-callback mutation.
			if id%7 == 0 {
				cid := nextID
				nextID++
				eng.Schedule(0.25, func() { record(cid) })
			}
			if id%11 == 0 && len(live) > 0 {
				live[id%len(live)].tm.Cancel()
			}
		}
		var tm Timer
		if mixed && id%2 == 1 {
			tm = eng.ScheduleArg(delay, func(a any) { a.(func())() }, body)
		} else {
			tm = eng.Schedule(delay, body)
		}
		live = append(live, handle{id, tm})
	}

	for round := 0; round < 3000; round++ {
		switch op := rng.Intn(20); {
		case op < 8:
			schedule(rng.Uniform(0, 3))
		case op < 10:
			// Same-instant burst: FIFO order among equals must hold.
			for i := 0; i < 3; i++ {
				schedule(1.0)
			}
		case op < 14:
			// RTO re-arm churn: schedule far in the future, cancel at once.
			schedule(50 + rng.Uniform(0, 10))
			live[len(live)-1].tm.Cancel()
			live = live[:len(live)-1]
		case op < 16:
			if len(live) > 0 {
				k := rng.Intn(len(live))
				live[k].tm.Cancel()
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case op < 18:
			eng.Step()
		default:
			eng.RunUntil(eng.Now() + rng.Uniform(0, 0.4))
		}
	}
	eng.Run()
	return trace
}

// TestGoldenEventTrace replays the deterministic script and compares the
// processed-event sequence with the trace recorded from the pre-rewrite
// container/heap engine (testdata/golden_trace_seed*.txt). It proves the
// 4-ary heap + free-list engine preserves event ordering bit for bit, and
// (the mixed subtests) that arg-form and plain timers interleave in
// scheduling order.
// Regenerate with `go test ./internal/sim -run Golden -update` — but only
// when intentionally changing ordering semantics, which breaks every
// recorded campaign.
func TestGoldenEventTrace(t *testing.T) {
	for _, seed := range []int64{1, 42, 9001} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { checkGolden(t, seed, false) })
		t.Run(fmt.Sprintf("seed%d-mixed", seed), func(t *testing.T) { checkGolden(t, seed, true) })
	}
}

func checkGolden(t *testing.T, seed int64, mixed bool) {
	got := strings.Join(goldenScript(seed, NewEngine(), mixed), "\n") + "\n"
	path := filepath.Join("testdata", fmt.Sprintf("golden_trace_seed%d.txt", seed))
	if *updateGolden && !mixed {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d events)", path, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if gl[i] != wl[i] {
				t.Fatalf("event trace diverges at line %d: got %q, want %q (got %d lines, want %d)",
					i+1, gl[i], wl[i], len(gl), len(wl))
			}
		}
		t.Fatalf("event trace length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
