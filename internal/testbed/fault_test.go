package testbed

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/sim"
)

// setEpochHook installs a pre-epoch test hook and restores the previous
// one on cleanup. Collect runs traces concurrently, so hooks must be
// goroutine-safe.
func setEpochHook(t *testing.T, hook func(job campaign.Job, epoch int)) {
	t.Helper()
	prev := testHookPreEpoch
	testHookPreEpoch = hook
	t.Cleanup(func() { testHookPreEpoch = prev })
}

// TestPanicFailsOnlyThatTrace injects a panic into one trace's engine and
// checks the rest of the campaign survives with the fault reported as a
// per-trace error carrying path/trace/seed, and that the faulted trace
// ran exactly once: a trace is a pure function of its seed, so a rerun
// would only fail again at the same spot.
func TestPanicFailsOnlyThatTrace(t *testing.T) {
	cfg := TinyConfig(11)
	paths := Catalog(cfg.Defaults().Catalog)
	victim := paths[1].Name

	var mu sync.Mutex
	victimStarts := 0
	setEpochHook(t, func(job campaign.Job, epoch int) {
		if job.Path != victim {
			return
		}
		if epoch == 0 {
			mu.Lock()
			victimStarts++
			mu.Unlock()
		}
		if epoch == 2 {
			panic("injected engine fault")
		}
	})

	ds, err := CollectContext(context.Background(), cfg)
	if err == nil {
		t.Fatal("faulted campaign reported no error")
	}
	var je *campaign.JobError
	if !errors.As(err, &je) {
		t.Fatalf("error %T does not wrap *campaign.JobError: %v", err, err)
	}
	if je.Job.Path != victim || je.Job.Seed == 0 {
		t.Errorf("JobError identity = %s seed %d, want path %s with a derived seed", je.Job, je.Job.Seed, victim)
	}
	var pe *campaign.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not wrap *campaign.PanicError: %v", err)
	}
	if msg := pe.Error(); !strings.Contains(msg, "panic at fault_test.go:") {
		t.Errorf("PanicError %q does not name the panicking line", msg)
	}
	if victimStarts != 1 {
		t.Errorf("faulted trace started %d times, want exactly 1", victimStarts)
	}
	if len(ds.Traces) != len(paths)-1 {
		t.Fatalf("dataset has %d traces, want %d (all but the faulted one)", len(ds.Traces), len(paths)-1)
	}
	for _, tr := range ds.Traces {
		if tr.Path == victim {
			t.Errorf("faulted trace %s present in dataset", victim)
		}
		if len(tr.Records) != cfg.EpochsPerTrace {
			t.Errorf("surviving trace %s has %d records, want %d", tr.Path, len(tr.Records), cfg.EpochsPerTrace)
		}
	}
}

// TestCancelMidTraceReturnsPartialDataset cancels the campaign from an
// epoch callback: in-flight traces abort at the next epoch boundary and
// only traces completed before the cancellation survive.
func TestCancelMidTraceReturnsPartialDataset(t *testing.T) {
	cfg := TinyConfig(17)
	cfg.Parallelism = 1 // deterministic: exactly one trace completes

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	traces := 0
	setEpochHook(t, func(job campaign.Job, epoch int) {
		// Cancel partway through the second trace.
		if job.Index == 1 && epoch == 2 {
			cancel()
		}
		if epoch == 0 {
			traces++
		}
	})

	ds, err := CollectContext(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ds.Traces) != 1 {
		t.Fatalf("partial dataset has %d traces, want exactly the 1 completed before cancel", len(ds.Traces))
	}
	if got := len(ds.Traces[0].Records); got != cfg.EpochsPerTrace {
		t.Errorf("surviving trace truncated: %d records", got)
	}
	if traces > 2 {
		t.Errorf("%d traces started after cancellation, want dispatch to stop", traces)
	}
}

// TestSeedDerivation pins the satellite fix: seed 0 must not degenerate,
// and catalog/trace seed streams must never collide.
func TestSeedDerivation(t *testing.T) {
	zero := RunConfig{}.Defaults()
	if zero.Catalog.Seed == 7777 || zero.Catalog.Seed == 0 {
		t.Errorf("seed-0 catalog seed = %d; still the degenerate constant", zero.Catalog.Seed)
	}
	one := RunConfig{Seed: 1}.Defaults()
	if zero.Catalog.Seed == one.Catalog.Seed {
		t.Error("seed 0 and seed 1 derive the same catalog seed")
	}

	// All trace seeds and the catalog seed must be pairwise distinct, at
	// paper scale and beyond.
	for _, base := range []int64{0, 1, 42} {
		cfg := RunConfig{Seed: base}.Defaults()
		seen := map[int64]string{cfg.Catalog.Seed: "catalog"}
		for p := 0; p < 40; p++ {
			for tr := 0; tr < 10; tr++ {
				s := sim.DeriveSeed(cfg.Seed, traceSeedStream(p, tr))
				if prev, dup := seen[s]; dup {
					t.Fatalf("base %d: trace (%d,%d) seed %d collides with %s", base, p, tr, s, prev)
				}
				seen[s] = "another trace"
			}
		}
	}
}

// TestCollectDeterministicAcrossSeedZero: seed 0 campaigns are now
// first-class — reproducible and distinct from seed 1.
func TestCollectSeedZero(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short mode")
	}
	cfg := TinyConfig(0)
	cfg.Catalog.Seed = 0 // let defaults derive it from Seed == 0
	a := collect(t, cfg)
	b := collect(t, cfg)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Error("seed-0 campaigns are not reproducible")
	}
	cfg1 := TinyConfig(1)
	cfg1.Catalog.Seed = 0
	c := collect(t, cfg1)
	cj, _ := json.Marshal(c)
	if string(aj) == string(cj) {
		t.Error("seed 0 and seed 1 produced identical datasets")
	}
}
