package testbed

import "testing"

// TestEpochAllocCeiling pins the simulator's allocation budget absolutely:
// a one-path, one-epoch campaign (warm-up + pathload + ping + bulk transfer
// + window-limited transfer) under a fixed seed. With one closure per
// simulated event this figure was 288 582; with per-packet events carried
// in timer nodes it is 4 653, three quarters of that SACK snapshots on
// duplicate ACKs. The ceiling is about twice the measured figure: wide
// enough for Go runtime drift, far too tight for a per-packet or per-event
// allocation to come back unnoticed.
func TestEpochAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several epochs; skipped in -short mode")
	}
	cfg := TinyConfig(42)
	cfg.Catalog.NumPaths, cfg.Catalog.NumDSL, cfg.Catalog.NumTrans = 1, 0, 0
	cfg.EpochsPerTrace = 1
	const ceiling = 9000
	got := testing.AllocsPerRun(3, func() {
		if ds := collect(t, cfg); ds.Epochs() != 1 {
			t.Fatal("epoch did not run")
		}
	})
	t.Logf("%.0f allocs per one-epoch campaign (ceiling %d)", got, ceiling)
	if got > ceiling {
		t.Errorf("one epoch allocated %.0f objects, ceiling %d", got, ceiling)
	}
}
