package testbed

import (
	"testing"

	"repro/internal/availbw"
)

// TinyConfig returns a minimal campaign for tests: 3 paths, 1 trace each,
// 6 epochs, short phases.
func TinyConfig(seed int64) RunConfig {
	return RunConfig{
		Seed: seed,
		Catalog: CatalogConfig{
			Seed:      seed + 7777,
			NumPaths:  3,
			NumDSL:    1,
			NumTrans:  1,
			NumKorea:  0,
			MinCapBps: 3e6,
			MaxCapBps: 10e6,
		},
		TracesPerPath:    1,
		EpochsPerTrace:   6,
		PingDuration:     15,
		TransferSec:      10,
		EpochGap:         4,
		SmallWindowBytes: 20 * 1024,
		SmallTransferSec: 6,
		Pathload: availbw.Config{
			StreamLength:   60,
			StreamsPerRate: 1,
			MaxIterations:  8,
		},
	}
}

func TestCollectSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign; skipped in -short mode")
	}
	ds := collect(t, TinyConfig(42))
	if got := len(ds.Traces); got != 3 {
		t.Fatalf("traces = %d, want 3", got)
	}
	for _, tr := range ds.Traces {
		if len(tr.Records) != 6 {
			t.Fatalf("trace %s has %d records, want 6", tr.Path, len(tr.Records))
		}
		for _, r := range tr.Records {
			t.Logf("%s ep%d: Â=%.2fMbps (true %.2f) T̂=%.1fms p̂=%.4f | R=%.2fMbps T=%.1fms p=%.4f | T̃=%.1fms p̃=%.4f | small=%.2fMbps",
				r.Path, r.Epoch, r.AvailBw/1e6, r.AvailBwTrue/1e6, r.PreRTT*1e3, r.PreLoss,
				r.Throughput/1e6, r.FlowRTT*1e3, r.FlowLoss, r.DurRTT*1e3, r.DurLoss, r.SmallThroughput/1e6)
			if r.Throughput <= 0 {
				t.Errorf("%s ep%d: zero throughput", r.Path, r.Epoch)
			}
			if r.PreRTT <= 0 {
				t.Errorf("%s ep%d: no pre-flow RTT", r.Path, r.Epoch)
			}
		}
	}
}
