package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestExtensionsProduceOutput(t *testing.T) {
	ds := synthDataset()
	results := Extensions(ds)
	if len(results) != 6 {
		t.Fatalf("extensions = %d, want 6", len(results))
	}
	ids := map[string]bool{}
	for _, r := range results {
		ids[r.ID] = true
		if len(r.Tables) == 0 || len(r.Tables[0].Rows) == 0 {
			t.Errorf("%s produced no table rows", r.ID)
		}
	}
	for _, want := range []string{"ext-ar", "ext-hybrid", "ext-nws", "ext-stationarity", "ext-short-transfers", "ext-zoo"} {
		if !ids[want] {
			t.Errorf("missing extension %s", want)
		}
	}
}

func TestExtHybridBeatsFBOnBiasedPaths(t *testing.T) {
	// The synthetic dataset has avail-bw ≈ 1.1×R on lossless paths, so FB
	// consistently overestimates ~10%; the hybrid must learn that away.
	res := ExtHybrid(synthDataset())
	tab := res.Tables[0]
	// Find the P50 row: FB col 1, hybrid col 2.
	for _, row := range tab.Rows {
		if row[0] == "P50" {
			fb, _ := strconv.ParseFloat(row[1], 64)
			hy, _ := strconv.ParseFloat(row[2], 64)
			if hy > fb {
				t.Errorf("hybrid median %v worse than FB %v on constant-bias data", hy, fb)
			}
			return
		}
	}
	t.Fatal("no P50 row")
}

func TestExtNWSCorrectionHelps(t *testing.T) {
	// Synthetic small-window throughput is exactly R/3, so the ratio
	// correction should nearly eliminate the probe error.
	res := ExtNWSProbes(synthDataset())
	tab := res.Tables[0]
	for _, row := range tab.Rows {
		if row[0] == "P50" {
			raw, _ := strconv.ParseFloat(row[1], 64)
			corr, _ := strconv.ParseFloat(row[2], 64)
			if corr >= raw {
				t.Errorf("corrected probe RMSRE %v not below raw %v", corr, raw)
			}
			return
		}
	}
	t.Fatal("no P50 row")
}

func TestExtShortTransfersShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates transfers; skipped in -short mode")
	}
	res := ExtShortTransfers(99)
	tab := res.Tables[0]
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At the smallest size, the short-transfer model must beat bulk PFTK;
	// the slow-start fraction must decrease with size.
	first := tab.Rows[0]
	shortE, _ := strconv.ParseFloat(first[1], 64)
	bulkE, _ := strconv.ParseFloat(first[2], 64)
	if shortE >= bulkE {
		t.Errorf("16KB: short model |E| %v not below bulk %v", shortE, bulkE)
	}
	prevFrac := 2.0
	for _, row := range tab.Rows {
		frac, _ := strconv.ParseFloat(row[3], 64)
		if frac > prevFrac+1e-9 {
			t.Errorf("slow-start fraction not decreasing: %v after %v", frac, prevFrac)
		}
		prevFrac = frac
	}
}

func TestExtARRunsAllVariants(t *testing.T) {
	res := ExtAR(synthDataset())
	if !strings.Contains(res.Tables[0].Columns[3], "AR(1)") {
		t.Errorf("columns = %v", res.Tables[0].Columns)
	}
}

func TestExtZooTournament(t *testing.T) {
	res, z := ExtZoo(synthDataset()), scoreZoo(synthDataset())
	if len(res.Tables) != 3 || len(res.Tables[1].Rows) != 4 || len(res.Tables[2].Rows) != len(servedFrom) {
		t.Fatalf("want a CDF, a tournament row per family and a served row per servedFrom, got %+v", res.Tables)
	}
	// Every trace crowns exactly one winner: wins sum to the trace count.
	wins := 0
	for i, w := range z.wins {
		wins += w
		if z.in[i] > z.total[i] {
			t.Errorf("%s: %d of %d intervals held the actual", z.names[i], z.in[i], z.total[i])
		}
	}
	if wins != 6 {
		t.Errorf("total wins = %d, want 6 (one per synthetic trace)", wins)
	}
}

func TestExtStationarityCountsTraces(t *testing.T) {
	res := ExtStationarity(synthDataset())
	// 6 traces in the synthetic dataset, all ≥10 samples: every trace must
	// be classified into exactly one bucket.
	nRow := res.Tables[0].Rows[len(res.Tables[0].Rows)-1]
	a, _ := strconv.Atoi(nRow[1])
	b, _ := strconv.Atoi(nRow[2])
	if a+b != 6 {
		t.Errorf("classified %d+%d traces, want 6", a, b)
	}
}
