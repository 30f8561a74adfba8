// Parallel download peer selection: a peer-to-peer client wants to fetch a
// large file from k of n mirrors. Before each fetch it predicts every
// mirror's TCP throughput from its transfer history (HB with LSO, the
// paper's recommendation when history exists) and downloads from the top-k.
// The example compares the achieved aggregate against random selection and
// against a full-knowledge oracle.
//
//	go run ./examples/paralleldownload
package main

import (
	"fmt"
	"math/rand"
	"sort"

	tcppred "repro"
)

type mirror struct {
	path *tcppred.Path
	hb   tcppred.HBPredictor
}

func main() {
	specs := []struct {
		name         string
		capMbps, rtt float64
		load         float64
	}{
		{"mirror-campus", 50, 0.02, 0.15},
		{"mirror-isp", 12, 0.05, 0.45},
		{"mirror-dsl", 1.2, 0.04, 0.30},
		{"mirror-eu", 20, 0.12, 0.25},
		{"mirror-asia", 10, 0.21, 0.10},
		{"mirror-congested", 30, 0.04, 0.85},
	}
	mirrors := make([]*mirror, len(specs))
	for i, s := range specs {
		capBps := s.capMbps * 1e6
		buf := int(capBps * s.rtt / 8)
		if buf < 32*1500 {
			buf = 32 * 1500
		}
		mirrors[i] = &mirror{
			path: tcppred.NewTestbedPath(tcppred.PathSpec{
				Name: s.name,
				Forward: []tcppred.Hop{
					{CapacityBps: capBps * 4, PropDelay: s.rtt / 8, BufferBytes: 4 << 20},
					{CapacityBps: capBps, PropDelay: s.rtt / 4, BufferBytes: buf},
					{CapacityBps: capBps * 4, PropDelay: s.rtt / 8, BufferBytes: 4 << 20},
				},
			}, s.load, int64(100+i)),
			hb: tcppred.WithLSO(tcppred.NewHoltWinters(0.8, 0.2)),
		}
	}

	const k = 2
	const rounds = 10
	rng := rand.New(rand.NewSource(1))
	var hbTotal, randTotal, oracleTotal float64

	for round := 0; round < rounds; round++ {
		// Measure every mirror by performing this round's "chunk fetch"
		// (10 s) — history accrues whichever selection strategy is used;
		// here every mirror is exercised so the three strategies can be
		// compared on identical outcomes.
		actual := make([]float64, len(mirrors))
		for i, m := range mirrors {
			actual[i] = m.path.Transfer(10, 256*1024)
		}

		// HB selection: top-k by predicted throughput.
		type scored struct {
			idx  int
			pred float64
		}
		preds := make([]scored, len(mirrors))
		for i, m := range mirrors {
			p, _ := m.hb.Predict()
			preds[i] = scored{i, p}
		}
		sort.Slice(preds, func(a, b int) bool { return preds[a].pred > preds[b].pred })
		var hbSum float64
		for _, s := range preds[:k] {
			hbSum += actual[s.idx]
		}

		// Random selection.
		perm := rng.Perm(len(mirrors))
		var randSum float64
		for _, idx := range perm[:k] {
			randSum += actual[idx]
		}

		// Oracle: the true top-k this round.
		sorted := append([]float64(nil), actual...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		oracleSum := sorted[0] + sorted[1]

		hbTotal += hbSum
		randTotal += randSum
		oracleTotal += oracleSum

		for i, m := range mirrors {
			m.hb.Observe(actual[i])
			m.path.Wait(5)
		}
		fmt.Printf("round %2d: HB picked %.2f Mbps, random %.2f, oracle %.2f\n",
			round, hbSum/1e6, randSum/1e6, oracleSum/1e6)
	}

	fmt.Printf("\naggregate over %d rounds (downloading from %d of %d mirrors):\n", rounds, k, len(mirrors))
	fmt.Printf("  HB-LSO selection: %6.2f Mbps (%.0f%% of oracle)\n", hbTotal/rounds/1e6, 100*hbTotal/oracleTotal)
	fmt.Printf("  random selection: %6.2f Mbps (%.0f%% of oracle)\n", randTotal/rounds/1e6, 100*randTotal/oracleTotal)
	fmt.Printf("  oracle:           %6.2f Mbps\n", oracleTotal/rounds/1e6)
}
