// Grid bulk transfers: a compute site replicates datasets over the same
// path a few times per hour — exactly the sporadic-history regime of the
// paper's §6.1.6. The example runs sporadic transfers at increasing
// intervals and shows how HB prediction accuracy degrades gracefully, and
// how the window-limited variant (§4.2.8) trades throughput for
// predictability — relevant when the grid scheduler needs reliable
// completion-time estimates.
//
//	go run ./examples/gridtransfer
package main

import (
	"fmt"

	tcppred "repro"
	"repro/internal/stats"
)

func run(interval float64, window int, seed int64) (meanTput, rmsre float64) {
	capBps := 16e6
	rtt := 0.07
	spec := tcppred.PathSpec{
		Name: "grid",
		Forward: []tcppred.Hop{
			{CapacityBps: capBps * 4, PropDelay: rtt / 8, BufferBytes: 4 << 20},
			{CapacityBps: capBps, PropDelay: rtt / 4, BufferBytes: 128 * 1500},
			{CapacityBps: capBps * 4, PropDelay: rtt / 8, BufferBytes: 4 << 20},
		},
	}
	path := tcppred.NewTestbedPath(spec, 0.5, seed)
	hb := tcppred.WithLSO(tcppred.NewHoltWinters(0.8, 0.2))

	var errs []float64
	var sum float64
	const transfers = 14
	for i := 0; i < transfers; i++ {
		pred, ok := hb.Predict()
		actual := path.Transfer(20, window)
		sum += actual
		if ok {
			errs = append(errs, stats.RelativeError(pred, actual))
		}
		hb.Observe(actual)
		path.Wait(interval)
	}
	return sum / transfers, stats.RMSRE(errs)
}

func main() {
	fmt.Println("HB prediction accuracy vs transfer interval (paper §6.1.6):")
	fmt.Printf("%-12s %-16s %s\n", "interval", "mean throughput", "RMSRE")
	for _, interval := range []float64{60, 360, 1440, 2700} {
		tput, rmsre := run(interval, 1<<20, 7)
		fmt.Printf("%4.0f min     %6.2f Mbps      %.3f\n", interval/60, tput/1e6, rmsre)
	}

	fmt.Println("\nwindow-limited vs congestion-limited at a 6-minute interval (§4.2.8):")
	fmt.Printf("%-14s %-16s %s\n", "window", "mean throughput", "RMSRE")
	for _, w := range []int{20 * 1024, 1 << 20} {
		tput, rmsre := run(360, w, 7)
		label := fmt.Sprintf("%d KB", w/1024)
		if w >= 1<<20 {
			label = "1 MB"
		}
		fmt.Printf("%-14s %6.2f Mbps      %.3f\n", label, tput/1e6, rmsre)
	}
	fmt.Println("\nThe 20 KB-window transfers are slower but far more predictable —")
	fmt.Println("the trade the paper recommends for applications that value")
	fmt.Println("predictability over raw throughput.")
}
