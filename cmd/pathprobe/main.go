// Command pathprobe exercises the measurement tools individually on a
// configurable simulated path — the simulated analogues of ping, pathload
// and iperf the paper's methodology is built from.
//
// Usage:
//
//	pathprobe -tool ping     [-cap 10] [-rtt 60] [-load 0.4] [-dur 30]
//	pathprobe -tool pathload [-cap 10] [-rtt 60] [-load 0.4]
//	pathprobe -tool iperf    [-cap 10] [-rtt 60] [-load 0.4] [-dur 20] [-window 1048576]
//	pathprobe -tool all      ... runs the full Fig.-1 epoch sequence
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/availbw"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

func main() {
	log.SetFlags(0)
	tool := flag.String("tool", "all", "ping | pathload | iperf | all")
	capMbps := flag.Float64("cap", 10, "bottleneck capacity, Mbps")
	rttMs := flag.Float64("rtt", 60, "round-trip propagation delay, ms")
	load := flag.Float64("load", 0.4, "Poisson cross-traffic load (fraction of bottleneck)")
	dur := flag.Float64("dur", 30, "measurement/transfer duration, seconds")
	window := flag.Int("window", 1<<20, "iperf maximum window, bytes")
	seed := flag.Int64("seed", 1, "simulation seed")
	reorder := flag.Float64("reorder", 0, "per-packet reordering probability at the bottleneck")
	stats := flag.Bool("stats", true, "print per-tool engine statistics (events, event rate, speedup)")
	flag.Parse()

	eng := sim.NewEngine()
	rng := sim.NewRNG(*seed)
	capBps := *capMbps * 1e6
	rtt := *rttMs / 1e3
	buf := int(capBps * rtt / 8)
	if buf < 32*1500 {
		buf = 32 * 1500
	}
	path := netem.NewPath(eng, rng.Fork(), netem.PathSpec{
		Name: "pathprobe",
		Forward: []netem.Hop{
			{CapacityBps: capBps * 5, PropDelay: rtt / 8, BufferBytes: 4 << 20},
			{CapacityBps: capBps, PropDelay: rtt / 4, BufferBytes: buf},
			{CapacityBps: capBps * 5, PropDelay: rtt / 8, BufferBytes: 4 << 20},
		},
	})
	path.Bottleneck().ReorderProb = *reorder
	if *load > 0 {
		src := netem.NewPoissonSource(eng, rng.Fork(), 900, *load*capBps, 1000, nil, path.Bottleneck())
		src.Start()
	}
	probe.NewResponder(path.B, 2)
	eng.RunUntil(2) // warm-up

	fmt.Printf("path: %.1f Mbps bottleneck, %.0f ms base RTT, load %.0f%%\n",
		capBps/1e6, path.BaseRTT(1500)*1e3, *load*100)

	// metered runs one tool and reports its segment of the simulation:
	// events processed, wall-clock event rate, and virtual-vs-real
	// speedup, via the engine's per-segment counters.
	metered := func(name string, run func()) {
		mark := eng.Processed()
		v0 := eng.Now()
		t0 := time.Now()
		run()
		if !*stats {
			return
		}
		wall := time.Since(t0).Seconds()
		events := eng.ProcessedSince(mark)
		line := fmt.Sprintf("  [%s: %d events", name, events)
		if wall > 0 {
			line += fmt.Sprintf(", %.3g ev/s", float64(events)/wall)
			if virt := eng.Now() - v0; virt > 0 {
				line += fmt.Sprintf(", %.0fx real time", virt/wall)
			}
		}
		fmt.Println(line + "]")
	}

	runPing := func(d float64) probe.Result {
		var res probe.Result
		metered("ping", func() {
			res = probe.Measure(eng, path.A, 2, probe.Config{}, d)
			fmt.Printf("ping (%gs, 100ms period, 41B): RTT mean %.1f ms [%.1f, %.1f], loss %.4f (%d probes)\n",
				d, res.MeanRTT*1e3, res.MinRTT*1e3, res.MaxRTT*1e3, res.LossRate, res.Sent)
		})
		probe.NewResponder(path.B, 2) // Measure deregisters; re-arm for later tools
		return res
	}
	runPathload := func() availbw.Result {
		var res availbw.Result
		metered("pathload", func() {
			est := availbw.NewEstimator(eng, path, 3, availbw.Config{})
			res = est.Estimate()
			fmt.Printf("pathload: avail-bw %.2f Mbps [%.2f, %.2f] (%d streams, %.1f s)\n",
				res.Estimate/1e6, res.Lo/1e6, res.Hi/1e6, res.Streams, res.Duration)
		})
		return res
	}
	runIperf := func(d float64) iperf.Report {
		var rep iperf.Report
		metered("iperf", func() {
			rep = iperf.Run(eng, path, 7, iperf.Config{
				Duration: d,
				TCP:      tcpsim.Config{MaxWindowBytes: *window, DelayedAck: true},
			})
			fmt.Printf("iperf (%gs, W=%dKB): %.2f Mbps | flow RTT %.1f ms, p=%.4f, p'=%.5f, %d rtx, %d timeouts\n",
				d, *window/1024, rep.ThroughputBps/1e6, rep.FlowRTT*1e3,
				rep.FlowLossRate, rep.FlowEventRate, rep.Retransmits, rep.Timeouts)
		})
		return rep
	}

	switch *tool {
	case "ping":
		runPing(*dur)
	case "pathload":
		runPathload()
	case "iperf":
		runIperf(*dur)
	case "all":
		// The paper's Fig.-1 epoch: pathload → ping → transfer with ping
		// continuing → report before/during comparison.
		runPathload()
		pre := runPing(*dur)
		prober := probe.NewProber(eng, path.A, 2)
		prober.Start()
		rep := runIperf(*dur)
		during := prober.Window()
		prober.Stop()
		fmt.Printf("during-transfer probing: RTT %.1f ms (pre %.1f), loss %.4f (pre %.4f)\n",
			during.MeanRTT*1e3, pre.MeanRTT*1e3, during.LossRate, pre.LossRate)
		_ = rep
	default:
		log.Fatalf("unknown tool %q", *tool)
	}
}
