package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

// The traced pass of a campaign workload:
//
//  1. one real ronsim child, for the process-level counters (kernel time,
//     context switches, virtual seconds per wall second);
//  2. the same campaign twice in this process on one worker, written
//     through traceio — once plain, once with RunConfig.Obs attached and a
//     span around every write — so the program's own, already-existing phase
//     spans (warmup, pathload, ping, transfer, small, gap) can be read and
//     the cost of tracing is the difference between the two;
//  3. the dataset just produced is read back and analysed (traceio.Load,
//     experiments.EvalFB, a 10-MA-LSO one-step forecast per trace);
//  4. the layer micro-measurements of layers.go.

// phases are the program's own epoch phases, in Fig.-1 order.
var phases = []string{"warmup", "pathload", "ping", "transfer", "small", "gap"}

func traceCampaign(ctx context.Context, w *campaignWorkload, env *environment, seed int64, seconds int) (*result, error) {
	res := newResult(env.spec, w.name, seed, seconds, true)
	host0 := readHost()
	dir, err := newTempDir(w.name + "-trace")
	if err != nil {
		return nil, err
	}

	// ---- Part 1: the real binary.
	flags := w.flags(seconds)
	child, err := runRonsim(env.bins.Ronsim, seed, flags, filepath.Join(dir, "child.json.gz"), 1)
	if err != nil {
		return nil, err
	}
	kops := float64(child.events) / 1000
	res.set("kernel.sys_cpu_us_per_op", micros(child.sys)/kops, 1)
	res.set("kernel.ctxsw_per_op", float64(child.ctxsw)/kops, 1)
	res.set("client.ops_per_s", kops/child.wall.Seconds(), 1)
	res.set("sim.speedup", child.virtualS/child.wall.Seconds(), 1)
	res.set("sim.events_per_epoch", float64(child.events)/float64(child.epochs), 1)

	// ---- Part 2: the in-process passes.
	cfg := w.config(seed, seconds)
	plain, err := runTwin(ctx, cfg, filepath.Join(dir, "plain.json.gz"), nil, 0)
	if err != nil {
		return nil, err
	}
	res.set("sim.cpu_ns_per_event", float64(plain.wall)/float64(plain.events), 1)
	res.set("testbed.allocs_per_epoch", float64(plain.mallocs)/float64(plain.epochs), 1)
	res.set("testbed.alloc_bytes_per_epoch", float64(plain.allocBytes)/float64(plain.epochs), 1)

	rec := newRecorder()
	root := rec.start("bench.campaign", 0, 0)
	telemetry := obs.New(1 << 20)
	anchorDelta := rec.now() // the tracer's clock starts now, ours started earlier
	tracedCfg := cfg
	tracedCfg.Obs = telemetry
	outPath := filepath.Join(dir, "traced.json.gz")
	traced, err := runTwin(ctx, tracedCfg, outPath, rec, root.id)
	if err != nil {
		return nil, err
	}
	root.end(int64(traced.events))
	res.set("bench.trace_overhead_frac", (traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds(), 1)

	// Import the program's own spans under our root.
	progSpans, dropped := telemetry.T().Snapshot()
	importProgramSpans(rec, root.id, anchorDelta, progSpans)
	spans := rec.snapshot()
	tracePath, err := writeTrace(env.bins.OutDir, w.name, seed, spans)
	if err != nil {
		return nil, err
	}

	// Phase budget: wall time and simulated events per phase.
	phaseNs := map[string]int64{}
	phaseEvents := map[string]int64{}
	var phaseTotal int64
	byID := map[uint64]obs.SpanRecord{}
	for _, s := range progSpans {
		byID[s.ID] = s
	}
	for _, s := range progSpans {
		if slices.Contains(phases, s.Name) {
			phaseNs[s.Name] += int64(s.End - s.Start)
			phaseTotal += int64(s.End - s.Start)
		}
		if s.Name == "sim.run" {
			if p, ok := byID[s.Parent]; ok && slices.Contains(phases, p.Name) {
				phaseEvents[p.Name] += s.Count
			}
		}
	}
	for _, p := range phases {
		res.set("testbed."+p+"_share", float64(phaseNs[p])/float64(max(phaseTotal, 1)), traced.epochs)
		res.set("testbed."+p+"_events_per_epoch", float64(phaseEvents[p])/float64(traced.epochs), traced.epochs)
	}
	var writeNs, rootNs int64
	for _, s := range spans {
		switch s.Name {
		case "traceio.write":
			writeNs += s.dur()
		case "bench.campaign":
			rootNs = s.dur()
		}
	}
	res.set("traceio.write_us_per_epoch", float64(writeNs)/1000/float64(traced.epochs), traced.epochs)
	named := phaseTotal + writeNs
	res.set("bench.unattributed_frac", 1-float64(named)/float64(max(rootNs, 1)), 1)
	res.note("attribution of %.2fs in-process wall: phases %.1f%% + traceio.write %.1f%%; unattributed %.1f%% (runner, catalog, span bookkeeping); %d program spans read (%d dropped) → %s",
		float64(rootNs)/1e9, 100*float64(phaseTotal)/float64(rootNs), 100*float64(writeNs)/float64(rootNs),
		100*(1-float64(named)/float64(rootNs)), len(progSpans), dropped, relPath(env.root, tracePath))

	// ---- Part 3: read the dataset back and analyse it.
	var segs, rtx, tos int64
	for _, tr := range traced.traces {
		for _, r := range tr.Records {
			segs += r.SegmentsSent
			rtx += r.Retransmits
			tos += r.Timeouts
		}
	}
	ep := float64(traced.epochs)
	res.set("tcpsim.segments_per_epoch", float64(segs)/ep, traced.epochs)
	res.set("tcpsim.retransmits_per_epoch", float64(rtx)/ep, traced.epochs)
	res.set("tcpsim.timeouts_per_epoch", float64(tos)/ep, traced.epochs)

	var ds *testbed.Dataset
	readD := once(func() {
		ds, err = traceio.Load(outPath)
	})
	if err != nil {
		return nil, fmt.Errorf("traceio.Load: %w", err)
	}
	res.set("traceio.read_us_per_epoch", micros(readD)/ep, microReps)
	if fi, err := os.Stat(outPath); err == nil {
		res.set("traceio.bytes_per_epoch", float64(fi.Size())/ep, 1)
	}
	loadedDigest := datasetDigest(ds.Traces)

	aStart := time.Now()
	fbErrs := experiments.Errors(experiments.EvalFB(ds, predict.ModelPFTK, experiments.SourcePre, 0))
	var hbErrs []float64
	for _, tr := range ds.Traces {
		hb := predict.NewLSO(predict.NewMA(10), predict.DefaultLSOConfig())
		for _, r := range tr.Records {
			if fc, ok := hb.Predict(); ok && fc > 0 && r.Throughput > 0 {
				hbErrs = append(hbErrs, relativeError(fc, r.Throughput))
			}
			hb.Observe(r.Throughput)
		}
	}
	res.set("experiments.fb_rmsre", rmsre(fbErrs, 10), len(fbErrs))
	res.set("experiments.hb_rmsre", rmsre(hbErrs, 10), len(hbErrs))
	res.set("experiments.analysis_ms", millis(time.Since(aStart)), 1)

	res.Attempted = int64(child.epochs + plain.epochs + traced.epochs)
	res.Failed = int64(child.failed)
	res.check("binary = twin = traced twin", child.digest == plain.digest && plain.digest == traced.digest,
		"child %s… plain %s… traced %s…: attaching telemetry must not change a simulated statistic", child.digest[:12], plain.digest[:12], traced.digest[:12])
	res.check("traceio.Load = written", loadedDigest == traced.digest && ds.Epochs() == traced.epochs,
		"read back %d epochs, digest %s…", ds.Epochs(), loadedDigest[:12])
	res.check("traceio.Load = streamed", child.loaded == child.epochs, "ronsim's file decodes to %d of %d epochs", child.loaded, child.epochs)
	checkPin(res, env.expectedDir, w, seed, seconds, child)
	res.set("bench.failed_frac", float64(res.Failed)/float64(res.Attempted), 1)
	res.note("ronsim %s: %d epochs, %.2fM events; in-process plain %.2fs, traced %.2fs", strings.Join(flags, " "), child.epochs, float64(child.events)/1e6, plain.wall.Seconds(), traced.wall.Seconds())

	// ---- Part 4: layer micro-measurements.
	return finishTraced(res, env, host0)
}

// importProgramSpans copies the program's own span tree into the
// recorder, under root, renamed by layer: the campaign runner's spans
// become campaign.*, the testbed's trace/epoch/phase spans testbed.*, the
// engine's run segments sim.run. Per-segment sim.run spans are folded into
// their phase's count rather than kept one by one (pathload alone opens
// hundreds per epoch).
func importProgramSpans(rec *recorder, root uint64, delta int64, prog []obs.SpanRecord) {
	events := map[uint64]int64{}
	for _, s := range prog {
		if s.Name == "sim.run" {
			events[s.Parent] += s.Count
		}
	}
	ids := map[uint64]uint64{}
	// Parents end after their children, so the ring (completion order) lists
	// children first; import in start order to have parents mapped first.
	order := append([]obs.SpanRecord(nil), prog...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start < order[j].Start })
	for _, s := range order {
		if s.Name == "sim.run" {
			continue
		}
		name := "testbed." + s.Name
		switch {
		case s.Name == "campaign":
			name = "campaign.run"
		case strings.HasPrefix(s.Name, "trace "):
			name = "testbed.trace"
		}
		parent := root
		if p, ok := ids[s.Parent]; ok {
			parent = p
		}
		count := s.Count
		if n, ok := events[s.ID]; ok {
			count = n
		}
		ids[s.ID] = rec.add(span{Parent: parent, Op: s.Root, Name: name,
			Start: int64(s.Start) + delta, End: int64(s.End) + delta, Count: count})
	}
}
