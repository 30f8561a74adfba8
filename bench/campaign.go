package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/testbed"
	"repro/internal/traceio"
)

// Campaign workloads: the real ronsim binary, one worker, run to completion
// as a child process — several times over, identical each time. Identical
// repetitions make every count exact and let the CPU reading be that of the
// least disturbed repetition; their output digests must all agree, agree
// with an in-process twin of the same configuration, and (for seeds 1–2)
// agree with the digest pinned in expected/.
//
// The unit of work ("op") is 1 000 simulated events, not one epoch: what an
// epoch costs depends on the capacities the seed happens to draw (±20 %
// from seed to seed), while the host time per simulated event is what a
// simulator speed-up actually changes. sim.events_per_epoch in the traced
// pass is exact, so a change in the number of events per epoch still shows.

type campaignWorkload struct {
	name string
	// flags are the ronsim flags that define the workload's shape, besides
	// -seed/-workers/-progress/-out.
	flags func(seconds int) []string
	// config is the in-process twin of those flags: the RunConfig ronsim
	// builds from them. The twin's digest must equal the child's, which is
	// what keeps this duplication honest.
	config func(seed int64, seconds int) testbed.RunConfig
}

// campaignEpochs scales trace length with the time budget; the path set —
// which is what makes a seed's cost representative — stays fixed.
func campaignEpochs(seconds int) int { return max(1, seconds/10) }

const (
	paperPaths      = 24
	scenarioPerCell = 3
	campaignReps    = 3 // identical ronsim children per run; --seconds scales their length

	// campaignSetupProbes is how many extra children are started only to
	// time their set-up (spawn → first epoch) and then killed.
	campaignSetupProbes = 4
)

var campaignWorkloads = map[string]*campaignWorkload{
	"campaign-paper": {
		name: "campaign-paper",
		flags: func(seconds int) []string {
			return []string{"-paths", strconv.Itoa(paperPaths), "-traces", "1", "-epochs", strconv.Itoa(campaignEpochs(seconds))}
		},
		config: func(seed int64, seconds int) testbed.RunConfig {
			cfg := testbed.DefaultScaled(seed)
			cfg.Catalog.NumPaths = paperPaths
			cfg.Catalog.NumDSL = min(cfg.Catalog.NumDSL, paperPaths/3)
			cfg.Catalog.NumTrans = min(cfg.Catalog.NumTrans, paperPaths/3)
			cfg.Catalog.NumKorea = min(cfg.Catalog.NumKorea, paperPaths/3)
			cfg.TracesPerPath = 1
			cfg.EpochsPerTrace = campaignEpochs(seconds)
			return cfg
		},
	},
	"campaign-scenarios": {
		name: "campaign-scenarios",
		flags: func(seconds int) []string {
			return []string{"-scenarios", "-per-scenario", strconv.Itoa(scenarioPerCell), "-traces", "1", "-epochs", strconv.Itoa(campaignEpochs(seconds))}
		},
		config: func(seed int64, seconds int) testbed.RunConfig {
			cfg := testbed.ScenarioScaled(seed, testbed.ScenarioConfig{PathsPerScenario: scenarioPerCell})
			cfg.TracesPerPath = 1
			cfg.EpochsPerTrace = campaignEpochs(seconds)
			return cfg
		},
	},
}

// progressEvent is the subset of ronsim's -progress jsonl lines we read.
type progressEvent struct {
	Event    string  `json:"event"`
	Events   uint64  `json:"events"`
	Error    string  `json:"error"`
	Done     int     `json:"completed"`
	Failed   int     `json:"failed"`
	VirtualT float64 `json:"virtual_total_s"`
}

// campaignRep is one completed ronsim child.
type campaignRep struct {
	setupS   float64 // spawn → first epoch simulated (start-up, catalog, first trace's warm-up)
	wall     time.Duration
	user     time.Duration
	sys      time.Duration
	maxRSSKB int64
	ctxsw    int64
	events   uint64
	epochs   int
	traces   int
	failed   int // traces ronsim reported failed
	virtualS float64
	digest   string
	loaded   int // epochs traceio.Load returned
}

// ronsimArgs is the full command line of one measured ronsim child.
func ronsimArgs(seed int64, workers int, out string, flags []string) []string {
	return append([]string{"-seed", strconv.FormatInt(seed, 10), "-workers", strconv.Itoa(workers), "-progress", "jsonl", "-out", out}, flags...)
}

// runRonsim runs one ronsim child to completion and verifies its output
// file decodes to exactly the epochs it streamed.
func runRonsim(bin string, seed int64, flags []string, out string, workers int) (campaignRep, error) {
	var rep campaignRep
	args := ronsimArgs(seed, workers, out, flags)
	start := time.Now()
	c, err := startChild("ronsim", exec.Command(bin, args...))
	if err != nil {
		return rep, err
	}
	defer c.stderr.Close()
	var tail []string
	// ru_maxrss from wait4 would include this process's own resident set
	// (the child shares it until exec), so peak memory is the child's own
	// high-water mark, read from its /proc while it lives.
	readRSS := func() {
		if st, err := readProcStatus(c.pid()); err == nil {
			rep.maxRSSKB = max(rep.maxRSSKB, st.PeakRSSKB)
		}
	}
	sc := bufio.NewScanner(c.stderr)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			if len(tail) < 20 {
				tail = append(tail, string(line))
			}
			continue
		}
		var ev progressEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		switch ev.Event {
		case "epoch":
			if rep.epochs == 0 {
				rep.setupS = time.Since(start).Seconds()
			}
			rep.epochs++
		case "trace_finished":
			readRSS()
			if ev.Error != "" {
				rep.failed++
			}
		case "campaign_finished":
			readRSS()
			rep.events, rep.virtualS = ev.Events, ev.VirtualT
			rep.traces = ev.Done
			rep.failed += ev.Failed
		}
	}
	werr := c.wait()
	rep.wall = time.Since(start)
	if werr != nil {
		return rep, fmt.Errorf("ronsim %s: %v\n%s", strings.Join(args, " "), werr, strings.Join(tail, "\n"))
	}
	ru := c.rusage()
	if ru == nil {
		return rep, errors.New("ronsim: no resource usage from wait")
	}
	rep.user = time.Duration(ru.Utime.Nano())
	rep.sys = time.Duration(ru.Stime.Nano())
	rep.ctxsw = ru.Nvcsw + ru.Nivcsw
	if rep.maxRSSKB == 0 {
		return rep, errors.New("ronsim: could not read the child's VmHWM")
	}
	if rep.events == 0 || rep.epochs == 0 {
		return rep, fmt.Errorf("ronsim reported no work (events %d, epochs %d)\n%s", rep.events, rep.epochs, strings.Join(tail, "\n"))
	}
	ds, err := traceio.Load(out)
	if err != nil {
		return rep, fmt.Errorf("traceio.Load(%s): %w", out, err)
	}
	rep.loaded = ds.Epochs()
	rep.digest = datasetDigest(ds.Traces)
	return rep, nil
}

// probeRonsimSetup starts the same ronsim command, measures the wall time
// until its first epoch has been simulated, and kills it.
func probeRonsimSetup(bin string, seed int64, flags []string, out string) (float64, error) {
	start := time.Now()
	c, err := startChild("ronsim", exec.Command(bin, ronsimArgs(seed, 1, out, flags)...))
	if err != nil {
		return 0, err
	}
	defer c.stderr.Close()
	setup := 0.0
	sc := bufio.NewScanner(c.stderr)
	for sc.Scan() {
		if bytes.Contains(sc.Bytes(), []byte(`"event":"epoch"`)) {
			setup = time.Since(start).Seconds()
			break
		}
	}
	_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
	_ = c.wait()
	_ = os.Remove(out)
	if setup == 0 {
		return 0, errors.New("ronsim exited before simulating an epoch")
	}
	return setup, nil
}

// digestWriter folds the simulated statistics of epoch records into a
// sha256. It hashes an explicit list of fields — everything the simulation
// computes — rather than the serialized form, so the digest pins "every
// simulated statistic identical" and nothing about the file format.
type digestWriter struct {
	h   [sha256.Size]byte
	buf []byte
}

func (d *digestWriter) f64(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}
func (d *digestWriter) i64(v int64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(v)) }
func (d *digestWriter) str(s string) {
	d.i64(int64(len(s)))
	d.buf = append(d.buf, s...)
}

func (d *digestWriter) trace(tr testbed.Trace) {
	d.str(tr.Path)
	d.str(tr.Class)
	d.i64(int64(tr.Index))
	d.i64(int64(len(tr.Records)))
	for i := range tr.Records {
		r := &tr.Records[i]
		d.i64(int64(r.Epoch))
		for _, v := range []float64{
			r.StartTime, r.AvailBw, r.AvailBwTrue, r.PreRTT, r.PreLoss, r.DurRTT, r.DurLoss,
			r.Throughput, r.FlowRTT, r.FlowLoss, r.FlowEventRate,
			r.PacingRate, r.DeliveryRate, r.SmallThroughput, r.SmallFlowLoss,
		} {
			d.f64(v)
		}
		for _, v := range []int64{r.Retransmits, r.Timeouts, r.LossEvents, r.SegmentsSent, r.RecoveryEpisodes} {
			d.i64(v)
		}
		d.str(r.CC)
		d.str(r.Link)
		for _, v := range r.Checkpoints {
			d.f64(v)
		}
	}
	// Chain per trace so memory stays bounded on any campaign size.
	sum := sha256.Sum256(append(d.h[:], d.buf...))
	d.h, d.buf = sum, d.buf[:0]
}

func (d *digestWriter) sum() string { return hex.EncodeToString(d.h[:]) }

func datasetDigest(traces []testbed.Trace) string {
	var d digestWriter
	for _, tr := range traces {
		d.trace(tr)
	}
	return d.sum()
}

// eventCounter is the observer the in-process twin counts work with.
type eventCounter struct {
	campaign.NopObserver
	events atomic.Uint64
	epochs atomic.Int64
	failed atomic.Int64
}

func (c *eventCounter) EpochDone(_ campaign.Job, _ int, _ float64, events uint64) {
	c.events.Add(events)
	c.epochs.Add(1)
}

func (c *eventCounter) TraceFinished(_ campaign.Job, err error, _ int, _ time.Duration) {
	if err != nil {
		c.failed.Add(1)
	}
}

// twinRun is one in-process execution of the campaign.
type twinRun struct {
	digest     string
	events     uint64
	epochs     int
	mallocs    uint64
	allocBytes uint64
	wall       time.Duration
	traces     []testbed.Trace
}

// runTwin executes cfg on one worker in this process through
// testbed.CollectStream, writing every trace to path through a
// traceio.Writer — the library calls ronsim -workers 1 makes — and returns
// what it produced plus the heap objects it allocated doing so. Nothing else
// runs in the process meanwhile and the digest is taken afterwards, so the
// MemStats delta is the campaign's own. With a recorder, every write is a
// span under root.
func runTwin(ctx context.Context, cfg testbed.RunConfig, path string, rec *recorder, root uint64) (twinRun, error) {
	var tw twinRun
	wr, err := traceio.NewWriter(path, cfg.DatasetLabel())
	if err != nil {
		return tw, err
	}
	counter := &eventCounter{}
	cfg.Parallelism = 1
	cfg.Observer = counter
	var op uint64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err = testbed.CollectStream(ctx, cfg, func(tr testbed.Trace) error {
		tw.traces = append(tw.traces, tr)
		op++
		sp := rec.start("traceio.write", root, op)
		err := wr.WriteTrace(tr)
		sp.end(int64(len(tr.Records)))
		return err
	})
	if err != nil {
		wr.Abort()
		return tw, fmt.Errorf("in-process campaign: %w", err)
	}
	sp := rec.start("traceio.write", root, 0)
	err = wr.Close()
	sp.end(0)
	tw.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return tw, fmt.Errorf("in-process campaign: closing %s: %w", path, err)
	}
	if n := counter.failed.Load(); n > 0 {
		return tw, fmt.Errorf("in-process campaign: %d traces failed", n)
	}
	tw.digest = datasetDigest(tw.traces)
	tw.events, tw.epochs = counter.events.Load(), int(counter.epochs.Load())
	tw.mallocs, tw.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return tw, nil
}

// pinned is one committed campaign digest.
type pinned struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Flags    []string `json:"ronsim_flags"`
	Arch     string   `json:"goarch"`
	Epochs   int      `json:"epochs"`
	Events   uint64   `json:"events"`
	Digest   string   `json:"digest"`
}

func pinPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// checkPin compares a run with the committed digest for its seed, if one
// exists for this architecture and run length.
func checkPin(res *result, dir string, w *campaignWorkload, seed int64, seconds int, rep campaignRep) {
	data, err := os.ReadFile(pinPath(dir, w.name, seed))
	if err != nil {
		res.note("no pinned digest for seed %d (pins exist for seeds 1 and 2)", seed)
		return
	}
	var p pinned
	if err := json.Unmarshal(data, &p); err != nil {
		res.check("pinned digest", false, "unreadable pin: %v", err)
		return
	}
	if p.Seconds != seconds || p.Arch != runtime.GOARCH {
		res.note("pinned digest is for seconds=%d on %s; not compared", p.Seconds, p.Arch)
		return
	}
	res.check("pinned digest", p.Digest == rep.digest && p.Events == rep.events && p.Epochs == rep.epochs,
		"expected %s… (%d events), got %s… (%d events): every simulated statistic must be identical",
		p.Digest[:12], p.Events, rep.digest[:12], rep.events)
}

// runCampaign is the untraced run: end-to-end metrics from ronsim children.
func runCampaign(ctx context.Context, w *campaignWorkload, env *environment, seed int64, seconds int) (*result, error) {
	res := newResult(env.spec, w.name, seed, seconds, false)
	host0 := readHost()
	dir, err := newTempDir(w.name)
	if err != nil {
		return nil, err
	}
	flags := w.flags(seconds)

	var reps []campaignRep
	for len(reps) < campaignReps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out := filepath.Join(dir, fmt.Sprintf("rep%d.json.gz", len(reps)))
		rep, err := runRonsim(env.bins.Ronsim, seed, flags, out, 1)
		if err != nil {
			return nil, err
		}
		_ = os.Remove(out)
		reps = append(reps, rep)
	}
	// Extra set-up samples: a child is started, timed to its first epoch
	// and killed. A campaign's set-up is tens of milliseconds, so it takes
	// more than three samples for the median to sit still.
	var setups []float64
	for i := 0; i < campaignSetupProbes; i++ {
		s, err := probeRonsimSetup(env.bins.Ronsim, seed, flags, filepath.Join(dir, "probe.json.gz"))
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	host1 := readHost()

	// The twin: the same configuration and library calls, in this process.
	twinOut := filepath.Join(dir, "twin.json.gz")
	tw, err := runTwin(ctx, w.config(seed, seconds), twinOut, nil, 0)
	if err != nil {
		return nil, err
	}
	_ = os.Remove(twinOut)

	first := reps[0]
	var cpuPerOp, rss []float64
	var grid [][]time.Duration
	same, loadedOK, failedTraces := true, true, 0
	for _, r := range reps {
		setups = append(setups, r.setupS)
		cpuPerOp = append(cpuPerOp, micros(r.user)/(float64(r.events)/1000))
		rss = append(rss, float64(r.maxRSSKB)/1024)
		// One window per repetition, read by the kernel at exit: marks taken
		// while the child runs would be read late by a descheduled harness,
		// which moves CPU between windows and biases their minima low.
		grid = append(grid, []time.Duration{r.user})
		same = same && r.digest == first.digest && r.events == first.events && r.epochs == first.epochs
		loadedOK = loadedOK && r.loaded == r.epochs
		failedTraces += r.failed
	}
	kops := float64(first.events) / 1000
	res.Attempted = int64(len(reps)) * int64(first.epochs)
	res.Failed = int64(failedTraces)
	res.set("setup_s", median(setups), len(setups))
	res.set("cpu_us_per_op", micros(bestOfWindows(grid))/kops, len(grid))
	res.set("allocs_per_op", float64(tw.mallocs)/(float64(tw.events)/1000), 1)
	res.set("peak_rss_mb", median(rss), len(rss))
	res.Host = hostReading{StealFrac: stealFrac(host0, host1), Load1: host1.Load1}

	res.check("repetitions identical", same, "%d ronsim runs of the same seed: digests %s", len(reps), digestList(reps))
	res.check("traceio.Load = streamed", loadedOK, "every output file decodes to exactly the epochs ronsim streamed (%d)", first.epochs)
	res.check("binary = in-process twin", tw.digest == first.digest && tw.events == first.events,
		"child %s… (%d events) vs twin %s… (%d events)", first.digest[:12], first.events, tw.digest[:12], tw.events)
	res.check("no failed traces", failedTraces == 0, "%d traces failed", failedTraces)
	checkPin(res, env.expectedDir, w, seed, seconds, first)

	res.note("ronsim %s: %d traces, %d epochs, %.2fM events (%.0f events/epoch), %.0f virtual s per run; op = 1000 events (%.0f ops per run)",
		strings.Join(flags, " "), first.traces, first.epochs, float64(first.events)/1e6, float64(first.events)/float64(first.epochs), first.virtualS, kops)
	res.note("cpu_us_per_op of each repetition (whole child, rusage at exit): %s; reported: the cheapest", formatSeries(cpuPerOp))
	res.note("set-up samples (s): %s", formatSeries(setups))
	res.note("cpu per epoch %.1f ms; in-process twin: %.1fs wall, %d heap objects", millis(first.user)/float64(first.epochs), tw.wall.Seconds(), tw.mallocs)
	return res, nil
}

func digestList(reps []campaignRep) string {
	parts := make([]string, len(reps))
	for i, r := range reps {
		parts[i] = r.digest[:12] + "…"
	}
	return strings.Join(parts, " ")
}

// pinDigests records the campaign digests of seeds 1 and 2 in expected/.
func pinDigests(ctx context.Context, env *environment, seconds int) int {
	if err := os.MkdirAll(env.expectedDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := newTempDir("pin")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	for _, name := range []string{"campaign-paper", "campaign-scenarios"} {
		w := campaignWorkloads[name]
		for _, seed := range []int64{1, 2} {
			flags := w.flags(seconds)
			rep, err := runRonsim(env.bins.Ronsim, seed, flags, filepath.Join(dir, "pin.json.gz"), 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			p := pinned{Workload: name, Seed: seed, Seconds: seconds, Flags: flags, Arch: runtime.GOARCH,
				Epochs: rep.epochs, Events: rep.events, Digest: rep.digest}
			data, _ := json.MarshalIndent(p, "", "  ")
			if err := os.WriteFile(pinPath(env.expectedDir, name, seed), append(data, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "pinned %s seed %d: %s (%d epochs, %d events)\n", name, seed, rep.digest, rep.epochs, rep.events)
		}
	}
	return 0
}
