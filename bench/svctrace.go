package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/predsvc"
)

// The traced pass of a service workload has three parts:
//
//  1. the real daemon again, on a quarter of the untraced work, for the
//     counters only a real process has (kernel time, context switches, GC,
//     store tier activity, scrape cost) and for the wall-clock figures that
//     are reported but never gated (closed- and open-loop latency);
//  2. an in-process replay of the same inputs against predsvc.Server behind
//     a loopback listener, with a span around every round trip and every
//     handler invocation — run once with the recorder off and once on, so
//     the cost of tracing itself is a reported number;
//  3. the layer micro-measurements of layers.go.

// spanHeader carries "<parent span id>/<op id>" from the client side of the
// replay to the handler middleware, so a handler span hangs under the round
// trip that caused it even though it runs on another goroutine.
const spanHeader = "X-Bench-Span"

// statsDoc is the slice of GET /v1/stats the harness reads.
type statsDoc struct {
	Paths int `json:"paths"`
	Store struct {
		Hot    int    `json:"hot_paths"`
		Cold   int    `json:"cold_paths"`
		Spills uint64 `json:"spills"`
		Faults uint64 `json:"faults"`
		Errors uint64 `json:"errors"`
	} `json:"store"`
	Metrics struct {
		RequestsShed uint64 `json:"requests_shed"`
	} `json:"metrics"`
}

func fetchStats(base string) (statsDoc, error) {
	var doc statsDoc
	body, err := fetch(base, "/v1/stats?limit=1")
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal(body, &doc)
}

// selfCPU is this process's own CPU so far: what generating the load and
// checking the answers costs, reported as bench.client_cpu_us_per_op.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// getOnce issues one GET and returns its wall time; the body is discarded.
func getOnce(client *http.Client, url string) (time.Duration, int, error) {
	start := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		return 0, 0, err
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return time.Since(start), int(n), nil
}

const (
	seqRequests   = 1000 // sequential, one connection: client.rtt_* (p99 needs 1 000 samples)
	openRate      = 800  // requests per second of the open-loop phase
	openSeconds   = 2
	floorRequests = 6000 // /healthz round trips for nethttp.floor_cpu_us
	maxScrapes    = 200
)

func traceSvc(ctx context.Context, w *svcWorkload, env *environment, seed int64, seconds int) (*result, error) {
	res := newResult(env.spec, w.name, seed, seconds, true)
	host0 := readHost()

	// ---- Part 1: the real daemon.
	inst, _, warm, err := w.setUp(env.bins, seed)
	if err != nil {
		return nil, err
	}
	torn := false
	defer func() {
		if !torn {
			inst.tearDown()
		}
	}()
	pid := inst.d.c.pid()
	res.check("warm-up", warm.failed == 0, "%d failed operations%s", warm.failed, failureSuffix(warm.failures))

	heap0, err := fetchHeapFooter(inst.d.base)
	if err != nil {
		return nil, err
	}
	up0 := time.Since(inst.d.started)
	stats0, err := fetchStats(inst.d.base)
	if err != nil {
		return nil, err
	}
	status0, _ := readProcStatus(pid)
	self0 := selfCPU()
	nBlocks := w.tracedBlocks(seconds)
	load := &loadStats{}
	var cpu procTimes
	var wall time.Duration
	for b := 0; b < nBlocks; b++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blk, err := inst.timedBlock(w.blockEpochs)
		if err != nil {
			return nil, err
		}
		load.merge(blk.stats)
		cpu.User += blk.cpu.User
		cpu.Sys += blk.cpu.Sys
		wall += blk.wall
	}
	self1 := selfCPU()
	status1, _ := readProcStatus(pid)
	stats1, err := fetchStats(inst.d.base)
	if err != nil {
		return nil, err
	}
	heap1, err := fetchHeapFooter(inst.d.base)
	if err != nil {
		return nil, err
	}
	up1 := time.Since(inst.d.started)
	ops := float64(load.ops)
	cpuPerOp := micros(cpu.User) / ops
	res.set("kernel.sys_cpu_us_per_op", micros(cpu.Sys)/ops, 1)
	res.set("kernel.ctxsw_per_op", float64(status1.CtxSw-status0.CtxSw)/ops, 1)
	res.set("runtime.gc_cycles_per_kop", float64(heap1.NumGC-heap0.NumGC)/ops*1000, 1)
	res.set("runtime.gc_pause_us_per_kop", micros(gcPauseBetween(heap0, heap1))/ops*1000, 1)
	res.set("runtime.alloc_bytes_per_op", float64(heap1.TotalAlloc-heap0.TotalAlloc)/ops, 1)
	gcUs := micros(gcCPUBetween(heap0, heap1, up0, up1, runtime.NumCPU())) / ops
	res.set("runtime.gc_cpu_us_per_op", gcUs, 1)
	res.set("client.ops_per_s", ops/wall.Seconds(), 1)
	// The shadow advance runs between blocks, outside the CPU windows of
	// the daemon, but it IS this process's CPU; it is included on purpose:
	// the load generator's cost is generation + sending + verification.
	res.set("bench.client_cpu_us_per_op", micros(self1-self0)/ops, 1)
	res.set("predsvc.rmsre", rmsre(load.errs, 10), len(load.errs))
	cov := 0.0
	if load.covTotal > 0 {
		cov = float64(load.covIn) / float64(load.covTotal)
	}
	res.set("predsvc.coverage_gap", math.Abs(cov-0.80), int(load.covTotal))
	res.set("predsvc.shed_per_kop", float64(stats1.Metrics.RequestsShed-stats0.Metrics.RequestsShed)/ops*1000, 1)
	faults := float64(stats1.Store.Faults - stats0.Store.Faults)
	res.set("store.faults_per_kop", faults/ops*1000, 1)
	res.set("store.spills_per_kop", float64(stats1.Store.Spills-stats0.Store.Spills)/ops*1000, 1)
	res.set("store.hit_ratio", 1-math.Min(1, faults/ops), 1)
	logBytes := 0.0
	if w.spill && stats1.Store.Cold > 0 {
		if fi, err := os.Stat(filepath.Join(inst.dir, "spill", "spill.log")); err == nil {
			logBytes = float64(fi.Size()) / float64(stats1.Store.Cold)
		}
	}
	res.set("store.log_bytes_per_path", logBytes, 1)
	res.check("store errors", stats1.Store.Errors == 0, "%d spill records failed checksum or decode", stats1.Store.Errors)
	res.note("daemon: %d paths, %d blocks × %d epochs, %d ops, user CPU %.1f µs/op (coverage of [p10,p90] %.3f over %d intervals; store hot %d cold %d)",
		w.paths, nBlocks, w.blockEpochs, load.ops, cpuPerOp, cov, load.covTotal, stats1.Store.Hot, stats1.Store.Cold)

	// Sequential round trips on one connection (read-only predicts).
	predictURL := func(i int) string { return inst.d.base + "/v1/predict?path=" + inst.lg.gens[i%w.paths].Name }
	seq := newLoadClient(1)
	var rtts []float64
	for i := 0; i < seqRequests; i++ {
		d, _, err := getOnce(seq, predictURL(i))
		if err != nil {
			return nil, err
		}
		rtts = append(rtts, micros(d))
	}
	seq.CloseIdleConnections()
	rt := summarize(rtts)
	res.set("client.rtt_p50_us", rt.Median, rt.N)
	res.set("client.rtt_p99_us", percentile(rtts, 99), rt.N)

	// Open loop: requests leave on a schedule whether or not earlier ones
	// have returned, each timed from when it was DUE.
	open := newLoadClient(64)
	samples := make([]openLoopSample, openRate*openSeconds)
	var wg sync.WaitGroup
	var openErr error
	var openMu sync.Mutex
	phaseStart := time.Now()
	for i := range samples {
		due := time.Duration(i) * time.Second / openRate
		if d := due - time.Since(phaseStart); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(phaseStart)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := getOnce(open, predictURL(i)); err != nil {
				openMu.Lock()
				openErr = err
				openMu.Unlock()
			}
			samples[i] = openLoopSample{Due: due, Sent: sent, Done: time.Since(phaseStart)}
		}(i)
	}
	wg.Wait()
	open.CloseIdleConnections()
	if openErr != nil {
		return nil, fmt.Errorf("open-loop phase: %w", openErr)
	}
	lat, late := openLoopLatencies(samples)
	res.set("client.open_lat_p50_us", median(lat), len(lat))
	res.set("client.open_lat_p99_us", percentile(lat, 99), len(lat))
	res.set("client.open_late_p99_us", percentile(late, 99), len(late))
	res.note("latency (wall clock, reported not gated): sequential %s; open loop at %d req/s from due time %s",
		describeTiming(rtts, "µs"), openRate, describeTiming(lat, "µs"))

	// The floor: what one request costs the daemon before any handler of
	// ours runs — /healthz goes through net/http and the outermost wrapper
	// only. Same two connections, closed loop.
	c0, _ := readProcTimes(pid)
	floorClient := newLoadClient(w.conns)
	var floorErr error
	for g := 0; g < w.conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < floorRequests/w.conns; i++ {
				if _, _, err := getOnce(floorClient, inst.d.base+"/healthz"); err != nil {
					openMu.Lock()
					floorErr = err
					openMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	floorClient.CloseIdleConnections()
	if floorErr != nil {
		return nil, fmt.Errorf("floor phase: %w", floorErr)
	}
	c1, _ := readProcTimes(pid)
	floorCPU := micros(c1.sub(c0).User) / floorRequests
	res.set("nethttp.floor_cpu_us", floorCPU, floorRequests)

	// Quiesced /metrics scrapes, averaged until a second of daemon CPU or
	// 200 scrapes have accumulated (/proc ticks are 10 ms; a hot scrape is
	// a few ms). 100 ms into the first one a probe predict is sent on
	// another connection to time how long the scrape stalls the API.
	var scrapeWall []float64
	var scrapeBytes int
	var probeMs float64
	s0, _ := readProcTimes(pid)
	var sNow procTimes
	scrapes := 0
	for scrapes < maxScrapes {
		var probeWG sync.WaitGroup
		if scrapes == 0 {
			probeWG.Add(1)
			go func() {
				defer probeWG.Done()
				time.Sleep(100 * time.Millisecond)
				if d, _, err := getOnce(auxClient, predictURL(0)); err == nil {
					probeMs = millis(d)
				}
			}()
		}
		d, n, err := getOnce(auxClient, inst.d.base+"/metrics")
		if err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
		probeWG.Wait()
		scrapes++
		scrapeWall = append(scrapeWall, millis(d))
		scrapeBytes = n
		sNow, _ = readProcTimes(pid)
		if sNow.sub(s0).User >= time.Second {
			break
		}
	}
	res.set("obs.scrape_cpu_ms", millis(sNow.sub(s0).User)/float64(scrapes), scrapes)
	res.set("obs.scrape_wall_ms", median(scrapeWall), scrapes)
	res.set("obs.scrape_block_ms", probeMs, 1)
	res.set("obs.scrape_bytes", float64(scrapeBytes), 1)
	inst.tearDown()
	torn = true

	// ---- Part 2: the in-process traced replay.
	replayEpochs := nBlocks * w.blockEpochs
	plain, err := w.replay(seed, replayEpochs, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := w.replay(seed, replayEpochs, rec)
	if err != nil {
		return nil, err
	}
	spans := rec.snapshot()
	tracePath, err := writeTrace(env.bins.OutDir, w.name, seed, spans)
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_frac", (traced.wall.Seconds()-plain.wall.Seconds())/plain.wall.Seconds(), 1)

	// Attribution of the daemon's user CPU per op: the net/http floor
	// measured on the real daemon, plus our handler as timed in the replay
	// (it does not block, so its wall time is CPU time; spill I/O is page
	// cache), plus the collector's CPU as the runtime itself accounts it.
	// The remainder is the scheduler, timers and the part of net/http that
	// grows with body size.
	// The handler's cost per op is the MEDIAN span of each kind of request
	// times how many of that kind there were: a handler goroutine that the
	// host deschedules mid-request has a wall time of milliseconds, and a
	// mean would charge that to the handler.
	kindOf := map[uint64]string{}
	for _, s := range spans {
		if kind, ok := strings.CutPrefix(s.Name, "bench.op."); ok {
			kindOf[s.Op] = kind
		}
	}
	handlerDur := map[string][]float64{}
	for _, s := range spans {
		if s.Name == "predsvc.handler" {
			handlerDur[kindOf[s.Op]] = append(handlerDur[kindOf[s.Op]], float64(s.dur()))
		}
	}
	var handlerNs float64
	for _, durs := range handlerDur {
		handlerNs += median(durs) * float64(len(durs))
	}
	handlerUs := handlerNs / 1000 / float64(traced.stats.ops)
	floorPerOp := floorCPU
	if w.mode == modeBatch {
		floorPerOp = floorCPU / float64(w.batch) // one request carries 256 ops
	}
	res.set("nethttp.cpu_share", 1-handlerUs/cpuPerOp, 1)
	res.set("bench.unattributed_frac", 1-(floorPerOp+handlerUs+gcUs)/cpuPerOp, 1)
	self := selfByName(spans)
	res.note("attribution of %.1f µs user CPU/op: nethttp floor %.1f µs + predsvc handler %.1f µs (replay) + runtime GC %.1f µs (GCCPUFraction) = %.0f%%; remainder unattributed",
		cpuPerOp, floorPerOp, handlerUs, gcUs, 100*(floorPerOp+handlerUs+gcUs)/cpuPerOp)
	res.note("replay: %d ops, %d spans → %s; wall self time by layer: %s", traced.stats.ops, len(spans), relPath(env.root, tracePath), formatSelf(self))

	replayFailed := plain.stats.failed + traced.stats.failed
	res.Attempted = load.ops + plain.stats.ops + traced.stats.ops
	res.Failed = load.failed + replayFailed
	res.check("served = shadow", load.failed == 0, "%d of %d daemon operations failed or differed%s", load.failed, load.ops, failureSuffix(load.failures))
	res.check("replay = shadow", replayFailed == 0, "%d of %d in-process operations failed or differed%s",
		replayFailed, plain.stats.ops+traced.stats.ops, failureSuffix(append(plain.stats.failures, traced.stats.failures...)))
	res.set("bench.failed_frac", float64(res.Failed)/float64(res.Attempted), 1)

	// ---- Part 3: layer micro-measurements.
	return finishTraced(res, env, host0)
}

// replayRun is one in-process replay.
type replayRun struct {
	wall  time.Duration
	stats *loadStats
}

// replay serves the workload from a predsvc.Server inside this process —
// the daemon's twin, same configuration — over a loopback listener, and
// drives it with the same generator, shadow and checks as the real run.
// With a recorder, every round trip and every handler invocation is a span.
func (w *svcWorkload) replay(seed int64, epochs int, rec *recorder) (replayRun, error) {
	dir, err := newTempDir(w.name + "-replay")
	if err != nil {
		return replayRun{}, err
	}
	srv, err := predsvc.Open(w.serverConfig(filepath.Join(dir, "spill")))
	if err != nil {
		return replayRun{}, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return replayRun{}, err
	}
	hs := &http.Server{Handler: spanMiddleware(rec, srv.Handler())}
	go hs.Serve(ln)
	defer hs.Close()

	lg := newLoadgen(w, seed, "http://"+ln.Addr().String())
	defer lg.close()
	warm := lg.warmUp()
	if warm.failed > 0 {
		return replayRun{}, fmt.Errorf("replay warm-up: %d failures%s", warm.failed, failureSuffix(warm.failures))
	}
	lg.rec = rec
	start := time.Now()
	st := lg.run(epochs, lg.timedPhase())
	return replayRun{wall: time.Since(start), stats: st}, nil
}

// spanMiddleware opens a "predsvc.handler" span around the service's
// handler, parented under the client-side span named in spanHeader. A
// request without the header belongs to no traced operation — the untimed
// warm-up sends none — and is served unrecorded: its span would be summed
// into the handler time of the timed operations.
func spanMiddleware(rec *recorder, next http.Handler) http.Handler {
	if rec == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		p, o, ok := strings.Cut(req.Header.Get(spanHeader), "/")
		if !ok {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.ParseUint(p, 10, 64)
		op, _ := strconv.ParseUint(o, 10, 64)
		sp := rec.start("predsvc.handler", parent, op)
		next.ServeHTTP(w, req)
		sp.end(0)
	})
}

func describeTiming(xs []float64, unit string) string {
	t := summarize(xs)
	if t.TailP == 0 {
		return fmt.Sprintf("p50 %.0f %s (n=%d)", t.Median, unit, t.N)
	}
	return fmt.Sprintf("p50 %.0f %s, p%g %.0f %s (n=%d)", t.Median, unit, t.TailP, t.TailVal, unit, t.N)
}

func formatSelf(self map[string]int64) string {
	names := make([]string, 0, len(self))
	var total int64
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", n, 100*float64(self[n])/float64(max(total, 1))))
	}
	return strings.Join(parts, ", ")
}

func relPath(root, p string) string {
	if r, err := filepath.Rel(root, p); err == nil {
		return r
	}
	return p
}
