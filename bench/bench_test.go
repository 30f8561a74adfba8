package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
	"time"
)

// These tests pin the reporting rules and parsers of the harness. They run
// in well under a second; nothing here runs a workload or a simulation.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython 3.12.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1.5, 9}, [3]float64{1.25, 3, 6.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTimingRule(t *testing.T) {
	// The tail percentile is the highest one with ≥ 10 samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tm := summarize(xs)
	if tm.N != 1000 || tm.Median != 500.5 || tm.TailP != 99 || tm.TailVal != 990 {
		t.Errorf("summarize(1..1000) = %+v", tm)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("nearest-rank p50 = %v, want 500", got)
	}
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("median = %v", m)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	// A 10 ms stall delays the send of the 2nd and 3rd request. Timed from
	// send they look fast (1 ms); timed from due they carry the stall.
	samples := []openLoopSample{
		{Due: 0, Sent: 0, Done: 11 * ms},
		{Due: 1 * ms, Sent: 11 * ms, Done: 12 * ms},
		{Due: 2 * ms, Sent: 12 * ms, Done: 13 * ms},
	}
	lat, late := openLoopLatencies(samples)
	wantLat, wantLate := []float64{11000, 11000, 11000}, []float64{0, 10000, 10000}
	for i := range samples {
		if lat[i] != wantLat[i] || late[i] != wantLate[i] {
			t.Errorf("sample %d: latency %v lateness %v, want %v %v", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
}

func TestRMSREClampsAndRelativeError(t *testing.T) {
	// Eq. 4: over- and under-prediction by 2x are +1 and -1.
	if e := relativeError(20, 10); e != 1 {
		t.Errorf("relativeError(20,10) = %v", e)
	}
	if e := relativeError(10, 20); e != -1 {
		t.Errorf("relativeError(10,20) = %v", e)
	}
	if got := rmsre([]float64{3, -4, 100}, 10); !near(got, math.Sqrt((9+16+100)/3.0)) {
		t.Errorf("rmsre = %v", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// comm contains spaces and a ')' — fields must be counted from the last one.
	line := "4242 (pred) serv (d)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 52 0 0 20 0 9 0 8851 1280000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	pt, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if pt.User != 7310*time.Millisecond || pt.Sys != 520*time.Millisecond {
		t.Errorf("utime %v stime %v, want 7.31s 0.52s", pt.User, pt.Sys)
	}
	if _, err := parseProcStat([]byte("1 (x) S 1 2")); err == nil {
		t.Error("truncated stat line accepted")
	}
	status := []byte("Name:\tpredserverd\nVmHWM:\t   22984 kB\nvoluntary_ctxt_switches:\t812\nnonvoluntary_ctxt_switches:\t31\n")
	if v, ok := parseStatusField(status, "VmHWM"); !ok || v != 22984 {
		t.Errorf("VmHWM = %v %v", v, ok)
	}
	if v, ok := parseStatusField(status, "nonvoluntary_ctxt_switches"); !ok || v != 31 {
		t.Errorf("nonvoluntary = %v %v", v, ok)
	}
	if _, ok := parseStatusField(status, "VmRSS"); ok {
		t.Error("absent field reported present")
	}
}

func TestParseHostStat(t *testing.T) {
	steal, total, err := parseHostStat([]byte("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n"))
	if err != nil || steal != 35 || total != 1000 {
		t.Errorf("steal %d total %d err %v, want 35 1000 (guest time is already inside user)", steal, total, err)
	}
	a, b := hostSample{Steal: 10, Total: 100}, hostSample{Steal: 35, Total: 200}
	if f := stealFrac(a, b); f != 0.25 {
		t.Errorf("stealFrac = %v", f)
	}
}

func TestParseHeapFooter(t *testing.T) {
	profile := "heap profile: 1: 16 [5: 80] @ heap/1048576\n1: 16 [1: 16] @ 0x1 0x2\n\n" +
		"# runtime.MemStats\n# Alloc = 123\n# TotalAlloc = 98765\n# Mallocs = 4321\n# Frees = 4000\n" +
		"# PauseNs = [100 200 300 0]\n# PauseEnd = [1 2 3 0]\n# NumGC = 3\n# NumForcedGC = 0\n# GCCPUFraction = 0.01\n# MaxRSS = 22984\n"
	h, err := parseHeapFooter([]byte(profile))
	if err != nil {
		t.Fatal(err)
	}
	if h.Mallocs != 4321 || h.TotalAlloc != 98765 || h.NumGC != 3 || len(h.PauseNs) != 4 {
		t.Errorf("footer = %+v", h)
	}
	if _, err := parseHeapFooter([]byte("# Mallocs = 1\n")); err == nil {
		t.Error("footer without the other counters accepted")
	}
	// Collections 2 and 3 ran in between: pauses 200 + 300.
	before := heapFooter{NumGC: 1}
	if d := gcPauseBetween(before, h); d != 500 {
		t.Errorf("gc pause between = %v ns, want 500", d.Nanoseconds())
	}
	// More collections than the ring holds: scale what is retained.
	ring := heapFooter{NumGC: 10, PauseNs: []uint64{10, 10, 10, 10}}
	if d := gcPauseBetween(heapFooter{NumGC: 2}, ring); d != 80 {
		t.Errorf("scaled gc pause = %v ns, want 8 collections × 10", d.Nanoseconds())
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a: merged, not double-counted
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},   // runs past the parent: clipped
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20}, // grandchild: only a's business
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 100 - (50 + 10), 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if byName["root"] != 40 || byName["leaf"] != 5 {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	sp := r.start("x", 0, 0)
	sp.end(1)
	if r.snapshot() != nil || r.add(span{}) != 0 {
		t.Error("nil recorder recorded something")
	}
	rec := newRecorder()
	root := rec.start("root", 0, 7)
	child := rec.start("child", root.id, 7)
	child.end(3)
	root.end(0)
	got := rec.snapshot()
	if len(got) != 2 || got[0].Name != "child" || got[0].Parent != got[1].ID || got[0].Op != 7 || got[0].Count != 3 {
		t.Errorf("spans = %+v", got)
	}
}

func TestServedDecodesTopLevelFieldsOnly(t *testing.T) {
	// Nested objects repeat the top-level key names; only the outer ones count.
	body := []byte(`{"path":"p0001","observations":12,"best":"10-MA-LSO","best_forecast_bps":1.25e7,` +
		`"hb":[{"name":"x","forecast_bps":1,"p10_bps":5}],"fb":{"forecast_bps":99,"stale":true},` +
		`"family":"ECM","p10_bps":1000000.5,"p50_bps":2e6,"p90_bps":3e6,` +
		`"families":[{"name":"a \"q\" }","p10_bps":7,"p90_bps":8}]}` + "\n")
	var s served
	if err := json.Unmarshal(body, &s); err != nil {
		t.Fatal(err)
	}
	want := served{Path: "p0001", Observations: 12, Best: "10-MA-LSO", BestForecast: 1.25e7, Family: "ECM", P10: 1000000.5, P50: 2e6, P90: 3e6}
	if s != want {
		t.Errorf("served = %+v, want %+v", s, want)
	}
	var b servedBatch
	batch := []byte(`{"predictions":[{"path":"a","p10_bps":1},{"path":"b"}],"missing":["ghost"]}`)
	if err := json.Unmarshal(batch, &b); err != nil || len(b.Predictions) != 2 || b.Predictions[1].Path != "b" || len(b.Missing) != 1 {
		t.Errorf("servedBatch = %+v (err %v)", b, err)
	}
}

func TestRequestBodiesRoundTripFloats(t *testing.T) {
	x := 23456789.123456789
	var doc struct {
		Path string  `json:"path"`
		X    float64 `json:"throughput_bps"`
	}
	if err := json.Unmarshal(appendObserveBody(nil, "p0001", x), &doc); err != nil || doc.Path != "p0001" || doc.X != x {
		t.Errorf("observe body decoded to %+v (err %v)", doc, err)
	}
	var m struct {
		RTT, Loss, Abw float64
	}
	raw := appendMeasureBody(nil, "p", measurement{RTT: 0.0123456789012, Loss: 0.0005, AvailBw: 1e7 / 3})
	var md map[string]any
	if err := json.Unmarshal(raw, &md); err != nil {
		t.Fatal(err)
	}
	m.RTT, m.Loss, m.Abw = md["rtt_s"].(float64), md["loss_rate"].(float64), md["avail_bw_bps"].(float64)
	if m.RTT != 0.0123456789012 || m.Loss != 0.0005 || m.Abw != 1e7/3 {
		t.Errorf("measure body decoded to %+v", m)
	}
	var pb struct {
		Paths []string `json:"paths"`
	}
	if err := json.Unmarshal(appendPredictBatchBody(nil, []string{"a", "b"}), &pb); err != nil || len(pb.Paths) != 2 {
		t.Errorf("predict-batch body: %+v %v", pb, err)
	}
}

func TestGeneratorIsDeterministicAndFollowsItsLaw(t *testing.T) {
	a, b := newPathGen(7, 3), newPathGen(7, 3)
	other := newPathGen(8, 3)
	same, differs := true, false
	var dips, n int
	for e := 0; e < 5000; e++ {
		ma, xa := a.next()
		mb, xb := b.next()
		_, xo := other.next()
		same = same && ma == mb && xa == xb
		differs = differs || xa != xo
		if xa < 1e4 || ma.RTT <= 0 || ma.AvailBw <= 0 || ma.Loss < 0 || ma.Loss > 0.02 {
			t.Fatalf("epoch %d: out-of-law sample x=%v m=%+v", e, xa, ma)
		}
		if xa < 0.55*a.level {
			dips++
		}
		n++
	}
	if !same {
		t.Error("same (seed, path) produced different series")
	}
	if !differs {
		t.Error("another seed produced the same series")
	}
	if frac := float64(dips) / float64(n); frac < 0.015 || frac > 0.05 {
		t.Errorf("outlier dips %.3f of epochs, law says ~0.03", frac)
	}
	if a.Name != "p0003" {
		t.Errorf("path name %q", a.Name)
	}
}

func TestDigestIgnoresNothingSimulated(t *testing.T) {
	var d1, d2 digestWriter
	d1.f64(1.5)
	d1.str("reno")
	d2.f64(1.5)
	d2.str("reno")
	if !bytes.Equal(d1.buf, d2.buf) {
		t.Error("digest input not deterministic")
	}
	d2.i64(1)
	if bytes.Equal(d1.buf, d2.buf) {
		t.Error("digest input ignores a field")
	}
}

// testSpec is the contract file at the repository root.
func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONWithinContract keeps the contract file inside the
// driver's limits and every workload it names attached to a runner.
func TestBenchmarkJSONWithinContract(t *testing.T) {
	spec := testSpec(t)
	if fi, err := os.Stat("../BENCHMARK.json"); err != nil || fi.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, limit 64 KiB", err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		checkName(w.Name)
		if len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters (limit 200, one line)", w.Name, len([]rune(w.Why)))
		}
		_, svc := svcWorkloads[w.Name]
		_, camp := campaignWorkloads[w.Name]
		if svc == camp {
			t.Errorf("workload %s must have exactly one runner", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %+v violates the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics (limit 128)", n)
	}
	for _, m := range spec.PerLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v violates the contract", m)
		}
	}
}

func TestContractLineShape(t *testing.T) {
	spec := testSpec(t)
	r := newResult(spec, "svc-single", 1, 10, false)
	r.Attempted = 10
	for _, m := range spec.EndToEnd {
		r.set(m.Name, 1.5, 3)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(r.contractLine(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 4 {
		t.Errorf("contract line has keys %v, want exactly correct/attempted/failed/metrics", doc)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil || len(metrics) != len(spec.EndToEnd) {
		t.Errorf("metrics = %v (err %v)", metrics, err)
	}
	if string(doc["correct"]) != "true" {
		t.Errorf("correct = %s", doc["correct"])
	}
	r.check("x", false, "boom")
	if r.correct() {
		t.Error("a failed check must make the run incorrect")
	}
	if len(r.missing()) != 0 {
		t.Errorf("missing = %v", r.missing())
	}
}

func TestWorkloadSizing(t *testing.T) {
	for name, w := range svcWorkloads {
		// A faulted session is restored exactly only while its lifetime
		// observations fit the daemon's history (128); the shadow check
		// depends on it, however long the run.
		for _, seconds := range []int{1, testSpec(t).RunSeconds, 120} {
			for _, blocks := range []int{w.repBlocks(seconds), w.tracedBlocks(seconds)} {
				if blocks < 2 {
					t.Errorf("%s: %d timed blocks at --seconds %d", name, blocks, seconds)
				}
				if total := w.warmEpochs + blocks*w.blockEpochs; w.spill && total > exactRestoreEpochs {
					t.Errorf("%s: %d epochs at --seconds %d exceed the exact-restore horizon of %d", name, total, seconds, exactRestoreEpochs)
				}
			}
		}
	}
	if campaignEpochs(10) != 1 || campaignEpochs(5) != 1 || campaignEpochs(30) != 3 {
		t.Error("campaignEpochs scaling changed; pinned digests in expected/ assume 1 epoch at 10 s")
	}
}

// TestReplayRecordsTimedOperationsOnly: the untimed warm-up of the traced
// replay must leave no span behind — a warm-up handler span would be summed
// into the handler time that is divided by the timed operations alone.
func TestReplayRecordsTimedOperationsOnly(t *testing.T) {
	scratchBase = t.TempDir()
	for _, w := range []*svcWorkload{
		{name: "tiny-single", mode: modeSingle, paths: 4, warmEpochs: 3, conns: 2},
		{name: "tiny-batch", mode: modeBatch, paths: 4, batch: 2, warmEpochs: 3, conns: 2},
	} {
		rec := newRecorder()
		run, err := w.replay(1, 2, rec)
		if err != nil {
			t.Fatal(err)
		}
		if run.stats.failed != 0 {
			t.Fatalf("%s: %d failed operations: %v", w.name, run.stats.failed, run.stats.failures)
		}
		ops := map[uint64]bool{}
		handlers := 0
		for _, s := range rec.snapshot() {
			if strings.HasPrefix(s.Name, "bench.op.") {
				ops[s.Op] = true
			}
		}
		for _, s := range rec.snapshot() {
			if s.Name == "predsvc.handler" {
				handlers++
				if !ops[s.Op] {
					t.Errorf("%s: handler span of op %d belongs to no timed operation", w.name, s.Op)
				}
			}
		}
		if handlers != len(ops) || handlers == 0 {
			t.Errorf("%s: %d handler spans for %d timed operations", w.name, handlers, len(ops))
		}
	}
}

// TestChildStderrSurvivesExit: what a child wrote just before exiting must
// still be readable after it has been reaped (ronsim's campaign_finished).
func TestChildStderrSurvivesExit(t *testing.T) {
	c, err := startChild("sh", exec.Command("sh", "-c", "echo last >&2"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.stderr.Close()
	if err := c.wait(); err != nil {
		t.Fatal(err)
	}
	if data, err := io.ReadAll(c.stderr); err != nil || string(data) != "last\n" {
		t.Errorf("stderr after exit = %q (err %v)", data, err)
	}
}
