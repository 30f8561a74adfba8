package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/predict"
	"repro/internal/predsvc"
)

// Service workloads: one real predserverd child, one load-generating
// process (this one), two keep-alive connections, closed loop, strictly
// ordered per path. Every response is checked, bit for bit, against an
// in-process shadow replay of the same inputs through the predictor
// library alone — no wire codec, no store, no spill log in the shadow.

type svcMode int

const (
	modeSingle svcMode = iota // measure → predict → observe, one request each
	modeBatch                 // predict-batch + observe-batch, 256 items each
	modeSpill                 // predict → observe against a squeezed two-tier store
)

// svcWorkload is the static description of one service workload.
type svcWorkload struct {
	name       string
	mode       svcMode
	paths      int
	batch      int // items per batch request
	warmEpochs int // untimed epochs before measuring
	// blockEpochs is the number of epochs per timed block. The daemon's CPU
	// clock is read once per block and ticks in 10 ms steps, so a block is
	// sized to cost the daemon a quarter of a second or more.
	blockEpochs int
	// blocksPer10s sizes the timed section: a FIXED amount of work,
	// blocksPer10s × blockEpochs epochs per 10 s of --seconds on the 2-vCPU
	// reference box, not "as many blocks as fit". The per-request cost is
	// not stationary — a faulted session replays its whole history, and the
	// predictor windows keep filling for ~128 epochs — so a faster build
	// that fitted more blocks into the same time would be averaged over a
	// different, costlier mix and its gain understated.
	blocksPer10s int
	capacity     int // -capacity; 0 = daemon default
	spill        bool
	// conns is the number of keep-alive connections, each driven by its
	// own client goroutine. svc-spill uses one: with two, the squeezed
	// store loses updates — a session evicted (and serialized to the log)
	// between a handler's GetOrCreate and its Observe is later faulted
	// back in without that observation. The benchmark found this (3 of 5
	// runs at two connections served a forecast one observation short of
	// the shadow); it must measure a workload on which no operation
	// fails, so it keeps requests to the two-tier store sequential. See
	// README.md, "Findings".
	conns int
}

var svcWorkloads = map[string]*svcWorkload{
	"svc-single": {name: "svc-single", mode: modeSingle, paths: 256, warmEpochs: 4, blockEpochs: 7, blocksPer10s: 9, conns: 2},
	"svc-batch":  {name: "svc-batch", mode: modeBatch, paths: 1024, batch: 256, warmEpochs: 20, blockEpochs: 15, blocksPer10s: 9, conns: 2},
	"svc-spill": {name: "svc-spill", mode: modeSpill, paths: 512, batch: 256, warmEpochs: 112, blockEpochs: 1, blocksPer10s: 9, conns: 1,
		capacity: 64, spill: true},
}

// exactRestoreEpochs is the daemon's per-path history limit: a session
// faulted in from the spill log is restored bit for bit only while its
// lifetime observations fit in it, and the shadow check depends on that.
// What a fault costs grows with the history it replays, so svc-spill warms
// every session close to this limit and times the epochs that remain.
const exactRestoreEpochs = 128

// repBlocks is the number of timed blocks each of the svcReps instances of
// an untraced run does; tracedBlocks is the traced pass's single instance,
// a quarter of the untraced work.
func (w *svcWorkload) repBlocks(seconds int) int {
	return w.capBlocks((w.blocksPer10s*seconds/10 + svcReps - 1) / svcReps)
}

func (w *svcWorkload) tracedBlocks(seconds int) int {
	return w.capBlocks(w.blocksPer10s * seconds / 10 / 4)
}

// capBlocks keeps one instance's blocks at two or more and, on the spill
// workload, its sessions' lifetime inside the exact-restore horizon.
func (w *svcWorkload) capBlocks(n int) int {
	n = max(2, n)
	if w.spill {
		n = min(n, (exactRestoreEpochs-w.warmEpochs)/w.blockEpochs)
	}
	return n
}

func (w *svcWorkload) daemonArgs(spillDir string) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if w.capacity > 0 {
		args = append(args, "-capacity", strconv.Itoa(w.capacity))
	}
	if w.spill {
		args = append(args, "-spill-dir", spillDir)
	}
	return args
}

// serverConfig is the in-process twin of daemonArgs, for the traced replay.
func (w *svcWorkload) serverConfig(spillDir string) predsvc.Config {
	cfg := predsvc.Config{Capacity: w.capacity}
	if w.spill {
		cfg.SpillDir = spillDir
	}
	return cfg
}

// ---------------------------------------------------------------------
// The daemon under test.

type daemon struct {
	c       *child
	base    string // http://127.0.0.1:port
	started time.Time

	mu      sync.Mutex
	log     bytes.Buffer  // stderr head, for diagnostics
	logDone chan struct{} // closed when the stderr reader has seen EOF
}

// stop ends the daemon and waits for its stderr reader to finish.
func (d *daemon) stop(grace time.Duration) {
	d.c.stop(grace)
	<-d.logDone
}

// startDaemon launches predserverd on an ephemeral port and waits until it
// reports its listen address and answers /readyz.
func startDaemon(bin string, args []string) (*daemon, error) {
	c, err := startChild("predserverd", exec.Command(bin, args...))
	if err != nil {
		return nil, err
	}
	d := &daemon{c: c, started: time.Now(), logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		defer c.stderr.Close()
		sc := bufio.NewScanner(c.stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			if d.log.Len() < 64<<10 {
				d.log.WriteString(line + "\n")
			}
			d.mu.Unlock()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok && !sent {
				host, _, _ := strings.Cut(rest, " ")
				addr <- host
				sent = true
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-c.waited:
		<-d.logDone
		return nil, fmt.Errorf("predserverd exited before listening: %v\n%s", c.err, d.logTail())
	case <-time.After(15 * time.Second):
		d.stop(time.Second)
		return nil, fmt.Errorf("predserverd did not report a listen address in 15s\n%s", d.logTail())
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := auxClient.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop(time.Second)
			return nil, fmt.Errorf("predserverd never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// auxClient carries the harness's out-of-band requests (readiness, pprof,
// stats, scrapes) on its own connection, so they never queue behind or
// reorder the measured traffic.
var auxClient = &http.Client{
	Timeout:   120 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
}

func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// fetch GETs base+path on the aux connection and returns the body.
func fetch(base, path string) ([]byte, error) {
	resp, err := auxClient.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

func fetchHeapFooter(base string) (heapFooter, error) {
	body, err := fetch(base, "/debug/pprof/heap?debug=1")
	if err != nil {
		return heapFooter{}, err
	}
	return parseHeapFooter(body)
}

// ---------------------------------------------------------------------
// The shadow replay.

// expect is what the daemon must answer for one path in one epoch.
type expect struct {
	in        measurement
	x         float64
	measureFc float64
	best      string
	bestFc    float64
	family    string
	p10       float64
	p50       float64
	p90       float64
	obsBefore uint64
}

// shadow replays the generated inputs through the predictor library in
// this process: Registry.GetOrCreate + Session.SetMeasurement / PredictInto
// / Observe on a plain in-memory registry large enough never to evict. It
// deliberately touches nothing of the serving stack.
type shadow struct {
	sess []*predsvc.Session
	pred predsvc.Prediction
	fb   predsvc.FBState
}

func newShadow(gens []*pathGen) *shadow {
	reg := predsvc.NewRegistry(predsvc.Config{Capacity: 1 << 20})
	sh := &shadow{}
	for _, g := range gens {
		sh.sess = append(sh.sess, reg.GetOrCreate(g.Name))
	}
	return sh
}

// phase says which requests an epoch consists of.
type phase struct {
	measure, predict bool
	batched          bool // predict/observe go through the batch endpoints
}

// advance generates the next epoch's inputs for every path, feeds them to
// the shadow in the order the daemon will see them, and returns what the
// daemon must answer.
func (sh *shadow) advance(gens []*pathGen, ph phase) []expect {
	out := make([]expect, len(gens))
	for i, g := range gens {
		in, x := g.next()
		e := expect{in: in, x: x}
		s := sh.sess[i]
		if ph.measure {
			e.measureFc = s.SetMeasurement(predict.FBInputs{RTT: in.RTT, LossRate: in.Loss, AvailBw: in.AvailBw})
		}
		if ph.predict {
			s.PredictInto(&sh.pred, &sh.fb)
			p := &sh.pred
			e.best, e.bestFc, e.family = p.Best, p.BestForecastBps, p.Family
			e.p10, e.p50, e.p90 = p.P10Bps, p.P50Bps, p.P90Bps
			e.obsBefore = p.Observations
		} else {
			e.obsBefore = s.Observations()
		}
		s.Observe(x)
		out[i] = e
	}
	return out
}

// ---------------------------------------------------------------------
// The load generator.

// loadStats accumulates what one stretch of load observed.
type loadStats struct {
	ops      int64 // operations attempted (requests, or items in batch mode)
	failed   int64
	failures []string  // first few failure descriptions
	latUs    []float64 // per-request wall latency, when recording
	errs     []float64 // Eq.-4 errors of served best forecasts
	covIn    int64
	covTotal int64
}

func (s *loadStats) fail(n int64, format string, args ...any) {
	s.failed += n
	if len(s.failures) < 5 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

func (s *loadStats) merge(o *loadStats) {
	s.ops += o.ops
	s.failed += o.failed
	for _, f := range o.failures {
		if len(s.failures) < 5 {
			s.failures = append(s.failures, f)
		}
	}
	s.latUs = append(s.latUs, o.latUs...)
	s.errs = append(s.errs, o.errs...)
	s.covIn += o.covIn
	s.covTotal += o.covTotal
}

// loadgen drives one target (a daemon or the in-process twin) for one
// workload. It owns the generators and the shadow, so whoever holds a
// loadgen holds the complete, replayable state of the run.
type loadgen struct {
	w      *svcWorkload
	base   string
	client *http.Client
	gens   []*pathGen
	sh     *shadow

	recordLat bool
	rec       *recorder // traced replay only
	opSeq     atomic.Uint64

	predictBodies [][]byte // batch mode: constant per chunk
}

func newLoadgen(w *svcWorkload, seed int64, base string) *loadgen {
	lg := &loadgen{w: w, base: base, client: newLoadClient(w.conns)}
	for i := 0; i < w.paths; i++ {
		lg.gens = append(lg.gens, newPathGen(seed, i))
	}
	lg.sh = newShadow(lg.gens)
	if w.batch > 0 {
		for lo := 0; lo < w.paths; lo += w.batch {
			names := make([]string, 0, w.batch)
			for i := lo; i < min(lo+w.batch, w.paths); i++ {
				names = append(names, lg.gens[i].Name)
			}
			lg.predictBodies = append(lg.predictBodies, appendPredictBatchBody(nil, names))
		}
	}
	return lg
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// timedPhase is the request mix of the workload's timed section.
func (lg *loadgen) timedPhase() phase {
	switch lg.w.mode {
	case modeSingle:
		return phase{measure: true, predict: true}
	case modeBatch:
		return phase{predict: true, batched: true}
	default:
		return phase{predict: true}
	}
}

// warmItemsPerRequest is the size of svc-spill's warm-up requests, half
// the daemon's 4096-item cap on a batch.
const warmItemsPerRequest = 2048

// warmUp runs the workload's untimed warm-up epochs.
func (lg *loadgen) warmUp() *loadStats {
	if lg.w.mode == modeSingle {
		return lg.run(lg.w.warmEpochs, lg.timedPhase())
	}
	// Batch and spill warm up through observe-batch alone: it is the
	// cheapest way to create the sessions and fill their windows.
	ph := phase{batched: true}
	exps := lg.advance(lg.w.warmEpochs, ph)
	if !lg.w.spill {
		return lg.drive(exps, ph)
	}
	// Against the squeezed store the observations go path by path, not
	// epoch by epoch: a path is faulted in once and takes its whole warm-up
	// history while hot, where epoch order would fault every session in
	// for every observation. Paths are independent, so the shadow — fed
	// epoch by epoch — still sees each path's series in the same order.
	wk := &worker{lg: lg}
	perReq := max(1, warmItemsPerRequest/len(exps))
	for lo := 0; lo < lg.w.paths; lo += perReq {
		hi := min(lo+perReq, lg.w.paths)
		b := append(wk.body[:0], `{"observations":[`...)
		for i := lo; i < hi; i++ {
			for e := range exps {
				if i > lo || e > 0 {
					b = append(b, ',')
				}
				b = appendObserveBody(b, lg.gens[i].Name, exps[e][i].x)
			}
		}
		wk.body = append(b, "]}"...)
		wk.observeBatch(fmt.Sprintf("paths %d–%d", lo, hi-1), int64((hi-lo)*len(exps)), 0, 0)
	}
	return &wk.stats
}

// worker is one client goroutine's scratch state.
type worker struct {
	lg    *loadgen
	stats loadStats
	body  []byte
	resp  bytes.Buffer
}

// do issues one request and returns the 200-OK body (nil on any failure,
// which is counted against ops operations).
func (wk *worker) do(method, url string, body []byte, ops int64, parent, op uint64) []byte {
	sp := wk.lg.rec.start("nethttp.roundtrip", parent, op)
	defer sp.end(0)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		wk.stats.fail(ops, "%s %s: %v", method, url, err)
		return nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if wk.lg.rec != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(sp.id, 10)+"/"+strconv.FormatUint(op, 10))
	}
	start := time.Now()
	resp, err := wk.lg.client.Do(req)
	if err != nil {
		wk.stats.fail(ops, "%s %s: %v", method, url, err)
		return nil
	}
	wk.resp.Reset()
	_, err = wk.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if wk.lg.recordLat {
		wk.stats.latUs = append(wk.stats.latUs, micros(time.Since(start)))
	}
	if err != nil {
		wk.stats.fail(ops, "%s %s: reading body: %v", method, url, err)
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		wk.stats.fail(ops, "%s %s: status %d: %.120s", method, url, resp.StatusCode, wk.resp.Bytes())
		return nil
	}
	return wk.resp.Bytes()
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// served is the part of a response the harness checks bit for bit against
// the shadow replay: the top-level fields of a prediction or an
// acknowledgement. Absent keys stay zero, which is exactly how the daemon's
// omitempty encoding represents zero. Responses are decoded with
// encoding/json — nothing the daemon's own codec (internal/fastjson) could
// share a bug with.
type served struct {
	Path         string  `json:"path"`
	Observations uint64  `json:"observations"`
	Best         string  `json:"best"`
	BestForecast float64 `json:"best_forecast_bps"`
	Family       string  `json:"family"`
	P10          float64 `json:"p10_bps"`
	P50          float64 `json:"p50_bps"`
	P90          float64 `json:"p90_bps"`
	Forecast     float64 `json:"forecast_bps"` // measure response
	Accepted     int64   `json:"accepted"`     // observe-batch response
	Rejected     int64   `json:"rejected"`
}

// servedBatch is a predict-batch response.
type servedBatch struct {
	Predictions []served `json:"predictions"`
	Missing     []string `json:"missing"`
}

// checkPrediction compares one served prediction with the shadow's and
// scores it against the epoch's actual throughput.
func (wk *worker) checkPrediction(s *served, name string, e *expect) bool {
	if s.Path != name || s.Observations != e.obsBefore || s.Best != e.best || s.Family != e.family ||
		!bitsEqual(s.BestForecast, e.bestFc) || !bitsEqual(s.P10, e.p10) || !bitsEqual(s.P50, e.p50) || !bitsEqual(s.P90, e.p90) {
		wk.stats.fail(1, "predict %s: served {obs %d best %s %v family %s [%v %v %v]} ≠ shadow {obs %d best %s %v family %s [%v %v %v]}",
			name, s.Observations, s.Best, s.BestForecast, s.Family, s.P10, s.P50, s.P90,
			e.obsBefore, e.best, e.bestFc, e.family, e.p10, e.p50, e.p90)
		return false
	}
	if s.BestForecast > 0 {
		wk.stats.errs = append(wk.stats.errs, relativeError(s.BestForecast, e.x))
	}
	if s.P10 > 0 && s.P90 >= s.P10 {
		wk.stats.covTotal++
		if e.x >= s.P10 && e.x <= s.P90 {
			wk.stats.covIn++
		}
	}
	return true
}

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// The request bodies, appended by hand: path names are the harness's own
// (no escaping needed beyond quotes) and floats use the shortest form that
// parses back to the identical float64, so the daemon and the shadow see
// the same bits.

func appendObserveBody(b []byte, name string, x float64) []byte {
	b = append(b, `{"path":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"throughput_bps":`...)
	b = appendFloat(b, x)
	return append(b, '}')
}

func appendMeasureBody(b []byte, name string, in measurement) []byte {
	b = append(b, `{"path":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `,"rtt_s":`...)
	b = appendFloat(b, in.RTT)
	b = append(b, `,"loss_rate":`...)
	b = appendFloat(b, in.Loss)
	b = append(b, `,"avail_bw_bps":`...)
	b = appendFloat(b, in.AvailBw)
	return append(b, '}')
}

func appendPredictBatchBody(b []byte, names []string) []byte {
	b = append(b, `{"paths":[`...)
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, name)
	}
	return append(b, "]}"...)
}

// beginOp opens the root span of one operation in the traced replay; all
// spans the operation causes share the returned op id.
func (wk *worker) beginOp(kind string) (open, uint64) {
	if wk.lg.rec == nil {
		return open{}, 0
	}
	id := wk.lg.opSeq.Add(1)
	return wk.lg.rec.start("bench.op."+kind, 0, id), id
}

// singleEpoch sends one path's requests for one epoch.
func (wk *worker) singleEpoch(i int, e *expect, ph phase) {
	lg := wk.lg
	name := lg.gens[i].Name
	if ph.measure {
		root, op := wk.beginOp("measure")
		wk.stats.ops++
		wk.body = appendMeasureBody(wk.body[:0], name, e.in)
		if raw := wk.do(http.MethodPost, lg.base+"/v1/measure", wk.body, 1, root.id, op); raw != nil {
			var s served
			if err := json.Unmarshal(raw, &s); err != nil || s.Path != name || !bitsEqual(s.Forecast, e.measureFc) {
				wk.stats.fail(1, "measure %s: served %v (err %v) ≠ shadow %v", name, s.Forecast, err, e.measureFc)
			}
		}
		root.end(0)
	}
	if ph.predict {
		root, op := wk.beginOp("predict")
		wk.stats.ops++
		if raw := wk.do(http.MethodGet, lg.base+"/v1/predict?path="+name, nil, 1, root.id, op); raw != nil {
			var s served
			if err := json.Unmarshal(raw, &s); err != nil {
				wk.stats.fail(1, "predict %s: %v", name, err)
			} else {
				wk.checkPrediction(&s, name, e)
			}
		}
		root.end(0)
	}
	root, op := wk.beginOp("observe")
	wk.stats.ops++
	wk.body = appendObserveBody(wk.body[:0], name, e.x)
	if raw := wk.do(http.MethodPost, lg.base+"/v1/observe", wk.body, 1, root.id, op); raw != nil {
		var s served
		if err := json.Unmarshal(raw, &s); err != nil || s.Path != name || s.Observations != e.obsBefore+1 {
			wk.stats.fail(1, "observe %s: served count %d (err %v) ≠ shadow %d", name, s.Observations, err, e.obsBefore+1)
		}
	}
	root.end(0)
}

// batchEpoch sends one chunk's predict-batch and observe-batch.
func (wk *worker) batchEpoch(chunk int, exp []expect, ph phase) {
	lg := wk.lg
	lo := chunk * lg.w.batch
	hi := min(lo+lg.w.batch, lg.w.paths)
	n := int64(hi - lo)
	if ph.predict {
		root, op := wk.beginOp("predict_batch")
		wk.stats.ops += n
		if raw := wk.do(http.MethodPost, lg.base+"/v1/predict-batch", lg.predictBodies[chunk], n, root.id, op); raw != nil {
			var b servedBatch
			if err := json.Unmarshal(raw, &b); err != nil || int64(len(b.Predictions)) != n || len(b.Missing) != 0 {
				wk.stats.fail(n, "predict-batch chunk %d: %d of %d predictions, %d missing, err %v", chunk, len(b.Predictions), n, len(b.Missing), err)
			} else {
				for i := range b.Predictions {
					wk.checkPrediction(&b.Predictions[i], lg.gens[lo+i].Name, &exp[lo+i])
				}
			}
		}
		root.end(n)
	}
	root, op := wk.beginOp("observe_batch")
	b := append(wk.body[:0], `{"observations":[`...)
	for i := lo; i < hi; i++ {
		if i > lo {
			b = append(b, ',')
		}
		b = appendObserveBody(b, lg.gens[i].Name, exp[i].x)
	}
	wk.body = append(b, "]}"...)
	wk.observeBatch(fmt.Sprintf("chunk %d", chunk), n, root.id, op)
	root.end(n)
}

// observeBatch posts wk.body, n observations, and checks the count accepted.
func (wk *worker) observeBatch(what string, n int64, parent, op uint64) {
	wk.stats.ops += n
	if raw := wk.do(http.MethodPost, wk.lg.base+"/v1/observe-batch", wk.body, n, parent, op); raw != nil {
		var s served
		if err := json.Unmarshal(raw, &s); err != nil || s.Accepted != n || s.Rejected != 0 {
			wk.stats.fail(n, "observe-batch %s: accepted %d rejected %d (err %v), want %d/0", what, s.Accepted, s.Rejected, err, n)
		}
	}
}

// run drives epochs epochs of the given phase and returns what it saw.
// The shadow is advanced first, for the whole stretch, so that no predictor
// arithmetic of this process runs while the daemon is being measured.
func (lg *loadgen) run(epochs int, ph phase) *loadStats {
	return lg.drive(lg.advance(epochs, ph), ph)
}

// advance moves the generators and the shadow forward by epochs epochs and
// returns what the daemon must answer in each.
func (lg *loadgen) advance(epochs int, ph phase) [][]expect {
	exps := make([][]expect, epochs)
	for e := range exps {
		exps[e] = lg.sh.advance(lg.gens, ph)
	}
	return exps
}

func (lg *loadgen) drive(exps [][]expect, ph phase) *loadStats {
	workers := make([]*worker, lg.w.conns)
	var wg sync.WaitGroup
	for w := range workers {
		wk := &worker{lg: lg}
		workers[w] = wk
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, exp := range exps {
				if ph.batched {
					for c := w; c < len(lg.predictBodies); c += lg.w.conns {
						wk.batchEpoch(c, exp, ph)
					}
				} else {
					for i := w; i < lg.w.paths; i += lg.w.conns {
						wk.singleEpoch(i, &exp[i], ph)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := &loadStats{}
	for _, wk := range workers {
		total.merge(&wk.stats)
	}
	return total
}

// ---------------------------------------------------------------------
// One service instance set up and warmed: the unit setup_s measures.

type svcInstance struct {
	d   *daemon
	lg  *loadgen
	dir string
}

// setUp generates the inputs, starts the daemon, waits for readiness and
// runs the untimed warm-up. Its wall time is one setup_s sample.
func (w *svcWorkload) setUp(bins *binaries, seed int64) (*svcInstance, float64, *loadStats, error) {
	start := time.Now()
	dir, err := newTempDir(w.name)
	if err != nil {
		return nil, 0, nil, err
	}
	d, err := startDaemon(bins.Predserverd, w.daemonArgs(filepath.Join(dir, "spill")))
	if err != nil {
		return nil, 0, nil, err
	}
	lg := newLoadgen(w, seed, d.base)
	warm := lg.warmUp()
	return &svcInstance{d: d, lg: lg, dir: dir}, time.Since(start).Seconds(), warm, nil
}

func (in *svcInstance) tearDown() {
	in.lg.close()
	in.d.stop(5 * time.Second)
}

// block is one timed stretch of load with the daemon's CPU around it.
type block struct {
	ops   int64
	cpu   procTimes
	wall  time.Duration
	stats *loadStats
}

// timedBlock runs one block against a daemon and reads its CPU before and
// after. The shadow advance inside lg.run happens before the first read.
func (in *svcInstance) timedBlock(epochs int) (block, error) {
	lg := in.lg
	ph := lg.timedPhase()
	exps := lg.advance(epochs, ph)
	c0, err := readProcTimes(in.d.c.pid())
	if err != nil {
		return block{}, err
	}
	t0 := time.Now()
	st := lg.drive(exps, ph)
	wall := time.Since(t0)
	c1, err := readProcTimes(in.d.c.pid())
	if err != nil {
		return block{}, err
	}
	return block{ops: st.ops, cpu: c1.sub(c0), wall: wall, stats: st}, nil
}

// svcReps is how many identical daemon instances one run measures. Each
// is set up from scratch (one setup_s sample each) and does the same fixed
// blocks of work, so block i of every repetition is the same requests on
// the same state and bestOfWindows can take the least disturbed CPU reading
// of each.
const svcReps = 3

// svcSetupProbes is how many further instances are set up only to time it.
const svcSetupProbes = 2

// svcRep is one daemon instance measured from set-up to tear-down.
type svcRep struct {
	setupS      float64
	warm        *loadStats
	blocks      []block
	allocsPerOp float64
	peakRSSMB   float64
}

// measureRep sets up one instance, runs nBlocks timed blocks against it
// and reads its allocation counters and peak memory around them.
func (w *svcWorkload) measureRep(ctx context.Context, bins *binaries, seed int64, nBlocks int) (svcRep, error) {
	var rep svcRep
	inst, setupS, warm, err := w.setUp(bins, seed)
	if err != nil {
		return rep, err
	}
	defer inst.tearDown()
	rep.setupS, rep.warm = setupS, warm
	heap0, err := fetchHeapFooter(inst.d.base)
	if err != nil {
		return rep, err
	}
	var ops int64
	for len(rep.blocks) < nBlocks {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		b, err := inst.timedBlock(w.blockEpochs)
		if err != nil {
			return rep, err
		}
		rep.blocks = append(rep.blocks, b)
		ops += b.ops
	}
	status, err := readProcStatus(inst.d.c.pid())
	if err != nil {
		return rep, err
	}
	heap1, err := fetchHeapFooter(inst.d.base)
	if err != nil {
		return rep, err
	}
	rep.allocsPerOp = float64(heap1.Mallocs-heap0.Mallocs) / float64(ops)
	rep.peakRSSMB = float64(status.PeakRSSKB) / 1024
	return rep, nil
}

// runSvc is the untraced run: end-to-end metrics from the real daemon.
func runSvc(ctx context.Context, w *svcWorkload, env *environment, seed int64, seconds int) (*result, error) {
	res := newResult(env.spec, w.name, seed, seconds, false)
	host0 := readHost()
	start := time.Now()
	perRep := w.repBlocks(seconds)

	var setups, allocs, rss, perOp []float64
	var grid [][]time.Duration
	total, warm := &loadStats{}, &loadStats{}
	var cpuSum procTimes
	var opsPerRep int64
	for r := 0; r < svcReps; r++ {
		rep, err := w.measureRep(ctx, env.bins, seed, perRep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, rep.setupS)
		allocs = append(allocs, rep.allocsPerOp)
		rss = append(rss, rep.peakRSSMB)
		warm.merge(rep.warm)
		var windows []time.Duration
		var ops int64
		for _, b := range rep.blocks {
			windows = append(windows, b.cpu.User)
			perOp = append(perOp, micros(b.cpu.User)/float64(b.ops))
			cpuSum.User += b.cpu.User
			cpuSum.Sys += b.cpu.Sys
			ops += b.ops
			total.merge(b.stats)
		}
		grid = append(grid, windows)
		if r > 0 && ops != opsPerRep {
			return nil, fmt.Errorf("repetition %d did %d operations, the first did %d", r, ops, opsPerRep)
		}
		opsPerRep = ops
	}
	// Extra set-up samples: instances set up, warmed and torn down without
	// being measured, so the median of setup_s rests on more than three.
	for i := 0; i < svcSetupProbes; i++ {
		inst, s, probeWarm, err := w.setUp(env.bins, seed)
		if err != nil {
			return nil, err
		}
		inst.tearDown()
		setups = append(setups, s)
		warm.merge(probeWarm)
	}
	host1 := readHost()

	res.Attempted, res.Failed = total.ops, total.failed
	res.set("setup_s", median(setups), len(setups))
	res.set("cpu_us_per_op", micros(bestOfWindows(grid))/float64(opsPerRep), svcReps*perRep)
	res.set("allocs_per_op", median(allocs), len(allocs))
	res.set("peak_rss_mb", median(rss), len(rss))
	res.Host = hostReading{StealFrac: stealFrac(host0, host1), Load1: host1.Load1}

	res.check("warm-up", warm.failed == 0, "%d failed operations across %d set-ups%s", warm.failed, len(setups), failureSuffix(warm.failures))
	res.check("served = shadow", total.failed == 0, "%d of %d operations failed or differed from the in-process replay%s",
		total.failed, total.ops, failureSuffix(total.failures))
	wallS := time.Since(start).Seconds()
	res.note("%d paths; %d repetitions × %d blocks × %d epochs = %d ops in %.1fs wall incl. set-up; daemon CPU user %.2fs sys %.2fs",
		w.paths, svcReps, perRep, w.blockEpochs, total.ops, wallS, cpuSum.User.Seconds(), cpuSum.Sys.Seconds())
	res.note("user CPU µs/op per block, repetition after repetition: %s; reported: best repetition of each block", formatSeries(perOp))
	res.note("set-up samples (s): %s; allocs/op per repetition: %s", formatSeries(setups), formatSeries(allocs))
	return res, nil
}

func failureSuffix(f []string) string {
	if len(f) == 0 {
		return ""
	}
	return ": " + strings.Join(f, "; ")
}

func formatSeries(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
