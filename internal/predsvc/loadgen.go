package predsvc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/predsvc/cluster"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// PathSeries is one path's replayable trace: the per-epoch achieved
// throughputs, and optionally the per-epoch a-priori measurements for the
// FB side (nil Inputs replays a pure HB workload).
type PathSeries struct {
	Path        string
	Throughputs []float64
	Inputs      []predict.FBInputs // len == len(Throughputs) when non-nil
}

// SeriesFromDataset converts a testbed-simulated dataset into replayable
// per-path series: each (path, trace) pair becomes one service path named
// "<path>#<trace>", with the pre-flow measurements of every epoch feeding
// the FB side, exactly as an online deployment would see them.
func SeriesFromDataset(ds *testbed.Dataset) []PathSeries {
	var out []PathSeries
	for _, tr := range ds.Traces {
		s := PathSeries{Path: fmt.Sprintf("%s#%d", tr.Path, tr.Index)}
		for _, rec := range tr.Records {
			s.Throughputs = append(s.Throughputs, rec.Throughput)
			s.Inputs = append(s.Inputs, predict.FBInputs{
				RTT:      rec.PreRTT,
				LossRate: rec.PreLoss,
				AvailBw:  rec.AvailBw,
			})
		}
		out = append(out, s)
	}
	return out
}

// SyntheticSeries generates deterministic throughput series with the
// structure the paper reports for real paths — a stationary level with
// multiplicative noise, occasional level shifts, and occasional one-off
// outlier dips — plus matching plausible pre-flow measurements. Identical
// (paths, epochs, seed) always produce identical series.
func SyntheticSeries(paths, epochs int, seed int64) []PathSeries {
	out := make([]PathSeries, 0, paths)
	for p := 0; p < paths; p++ {
		rng := sim.NewRNG(sim.DeriveSeed(seed, uint64(p)+1))
		base := rng.Uniform(2e6, 60e6) // long-run level, bps
		rtt := rng.Uniform(0.01, 0.2)  // base RTT, seconds
		lossy := rng.Bool(0.4)         // paper: ~40% of traces saw pre-flow loss
		level := base * rng.Uniform(0.7, 1.3)
		s := PathSeries{Path: fmt.Sprintf("synth-%03d", p)}
		for e := 0; e < epochs; e++ {
			if rng.Bool(0.02) { // level shift
				level = base * rng.Uniform(0.4, 1.6)
			}
			x := level * (1 + 0.08*rng.Normal(0, 1))
			if rng.Bool(0.03) { // outlier dip
				x = level * rng.Uniform(0.2, 0.5)
			}
			if x < 1e4 {
				x = 1e4
			}
			loss := 0.0
			if lossy {
				loss = rng.Uniform(0.0005, 0.02)
			}
			s.Throughputs = append(s.Throughputs, x)
			s.Inputs = append(s.Inputs, predict.FBInputs{
				RTT:      rtt * rng.Uniform(0.9, 1.2),
				LossRate: loss,
				AvailBw:  level * rng.Uniform(0.7, 1.2),
			})
		}
		out = append(out, s)
	}
	return out
}

// LoadConfig tunes a Replay run.
type LoadConfig struct {
	// Nodes lists the base URLs of the deployment, e.g.
	// "http://127.0.0.1:8355"; a single daemon is a one-element list.
	// Every path's requests go to the node owning it under rendezvous
	// hashing (cluster.Map). Per-path state lives entirely on one node, so
	// the predict digest of a multi-node replay equals the single-node
	// digest for the same series — the property scripts/cluster.sh gates
	// on.
	Nodes []string
	// BatchObserve groups each worker's per-epoch observations into one
	// POST /v1/observe-batch per node instead of one /v1/observe per
	// path, amortizing ingest over far fewer requests. Per-path request
	// order (measure → predict → observe per epoch) is preserved, so the
	// digest is unchanged.
	BatchObserve bool
	// Workers is the number of concurrent client goroutines; each path is
	// owned by exactly one worker, so per-path request order (measure →
	// predict → observe per epoch) is preserved — the determinism
	// contract of the service (default 8).
	Workers int
	// StartEpoch replays only epoch indices ≥ StartEpoch (default 0).
	// With the same series, a [0,k) run followed by a [k,n) run sends the
	// exact per-path request sequence of one [0,n) run — how a resize is
	// driven mid-load: phase 1, rebalance, phase 2 against the new
	// membership. Digest chains restart at the boundary, so each phase is
	// compared against a same-phase single-node reference.
	StartEpoch int
	// EpochPause sleeps each worker between epoch rounds, stretching a
	// replay's wall-clock so external events (rolling restarts) genuinely
	// overlap the load (default 0: flat out).
	EpochPause time.Duration
	// RetryDeadline bounds how long one request retries through 429s,
	// 5xxs and connection-refused before the replay fails (default 30s —
	// long enough to ride out a node restart; negative disables retries).
	RetryDeadline time.Duration
	// Chaos enables deterministic client-side fault injection: aborted
	// predict requests, slowloris probes, and forced-panic probes. All
	// chaos traffic is read-only or rejected by the server, so the predict
	// digest over the fault-free subset is unchanged by chaos. Nil
	// disables chaos.
	Chaos *ChaosConfig
}

// Fault-injection sites used by the chaos-mode load generator.
const (
	siteClientAbort = "client.abort"
	siteClientSlow  = "client.slowloris"
)

// ChaosConfig tunes the load generator's chaos mode. All decisions draw
// from a seeded injector, so a fixed replay sees a fixed number of each
// fault kind.
type ChaosConfig struct {
	// Seed for the fault-injection draws.
	Seed int64
	// AbortProb is the per-epoch probability of an extra predict request
	// that the client abandons mid-flight — a client disconnect (default
	// 0.05; negative disables).
	AbortProb float64
	// SlowProb is the per-epoch probability of a slowloris probe: a raw
	// connection that sends a partial request line and stalls until the
	// server's ReadHeaderTimeout closes it (default 0.02; negative
	// disables).
	SlowProb float64
	// SlowHold caps how long a slowloris probe waits for the server to
	// hang up before giving up (default 2s).
	SlowHold time.Duration
	// Panics is the number of ChaosPanicHeader predict probes sent after
	// the replay (default 1; negative disables). A daemon running with
	// fault injection at SiteHandlerPanic panics on each and must convert
	// it into a 500 via its recovery middleware.
	Panics int
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.AbortProb == 0 {
		c.AbortProb = 0.05
	}
	if c.SlowProb == 0 {
		c.SlowProb = 0.02
	}
	if c.SlowHold <= 0 {
		c.SlowHold = 2 * time.Second
	}
	if c.Panics == 0 {
		c.Panics = 1
	}
	return c
}

// LoadReport summarizes a Replay run.
type LoadReport struct {
	Paths    int
	Epochs   int // total epochs replayed across paths (from StartEpoch on)
	Requests uint64
	Errors   uint64
	Duration time.Duration
	QPS      float64

	// Client-side request latency over every completed request (retries
	// included — this is the latency a caller experiences, not the
	// server's service time): bucket upper bounds from the same
	// exponential histogram the server uses, in microseconds.
	LatencyP50Usec uint64
	LatencyP99Usec uint64
	// LatencyMeanUsec is the bucket-midpoint mean, in microseconds.
	LatencyMeanUsec float64

	// Accuracy of the service's "best" forecast against the next actual
	// throughput, scored client-side with the paper's Eq. 4/5.
	Predictions  int
	RMSRE        float64
	MedianAbsErr float64

	// Interval calibration: of the IntervalsScored predict responses that
	// carried a [p10,p90] interval, IntervalCoverage is the fraction whose epoch's actual
	// throughput landed inside it (nominal 0.8 for a calibrated service).
	IntervalsScored  int
	IntervalCoverage float64

	// Digest is a SHA-256 over every 200-OK /v1/predict response body of
	// the normal (fault-free) replay, chained per path and combined in
	// sorted path order — identical digests across two runs prove
	// byte-identical predict responses. Chaos traffic never enters it.
	Digest string

	// ShedRetries counts 429 responses the client absorbed by backing off
	// and retrying — load the daemon shed and the replay re-offered.
	ShedRetries uint64
	// Retries counts every backoff sleep the cluster client took (shed
	// 429s, 5xx responses, and connection errors alike).
	Retries uint64
	// Failovers counts requests that hit at least one connection error —
	// a node down or restarting — and still completed after the client
	// probed the node back to readiness. A rolling restart that genuinely
	// overlapped the load shows up here as a non-zero count.
	Failovers uint64
	// PerNode maps each node's base URL to the requests it completed —
	// the per-node load share behind the linear-scaling claim. Single-node
	// runs carry one entry.
	PerNode map[string]uint64
	// ChaosRequests / ChaosFaults count the extra fault-injected requests
	// sent in chaos mode and how many of them ended in the intended
	// abnormal way (aborted, hung up on, or answered 500).
	ChaosRequests uint64
	ChaosFaults   uint64
}

func (r LoadReport) String() string {
	s := fmt.Sprintf(
		"%d paths, %d epochs: %d requests (%d errors) in %v → %.0f req/s "+
			"(client latency p50 <%dµs, p99 <%dµs); "+
			"%d predictions scored, RMSRE %.3f, median |E| %.3f",
		r.Paths, r.Epochs, r.Requests, r.Errors, r.Duration.Round(time.Millisecond),
		r.QPS, r.LatencyP50Usec, r.LatencyP99Usec,
		r.Predictions, r.RMSRE, r.MedianAbsErr)
	if r.IntervalsScored > 0 {
		s += fmt.Sprintf("; [p10,p90] coverage %.3f over %d intervals",
			r.IntervalCoverage, r.IntervalsScored)
	}
	s += fmt.Sprintf("\ndigest sha256:%s", r.Digest)
	if r.ShedRetries > 0 || r.ChaosRequests > 0 {
		s += fmt.Sprintf("\nchaos: %d injected client faults (%d landed), %d shed retries",
			r.ChaosRequests, r.ChaosFaults, r.ShedRetries)
	}
	if r.Retries > 0 || r.Failovers > 0 {
		s += fmt.Sprintf("\nresilience: %d retries, %d failovers ridden out", r.Retries, r.Failovers)
	}
	if len(r.PerNode) > 1 {
		nodes := make([]string, 0, len(r.PerNode))
		for n := range r.PerNode {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		for _, n := range nodes {
			qps := 0.0
			if r.Duration > 0 {
				qps = float64(r.PerNode[n]) / r.Duration.Seconds()
			}
			s += fmt.Sprintf("\nnode %s: %d requests → %.0f req/s", n, r.PerNode[n], qps)
		}
	}
	return s
}

// Replay drives the daemons at cfg.Nodes with the given series: per path
// and epoch it installs the pre-flow measurements (when present), asks for
// a prediction, scores the returned best forecast against the epoch's
// actual throughput, and feeds that throughput back as an observation.
// Paths are distributed over cfg.Workers goroutines; epochs within a path
// are strictly sequential. Cancelling ctx stops the replay at the next
// request boundary.
func Replay(ctx context.Context, cfg LoadConfig, series []PathSeries) (*LoadReport, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers * 2,
			MaxIdleConnsPerHost: cfg.Workers * 2,
		},
	}
	// Close pooled connections when the replay is done. Under CPU
	// contention the transport dials speculative spare connections that
	// never carry a request; on the server side those sit in StateNew,
	// which http.Server.Shutdown does not close — a graceful shutdown
	// right after a replay would stall its full timeout waiting on them.
	defer client.CloseIdleConnections()

	// All normal traffic goes through one shared retrying cluster client:
	// rendezvous routing over cfg.Nodes, capped jittered backoff on
	// 429/5xx, and /readyz probing on connection errors — a node
	// restarting mid-replay stalls its paths' workers briefly instead of
	// failing the run.
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("predsvc: LoadConfig.Nodes is empty")
	}
	cc := cluster.NewClient(cluster.ClientConfig{
		Nodes:         cfg.Nodes,
		HTTP:          client,
		RetryDeadline: cfg.RetryDeadline,
	})
	router := cc.Map()

	// Chaos mode: one shared seeded injector across workers. Each
	// per-epoch evaluation consumes one draw under the injector's lock, so
	// the total number of injected faults is fixed by (series, seed) even
	// though their assignment to epochs depends on worker interleaving.
	var chaos *faultinject.Injector
	var chaosCfg ChaosConfig
	var host string
	if cfg.Chaos != nil {
		chaosCfg = cfg.Chaos.withDefaults()
		chaos = faultinject.New(chaosCfg.Seed,
			faultinject.Rule{Site: siteClientAbort, Probability: chaosCfg.AbortProb},
			faultinject.Rule{Site: siteClientSlow, Probability: chaosCfg.SlowProb},
		)
		if u, err := url.Parse(cfg.Nodes[0]); err == nil {
			host = u.Host
		}
	}

	type workerOut struct {
		requests    uint64
		errors      uint64
		chaosReqs   uint64
		chaosFaults uint64
		errs        []float64
		covIn       int
		covTotal    int
		digests     map[string]string
		err         error
	}
	outs := make([]workerOut, cfg.Workers)
	// One lock-free latency histogram shared by every worker (detached:
	// it is reported, never exported); the same bucket layout the server's
	// service-time histograms use, but timed around the retrying client,
	// so it measures what callers experience.
	var detached *obs.Registry
	lat := detached.Histogram("predload_client_latency_seconds", "client-side request latency", latencyBounds)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lw := loadWorker{
				cfg: cfg, client: client, cc: cc, digests: make(map[string]string),
				router: router, chaos: chaos, chaosCfg: chaosCfg, host: host,
				lat: lat,
			}
			// Epoch-major over this worker's paths so load interleaves
			// across paths instead of finishing them one by one.
			maxEpochs := 0
			var mine []PathSeries
			for i := w; i < len(series); i += cfg.Workers {
				mine = append(mine, series[i])
				if n := len(series[i].Throughputs); n > maxEpochs {
					maxEpochs = n
				}
			}
			for e := cfg.StartEpoch; e < maxEpochs && lw.err == nil; e++ {
				for _, ps := range mine {
					if e >= len(ps.Throughputs) {
						continue
					}
					if ctx.Err() != nil {
						lw.err = ctx.Err()
						break
					}
					lw.epoch(ctx, ps, e)
				}
				// In batch mode the epoch's observations are pending: one
				// observe-batch per node closes the epoch, keeping each
				// path's observe before its next measure/predict.
				lw.flushObserves(ctx)
				if cfg.EpochPause > 0 && e < maxEpochs-1 && lw.err == nil {
					select {
					case <-ctx.Done():
						lw.err = ctx.Err()
					case <-time.After(cfg.EpochPause):
					}
				}
			}
			outs[w] = workerOut{
				requests: lw.requests, errors: lw.errors,
				chaosReqs: lw.chaosRequests, chaosFaults: lw.chaosFaults,
				errs: lw.scored, covIn: lw.covIn, covTotal: lw.covTotal,
				digests: lw.digests, err: lw.err,
			}
		}(w)
	}
	wg.Wait()

	rep := &LoadReport{Paths: len(series)}
	var allErrs []float64
	var covIn int
	perPath := make(map[string]string)
	for _, o := range outs {
		if o.err != nil && ctx.Err() == nil {
			return nil, o.err
		}
		rep.Requests += o.requests
		rep.Errors += o.errors
		rep.ChaosRequests += o.chaosReqs
		rep.ChaosFaults += o.chaosFaults
		rep.IntervalsScored += o.covTotal
		covIn += o.covIn
		allErrs = append(allErrs, o.errs...)
		for p, d := range o.digests {
			perPath[p] = d
		}
	}

	// Forced-panic probes: sent after the replay so a recovering daemon's
	// 500s cannot interleave with scored traffic. The probe asks for an
	// existing path with ChaosPanicHeader set; a daemon with chaos
	// injection panics in-handler and must answer 500 (recovery
	// middleware), a production daemon just serves the prediction. Either
	// way the response stays out of the digest.
	if cfg.Chaos != nil && len(series) > 0 && ctx.Err() == nil {
		probe := router.Node(series[0].Path) + "/v1/predict?path=" + url.QueryEscape(series[0].Path)
		for i := 0; i < chaosCfg.Panics; i++ {
			rep.ChaosRequests++
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, probe, nil)
			if err != nil {
				break
			}
			req.Header.Set(ChaosPanicHeader, "1")
			resp, err := client.Do(req)
			if err != nil {
				rep.ChaosFaults++
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusInternalServerError {
				rep.ChaosFaults++
			}
		}
	}
	for _, ps := range series {
		rep.Epochs += max(len(ps.Throughputs)-cfg.StartEpoch, 0)
	}
	rep.Duration = time.Since(start)
	if rep.Duration > 0 {
		rep.QPS = float64(rep.Requests) / rep.Duration.Seconds()
	}
	ls := latencySnapshot(lat)
	rep.LatencyP50Usec = ls.P50Usec
	rep.LatencyP99Usec = ls.P99Usec
	rep.LatencyMeanUsec = ls.MeanUsec()
	cs := cc.Stats()
	rep.ShedRetries = cs.ShedRetries
	rep.Retries = cs.Retries
	rep.Failovers = cs.Failovers
	rep.PerNode = cs.Completed
	rep.Predictions = len(allErrs)
	if rep.IntervalsScored > 0 {
		rep.IntervalCoverage = float64(covIn) / float64(rep.IntervalsScored)
	}
	rep.RMSRE = stats.RMSRE(allErrs)
	abs := make([]float64, len(allErrs))
	for i, e := range allErrs {
		abs[i] = math.Abs(stats.ClampError(e))
	}
	rep.MedianAbsErr = stats.Median(abs)

	// Combine per-path digest chains in sorted order: worker assignment
	// and completion order cannot affect the result.
	names := make([]string, 0, len(perPath))
	for p := range perPath {
		names = append(names, p)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, p := range names {
		fmt.Fprintf(h, "%s=%s\n", p, perPath[p])
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	return rep, ctx.Err()
}

// loadWorker is one replay goroutine's state.
type loadWorker struct {
	cfg      LoadConfig
	client   *http.Client    // raw client, for chaos traffic only
	cc       *cluster.Client // retrying client carrying all normal traffic
	router   *cluster.Map    // path → owning node's base URL
	requests uint64
	errors   uint64
	scored   []float64
	covIn    int               // actuals inside the served [p10,p90] interval
	covTotal int               // predict responses that carried an interval
	digests  map[string]string // path → running hex digest chain
	lat      *obs.Histogram    // shared client-side latency histogram
	err      error

	// pending buffers this epoch round's observations per node when
	// BatchObserve is on; flushObserves drains it between epoch indices.
	pending map[string][]ObserveRequest

	// chaos state (nil injector = chaos off)
	chaos         *faultinject.Injector
	chaosCfg      ChaosConfig
	host          string
	chaosRequests uint64
	chaosFaults   uint64
}

// epoch replays one (path, epoch) cell: measure → predict (scored) → observe.
func (lw *loadWorker) epoch(ctx context.Context, ps PathSeries, e int) {
	if lw.chaos != nil {
		if lw.chaos.Check(siteClientAbort) != nil {
			lw.chaosAbort(ctx, ps.Path)
		}
		if lw.chaos.Check(siteClientSlow) != nil {
			lw.chaosSlowloris()
		}
	}
	actual := ps.Throughputs[e]
	base := lw.router.Node(ps.Path)
	hasInputs := ps.Inputs != nil
	if hasInputs {
		in := ps.Inputs[e]
		lw.post(ctx, base, "/v1/measure", MeasureRequest{
			Path: ps.Path, RTTSeconds: in.RTT, LossRate: in.LossRate, AvailBwBps: in.AvailBw,
		}, nil)
	}
	// Before the first measure/observe the path does not exist yet; skip
	// the predict so a pure-HB replay never asks about an unknown path.
	if hasInputs || e > 0 {
		var pred Prediction
		body := lw.get(ctx, base, "/v1/predict?path="+url.QueryEscape(ps.Path), &pred)
		if body != nil {
			prev := lw.digests[ps.Path]
			sum := sha256.Sum256(append([]byte(prev), body...))
			lw.digests[ps.Path] = hex.EncodeToString(sum[:])
			if pred.Best != "" && pred.BestForecastBps > 0 {
				lw.scored = append(lw.scored, stats.RelativeError(pred.BestForecastBps, actual))
			}
			if pred.P10Bps > 0 && pred.P90Bps >= pred.P10Bps {
				lw.covTotal++
				if actual >= pred.P10Bps && actual <= pred.P90Bps {
					lw.covIn++
				}
			}
		}
	}
	ob := ObserveRequest{Path: ps.Path, ThroughputBps: actual}
	if lw.cfg.BatchObserve {
		if lw.pending == nil {
			lw.pending = make(map[string][]ObserveRequest)
		}
		lw.pending[base] = append(lw.pending[base], ob)
		return
	}
	lw.post(ctx, base, "/v1/observe", ob, nil)
}

// flushObserves drains the batch-observe buffer: one POST
// /v1/observe-batch per node (chunked at the server's item cap), in
// enqueue order. Called between epoch indices, it lands every path's
// epoch-e observation before that path's epoch-e+1 measure/predict, so
// the service sees the exact per-path sequence of unbatched mode.
func (lw *loadWorker) flushObserves(ctx context.Context) {
	if len(lw.pending) == 0 {
		return
	}
	nodes := make([]string, 0, len(lw.pending))
	for n := range lw.pending {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		batch := lw.pending[node]
		for len(batch) > 0 && lw.err == nil {
			n := len(batch)
			if n > maxBatchItems {
				n = maxBatchItems
			}
			var out ObserveBatchResponse
			lw.post(ctx, node, "/v1/observe-batch", ObserveBatchRequest{Observations: batch[:n]}, &out)
			lw.errors += uint64(out.Rejected)
			batch = batch[n:]
		}
	}
	lw.pending = make(map[string][]ObserveRequest)
}

// chaosAbort fires an extra predict request and abandons it almost
// immediately — a client disconnect mid-request. Predict is read-only, so
// whether the server finished processing or not, session state and the
// fault-free digest are untouched.
func (lw *loadWorker) chaosAbort(ctx context.Context, path string) {
	lw.chaosRequests++
	base := lw.router.Node(path)
	actx, cancel := context.WithTimeout(ctx, 500*time.Microsecond)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet,
		base+"/v1/predict?path="+url.QueryEscape(path), nil)
	if err != nil {
		return
	}
	resp, err := lw.client.Do(req)
	if err != nil {
		lw.chaosFaults++ // aborted as intended
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// chaosSlowloris opens a raw connection, sends a partial request and
// stalls, waiting for the server's ReadHeaderTimeout to hang up. The
// request never completes its headers, so no handler runs.
func (lw *loadWorker) chaosSlowloris() {
	if lw.host == "" {
		return
	}
	lw.chaosRequests++
	c, err := net.DialTimeout("tcp", lw.host, time.Second)
	if err != nil {
		return
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /v1/predict?path=chaos HTTP/1.1\r\nHost: %s\r\n", lw.host)
	c.SetReadDeadline(time.Now().Add(lw.chaosCfg.SlowHold))
	buf := make([]byte, 256)
	_, err = c.Read(buf)
	var nerr net.Error
	if err != nil && !(errors.As(err, &nerr) && nerr.Timeout()) {
		lw.chaosFaults++ // server hung up on us — the defense worked
	}
}

func (lw *loadWorker) post(ctx context.Context, base, path string, body, out any) {
	if lw.err != nil {
		return
	}
	data, err := json.Marshal(body)
	if err != nil {
		lw.err = err
		return
	}
	lw.do(ctx, http.MethodPost, base, path, data, out)
}

// get performs a GET and returns the raw body on HTTP 200 (nil otherwise),
// decoding into out when non-nil.
func (lw *loadWorker) get(ctx context.Context, base, path string, out any) []byte {
	if lw.err != nil {
		return nil
	}
	return lw.do(ctx, http.MethodGet, base, path, nil, out)
}

// do issues one request through the retrying cluster client, which rides
// out shed 429s, 5xx blips and node restarts with backoff and /readyz
// probing. The worker blocks until the request lands (or the retry
// deadline expires — the only per-node failure that still fails the
// run), so per-path request order — the determinism contract — is
// preserved even across a node restart.
func (lw *loadWorker) do(ctx context.Context, method, base, path string, body []byte, out any) []byte {
	reqStart := time.Now()
	status, data, err := lw.cc.Do(ctx, method, base, path, body)
	if err != nil {
		lw.err = err
		return nil
	}
	lw.lat.Observe(time.Since(reqStart).Seconds())
	lw.requests++
	if status != http.StatusOK {
		lw.errors++
		return nil
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			lw.err = fmt.Errorf("predsvc: bad %s response: %w", path, err)
			return nil
		}
	}
	return data
}
