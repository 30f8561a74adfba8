package predsvc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/predsvc/cluster"
	"repro/internal/sim"
	"repro/internal/stats"
)

// PathSeries is one path's replayable trace: the per-epoch achieved
// throughputs, and optionally the per-epoch a-priori measurements for the
// FB side (nil Inputs replays a pure HB workload).
type PathSeries struct {
	Path        string
	Throughputs []float64
	Inputs      []predict.FBInputs // len == len(Throughputs) when non-nil
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

	// Accuracy of the selected family's forecast against the next actual
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
	// the replay, chained per path and combined in sorted path order —
	// identical digests across two runs prove byte-identical predict
	// responses.
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
	if r.Retries > 0 || r.Failovers > 0 {
		s += fmt.Sprintf("\nresilience: %d retries (%d shed), %d failovers ridden out",
			r.Retries, r.ShedRetries, r.Failovers)
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

	// All traffic goes through one shared retrying cluster client:
	// rendezvous routing over cfg.Nodes, capped jittered backoff on
	// 429/5xx, and /readyz probing on connection errors — a node
	// restarting mid-replay stalls its paths' workers briefly instead of
	// failing the run.
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("predsvc: LoadConfig.Nodes is empty")
	}
	cc := cluster.NewClient(cluster.ClientConfig{Nodes: cfg.Nodes, HTTP: client})
	router := cc.Map()

	type workerOut struct {
		requests uint64
		errors   uint64
		errs     []float64
		covIn    int
		covTotal int
		digests  map[string]string
		err      error
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
				cfg: cfg, cc: cc, digests: make(map[string]string),
				router: router, lat: lat,
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
		rep.IntervalsScored += o.covTotal
		covIn += o.covIn
		allErrs = append(allErrs, o.errs...)
		for p, d := range o.digests {
			perPath[p] = d
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
	cc       *cluster.Client // retrying client carrying all traffic
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
}

// epoch replays one (path, epoch) cell: measure → predict (scored) → observe.
func (lw *loadWorker) epoch(ctx context.Context, ps PathSeries, e int) {
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
			for _, f := range pred.Families {
				if f.Name == pred.Family && f.ForecastBps > 0 {
					lw.scored = append(lw.scored, stats.RelativeError(f.ForecastBps, actual))
				}
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
