package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/availbw"
	"repro/internal/campaign"
	"repro/internal/fastjson"
	"repro/internal/iperf"
	"repro/internal/netem"
	"repro/internal/predict"
	"repro/internal/predsvc"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/tcpsim"
)

// Layer micro-measurements: each calls one layer's public functions on a
// fixed input, in this process, and reports the median cost per unit. They
// are the same on every workload — they describe the layer, not the
// workload — and exist so that a change in an end-to-end number can be
// traced to (or cleared of) a particular module. They are never gated.

// microTarget is how long one timed repetition of a micro-measurement
// lasts; microReps repetitions give the median. Together they bound the
// whole set to a few seconds per traced run.
const (
	microTarget = 30 * time.Millisecond
	microReps   = 3
)

// micro times body(n) — n iterations of the unit under test — growing n
// until one call lasts microTarget, then reports the median ns and the
// heap objects per iteration over microReps repetitions at that n.
func micro(body func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		start := time.Now()
		body(n)
		if d := time.Since(start); d >= microTarget || n >= 1<<24 {
			break
		} else if d < microTarget/16 {
			n *= 8
		} else {
			n *= 2
		}
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < microReps; r++ {
		runtime.ReadMemStats(&m0)
		start := time.Now()
		body(n)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return median(ns), median(allocs)
}

// once times a single heavyweight call microReps times and returns the
// median duration.
func once(fn func()) time.Duration {
	var ds []float64
	for r := 0; r < microReps; r++ {
		start := time.Now()
		fn()
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds))
}

// microInputs is a fixed series from the harness's own generator.
type microInputs struct {
	xs  []float64
	ins []predict.FBInputs
}

func newMicroInputs() microInputs {
	g := newPathGen(12345, 0)
	var mi microInputs
	for i := 0; i < 4096; i++ {
		m, x := g.next()
		mi.xs = append(mi.xs, x)
		mi.ins = append(mi.ins, predict.FBInputs{RTT: m.RTT, LossRate: m.Loss, AvailBw: m.AvailBw})
	}
	return mi
}

// cleanPath is the fixed, loss-free 3-hop path the simulator micros use:
// 10 Mbit/s bottleneck, 40 ms RTT, one bandwidth-delay product of buffer.
func cleanPath(eng *sim.Engine) *netem.Path {
	const capBps, rtt = 10e6, 0.040
	bdp := int(capBps * rtt / 8)
	big := 4 << 20
	return netem.NewPath(eng, sim.NewRNG(1), netem.PathSpec{
		Name: "bench-clean",
		Forward: []netem.Hop{
			{CapacityBps: capBps * 8, PropDelay: rtt * 0.05, BufferBytes: big},
			{CapacityBps: capBps, PropDelay: rtt * 0.35, BufferBytes: bdp},
			{CapacityBps: capBps * 8, PropDelay: rtt * 0.10, BufferBytes: big},
		},
		Reverse: []netem.Hop{
			{CapacityBps: capBps * 8, PropDelay: rtt * 0.10, BufferBytes: big},
			{CapacityBps: capBps * 32, PropDelay: rtt * 0.35, BufferBytes: big},
			{CapacityBps: capBps * 8, PropDelay: rtt * 0.05, BufferBytes: big},
		},
	})
}

// measureSimLayers fills the sim/netem/tcpsim/availbw/probe/campaign micros.
func measureSimLayers(res *result) {
	// sim: the bare Schedule/dispatch loop, one self-rescheduling event.
	ns, allocs := micro(func(n int) {
		eng := sim.NewEngine()
		left := n
		var fn func()
		fn = func() {
			if left--; left > 0 {
				eng.Schedule(0.001, fn)
			}
		}
		eng.Schedule(0.001, fn)
		eng.Run()
	})
	res.set("sim.bare_ns_per_event", ns, microReps)
	res.set("sim.bare_allocs_per_event", allocs, microReps)

	// netem: one packet across a 3-hop path and into the far endpoint.
	{
		eng := sim.NewEngine()
		path := cleanPath(eng)
		ns, allocs := micro(func(n int) {
			for i := 0; i < n; i++ {
				pkt := path.A.NewPacket()
				pkt.Flow, pkt.Kind, pkt.Size = 1, netem.KindData, 1500
				path.A.Send(pkt)
				eng.Run()
			}
		})
		res.set("netem.ns_per_pkt", ns, microReps)
		res.set("netem.allocs_per_pkt", allocs, microReps)
	}

	// tcpsim: a solo 50 s bulk transfer per sender on the clean path.
	for _, cc := range []struct {
		name string
		cc   tcpsim.Congestion
	}{{"reno", tcpsim.CCReno}, {"cubic", tcpsim.CCCubic}, {"bbr", tcpsim.CCBBR}} {
		var segs int64
		d := once(func() {
			eng := sim.NewEngine()
			rep := iperf.Run(eng, cleanPath(eng), 1, iperf.Config{
				Duration: 50,
				TCP:      tcpsim.Config{MaxWindowBytes: 1 << 20, DelayedAck: true, Congestion: cc.cc},
			})
			segs = rep.SegmentsSent
		})
		v := 0.0
		if segs > 0 {
			v = float64(d) / float64(segs)
		}
		res.set("tcpsim."+cc.name+"_ns_per_segment", v, microReps)
	}

	// availbw: one pathload-style Estimate(); probe: one 60 s ping window.
	d := once(func() {
		eng := sim.NewEngine()
		availbw.NewEstimator(eng, cleanPath(eng), 3, availbw.Config{StreamLength: 80, StreamsPerRate: 1, MaxIterations: 10}).Estimate()
	})
	res.set("availbw.estimate_us", micros(d), microReps)
	d = once(func() {
		eng := sim.NewEngine()
		path := cleanPath(eng)
		probe.NewResponder(path.B, 2)
		probe.Measure(eng, path.A, 2, probe.Config{}, 60)
	})
	res.set("probe.window_us", micros(d), microReps)

	// campaign: no-op jobs through Runner + Sink — the scheduling overhead
	// every trace pays once. Expected negligible; a guard.
	ns, _ = micro(func(n int) {
		jobs := make([]campaign.Job, n)
		for i := range jobs {
			jobs[i] = campaign.Job{Index: i, Path: "noop", Seed: int64(i), Epochs: 1}
		}
		r := &campaign.Runner[int]{Parallelism: 1, Sink: func(campaign.Result[int]) {}}
		r.Run(context.Background(), jobs, func(context.Context, campaign.Job, *campaign.Reporter) (int, error) { return 0, nil })
	})
	res.set("campaign.runner_us_per_job", ns/1000, microReps)
}

// resetBody is a request body that can be rewound without allocating.
type resetBody struct{ bytes.Reader }

func (*resetBody) Close() error { return nil }

// nullWriter is the cheapest possible http.ResponseWriter.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header  { return w.h }
func (w *nullWriter) WriteHeader(code int) { w.status = code }
func (w *nullWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

// handlerRig drives predsvc's in-process handler with requests built
// once and reused, so what is timed (and whose allocations are counted) is
// the handler, not the construction of its input.
type handlerRig struct {
	h     http.Handler
	w     *nullWriter
	body  resetBody
	names []string
}

func newRequest(method, target string) *http.Request {
	req, err := http.NewRequest(method, target, nil)
	if err != nil {
		panic(err)
	}
	return req
}

// serve runs one request through the handler; body, when non-nil, becomes
// the request's (rewound, non-allocating) body.
func (rig *handlerRig) serve(req *http.Request, body []byte) {
	if body != nil {
		rig.body.Reset(body)
		req.Body = &rig.body
		req.ContentLength = int64(len(body))
	}
	rig.w.status = 0
	rig.h.ServeHTTP(rig.w, req)
	if rig.w.status != http.StatusOK {
		panic(fmt.Sprintf("bench: in-process %s %s answered %d", req.Method, req.URL, rig.w.status))
	}
}

// measureServiceLayers fills the predict/fastjson/predsvc/store/nethttp micros.
func measureServiceLayers(res *result, tmp string) error {
	mi := newMicroInputs()
	at := func(i int) int { return i % len(mi.xs) }

	// predict: one Observe per family, on a warmed predictor.
	families := []struct {
		name string
		hb   predict.HB
		pre  func(i int)
	}{
		{"ma_lso", predict.NewLSO(predict.NewMA(10), predict.DefaultLSOConfig()), nil},
		{"ewma_lso", predict.NewLSO(predict.NewEWMA(0.8), predict.DefaultLSOConfig()), nil},
		{"hw_lso", predict.NewLSO(predict.NewHoltWinters(0.8, 0.2), predict.DefaultLSOConfig()), nil},
		{"switcher", predict.NewStabilitySwitcher(predict.NewEWMA(0.8), predict.NewMA(10), predict.SwitcherConfig{}), nil},
	}
	reg := predict.NewRegression(predict.RegressionConfig{})
	families = append(families, struct {
		name string
		hb   predict.HB
		pre  func(i int)
	}{"regression", reg, func(i int) { reg.SetFeatures(mi.ins[i]) }})
	ecm := predict.NewECM(predict.ECMConfig{})
	families = append(families, struct {
		name string
		hb   predict.HB
		pre  func(i int)
	}{"ecm", ecm, func(i int) { ecm.SetConditions(mi.ins[i]) }})
	for _, f := range families {
		for i := 0; i < len(mi.xs); i++ { // warm to steady state
			if f.pre != nil {
				f.pre(i)
			}
			f.hb.Observe(mi.xs[i])
		}
		k := 0
		ns, _ := micro(func(n int) {
			for i := 0; i < n; i++ {
				j := at(k)
				k++
				if f.pre != nil {
					f.pre(j)
				}
				f.hb.Observe(mi.xs[j])
			}
		})
		res.set("predict."+f.name+"_observe_ns", ns, microReps)
	}
	fb := predict.NewFB(predict.FBConfig{})
	sink := 0.0
	k := 0
	ns, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			sink += fb.Predict(mi.ins[at(k)])
			k++
		}
	})
	res.set("predict.fb_eval_ns", ns, microReps)

	// fastjson: decode one observe body the way the wire handler does;
	// append one float the way the encoder does.
	obsBody := []byte(`{"path":"p0123","throughput_bps":23456789.125}`)
	var dec fastjson.Dec
	ns, _ = micro(func(n int) {
		for i := 0; i < n; i++ {
			dec.Reset(obsBody)
			err := dec.Object(func(key []byte) error {
				switch string(key) {
				case "path":
					_, err := dec.Str()
					return err
				case "throughput_bps":
					f, err := dec.Float64()
					sink += f
					return err
				}
				return dec.Skip()
			})
			if err != nil {
				panic(err)
			}
		}
	})
	res.set("fastjson.dec_observe_ns", ns, microReps)
	var fbuf []byte
	ns, _ = micro(func(n int) {
		for i := 0; i < n; i++ {
			fbuf, _ = fastjson.AppendFloat64(fbuf[:0], mi.xs[at(i)])
		}
	})
	res.set("fastjson.append_float_ns", ns, microReps)

	// predsvc sessions and the in-process handler, on 256 warmed paths.
	srv, err := predsvc.Open(predsvc.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	const nPaths = 256
	rig := &handlerRig{h: srv.Handler(), w: &nullWriter{h: http.Header{}}}
	sessions := make([]*predsvc.Session, nPaths)
	for p := 0; p < nPaths; p++ {
		name := fmt.Sprintf("m%04d", p)
		rig.names = append(rig.names, name)
		s := srv.Registry().GetOrCreate(name)
		sessions[p] = s
		for i := 0; i < 64; i++ {
			s.SetMeasurement(mi.ins[at(p*7+i)])
			s.Observe(mi.xs[at(p*7+i)])
		}
	}
	k = 0
	nsObs, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			sessions[k%nPaths].Observe(mi.xs[at(k)])
			k++
		}
	})
	nsMeas, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			sink += sessions[k%nPaths].SetMeasurement(mi.ins[at(k)])
			k++
		}
	})
	var pred predsvc.Prediction
	var fbs predsvc.FBState
	nsPred, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			sessions[k%nPaths].PredictInto(&pred, &fbs)
			k++
		}
	})
	res.set("predsvc.session_observe_ns", nsObs, microReps)
	res.set("predsvc.session_measure_ns", nsMeas, microReps)
	res.set("predsvc.session_predict_ns", nsPred, microReps)

	var body []byte
	observeReq, measureReq := newRequest(http.MethodPost, "/v1/observe"), newRequest(http.MethodPost, "/v1/measure")
	predictReqs := make([]*http.Request, nPaths)
	for p, name := range rig.names {
		predictReqs[p] = newRequest(http.MethodGet, "/v1/predict?path="+name)
	}
	hObs, aObs := micro(func(n int) {
		for i := 0; i < n; i++ {
			body = appendObserveBody(body[:0], rig.names[k%nPaths], mi.xs[at(k)])
			rig.serve(observeReq, body)
			k++
		}
	})
	hMeas, aMeas := micro(func(n int) {
		for i := 0; i < n; i++ {
			in := mi.ins[at(k)]
			body = appendMeasureBody(body[:0], rig.names[k%nPaths], measurement{RTT: in.RTT, Loss: in.LossRate, AvailBw: in.AvailBw})
			rig.serve(measureReq, body)
			k++
		}
	})
	hPred, aPred := micro(func(n int) {
		for i := 0; i < n; i++ {
			rig.serve(predictReqs[k%nPaths], nil)
			k++
		}
	})
	res.set("predsvc.handler_observe_ns", hObs, microReps)
	res.set("predsvc.handler_measure_ns", hMeas, microReps)
	res.set("predsvc.handler_predict_ns", hPred, microReps)
	res.set("predsvc.handler_allocs_per_req", (aObs+aMeas+aPred)/3, microReps)

	// Batch handlers, 256 items per request.
	predictBatchReq, observeBatchReq := newRequest(http.MethodPost, "/v1/predict-batch"), newRequest(http.MethodPost, "/v1/observe-batch")
	pb := appendPredictBatchBody(nil, rig.names)
	nsPB, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			rig.serve(predictBatchReq, pb)
		}
	})
	var ob []byte
	nsOB, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			ob = append(ob[:0], `{"observations":[`...)
			for p, name := range rig.names {
				if p > 0 {
					ob = append(ob, ',')
				}
				ob = appendObserveBody(ob, name, mi.xs[at(k)])
				k++
			}
			ob = append(ob, "]}"...)
			rig.serve(observeBatchReq, ob)
		}
	})
	res.set("predsvc.handler_predict_batch_ns_per_item", nsPB/nPaths, microReps)
	res.set("predsvc.handler_observe_batch_ns_per_item", nsOB/nPaths, microReps)

	// store: a hot lookup, and a fault from a squeezed spill store.
	k = 0
	nsHit, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := srv.Registry().Lookup(rig.names[k%nPaths]); !ok {
				panic("bench: warmed path missing from the registry")
			}
			k++
		}
	})
	res.set("store.mem_hit_ns", nsHit, microReps)
	// handler − session − store, averaged over the three single endpoints:
	// what the serving code itself costs around the library calls.
	res.set("predsvc.handler_self_ns", (hObs+hMeas+hPred)/3-(nsObs+nsMeas+nsPred)/3-nsHit, microReps)

	spillReg, err := predsvc.OpenRegistry(predsvc.Config{SpillDir: filepath.Join(tmp, "micro-spill"), Capacity: 16})
	if err != nil {
		return err
	}
	defer spillReg.Close()
	// Histories as long as svc-spill's: a fault replays the whole of one.
	for p := 0; p < nPaths; p++ {
		s := spillReg.GetOrCreate(rig.names[p])
		for i := 0; i < svcWorkloads["svc-spill"].warmEpochs; i++ {
			s.Observe(mi.xs[at(p*7+i)])
		}
	}
	k = 0
	nsFault, _ := micro(func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := spillReg.Lookup(rig.names[k%nPaths]); !ok {
				panic("bench: spilled path missing from the registry")
			}
			k++
		}
	})
	res.set("store.spill_fault_us", nsFault/1000, microReps)

	// nethttp: the round trip of a trivial handler served by this process
	// over loopback — the floor under every request latency.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	floor := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })}
	go floor.Serve(ln)
	defer floor.Close()
	client := newLoadClient(1)
	defer client.CloseIdleConnections()
	var rtts []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		resp, err := client.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtts = append(rtts, micros(time.Since(start)))
	}
	res.set("nethttp.floor_rtt_p50_us", median(rtts), len(rtts))
	_ = sink
	return nil
}

// finishTraced ends every traced pass the same way: the layer
// micro-measurements, the host's contention over the whole pass, and zeros
// for the layers this workload does not touch.
func finishTraced(res *result, env *environment, host0 hostSample) (*result, error) {
	measureSimLayers(res)
	tmp, err := newTempDir("micro")
	if err != nil {
		return nil, err
	}
	if err := measureServiceLayers(res, tmp); err != nil {
		return nil, err
	}
	host1 := readHost()
	res.Host = hostReading{StealFrac: stealFrac(host0, host1), Load1: host1.Load1}
	res.set("host.steal_frac", res.Host.StealFrac, 1)
	res.set("host.load1", res.Host.Load1, 1)
	res.set("bench.build_s", env.bins.BuildS, 1)
	zeroFill(res)
	return res, nil
}

// zeroFill gives every per-layer metric the run did not produce the value
// 0: "this layer does no work in this workload".
func zeroFill(res *result) {
	for _, m := range res.spec.PerLayer {
		if _, ok := res.Values[m.Name]; !ok {
			res.set(m.Name, 0, 0)
		}
	}
}
