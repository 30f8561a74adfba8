package predsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/predict"
)

// startResilientDaemon boots a real daemon (TCP listener, Serve with the
// configured timeouts) plus a snapshot loop when snapPath is non-empty,
// and returns the base URL and a shutdown func asserting clean exits.
func startResilientDaemon(t *testing.T, cfg Config, srv *Server, snapPath string, interval time.Duration) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	snapDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()
	if snapPath != "" {
		go func() { snapDone <- srv.SnapshotLoop(ctx, snapPath, interval) }()
	} else {
		snapDone <- nil
	}
	return "http://" + ln.Addr().String(), func() {
		cancel()
		for _, c := range []chan error{serveDone, snapDone} {
			select {
			case err := <-c:
				if err != nil {
					t.Errorf("daemon goroutine exited with %v, want nil", err)
				}
			case <-time.After(10 * time.Second):
				t.Error("daemon goroutine did not exit within 10s")
			}
		}
	}
}

// errInjected is the error a failEvery hook fails its site with.
var errInjected = errors.New("injected fault")

// failEvery returns a Config.faults hook that fails site on every every-th
// call past the first after calls, at most times times (0 = no cap); other
// sites never fail. It is safe for concurrent use.
func failEvery(site string, every, after, times int) func(string) error {
	var mu sync.Mutex
	calls, fires := 0, 0
	return func(s string) error {
		if s != site {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls <= after || (times > 0 && fires >= times) || (calls-after)%every != 0 {
			return nil
		}
		fires++
		return errInjected
	}
}

// panicRoute is served only by servers a test mounts it on: its handler
// panics, so the hardened chain has a real handler panic to recover.
const panicRoute = "/test/panic"

func mountPanicRoute(srv *Server) {
	srv.mux.HandleFunc("GET "+panicRoute, func(http.ResponseWriter, *http.Request) {
		panic("test handler panic")
	})
}

// abortPredict asks base for path's forecast and abandons the request as
// soon as it is written — a client disconnecting mid-request. It reports
// whether the abort landed: the client gave up before an answer came.
func abortPredict(client *http.Client, base, path string) bool {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { cancel() },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/predict?path="+url.QueryEscape(path), nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return true
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return false
}

// slowloris opens a connection to addr, sends a request line and one
// header, then stalls. It reports whether the server hung up within hold,
// as its ReadHeaderTimeout must; the request never reaches a handler.
func slowloris(addr string, hold time.Duration) bool {
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer c.Close()
	fmt.Fprintf(c, "GET /v1/predict?path=slow HTTP/1.1\r\nHost: %s\r\n", addr)
	c.SetReadDeadline(time.Now().Add(hold))
	_, err = c.Read(make([]byte, 256))
	var nerr net.Error
	return err != nil && !(errors.As(err, &nerr) && nerr.Timeout())
}

// TestEndToEndChaos is the fault acceptance gate: a daemon whose snapshot
// writes fail on a fixed cadence, with a 2-request in-flight cap and a
// short slowloris timeout, serves a replay while the test aborts predicts
// mid-request, stalls connections inside their headers, starts the replay
// against a saturated in-flight cap and panics a handler. The daemon must
// survive with zero request errors, shed and recover, keep snapshotting
// through the failures, and serve a predict digest identical to a
// fault-free run of the same series against a default daemon.
func TestEndToEndChaos(t *testing.T) {
	series := SyntheticSeries(6, 30, 9)

	// Baseline: no faults, no shedding pressure.
	baseSrv := NewServer(Config{Shards: 4, Capacity: 64})
	base, stopBase := startResilientDaemon(t, Config{}, baseSrv, "", 0)
	baseRep, err := Replay(context.Background(), LoadConfig{Nodes: []string{base}, Workers: 4}, series)
	stopBase()
	if err != nil {
		t.Fatal(err)
	}
	if baseRep.Errors != 0 {
		t.Fatalf("baseline run had %d errors", baseRep.Errors)
	}

	// Faulted daemon: every 2nd snapshot write fails, only 2 requests may
	// be in flight, headers must arrive fast, and one route panics.
	cfg := Config{
		Shards: 4, Capacity: 64,
		MaxInFlight:       2,
		ReadHeaderTimeout: 100 * time.Millisecond,
		snapshotRetryMin:  time.Millisecond,
		snapshotRetryMax:  4 * time.Millisecond,
		faults:            failEvery(siteSnapshotWrite, 2, 0, 0),
	}
	snapPath := t.TempDir() + "/chaos-snap.json"
	srv := NewServer(cfg)
	mountPanicRoute(srv)
	chaosBase, stop := startResilientDaemon(t, cfg, srv, snapPath, 20*time.Millisecond)
	addr := strings.TrimPrefix(chaosBase, "http://")

	// The replay starts against a full in-flight semaphore, freed ~30ms
	// in: its first requests are shed with 429 and re-offered.
	for i := 0; i < cap(srv.sem); i++ {
		srv.sem <- struct{}{}
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(30 * time.Millisecond)
		for i := 0; i < cap(srv.sem); i++ {
			<-srv.sem
		}
	}()

	// Beside the replay, until it ends (and at least once each): aborted
	// predicts and slowloris connections. Predict is read-only and a
	// slowloris request never reaches a handler, so neither can touch
	// the digest.
	done := make(chan struct{})
	var aborted, hungUp int
	var faultWG sync.WaitGroup
	faultWG.Add(2)
	go func() {
		defer faultWG.Done()
		client := &http.Client{}
		defer client.CloseIdleConnections()
		for i := 0; ; i++ {
			if abortPredict(client, chaosBase, series[i%len(series)].Path) {
				aborted++
			}
			select {
			case <-done:
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	go func() {
		defer faultWG.Done()
		for {
			if slowloris(addr, time.Second) {
				hungUp++
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	rep, err := Replay(context.Background(), LoadConfig{Nodes: []string{chaosBase}, Workers: 8}, series)
	close(done)
	faultWG.Wait()
	<-released
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("faulted run had %d request errors (of %d)", rep.Errors, rep.Requests)
	}
	t.Logf("faulted replay: %d aborted predicts, %d slowloris hang-ups, %d shed retries",
		aborted, hungUp, rep.ShedRetries)
	if aborted == 0 || hungUp == 0 {
		t.Errorf("%d aborted predicts and %d slowloris hang-ups landed, want both >= 1", aborted, hungUp)
	}
	if rep.Digest != baseRep.Digest {
		t.Errorf("faults broke determinism: digest differs\nbaseline %s\nfaulted  %s",
			baseRep.Digest, rep.Digest)
	}
	if rep.ShedRetries < 1 {
		t.Errorf("replay shed retries = %d, want >= 1 (it started against a full in-flight cap)", rep.ShedRetries)
	}

	// Handler panics after the replay, so their 500s cannot meet scored
	// traffic.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(chaosBase + panicRoute)
		if err != nil {
			t.Fatalf("panicking request killed the connection: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("panicking handler answered %d, want 500", resp.StatusCode)
		}
	}

	// Two explicit snapshot cycles guarantee hitting the every-2nd-write
	// fault regardless of how many ticks the loop managed during replay.
	for i := 0; i < 2; i++ {
		if err := srv.WriteSnapshotRetry(context.Background(), snapPath); err != nil {
			t.Fatalf("WriteSnapshotRetry %d: %v", i, err)
		}
	}
	m := srv.Metrics().Snapshot()
	if m.PanicsRecovered < 1 {
		t.Errorf("panics_recovered = %d, want >= 1 (handler panics must be recovered)", m.PanicsRecovered)
	}
	if m.RequestsShed < 1 {
		t.Errorf("requests_shed = %d, want >= 1", m.RequestsShed)
	}
	if m.SnapshotFailures < 1 || m.SnapshotRetries < 1 {
		t.Errorf("snapshot failures/retries = %d/%d, want both >= 1", m.SnapshotFailures, m.SnapshotRetries)
	}
	if m.SnapshotsWritten < 2 {
		t.Errorf("snapshots_written = %d, want >= 2 despite injected failures", m.SnapshotsWritten)
	}

	// The daemon is still fully alive after all that.
	resp, err := http.Get(chaosBase + "/v1/stats")
	if err != nil {
		t.Fatalf("daemon dead after faults: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats after faults: %d", resp.StatusCode)
	}
	stop()

	// And the surviving snapshot is intact and restorable.
	fresh := NewServer(Config{Shards: 4, Capacity: 64})
	st, err := fresh.RestoreSnapshot(snapPath)
	if err != nil || st.Quarantined != "" {
		t.Fatalf("restore of a snapshot written under faults: %+v, %v", st, err)
	}
	if st.Paths != len(series) {
		t.Errorf("restored %d paths, want %d", st.Paths, len(series))
	}
}

// TestCorruptSnapshotQuarantine: a corrupt snapshot at boot is moved to
// "<path>.corrupt-<n>" and the daemon starts empty; successive corruptions
// get successive quarantine names; a stream whose trailer is missing (a
// torn write, or an edit hiding its tracks) is corruption too.
func TestCorruptSnapshotQuarantine(t *testing.T) {
	dir := t.TempDir()
	snapPath := dir + "/snap.json"

	seed := NewServer(Config{})
	seed.Registry().GetOrCreate("p1").Observe(5e6)
	seed.Registry().GetOrCreate("p2").Observe(7e6)
	if err := seed.WriteSnapshot(snapPath); err != nil {
		t.Fatal(err)
	}

	// Bit-flip inside a record → checksum mismatch.
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xFF
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{})
	st, err := srv.RestoreSnapshot(snapPath)
	if err != nil {
		t.Fatalf("RestoreSnapshot on corrupt file must not error (boot empty): %v", err)
	}
	if st.Paths != 0 || st.Quarantined != snapPath+".corrupt-1" || st.Reason == nil {
		t.Fatalf("RestoreStats = %+v, want 0 paths, quarantine to .corrupt-1, a reason", st)
	}
	if _, err := os.Stat(snapPath); !os.IsNotExist(err) {
		t.Error("corrupt snapshot still in place after quarantine")
	}
	if _, err := os.Stat(st.Quarantined); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}

	// Second corruption picks the next free name.
	if err := os.WriteFile(snapPath, []byte("{ this is not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := NewServer(Config{}).RestoreSnapshot(snapPath)
	if err != nil || st2.Quarantined != snapPath+".corrupt-2" {
		t.Fatalf("second quarantine = %+v, %v; want .corrupt-2", st2, err)
	}

	// Well-formed records with no trailer are quarantined, not restored:
	// nothing vouches that the stream is complete.
	var raw bytes.Buffer
	if err := seed.Registry().WriteSnapshot(&raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, raw.Bytes()[:raw.Len()-40], 0o644); err != nil {
		t.Fatal(err)
	}
	bare := NewServer(Config{})
	st3, err := bare.RestoreSnapshot(snapPath)
	if err != nil || st3.Quarantined != snapPath+".corrupt-3" || st3.Paths != 0 || !errors.Is(st3.Reason, ErrCorruptSnapshot) {
		t.Fatalf("trailer-less restore = %+v, %v; want 0 paths, quarantine to .corrupt-3", st3, err)
	}
	if bare.Registry().Len() != 0 {
		t.Errorf("registry holds %d paths after a trailer-less snapshot", bare.Registry().Len())
	}

	// Missing file stays a non-event.
	st4, err := NewServer(Config{}).RestoreSnapshot(dir + "/absent.json")
	if err != nil || st4.Paths != 0 || st4.Quarantined != "" {
		t.Errorf("missing-file restore = %+v, %v", st4, err)
	}
}

// TestSnapshotChecksumRoundTrip pins the write/read contract: an intact
// stream round-trips, any tampering surfaces as ErrCorruptSnapshot.
func TestSnapshotChecksumRoundTrip(t *testing.T) {
	reg := NewRegistry(Config{})
	reg.GetOrCreate("a#1").Observe(1e6)
	reg.GetOrCreate("b#2").Observe(2e6)
	data, _ := snapshotRecords(t, reg)
	if n, err := NewRegistry(Config{}).ReadSnapshot(bytes.NewReader(data)); err != nil || n != 2 {
		t.Fatalf("round trip = (%d, %v), want 2 paths", n, err)
	}
	flipped := append([]byte(nil), data...)
	flipped[10] ^= 0x01
	for _, corrupt := range [][]byte{
		append([]byte{}, data[:len(data)/2]...), // truncated
		append([]byte("x"), data...),            // prefixed garbage
		append(append([]byte{}, data...), 'x'),  // trailing garbage
		flipped,
	} {
		reg := NewRegistry(Config{})
		if _, err := reg.ReadSnapshot(bytes.NewReader(corrupt)); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("ReadSnapshot of corrupt data: err = %v, want ErrCorruptSnapshot", err)
		}
		if reg.Len() != 0 {
			t.Errorf("a corrupt snapshot left %d paths restored", reg.Len())
		}
	}
}

// TestSnapshotLoopRetriesTransientFailures: two injected consecutive write
// failures must not kill the loop — it backs off, retries, succeeds, and
// keeps ticking.
func TestSnapshotLoopRetriesTransientFailures(t *testing.T) {
	srv := NewServer(Config{
		snapshotRetryMin: time.Millisecond,
		snapshotRetryMax: 2 * time.Millisecond,
		faults:           failEvery(siteSnapshotWrite, 1, 0, 2),
	})
	srv.Registry().GetOrCreate("p").Observe(1e6)
	path := t.TempDir() + "/snap.json"

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.SnapshotLoop(ctx, path, 2*time.Millisecond) }()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Snapshot().SnapshotsWritten == 0 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot loop never recovered from injected write failures")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("SnapshotLoop returned %v, want nil", err)
	}
	m := srv.Metrics().Snapshot()
	if m.SnapshotFailures != 2 || m.SnapshotRetries < 2 {
		t.Errorf("failures/retries = %d/%d, want 2 failures and >= 2 retries", m.SnapshotFailures, m.SnapshotRetries)
	}
	if st, err := NewServer(Config{}).RestoreSnapshot(path); err != nil || st.Paths != 1 {
		t.Errorf("snapshot on disk unreadable after recovery: %+v, %v", st, err)
	}
}

// TestLoadSheddingReturns429: with the in-flight cap saturated, requests
// are shed with 429 + Retry-After and counted; freeing the cap restores
// service.
func TestLoadSheddingReturns429(t *testing.T) {
	srv := NewServer(Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	srv.sem <- struct{}{} // saturate the in-flight semaphore
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if got := srv.Metrics().Snapshot().RequestsShed; got != 1 {
		t.Errorf("requests_shed = %d, want 1", got)
	}
	<-srv.sem
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("after draining, status %d, want 200", resp.StatusCode)
	}
}

// TestPanicRecoveryMiddleware: a handler panic becomes a 500 with a JSON
// error body and a panics_recovered tick; the server keeps serving.
func TestPanicRecoveryMiddleware(t *testing.T) {
	srv := NewServer(Config{})
	mountPanicRoute(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + panicRoute)
	if err != nil {
		t.Fatalf("panicking request killed the connection: %v", err)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("panicking handler returned %d, want 500", resp.StatusCode)
	}
	if apiErr.Error == "" {
		t.Error("panic 500 carried no JSON error body")
	}
	if got := srv.Metrics().Snapshot().PanicsRecovered; got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}

	// Daemon is still alive.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic stats: %d, want 200", resp.StatusCode)
	}
}

// TestReadHeaderTimeoutClosesSlowloris: a connection that stalls inside
// its request headers is closed at ReadHeaderTimeout, and the daemon keeps
// serving everyone else.
func TestReadHeaderTimeoutClosesSlowloris(t *testing.T) {
	srv := NewServer(Config{ReadHeaderTimeout: 50 * time.Millisecond})
	base, stop := startResilientDaemon(t, Config{}, srv, "", 0)
	defer stop()

	start := time.Now()
	if !slowloris(strings.TrimPrefix(base, "http://"), 5*time.Second) {
		t.Fatal("server did not hang up within 5s on a request whose headers never completed")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("hang-up took %v, want ~ReadHeaderTimeout (50ms)", elapsed)
	}

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("stats after slowloris: %d", resp.StatusCode)
	}
}

// TestStaleMeasurementDegradation: FB forecasts age out after the zoo's 30
// observations, are flagged, drop out of best-predictor selection, and a
// fresh measurement rejuvenates them. Staleness survives snapshot/restore.
func TestStaleMeasurementDegradation(t *testing.T) {
	reg := NewRegistry(Config{})
	s := reg.GetOrCreate("p")
	in := predict.FBInputs{RTT: 0.05, LossRate: 0.005, AvailBw: 2e7}
	if f := s.SetMeasurement(in); f <= 0 {
		t.Fatalf("FB forecast %v for valid measurements, want > 0", f)
	}
	for i := 0; i < 31; i++ {
		s.Observe(10e6 * (1 + 0.01*float64(i%6)))
		if p := s.Predict(); i < 30 && p.FB.Stale {
			t.Fatalf("FB flagged stale at age %d, want only past 30", p.FB.MeasurementAge)
		}
	}
	p := s.Predict()
	if p.FB == nil {
		t.Fatal("FB state missing")
	}
	if p.FB.MeasurementAge != 31 || !p.FB.Stale {
		t.Errorf("age %d stale %v, want 31/true", p.FB.MeasurementAge, p.FB.Stale)
	}
	if p.Best == "FB" {
		t.Error("stale FB still selected as best predictor")
	}

	// Staleness survives a snapshot/restore cycle.
	snap, _ := snapshotRecords(t, reg)
	reg2 := NewRegistry(Config{})
	if _, err := reg2.ReadSnapshot(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	p2, ok := reg2.Peek("p")
	if !ok {
		t.Fatal("restored registry lost the path")
	}
	if got := p2.Predict(); got.FB == nil || !got.FB.Stale || got.FB.MeasurementAge != 31 {
		t.Errorf("restored staleness lost: %+v", got.FB)
	}

	// A fresh measurement rejuvenates the forecast.
	s.SetMeasurement(in)
	p3 := s.Predict()
	if p3.FB.Stale || p3.FB.MeasurementAge != 0 {
		t.Errorf("fresh measurement still stale: age %d stale %v", p3.FB.MeasurementAge, p3.FB.Stale)
	}
}

// TestRejectInvalidInputs: NaN/Inf/negative observations and measurements
// are rejected at both the HTTP boundary (400 + rejected_inputs metric)
// and the session API (dropped without mutating state).
func TestRejectInvalidInputs(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := []struct{ path, body string }{
		{"/v1/observe", `{"path":"p","throughput_bps":-5}`},
		{"/v1/observe", `{"path":"p","throughput_bps":0}`},
		{"/v1/measure", `{"path":"p","rtt_s":-1,"loss_rate":0.1,"avail_bw_bps":1e6}`},
		{"/v1/measure", `{"path":"p","rtt_s":0.1,"loss_rate":2,"avail_bw_bps":1e6}`},
	}
	for _, b := range bad {
		resp, data := postJSON(t, ts.URL+b.path, b.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %s: status %d, want 400", b.path, b.body, resp.StatusCode)
		}
		_ = data
	}
	if got := srv.Metrics().Snapshot().RejectedInputs; got != uint64(len(bad)) {
		t.Errorf("rejected_inputs = %d, want %d", got, len(bad))
	}
	// Malformed JSON is a 400 but not an input rejection.
	postJSON(t, ts.URL+"/v1/observe", `garbage`)
	if got := srv.Metrics().Snapshot().RejectedInputs; got != uint64(len(bad)) {
		t.Errorf("rejected_inputs counted a JSON parse failure: %d", got)
	}
	// Nothing poisoned the registry.
	if srv.Registry().Len() != 0 {
		t.Errorf("invalid inputs created %d sessions", srv.Registry().Len())
	}

	// Session-level guard for direct API users: NaN/Inf cannot be
	// expressed in JSON, so they can only arrive through Go calls.
	s := NewRegistry(Config{}).GetOrCreate("direct")
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		if n := s.Observe(x); n != 0 {
			t.Errorf("Observe(%v) absorbed the sample: count %d", x, n)
		}
	}
	if f := s.SetMeasurement(predict.FBInputs{RTT: math.NaN(), LossRate: 0.1, AvailBw: 1e6}); f != 0 {
		t.Errorf("SetMeasurement with NaN RTT returned %v, want 0", f)
	}
	if f := s.SetMeasurement(predict.FBInputs{RTT: 0.1, LossRate: 0.1, AvailBw: math.Inf(1)}); f != 0 {
		t.Errorf("SetMeasurement with Inf bandwidth returned %v, want 0", f)
	}
	if p := s.Predict(); p.FB != nil || p.Observations != 0 {
		t.Errorf("invalid inputs mutated the session: %+v", p)
	}
	if n := s.Observe(5e6); n != 1 {
		t.Errorf("valid observation after rejections: count %d, want 1", n)
	}
}
