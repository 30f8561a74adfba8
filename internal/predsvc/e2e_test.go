package predsvc

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"testing"
	"time"
)

// startDaemon runs a real Server (own listener, real TCP) and returns its
// base URL plus a shutdown function that asserts a clean exit.
func startDaemon(t *testing.T, cfg Config) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("daemon shutdown: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not shut down within 10s")
		}
	}
}

// TestEndToEndDaemonLoad is the short-mode CI gate: boot the daemon on an
// ephemeral port, drive it with the load generator for a couple of
// seconds' worth of requests, and assert the accuracy statistics are
// non-zero end to end.
func TestEndToEndDaemonLoad(t *testing.T) {
	base, stop := startDaemon(t, Config{Shards: 8, Capacity: 256})
	defer stop()

	series := SyntheticSeries(8, 40, 11)
	rep, err := Replay(context.Background(), LoadConfig{Nodes: []string{base}, Workers: 4}, series)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load run had %d request errors (of %d)", rep.Errors, rep.Requests)
	}
	if want := uint64(8 * 40 * 3); rep.Requests != want {
		t.Errorf("Requests = %d, want %d (measure+predict+observe per epoch)", rep.Requests, want)
	}
	if rep.Predictions == 0 || rep.RMSRE <= 0 {
		t.Errorf("accuracy stats empty: predictions %d, RMSRE %v", rep.Predictions, rep.RMSRE)
	}
	if rep.Digest == "" {
		t.Error("empty determinism digest")
	}

	// The daemon agrees it served the traffic.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Paths != 8 || st.Metrics.Observations != 8*40 || st.Metrics.Predictions == 0 {
		t.Errorf("daemon stats: paths %d, observations %d, predictions %d",
			st.Paths, st.Metrics.Observations, st.Metrics.Predictions)
	}
}

// TestReplayEpochsFromStartEpoch: a phase-split replay reports the epochs
// it replayed. A [0,k) run plus a [k,n) run report each path's n epochs in
// total, and a path shorter than k contributes nothing to the second.
func TestReplayEpochsFromStartEpoch(t *testing.T) {
	const paths, boundary, epochs = 4, 6, 15
	base, stop := startDaemon(t, Config{Shards: 4, Capacity: 64})
	defer stop()
	phase1 := SyntheticSeries(paths, boundary, 3)
	full := SyntheticSeries(paths, epochs, 3)
	short := boundary - 2
	for _, s := range [][]PathSeries{phase1, full} {
		s[0].Throughputs, s[0].Inputs = s[0].Throughputs[:short], s[0].Inputs[:short]
	}
	replay := func(cfg LoadConfig, series []PathSeries) *LoadReport {
		t.Helper()
		rep, err := Replay(context.Background(), cfg, series)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("%d request errors", rep.Errors)
		}
		return rep
	}
	rep1 := replay(LoadConfig{Nodes: []string{base}, Workers: 2}, phase1)
	rep2 := replay(LoadConfig{Nodes: []string{base}, Workers: 2, StartEpoch: boundary}, full)
	if want := short + (paths-1)*boundary; rep1.Epochs != want {
		t.Errorf("phase 1 reports %d epochs, want %d", rep1.Epochs, want)
	}
	if want := (paths - 1) * (epochs - boundary); rep2.Epochs != want {
		t.Errorf("phase 2 reports %d epochs, want %d", rep2.Epochs, want)
	}
	if got, want := rep1.Epochs+rep2.Epochs, short+(paths-1)*epochs; got != want {
		t.Errorf("the two phases report %d epochs, want every path's length: %d", got, want)
	}
	if got, want := rep2.Requests, uint64(3*rep2.Epochs); got != want {
		t.Errorf("phase 2 sent %d requests, want 3 per reported epoch: %d", got, want)
	}
}

// TestReplayReservedCharacterPaths replays series whose path names carry
// URL-reserved characters — most importantly '#', which SeriesFromDataset
// puts in every name ("<path>#<trace>") and which http.NewRequest would
// treat as a fragment delimiter without query escaping. Every predict must
// hit the session created by the matching observe/measure: zero request
// errors and every eligible epoch scored.
func TestReplayReservedCharacterPaths(t *testing.T) {
	base, stop := startDaemon(t, Config{Shards: 4, Capacity: 64})
	defer stop()

	names := []string{
		"ma-bdp#1",
		"host-a host-b#0",
		"a&b=c?d#2",
		"100%loss#3",
		"src+dst/π#4",
	}
	gen := SyntheticSeries(len(names), 20, 5)
	series := make([]PathSeries, len(names))
	for i, name := range names {
		series[i] = gen[i]
		series[i].Path = name
	}

	rep, err := Replay(context.Background(), LoadConfig{Nodes: []string{base}, Workers: 3}, series)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("replay with reserved-char paths had %d request errors (of %d): predict must reach the full path name", rep.Errors, rep.Requests)
	}
	// Every epoch has FB inputs, so every epoch's predict should be scored.
	if want := len(names) * 20; rep.Predictions != want {
		t.Errorf("Predictions = %d, want %d", rep.Predictions, want)
	}

	// The daemon must know the paths under their exact names.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Paths != len(names) {
		t.Errorf("daemon registered %d paths, want %d (truncated names would collide or multiply)", st.Paths, len(names))
	}
}

// TestEndToEndDeterministicDigest replays the same trace against two
// fresh daemons with different worker counts; the digests must match —
// byte-identical /v1/predict responses across runs, the ISSUE's
// determinism acceptance criterion, at small scale for the short suite.
func TestEndToEndDeterministicDigest(t *testing.T) {
	series := SyntheticSeries(6, 30, 23)
	digest := func(workers int) string {
		base, stop := startDaemon(t, Config{Shards: 4, Capacity: 64})
		defer stop()
		rep, err := Replay(context.Background(), LoadConfig{Nodes: []string{base}, Workers: workers}, series)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("load run had %d errors", rep.Errors)
		}
		return rep.Digest
	}
	d1 := digest(2)
	d2 := digest(8)
	if d1 != d2 {
		t.Errorf("digests differ across runs/worker counts:\n%s\n%s", d1, d2)
	}
}

// TestSustainedLoad50k is the full-scale acceptance run (skipped in
// -short): ≥50k observe+predict+measure requests against a local daemon
// with zero errors, twice, with byte-identical predict traffic.
func TestSustainedLoad50k(t *testing.T) {
	if testing.Short() {
		t.Skip("sustained 50k-request load run skipped in -short mode")
	}
	series := SyntheticSeries(120, 150, 1) // 120×150×3 = 54k requests/run
	run := func() *LoadReport {
		base, stop := startDaemon(t, Config{})
		defer stop()
		rep, err := Replay(context.Background(), LoadConfig{Nodes: []string{base}, Workers: 16}, series)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1 := run()
	if r1.Errors != 0 {
		t.Fatalf("sustained run had %d errors of %d requests", r1.Errors, r1.Requests)
	}
	if r1.Requests < 50000 {
		t.Fatalf("sustained run made %d requests, want ≥ 50000", r1.Requests)
	}
	if r1.Predictions == 0 || r1.RMSRE <= 0 {
		t.Errorf("accuracy stats empty at scale: %+v", r1)
	}
	t.Logf("sustained: %s", r1)

	r2 := run()
	if r2.Digest != r1.Digest {
		t.Errorf("determinism broken at scale: digests differ\n%s\n%s", r1.Digest, r2.Digest)
	}
}

// TestServeGracefulShutdownMidTraffic cancels the daemon context while a
// replay is in flight; Serve must return cleanly and the replay must
// surface the cancellation, not hang.
func TestServeGracefulShutdownMidTraffic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()

	loadCtx, loadCancel := context.WithCancel(context.Background())
	series := SyntheticSeries(4, 5000, 3)
	repc := make(chan error, 1)
	go func() {
		_, err := Replay(loadCtx, LoadConfig{Nodes: []string{"http://" + ln.Addr().String()}, Workers: 4}, series)
		repc <- err
	}()
	time.Sleep(100 * time.Millisecond)
	loadCancel()
	if err := <-repc; err != context.Canceled {
		t.Errorf("replay error = %v, want context.Canceled", err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v on graceful shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
}
