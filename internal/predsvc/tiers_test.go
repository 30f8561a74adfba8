package predsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestStatsRecentLimit: /v1/stats lists at most ?limit=N hot paths (default
// 100), most recently used first, with Truncated reporting whether the
// listing is complete.
func TestStatsRecentLimit(t *testing.T) {
	srv := NewServer(Config{Shards: 4, Capacity: 1024})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const paths = 150
	for i := 0; i < paths; i++ {
		postJSON(t, ts.URL+"/v1/observe",
			fmt.Sprintf(`{"path":"p%03d","throughput_bps":1e7}`, i))
	}

	var st StatsResponse
	if resp, data := getJSON(t, ts.URL+"/v1/stats"); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	} else if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.RecentPaths) != DefaultStatsLimit {
		t.Fatalf("default listing has %d paths, want %d", len(st.RecentPaths), DefaultStatsLimit)
	}
	if !st.Truncated {
		t.Fatal("150 paths behind a 100-row listing must report truncated")
	}
	// Most recently used first: the last path observed leads the listing.
	if st.RecentPaths[0].Path != "p149" {
		t.Fatalf("most recent path listed is %s, want p149", st.RecentPaths[0].Path)
	}
	if st.RecentPaths[0].Observations != 1 {
		t.Fatalf("p149 observations = %d, want 1", st.RecentPaths[0].Observations)
	}

	// Touch an old path; it must jump to the front.
	postJSON(t, ts.URL+"/v1/observe", `{"path":"p000","throughput_bps":1e7}`)
	if _, data := getJSON(t, ts.URL+"/v1/stats?limit=5"); true {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.RecentPaths) != 5 || st.RecentPaths[0].Path != "p000" {
		t.Fatalf("limit=5 after touching p000: %+v", st.RecentPaths)
	}
	if st.RecentPaths[0].Observations != 2 {
		t.Fatalf("p000 observations = %d, want 2", st.RecentPaths[0].Observations)
	}
	if !st.Truncated {
		t.Fatal("limit=5 of 150 paths must report truncated")
	}

	// A limit above the population lists everything, untruncated.
	if _, data := getJSON(t, ts.URL+"/v1/stats?limit=500"); true {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
	}
	if len(st.RecentPaths) != paths || st.Truncated {
		t.Fatalf("limit=500 listed %d paths truncated=%v, want %d untruncated",
			len(st.RecentPaths), st.Truncated, paths)
	}

	// Invalid limits: 400.
	for _, q := range []string{"limit=x", "limit=-1", "limit=1.5"} {
		if resp, _ := getJSON(t, ts.URL+"/v1/stats?"+q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("stats?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestObserveBatchEndpoint: a batch applies items in order, skips (and
// counts) invalid ones, and rejects oversized batches outright.
func TestObserveBatchEndpoint(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"observations":[
		{"path":"a","throughput_bps":1e7},
		{"path":"a","throughput_bps":1.2e7},
		{"path":"b","throughput_bps":9e6},
		{"path":"","throughput_bps":1e7},
		{"path":"c","throughput_bps":-5}
	]}`
	resp, data := postJSON(t, ts.URL+"/v1/observe-batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe-batch: status %d, body %s", resp.StatusCode, data)
	}
	var br ObserveBatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 3 || br.Rejected != 2 {
		t.Fatalf("batch result %+v, want 3 accepted / 2 rejected", br)
	}
	if sess, ok := srv.Registry().Lookup("a"); !ok || sess.Observations() != 2 {
		t.Fatalf("path a after batch: ok=%v", ok)
	}
	if _, ok := srv.Registry().Lookup("c"); ok {
		t.Fatal("invalid item created a session")
	}

	// Oversized batch: rejected whole, nothing applied.
	var sb strings.Builder
	sb.WriteString(`{"observations":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"path":"big%d","throughput_bps":1e7}`, i)
	}
	sb.WriteString(`]}`)
	if resp, _ := postJSON(t, ts.URL+"/v1/observe-batch", sb.String()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	if _, ok := srv.Registry().Lookup("big0"); ok {
		t.Fatal("oversized batch was partially applied")
	}
}

// TestPredictBatchEndpoint: the batch answer for each known path must
// equal the single-path endpoint's answer; unknown paths are listed as
// missing, not errors.
func TestPredictBatchEndpoint(t *testing.T) {
	srv := NewServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, p := range []string{"x", "y"} {
		for _, v := range []float64{1e7, 1.1e7, 1.05e7} {
			postJSON(t, ts.URL+"/v1/observe",
				fmt.Sprintf(`{"path":%q,"throughput_bps":%g}`, p, v))
		}
	}
	resp, data := postJSON(t, ts.URL+"/v1/predict-batch", `{"paths":["x","ghost","y"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict-batch: status %d, body %s", resp.StatusCode, data)
	}
	var br PredictBatchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Predictions) != 2 {
		t.Fatalf("predictions for %d paths, want 2", len(br.Predictions))
	}
	if len(br.Missing) != 1 || br.Missing[0] != "ghost" {
		t.Fatalf("missing = %v, want [ghost]", br.Missing)
	}
	for _, p := range br.Predictions {
		var single Prediction
		_, sdata := getJSON(t, ts.URL+"/v1/predict?path="+p.Path)
		if err := json.Unmarshal(sdata, &single); err != nil {
			t.Fatal(err)
		}
		if p.Best != single.Best || p.BestForecastBps != single.BestForecastBps {
			t.Fatalf("batch prediction for %s (%s %g) differs from single (%s %g)",
				p.Path, p.Best, p.BestForecastBps, single.Best, single.BestForecastBps)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/predict-batch", `{"paths":[]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: status %d, want 200", resp.StatusCode)
	}
}

// TestSnapshotWriteAtomic: a failed write must leave the previous snapshot
// byte-for-byte intact and no temp files behind — the regression guard on
// writeFileAtomic's temp+fsync+rename discipline.
func TestSnapshotWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.json")
	// Second write fails (Every:1 after a 1-call warm-up, once).
	srv := NewServer(Config{
		Faults: faultinject.New(1, faultinject.Rule{
			Site: SiteSnapshotWrite, Every: 1, After: 1, Times: 1,
		}),
	})
	srv.Registry().GetOrCreate("p1").Observe(5e6)
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatalf("first write: %v", err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	srv.Registry().GetOrCreate("p2").Observe(7e6)
	if err := srv.WriteSnapshot(path); err == nil {
		t.Fatal("second write did not fail under injection")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("failed write mutated the previous snapshot")
	}
	if st, err := NewServer(Config{}).RestoreSnapshot(path); err != nil || st.Paths != 1 {
		t.Fatalf("previous snapshot unreadable after failed write: %+v, %v", st, err)
	}

	// Third write succeeds and replaces the file; the directory must hold
	// exactly the snapshot — no stray temp files from any attempt.
	if err := srv.WriteSnapshot(path); err != nil {
		t.Fatalf("third write: %v", err)
	}
	if st, err := NewServer(Config{}).RestoreSnapshot(path); err != nil || st.Paths != 2 {
		t.Fatalf("final snapshot: %+v, %v", st, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "snap.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("snapshot dir holds %v, want only snap.json", names)
	}
}

// TestSpillBackedServer: with Config.SpillDir the server retains every
// path past the hot capacity — predicts against long-cold paths fault
// their sessions back in with history intact.
func TestSpillBackedServer(t *testing.T) {
	srv, err := Open(Config{Shards: 2, Capacity: 8, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const paths = 64
	for i := 0; i < paths; i++ {
		for _, v := range []float64{1e7, 1.2e7} {
			resp, data := postJSON(t, ts.URL+"/v1/observe",
				fmt.Sprintf(`{"path":"sp%03d","throughput_bps":%g}`, i, v))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("observe: %d %s", resp.StatusCode, data)
			}
		}
	}
	reg := srv.Registry()
	if reg.Len() != paths {
		t.Fatalf("registry Len = %d, want %d (nothing lost)", reg.Len(), paths)
	}
	st := reg.TierStats()
	if st.HotPaths > 8 || st.ColdPaths < paths-8 || st.Spills == 0 {
		t.Fatalf("tier stats %+v, want ≤8 hot and the rest cold", st)
	}

	// The first path went cold long ago; predict must fault it back.
	resp, data := getJSON(t, ts.URL+"/v1/predict?path=sp000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict cold path: %d %s", resp.StatusCode, data)
	}
	var p Prediction
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Best == "" || p.BestForecastBps <= 0 {
		t.Fatalf("cold path predicted %+v, want a real forecast from its history", p)
	}
	if reg.TierStats().Faults == 0 {
		t.Fatal("no faults counted for the cold predict")
	}

	// The snapshot walks both tiers: all 64 paths, cold included.
	if _, snap := snapshotRecords(t, reg); len(snap) != paths {
		t.Fatalf("snapshot captured %d paths, want %d", len(snap), paths)
	}
}

// TestClusterReplayDigest: the accuracy digest is invariant to deployment
// shape — single node, single node with batched ingest, and a 2-node
// cluster must all produce byte-identical predict streams, and the
// cluster's nodes must hold disjoint path sets covering the series.
func TestClusterReplayDigest(t *testing.T) {
	series := SyntheticSeries(24, 12, 5)
	run := func(t *testing.T, nodes int, batch bool) (string, []*Server) {
		t.Helper()
		srvs := make([]*Server, nodes)
		urls := make([]string, nodes)
		for i := range srvs {
			srvs[i] = NewServer(Config{Shards: 4, Capacity: 1024})
			ts := httptest.NewServer(srvs[i].Handler())
			t.Cleanup(ts.Close)
			urls[i] = ts.URL
		}
		rep, err := Replay(context.Background(), LoadConfig{Nodes: urls, Workers: 4, BatchObserve: batch}, series)
		if err != nil {
			t.Fatalf("replay (%d nodes, batch=%v): %v", nodes, batch, err)
		}
		if rep.Errors > 0 {
			t.Fatalf("replay (%d nodes, batch=%v): %d errors", nodes, batch, rep.Errors)
		}
		return rep.Digest, srvs
	}

	base, _ := run(t, 1, false)
	batched, _ := run(t, 1, true)
	if batched != base {
		t.Fatalf("batched ingest changed the digest:\n  plain %s\n  batch %s", base, batched)
	}
	clustered, srvs := run(t, 2, true)
	if clustered != base {
		t.Fatalf("2-node cluster changed the digest:\n  1-node %s\n  2-node %s", base, clustered)
	}

	// Disjoint ownership: every path lives on exactly one node.
	seen := map[string]int{}
	for _, s := range srvs {
		for _, p := range s.Registry().Paths() {
			seen[p]++
		}
	}
	if len(seen) != len(series) {
		t.Fatalf("cluster holds %d paths, series has %d", len(seen), len(series))
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("path %s lives on %d nodes", p, n)
		}
	}
	for _, s := range srvs {
		if s.Registry().Len() == 0 {
			t.Fatal("one cluster node received no paths — routing is degenerate")
		}
	}
}
