package predsvc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/predict"
	"repro/internal/predsvc/cluster"
	"repro/internal/predsvc/store"
)

// handoffPair spins up two in-process servers and seeds the first with
// paths carrying a few observations each.
func handoffPair(t *testing.T, srcCfg, dstCfg Config) (src, dst *Server, srcURL, dstURL string) {
	t.Helper()
	src = NewServer(srcCfg)
	dst = NewServer(dstCfg)
	tsSrc := httptest.NewServer(src.Handler())
	tsDst := httptest.NewServer(dst.Handler())
	t.Cleanup(tsSrc.Close)
	t.Cleanup(tsDst.Close)
	return src, dst, tsSrc.URL, tsDst.URL
}

func seedPaths(t *testing.T, url string, n, obs int) {
	t.Helper()
	for i := 0; i < n; i++ {
		for j := 0; j < obs; j++ {
			resp, data := postJSON(t, url+"/v1/observe",
				fmt.Sprintf(`{"path":"h%03d","throughput_bps":%g}`, i, 1e7+float64(i*obs+j)*1e4))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed observe: %d %s", resp.StatusCode, data)
			}
		}
	}
}

// predictBodies captures the raw /v1/predict response per path — the
// byte-identical currency the handoff must preserve.
func predictBodies(t *testing.T, url string, paths []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		resp, data := getJSON(t, url+"/v1/predict?path="+p)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("predict %s: %d %s", p, resp.StatusCode, data)
		}
		out[p] = string(data)
	}
	return out
}

// TestRebalanceMovesEverySession: a node leaving the cluster (absent from
// To) hands every session to the survivor, with predictor state preserved
// to the byte and the source left empty.
func TestRebalanceMovesEverySession(t *testing.T) {
	src, dst, srcURL, dstURL := handoffPair(t, Config{}, Config{})
	const paths = 40
	seedPaths(t, srcURL, paths, 4)
	want := predictBodies(t, srcURL, src.Registry().Paths())

	rep, err := Rebalance(context.Background(), RebalanceConfig{
		From: []string{srcURL},
		To:   []string{dstURL},
	})
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Moved != paths || rep.Imported != paths || rep.Skipped != 0 || rep.Dropped != paths || rep.Retries != 0 {
		t.Fatalf("report %+v, want %d moved+imported+dropped, no skips/retries", rep, paths)
	}
	if n := src.Registry().Len(); n != 0 {
		t.Fatalf("source still holds %d sessions after drop", n)
	}
	if n := dst.Registry().Len(); n != paths {
		t.Fatalf("destination holds %d sessions, want %d", n, paths)
	}
	for p, body := range predictBodies(t, dstURL, dst.Registry().Paths()) {
		if body != want[p] {
			t.Fatalf("prediction for %s changed across handoff:\n  src %s\n  dst %s", p, want[p], body)
		}
	}
	m := dst.Metrics().Snapshot()
	if m.HandoffImported != paths {
		t.Fatalf("destination handoff_imported = %d, want %d", m.HandoffImported, paths)
	}
}

// TestRebalanceRetriesExportKill: a mid-transfer kill of the export
// stream (no trailer) voids the attempt; the orchestrator's retry
// completes the move with nothing lost or doubled.
func TestRebalanceRetriesExportKill(t *testing.T) {
	srcCfg := Config{Faults: faultinject.New(1, faultinject.Rule{
		Site: SiteHandoffExport, Every: 1, After: 5, Times: 1,
	})}
	src, dst, srcURL, dstURL := handoffPair(t, srcCfg, Config{})
	const paths = 24
	seedPaths(t, srcURL, paths, 3)
	want := predictBodies(t, srcURL, src.Registry().Paths())

	rep, err := Rebalance(context.Background(), RebalanceConfig{
		From: []string{srcURL},
		To:   []string{dstURL},
	})
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Retries == 0 {
		t.Fatal("export kill did not force a retry — the fault never fired")
	}
	if rep.Moved != paths || src.Registry().Len() != 0 || dst.Registry().Len() != paths {
		t.Fatalf("after retry: report %+v, src=%d dst=%d; want all %d moved",
			rep, src.Registry().Len(), dst.Registry().Len(), paths)
	}
	for p, body := range predictBodies(t, dstURL, dst.Registry().Paths()) {
		if body != want[p] {
			t.Fatalf("prediction for %s corrupted by the killed-and-retried export", p)
		}
	}
}

// TestRebalanceRetriesImportFault: the first import 500s mid-batch with a
// prefix applied; the retried pass skips that prefix via last-writer-wins
// and lands the rest — idempotence under partial application.
func TestRebalanceRetriesImportFault(t *testing.T) {
	dstCfg := Config{Faults: faultinject.New(1, faultinject.Rule{
		Site: SiteHandoffImport, Every: 1, After: 5, Times: 1,
	})}
	src, dst, srcURL, dstURL := handoffPair(t, Config{}, dstCfg)
	const paths = 24
	seedPaths(t, srcURL, paths, 3)

	rep, err := Rebalance(context.Background(), RebalanceConfig{
		From: []string{srcURL},
		To:   []string{dstURL},
	})
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Retries == 0 {
		t.Fatal("import fault did not force a retry")
	}
	if rep.Skipped != 5 || rep.Imported != paths-5 {
		t.Fatalf("report %+v: want the 5 pre-fault records skipped on retry and %d imported", rep, paths-5)
	}
	if src.Registry().Len() != 0 || dst.Registry().Len() != paths {
		t.Fatalf("src=%d dst=%d after retried import, want 0/%d",
			src.Registry().Len(), dst.Registry().Len(), paths)
	}
	for _, p := range dst.Registry().Paths() {
		sess, _ := dst.Registry().Peek(p)
		if sess.Observations() != 3 {
			t.Fatalf("path %s has %d observations after retry, want 3 (no double-count, no loss)",
				p, sess.Observations())
		}
	}
}

// TestImportLastWriterWins: a record lands only with strictly more
// observations than the resident session — stale and equal-age records
// skip, newer ones replace.
func TestImportLastWriterWins(t *testing.T) {
	_, dst, _, dstURL := handoffPair(t, Config{}, Config{})

	// Resident session: 5 observations.
	for i := 0; i < 5; i++ {
		postJSON(t, dstURL+"/v1/observe", `{"path":"p","throughput_bps":1e7}`)
	}
	mkStream := func(obs int) []byte {
		donor := NewServer(Config{})
		sess := donor.Registry().GetOrCreate("p")
		for i := 0; i < obs; i++ {
			sess.Observe(2e7)
		}
		return streamOf(t, sessionsFormat, record(t, "p", encodeState(t, sess.state())))
	}
	hc := &http.Client{}
	for _, tc := range []struct {
		obs                   int
		wantImported, wantObs int
	}{
		{obs: 3, wantImported: 0, wantObs: 5}, // stale: skip
		{obs: 5, wantImported: 0, wantObs: 5}, // tie: skip (>= keeps resident)
		{obs: 8, wantImported: 1, wantObs: 8}, // newer: replace wholesale
	} {
		imp, skp, err := importSessions(context.Background(), hc, dstURL, mkStream(tc.obs))
		if err != nil {
			t.Fatalf("import (%d obs): %v", tc.obs, err)
		}
		if imp != tc.wantImported || imp+skp != 1 {
			t.Fatalf("import (%d obs): imported=%d skipped=%d, want imported=%d", tc.obs, imp, skp, tc.wantImported)
		}
		sess, _ := dst.Registry().Peek("p")
		if got := int(sess.Observations()); got != tc.wantObs {
			t.Fatalf("import (%d obs): resident has %d observations, want %d — LWW must replace, never merge",
				tc.obs, got, tc.wantObs)
		}
	}
}

// TestImportRejectsCorruptStreams: missing trailers, count mismatches,
// checksum damage, foreign formats and bad records are all 400s — an
// importer never trusts a stream it cannot verify.
func TestImportRejectsCorruptStreams(t *testing.T) {
	_, dst, _, dstURL := handoffPair(t, Config{}, Config{})

	donor := NewServer(Config{})
	sess := donor.Registry().GetOrCreate("q")
	sess.Observe(1e7)
	state := encodeState(t, sess.state())
	rec := record(t, "q", state)
	good := streamOf(t, sessionsFormat, rec)
	trailerAt := len(good) - 40 // u32 mark, u32 count, sha256 chain
	edit := func(b []byte, at int, to ...byte) []byte {
		b = append([]byte(nil), b...)
		copy(b[at:], to)
		return b
	}
	// Second records (index 1, after the good one) that fail each of the
	// per-record checks: every message must name the same zero-based index.
	second := func(r store.Record) []byte { return streamOf(t, sessionsFormat, rec, r) }
	brokenSum := record(t, "q2", state)
	brokenSum[len(brokenSum)-1] ^= 1
	cases := []struct {
		name string
		body []byte
		want string // substring of the error message
	}{
		{"no trailer", good[:trailerAt], "record 1: store: corrupt record stream: truncated"},
		{"trailer count mismatch", edit(good, trailerAt+7, 7), "trailer counts 7 records, stream carried 1"},
		{"trailer chain mismatch", edit(good, trailerAt+8, 0xde, 0xad), "trailer checksum mismatch"},
		{"record checksum mismatch", edit(good, trailerAt-1, good[trailerAt-1]^1), "record 0: store: corrupt record stream: sha256 mismatch"},
		{"second record: unparseable", append(good[:trailerAt:trailerAt], "{not json\n"...), "record 1: store: corrupt record stream: record declares"},
		{"second record: checksum", second(brokenSum), "record 1: store: corrupt record stream: sha256 mismatch"},
		{"second record: bad state", second(record(t, "q2", []byte(`"not a snapshot"`))), "handoff record 1 (q2): bad state"},
		{"second record: trailing byte", second(record(t, "q2", append(state[:len(state):len(state)], 0))), "handoff record 1 (q2): bad state: predict: decode state: 1 trailing bytes"},
		{"another version", streamOf(t, "predsvc.PathSnapshot/6", rec), `stream format "predsvc.PathSnapshot/6", want "predsvc.PathSnapshot/7"`},
		{"an NDJSON stream", []byte(`{"path":"q","observations":1,"state":{},"sum":"00"}` + "\n"), "record declares"},
	}
	for _, tc := range cases {
		resp, data := postJSON(t, dstURL+"/v1/sessions/import", string(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
		var apiErr apiError
		if json.Unmarshal(data, &apiErr) != nil || !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("%s: error %s, want it to contain %q", tc.name, data, tc.want)
		}
		if _, ok := dst.Registry().Peek("q2"); ok {
			t.Fatalf("%s: the bad second record was installed", tc.name)
		}
	}
	// The intact stream still lands, proving the fixture itself is valid.
	resp, data := postJSON(t, dstURL+"/v1/sessions/import", string(good))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid stream rejected: %d %s", resp.StatusCode, data)
	}
}

// TestImportRejectsMalformedState: a record whose checksum verifies but
// whose predictor state is malformed — lengths beyond the configured
// bounds, non-finite values, counts that contradict the lengths — is a
// 400 naming the record by its zero-based index, never a panic and never
// a half-installed session. Each bad record follows a good one and is the
// encoding of a mutated state.
func TestImportRejectsMalformedState(t *testing.T) {
	_, dst, _, dstURL := handoffPair(t, Config{}, Config{})

	donor := NewServer(Config{})
	series := SyntheticSeries(2, 80, 3)
	states := make([]predict.EnsembleState, len(series))
	for i, ps := range series {
		sess := donor.Registry().GetOrCreate(ps.Path)
		for k, x := range ps.Throughputs {
			sess.SetMeasurement(ps.Inputs[k])
			sess.Observe(x)
		}
		states[i] = sess.state()
	}
	family := func(st *predict.EnsembleState, name string) *predict.FamilySnapshot {
		for i := range st.Families {
			if st.Families[i].Name == name {
				return &st.Families[i]
			}
		}
		t.Fatalf("no family %q", name)
		return nil
	}
	// stream frames records for the given states under the series' paths.
	stream := func(data ...[]byte) string {
		recs := make([]store.Record, len(data))
		for i, d := range data {
			recs[i] = record(t, series[i].Path, d)
		}
		return string(streamOf(t, sessionsFormat, recs...))
	}
	good := encodeState(t, states[0])
	// The encoder refuses NaN and ±Inf, so a non-finite level is written as
	// a marker value and its eight bytes replaced in the record.
	const marker = 123456.5
	le := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	level := func(to float64) func(data []byte) []byte {
		return func(data []byte) []byte { return bytes.Replace(data, le(marker), le(to), 1) }
	}
	cases := []struct {
		name   string
		mutate func(st *predict.EnsembleState)
		raw    func(data []byte) []byte // optional edit of the encoded state
		want   string
	}{
		{name: "MA ring longer than its order", mutate: func(st *predict.EnsembleState) {
			ma := family(st, "10-MA-LSO").MA
			ma.Ring = append(ma.Ring, 1e7)
		}, want: "exceeds the order"},
		{name: "NaN Holt-Winters level", mutate: func(st *predict.EnsembleState) {
			family(st, "0.8-HW-LSO").HW.S = marker
		}, raw: level(math.NaN()), want: "0.8-HW: non-finite state"},
		{name: "infinite Holt-Winters level", mutate: func(st *predict.EnsembleState) {
			family(st, "0.8-HW-LSO").HW.S = marker
		}, raw: level(math.Inf(1)), want: "0.8-HW: non-finite state"},
		{name: "negative Holt-Winters count", mutate: func(st *predict.EnsembleState) {
			family(st, "0.8-HW-LSO").HW.N = -1
		}, want: "negative observation count"},
		{name: "EWMA without its state", mutate: func(st *predict.EnsembleState) {
			family(st, "0.8-EWMA-LSO").EWMA = nil
		}, want: "0 predictor states"},
		{name: "LSO window beyond MaxHistory", mutate: func(st *predict.EnsembleState) {
			for len(st.LSO.Window) <= 32 {
				st.LSO.Window = append(st.LSO.Window, 1e7)
			}
		}, want: "MaxHistory"},
		{name: "error window beyond its size", mutate: func(st *predict.EnsembleState) {
			f := family(st, "0.8-EWMA-LSO")
			f.Errors = append(f.Errors, f.Errors...)
		}, want: "window of 50"},
		{name: "coverage beyond the observations", mutate: func(st *predict.EnsembleState) {
			st.CovIn, st.CovTotal = st.Observations+1, st.Observations+1
		}, want: "contradicts"},
		{name: "family named twice", mutate: func(st *predict.EnsembleState) {
			st.Families = append(st.Families, st.Families[0])
		}, want: "named twice"},
	}
	prefix := fmt.Sprintf("handoff record 1 (%s): bad state", series[1].Path)
	for _, tc := range cases {
		// A decoded copy, so the mutation cannot reach states[1].
		var st predict.EnsembleState
		if err := st.UnmarshalBinary(encodeState(t, states[1])); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&st)
		bad := encodeState(t, st)
		if tc.raw != nil {
			bad = tc.raw(bad)
		}
		resp, data := postJSON(t, dstURL+"/v1/sessions/import", stream(good, bad))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", tc.name, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), prefix) || !strings.Contains(string(data), tc.want) {
			t.Errorf("%s: error %s, want %q and %q", tc.name, data, prefix, tc.want)
		}
		if _, ok := dst.Registry().Peek(series[1].Path); ok {
			t.Fatalf("%s: the malformed record was installed", tc.name)
		}
	}
	// Both records intact: the stream lands, so the fixture itself is valid.
	resp, data := postJSON(t, dstURL+"/v1/sessions/import", stream(good, encodeState(t, states[1])))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid stream rejected: %d %s", resp.StatusCode, data)
	}
}

// record frames data under path.
func record(t testing.TB, path string, data []byte) store.Record {
	t.Helper()
	rec, err := store.NewRecord(path, data)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// streamOf writes recs as one record stream of the given format.
func streamOf(t testing.TB, format string, recs ...store.Record) []byte {
	t.Helper()
	var b bytes.Buffer
	sw := store.NewStreamWriter(&b, format)
	for _, rec := range recs {
		sw.Write(rec)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// encodeState is the record data of st.
func encodeState(t testing.TB, st predict.EnsembleState) []byte {
	t.Helper()
	data, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSessionsDropOnlyDisowned: drop removes exactly the paths the
// supplied map assigns elsewhere, and a repeat finds nothing.
func TestSessionsDropOnlyDisowned(t *testing.T) {
	src, _, srcURL, _ := handoffPair(t, Config{}, Config{})
	const paths = 60
	seedPaths(t, srcURL, paths, 1)

	view, _ := json.Marshal(ClusterViewRequest{Nodes: []string{srcURL, "http://elsewhere:1"}, Self: srcURL})
	resp, data := postJSON(t, srcURL+"/v1/sessions/drop", string(view))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop: %d %s", resp.StatusCode, data)
	}
	var dr SessionsDropResponse
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Dropped == 0 || dr.Dropped == paths {
		t.Fatalf("dropped %d of %d — a two-node map must disown a strict subset", dr.Dropped, paths)
	}
	if dr.Remaining != paths-dr.Dropped || src.Registry().Len() != dr.Remaining {
		t.Fatalf("drop accounting: %+v vs registry %d", dr, src.Registry().Len())
	}
	// Every survivor is one the map says we own.
	m := cluster.New(srcURL, "http://elsewhere:1")
	for _, p := range src.Registry().Paths() {
		if m.Node(p) != srcURL {
			t.Fatalf("surviving path %s is owned by %s, should have been dropped", p, m.Node(p))
		}
	}
	// Idempotent: nothing left to drop.
	_, data = postJSON(t, srcURL+"/v1/sessions/drop", string(view))
	if err := json.Unmarshal(data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Dropped != 0 {
		t.Fatalf("second drop removed %d paths", dr.Dropped)
	}
}

// TestResizeMidLoadDigestEquality is the tentpole invariant in-process: a
// 2→3 resize halfway through a replayed load must leave the predict
// stream byte-identical to a single node replaying the same phases, with
// zero paths lost and every path on exactly one node.
func TestResizeMidLoadDigestEquality(t *testing.T) {
	const (
		nPaths   = 24
		epochs   = 12
		boundary = 6
		seed     = 5
	)
	// SyntheticSeries is prefix-stable: the first `boundary` epochs of the
	// full series equal a shorter generation, so the two phases replay the
	// exact requests of one continuous run.
	phase1 := SyntheticSeries(nPaths, boundary, seed)
	full := SyntheticSeries(nPaths, epochs, seed)

	replay := func(t *testing.T, cfg LoadConfig, series []PathSeries) string {
		t.Helper()
		rep, err := Replay(context.Background(), cfg, series)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if rep.Errors > 0 {
			t.Fatalf("replay: %d errors", rep.Errors)
		}
		return rep.Digest
	}

	// Reference: one node, the same two phases back to back.
	ref := NewServer(Config{Shards: 4, Capacity: 1024})
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	refD1 := replay(t, LoadConfig{Nodes: []string{refTS.URL}, Workers: 4}, phase1)
	refD2 := replay(t, LoadConfig{Nodes: []string{refTS.URL}, Workers: 4, StartEpoch: boundary}, full)

	// Cluster: phase 1 on two nodes, rebalance to three, phase 2 on three.
	srvs := make([]*Server, 3)
	urls := make([]string, 3)
	for i := range srvs {
		srvs[i] = NewServer(Config{Shards: 4, Capacity: 1024})
		ts := httptest.NewServer(srvs[i].Handler())
		defer ts.Close()
		urls[i] = ts.URL
	}
	d1 := replay(t, LoadConfig{Nodes: urls[:2], Workers: 4}, phase1)
	if d1 != refD1 {
		t.Fatalf("phase-1 digest diverged:\n  1-node %s\n  2-node %s", refD1, d1)
	}
	rep, err := Rebalance(context.Background(), RebalanceConfig{From: urls[:2], To: urls})
	if err != nil {
		t.Fatalf("rebalance 2→3: %v", err)
	}
	if rep.Moved == 0 {
		t.Fatal("resize moved nothing — the new node owns no paths")
	}
	d2 := replay(t, LoadConfig{Nodes: urls, Workers: 4, StartEpoch: boundary}, full)
	if d2 != refD2 {
		t.Fatalf("phase-2 digest diverged after the resize:\n  1-node %s\n  3-node %s", refD2, d2)
	}

	// Zero lost paths, disjoint ownership, and the joiner actually serves.
	seen := map[string]int{}
	total := 0
	for _, s := range srvs {
		total += s.Registry().Len()
		for _, p := range s.Registry().Paths() {
			seen[p]++
		}
	}
	if total != nPaths || len(seen) != nPaths {
		t.Fatalf("cluster holds %d sessions over %d paths, want %d — paths lost or duplicated", total, len(seen), nPaths)
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("path %s lives on %d nodes after resize", p, n)
		}
	}
	if srvs[2].Registry().Len() == 0 {
		t.Fatal("the joining node received no paths")
	}
}
