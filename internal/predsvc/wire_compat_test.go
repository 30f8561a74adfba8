package predsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// The wire fastpath's correctness story: every request a client can send
// is served byte-identically by the fastpath and by the encoding/json
// oracle (oracle_test.go). The one sanctioned divergence is the
// message text inside "bad request body: ..." 400s, where the oracle
// leaks encoding/json's internal wording — status codes still must
// match, and every 2xx body, every semantic error (missing path, invalid
// inputs, batch cap) and every 5xx is compared byte for byte.

// compatPair drives the same request through both servers and compares.
type compatPair struct {
	t      *testing.T
	fast   *Server
	oracle *Server
}

func newCompatPair(t *testing.T, cfg Config) *compatPair {
	t.Helper()
	fast, err := Open(cfg)
	if err != nil {
		t.Fatalf("open fast server: %v", err)
	}
	oracle, err := openOracle(cfg)
	if err != nil {
		t.Fatalf("open oracle server: %v", err)
	}
	t.Cleanup(func() { fast.Close(); oracle.Close() })
	return &compatPair{t: t, fast: fast, oracle: oracle}
}

func serveOne(s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	var rd *bytes.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// parseErrDivergenceOK reports whether differing bodies are the
// sanctioned parse-error case.
func parseErrDivergenceOK(status int, fastBody, oracleBody []byte) bool {
	const pfx = `{"error":"bad request body:`
	return status == http.StatusBadRequest &&
		bytes.HasPrefix(fastBody, []byte(pfx)) &&
		bytes.HasPrefix(oracleBody, []byte(pfx))
}

// do serves one request through both servers, fails the test unless they
// agree, and returns the fastpath's response body.
func (cp *compatPair) do(method, target string, body []byte) []byte {
	cp.t.Helper()
	fw := serveOne(cp.fast, method, target, body)
	ow := serveOne(cp.oracle, method, target, body)
	if fw.Code != ow.Code {
		cp.t.Fatalf("%s %s body=%q: fastpath status %d, oracle %d\nfast: %s\noracle: %s",
			method, target, truncate(body), fw.Code, ow.Code, fw.Body.Bytes(), ow.Body.Bytes())
	}
	fb, ob := fw.Body.Bytes(), ow.Body.Bytes()
	if !bytes.Equal(fb, ob) && !parseErrDivergenceOK(fw.Code, fb, ob) {
		cp.t.Fatalf("%s %s body=%q: response bodies diverge (status %d)\nfast:   %q\noracle: %q",
			method, target, truncate(body), fw.Code, fb, ob)
	}
	if fct, oct := fw.Header().Get("Content-Type"), ow.Header().Get("Content-Type"); fct != oct {
		cp.t.Fatalf("%s %s: Content-Type diverges: fast %q, oracle %q", method, target, fct, oct)
	}
	return fb
}

func truncate(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// trickyPaths stresses every string-encoding edge the codec has: HTML
// escapes, control characters, multi-byte runes, JSON metacharacters,
// U+2028/U+2029, and characters needing query escaping.
var trickyPaths = []string{
	"lon-nyc",
	"a b+c",                      // spaces and plus, interesting in queries
	`quote"back\slash`,           // JSON escapes
	"html<&>path",                // HTML-escaped by encoding/json
	"tab\tnl\ncr\rbell\x07",      // control characters
	"päth-ünïcode-日本",            // multi-byte runes
	"emoji-\U0001F680",           // 4-byte rune
	"seps- - ",                   // line/paragraph separators
	"pct-%2F-enc?ode&d=x;y",      // query metacharacters
	strings.Repeat("long/", 100), // forces buffer growth
}

func observeBody(path string, tput float64) []byte {
	b, err := json.Marshal(ObserveRequest{Path: path, ThroughputBps: tput})
	if err != nil {
		panic(err)
	}
	return b
}

func measureBody(path string, rtt, loss, bw float64) []byte {
	b, err := json.Marshal(MeasureRequest{Path: path, RTTSeconds: rtt, LossRate: loss, AvailBwBps: bw})
	if err != nil {
		panic(err)
	}
	return b
}

func predictTarget(path string) string {
	return "/v1/predict?" + url.Values{"path": {path}}.Encode()
}

// TestWireCompatSequences replays a deterministic pseudo-random mix of
// observe / measure / predict / batch traffic through both servers,
// comparing every response byte for byte. This is the live-traffic half
// of the oracle equivalence proof: real predictions with full HB/FB/
// family state, quantiles, staleness flags, and every tricky path name.
// Measurements are rare enough (one draw in 36) that a path often absorbs
// more than the zoo's 30 observations between two of them, so stale FB
// forecasts are compared too.
func TestWireCompatSequences(t *testing.T) {
	cp := newCompatPair(t, Config{})
	rng := rand.New(rand.NewSource(9))
	tputs := []float64{1, 0.5, 1e-7, 123456.789, 9.5e8, 1e20, 5e20, 1e21, 3.25e21, 8.125e6}
	stale := 0
	for i := 0; i < 600; i++ {
		path := trickyPaths[rng.Intn(len(trickyPaths))]
		switch rng.Intn(6) {
		case 0, 1:
			cp.do("POST", "/v1/observe", observeBody(path, tputs[rng.Intn(len(tputs))]))
		case 2:
			if rng.Intn(6) != 0 {
				cp.do("POST", "/v1/observe", observeBody(path, tputs[rng.Intn(len(tputs))]))
				break
			}
			cp.do("POST", "/v1/measure", measureBody(path, 0.01+rng.Float64(), rng.Float64()*0.05, 1e6+rng.Float64()*1e9))
		case 3, 4:
			if bytes.Contains(cp.do("GET", predictTarget(path), nil), []byte(`"stale":true`)) {
				stale++
			}
		case 5:
			var batch ObserveBatchRequest
			for n := rng.Intn(5); n >= 0; n-- {
				batch.Observations = append(batch.Observations, ObserveRequest{
					Path:          trickyPaths[rng.Intn(len(trickyPaths))],
					ThroughputBps: tputs[rng.Intn(len(tputs))],
				})
			}
			body, _ := json.Marshal(batch)
			cp.do("POST", "/v1/observe-batch", body)
		}
		if i%50 == 0 {
			body, _ := json.Marshal(PredictBatchRequest{Paths: append([]string{"never-seen"}, trickyPaths...)})
			cp.do("POST", "/v1/predict-batch", body)
		}
	}
	if stale == 0 {
		t.Fatal("no compared predict body carried a stale FB forecast")
	}
	t.Logf("%d compared predict bodies carried a stale FB forecast", stale)
}

// TestWireCompatEdgeBodies drives hand-written request bodies — valid,
// odd, and malformed — through both servers. Where the oracle 400s on a
// parse error, the fastpath must too (message text may differ); every
// other response must match exactly.
func TestWireCompatEdgeBodies(t *testing.T) {
	cp := newCompatPair(t, Config{})

	// Seed a couple of sessions so predict endpoints have hits.
	cp.do("POST", "/v1/observe", observeBody("seeded", 1e6))
	cp.do("POST", "/v1/observe", observeBody("seeded", 2e6))

	observeCases := []string{
		// Valid with twists.
		`{"path":"seeded","throughput_bps":1e6}`,
		`{"throughput_bps":5e5,"path":"seeded"}`,                       // reordered fields
		`{"path":"dup","throughput_bps":1,"throughput_bps":2e6}`,       // duplicate key: last wins
		`{"path":"first","path":"second","throughput_bps":3e6}`,        // duplicate path
		`{"path":"esc\"quote\\back\/slash\n","throughput_bps":1e6}`,    // escape sequences in value
		`{"pa\u0074h":"esckey","throughput_bps":1e6}`,                  // escaped field name
		`{"path":"unknowns","throughput_bps":1e6,"extra":{"a":[1,2]}}`, // unknown field skipped
		`{"path":"unknowns","extra":"x y","throughput_bps":2e6}`,       // unknown before known
		`{"path":"nullt","throughput_bps":null}`,                       // null field no-ops → invalid tput
		`{"path":null,"throughput_bps":1e6}`,                           // null path → missing path
		`null`,                                                         // top-level null → zero body
		`{}`,                                                           // empty object
		`{"path":"surr\ud83d\ude00-😀","throughput_bps":1e6}`,           // escaped surrogate pair
		`{"path":"lone\ud800trail","throughput_bps":1e6}`,              // lone surrogate → U+FFFD
		`{"path":"inv` + "\xff\xfe" + `alid","throughput_bps":1e6}`,    // raw invalid UTF-8
		`{"path":"big","throughput_bps":1e309}`,                        // float overflow
		`{"path":"tiny","throughput_bps":1e-400}`,                      // float underflow → 0 → invalid
		`{"path":"neg","throughput_bps":-5}`,                           // invalid: negative
		`{"path":"zero","throughput_bps":0}`,                           // invalid: zero
		`{"path":"","throughput_bps":1e6}`,                             // empty path
		// Malformed.
		``,                          // empty body
		`   `,                       // whitespace only
		`{`, `{"path"`, `{"path":}`, // truncations
		`{"path":"a","throughput_bps":}`,
		`{"path":"a" "throughput_bps":1}`, // missing comma
		`{"path":"a",}`,                   // trailing comma
		`[{"path":"a"}]`,                  // wrong top-level type
		`"just a string"`,
		`{"path":123,"throughput_bps":1e6}`,   // wrong type for path
		`{"path":"a","throughput_bps":"1e6"}`, // wrong type for tput
		`{"path":"a","throughput_bps":NaN}`,
		`{"path":"a","throughput_bps":Infinity}`,
		`{"path":"a","throughput_bps":01}`, // bad number grammar
		`{"path":"a","throughput_bps":1.}`,
		`{"path":"a","throughput_bps":.5}`,
		`{"path":"a","throughput_bps":+1}`,
		`{"path":"bad\escape","throughput_bps":1}`,        // invalid escape
		`{"path":"ctl` + "\x01" + `","throughput_bps":1}`, // raw control char in string
		`{"path":"a","throughput_bps":1e6}garbage`,        // trailing garbage: Decoder ignores
		`{"path":"a","throughput_bps":1e6} {"second":1}`,  // second JSON value: ignored
	}
	for _, body := range observeCases {
		cp.do("POST", "/v1/observe", []byte(body))
	}

	measureCases := []string{
		`{"path":"seeded","rtt_s":0.05,"loss_rate":0.01,"avail_bw_bps":5e8}`,
		`{"path":"m2","rtt_s":0.05,"loss_rate":0,"avail_bw_bps":0}`, // zero-loss formula path
		`{"path":"m2","loss_rate":0.01,"rtt_s":0.01,"avail_bw_bps":1e9,"x":[true,null]}`,
		`{"path":"m3","rtt_s":-1,"loss_rate":0.01,"avail_bw_bps":1}`, // invalid rtt
		`{"path":"m3","rtt_s":0.1,"loss_rate":1.5,"avail_bw_bps":1}`, // invalid loss
		`{"path":"","rtt_s":0.1,"loss_rate":0.01,"avail_bw_bps":1}`,  // missing path
		`{"rtt_s":0.1}`, // missing path entirely
		`{"path":"m4","rtt_s":null,"loss_rate":null,"avail_bw_bps":null}`,
		`{"path":"m4","rtt_s":true}`, // wrong type
		`{"path":"m4",`,              // truncated
	}
	for _, body := range measureCases {
		cp.do("POST", "/v1/measure", []byte(body))
	}

	predictTargets := []string{
		"/v1/predict?path=seeded",
		"/v1/predict?path=never-seen",             // 404
		"/v1/predict",                             // missing param
		"/v1/predict?path=",                       // empty value
		"/v1/predict?other=x&path=seeded",         // later pair
		"/v1/predict?path=seeded&path=never-seen", // first wins
		"/v1/predict?path=se%65ded",               // percent-escaped value
		"/v1/predict?pa%74h=seeded",               // percent-escaped key
		"/v1/predict?path=bad%zzesc",              // invalid escape: pair skipped
		"/v1/predict?path=bad%zzesc&path=seeded",  // invalid then valid
		"/v1/predict?path=a;b",                    // semicolon: pair skipped
		"/v1/predict?path=a;b&path=seeded",        // semicolon then valid
		"/v1/predict?path=se%2Beded",              // %2B is a literal plus
		"/v1/predict?path=a+b%2Bc",                // plus decodes to space
		"/v1/predict?&&path=seeded&",              // empty segments
		"/v1/predict?path",                        // key without '='
		"/v1/predict?path=seeded%",                // truncated escape
	}
	for _, target := range predictTargets {
		cp.do("GET", target, nil)
	}
}

// TestWireCompatBatches exercises the streaming batch decoders against
// the oracle's unmarshal-then-loop, including the atomicity contract: a
// batch that fails validation or the item cap must leave the registry
// untouched (proven by comparing subsequent predictions byte for byte
// between the two servers — had the fastpath applied a prefix, its
// session state would diverge).
func TestWireCompatBatches(t *testing.T) {
	cp := newCompatPair(t, Config{})

	observeBatchCases := []string{
		`{}`,
		`{"observations":null}`,
		`{"observations":[]}`,
		`{"observations":[{"path":"b1","throughput_bps":1e6}]}`,
		`{"observations":[{"path":"b1","throughput_bps":2e6},{"path":"b2","throughput_bps":3e6}]}`,
		`{"observations":[{"path":"","throughput_bps":1e6},{"path":"b1","throughput_bps":-1},{"path":"b3","throughput_bps":4e6}]}`, // mixed rejects
		`{"observations":[{"throughput_bps":1e6,"path":"b4","path":"b5"}]}`,                                                        // dup key in item
		`{"observations":[{"path":"b6","throughput_bps":1}],"observations":[{"path":"b7","throughput_bps":2e6}]}`,                  // dup batch key: only second applies
		`{"extra":1,"observations":[{"path":"b8","throughput_bps":5e6}],"trailing":[{}]}`,                                          // unknown siblings
		`{"observations":[{"path":"b9","throughput_bps":1e6},{"path":123}]}`,                                                       // type error aborts whole batch
		`{"observations":{"path":"b10"}}`,                                                                                          // wrong container type
		`{"observations":[{"path":"b11","throughput_bps":1e6},`,                                                                    // truncated
		`{"observations":[null,{"path":"b12","throughput_bps":1e6}]}`,                                                              // null item no-ops → rejected empty
	}
	for _, body := range observeBatchCases {
		cp.do("POST", "/v1/observe-batch", []byte(body))
	}

	// Over-cap batch: 4097 items, every one valid — must reject the whole
	// request and apply nothing on either server.
	var big bytes.Buffer
	big.WriteString(`{"observations":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `{"path":"cap-%d","throughput_bps":1e6}`, i)
	}
	big.WriteString(`]}`)
	cp.do("POST", "/v1/observe-batch", big.Bytes())
	// cap-0 must not exist on either server (atomicity), and b1's state
	// must agree after the mixed traffic above.
	cp.do("GET", "/v1/predict?path=cap-0", nil)
	cp.do("GET", predictTarget("b1"), nil)
	cp.do("GET", predictTarget("b7"), nil)
	cp.do("GET", predictTarget("b12"), nil)

	predictBatchCases := []string{
		`{}`,
		`{"paths":null}`,
		`{"paths":[]}`,
		`{"paths":["b1"]}`,
		`{"paths":["b1","missing-1","b2","missing-2","b1"]}`,
		`{"paths":[null,"b1",""]}`,            // null and empty elements → missing
		`{"paths":["x"],"paths":["b1","b2"]}`, // dup key: last wins
		`{"paths":["html<&>miss","esc "]}`,    // missing paths needing escaping
		`{"paths":["b1",42]}`,                 // type error
		`{"paths":"b1"}`,                      // wrong container
		`{"paths":["b1"`,                      // truncated
	}
	for _, body := range predictBatchCases {
		cp.do("POST", "/v1/predict-batch", []byte(body))
	}

	var bigp bytes.Buffer
	bigp.WriteString(`{"paths":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			bigp.WriteByte(',')
		}
		fmt.Fprintf(&bigp, `"p-%d"`, i)
	}
	bigp.WriteString(`]}`)
	cp.do("POST", "/v1/predict-batch", bigp.Bytes())
}

// TestWireCompatOversizedBody pins the 1 MiB body cap on both paths.
func TestWireCompatOversizedBody(t *testing.T) {
	cp := newCompatPair(t, Config{})
	huge := []byte(`{"path":"` + strings.Repeat("x", maxBodyBytes+10) + `","throughput_bps":1}`)
	fw := serveOne(cp.fast, "POST", "/v1/observe", huge)
	ow := serveOne(cp.oracle, "POST", "/v1/observe", huge)
	if fw.Code != http.StatusBadRequest || ow.Code != http.StatusBadRequest {
		t.Fatalf("oversized body: fast %d, oracle %d, want both 400", fw.Code, ow.Code)
	}
	if !bytes.Equal(fw.Body.Bytes(), ow.Body.Bytes()) {
		t.Fatalf("oversized-body errors diverge:\nfast:   %q\noracle: %q", fw.Body.Bytes(), ow.Body.Bytes())
	}
}

// TestWriteErrorPreformatted pins the preformatted hot-path error bodies
// to what writeError produces for the same messages — the load-shedding
// and validation rejections must not drift from the oracle's wording.
func TestWriteErrorPreformatted(t *testing.T) {
	cases := []struct {
		pre []byte
		msg string
	}{
		{errBodyOverloaded, "overloaded: in-flight request cap reached, retry"},
		{errBodyMissingPath, "missing path"},
		{errBodyMissingPathQ, "missing path query parameter"},
		{errBodyBadThroughput, "throughput_bps must be finite and positive"},
		{errBodyBadMeasurement, "measurements must be finite and in range"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		writeError(w, http.StatusBadRequest, "%s", c.msg)
		if !bytes.Equal(c.pre, w.Body.Bytes()) {
			t.Errorf("preformatted body %q != writeError output %q", c.pre, w.Body.Bytes())
		}
	}
}
