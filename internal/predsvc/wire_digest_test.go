package predsvc

import (
	"context"
	"net/http/httptest"
	"testing"
)

// TestReplayDigestFastpathIdentical is the end-to-end equivalence gate
// for the wire fastpath: the same replay driven over real HTTP against a
// fastpath server and an oracle (reflection-handler) server must
// produce the same predict-response digest — the SHA-256 chain over
// every 200-OK predict body — plus identical request accounting. Any
// byte the codec got wrong anywhere in the response surface shows up
// here as a digest split.
func TestReplayDigestFastpathIdentical(t *testing.T) {
	series := SyntheticSeries(12, 40, 3)
	run := func(open func(Config) (*Server, error)) *LoadReport {
		t.Helper()
		srv, err := open(Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		rep, err := Replay(context.Background(), LoadConfig{Nodes: []string{ts.URL}, Workers: 4}, series)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	fast := run(Open)
	oracle := run(openOracle)
	if fast.Digest != oracle.Digest {
		t.Errorf("digest split: fastpath %s, oracle %s", fast.Digest, oracle.Digest)
	}
	if fast.Predictions != oracle.Predictions || fast.Requests != oracle.Requests ||
		fast.Errors != oracle.Errors {
		t.Errorf("accounting split: fastpath %+v, oracle %+v", fast, oracle)
	}
	if fast.Predictions == 0 {
		t.Error("replay scored no predictions; the digest proves nothing")
	}
}
