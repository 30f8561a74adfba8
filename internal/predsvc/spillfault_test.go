package predsvc

import (
	"encoding/json"
	"testing"
)

// TestSpillFaultMidstreamByteIdentity guards the two-tier store's core
// invariant at the session level: spilling a session through the codec
// and faulting it back in (exactly what the spill store does) must leave
// every subsequent predict response byte-identical to the uninterrupted
// session's, at any history length. The 600-epoch series is cut at epochs
// 60, 200 and 500 — long after every ring has wrapped and EWMA and
// Holt-Winters have absorbed far more observations than any window holds —
// and each faulted copy is compared with the live session every epoch to
// the end. Measurements are withheld in 70-epoch stretches, so FB goes
// stale and recovers on both sides of each cut.
func TestSpillFaultMidstreamByteIdentity(t *testing.T) {
	const epochs = 600
	series := SyntheticSeries(1, epochs, 7)[0]
	cfg := Config{Shards: 1, Capacity: 8}.withDefaults()
	codec := sessionCodec(cfg)
	step := func(s *Session, k int) {
		if (k/70)%3 != 2 {
			s.SetMeasurement(series.Inputs[k])
		}
		s.Observe(series.Throughputs[k])
	}
	body := func(s *Session) string {
		b, err := json.Marshal(s.Predict())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	live := newSession(series.Path, cfg)
	var faulted []*Session
	cuts := map[int]bool{60: true, 200: true, 500: true}
	for k := 0; k < epochs; k++ {
		if cuts[k] {
			data, err := codec.Encode(live)
			if err != nil {
				t.Fatal(err)
			}
			e, err := codec.Decode(series.Path, data)
			if err != nil {
				t.Fatalf("cut %d: %v", k, err)
			}
			faulted = append(faulted, e.(*Session))
		}
		want := body(live)
		for i, f := range faulted {
			if got := body(f); got != want {
				t.Fatalf("copy %d diverged at epoch %d:\nlive    %s\nfaulted %s", i, k, want, got)
			}
			step(f, k)
		}
		step(live, k)
	}
	if len(faulted) != len(cuts) {
		t.Fatalf("%d faulted copies, want %d", len(faulted), len(cuts))
	}
}
