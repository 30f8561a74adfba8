package predsvc

import (
	"encoding/json"
	"testing"

	"repro/internal/predict"
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
	codec := sessionCodec()
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

	live := newSession(series.Path)
	var faulted []*Session
	cuts := map[int]bool{60: true, 200: true, 500: true}
	for k := 0; k < epochs; k++ {
		if cuts[k] {
			data, err := codec.Encode(nil, live)
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

// TestSessionRecordCompact pins what a spill and a fault-in cost without
// timing them: a session at svc-spill's warm depth (112 observations,
// measured every epoch) encodes to at most 1 660 bytes, and neither
// encoding it into a reused buffer, as the spill store does, nor decoding
// the record's state into a reused EnsembleState, as the session codec
// does, allocates.
func TestSessionRecordCompact(t *testing.T) {
	series := SyntheticSeries(1, 112, 5)[0]
	s := newSession(series.Path)
	for k, x := range series.Throughputs {
		s.SetMeasurement(series.Inputs[k])
		s.Observe(x)
	}
	codec := sessionCodec()
	data, err := codec.Encode(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 1660 {
		t.Errorf("record of %d bytes, want ≤ 1 660", len(data))
	}
	var buf []byte // grown by AllocsPerRun's warm-up run
	allocs := testing.AllocsPerRun(20, func() {
		if buf, err = codec.Encode(buf[:0], s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("encoding a session into a reused buffer allocates %.0f objects, want 0", allocs)
	}
	var st predict.EnsembleState
	allocs = testing.AllocsPerRun(20, func() {
		if err := st.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding a record into a reused state allocates %.0f objects, want 0", allocs)
	}
}

// TestFaultInAllocs pins what a cold request costs the allocator: decoding
// a record at svc-spill's warm depth (112 observations) into a session and
// absorbing its first observation allocates the session and its ensemble,
// nothing more. The first Observe runs the LSO shift scan over a restored
// window, so scratch that grew by append would show here.
func TestFaultInAllocs(t *testing.T) {
	const faultInAllocs = 2
	series := SyntheticSeries(1, 113, 5)[0]
	s := newSession(series.Path)
	for k := 0; k < 112; k++ {
		s.SetMeasurement(series.Inputs[k])
		s.Observe(series.Throughputs[k])
	}
	codec := sessionCodec()
	data, err := codec.Encode(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		f, err := codec.Decode(series.Path, data)
		if err != nil {
			t.Fatal(err)
		}
		f.(*Session).Observe(series.Throughputs[112])
	})
	if allocs > faultInAllocs {
		t.Errorf("fault-in + first Observe allocates %.0f objects, want ≤ %d", allocs, faultInAllocs)
	}
}

// TestFaultInsDoNotShareState: the spill store decodes every fault-in
// through the codec's one reused state and log buffer, so a session it has
// handed out must own everything it serves. Three paths share one hot
// slot; after each pair of back-to-back fault-ins the first session's
// predict bytes are unchanged and equal a session that never left memory.
func TestFaultInsDoNotShareState(t *testing.T) {
	reg, err := OpenRegistry(Config{Shards: 1, Capacity: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	all := SyntheticSeries(3, 112, 11)
	ref := map[string]*Session{}
	for _, series := range all {
		ref[series.Path] = newSession(series.Path)
		for k, x := range series.Throughputs {
			for _, s := range []*Session{reg.GetOrCreate(series.Path), ref[series.Path]} {
				s.SetMeasurement(series.Inputs[k])
				s.Observe(x)
			}
		}
	}
	body := func(s *Session) string {
		b, err := json.Marshal(s.Predict())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for i := range 6 {
		first, second := all[i%3].Path, all[(i+1)%3].Path
		a, ok := reg.Lookup(first)
		if !ok {
			t.Fatalf("Lookup(%s) missed", first)
		}
		want := body(a)
		if want != body(ref[first]) {
			t.Fatalf("%s faulted in as\n%s\nwant\n%s", first, want, body(ref[first]))
		}
		if _, ok := reg.Lookup(second); !ok {
			t.Fatalf("Lookup(%s) missed", second)
		}
		if got := body(a); got != want {
			t.Fatalf("%s changed when %s faulted in after it:\n%s\nwant\n%s", first, second, got, want)
		}
	}
	if st := reg.TierStats(); st.Faults < 6 || st.Errors != 0 {
		t.Fatalf("tier stats %+v, want every lookup a fault", st)
	}
}

// TestFailedDecodeLeavesNextCorrect: a record that fails to decode, or
// decodes to a state the zoo refuses, leaves nothing in the codec's reused
// state for the next decode to pick up.
func TestFailedDecodeLeavesNextCorrect(t *testing.T) {
	series := SyntheticSeries(1, 112, 5)[0]
	live := newSession(series.Path)
	for k, x := range series.Throughputs {
		live.SetMeasurement(series.Inputs[k])
		live.Observe(x)
	}
	codec := sessionCodec()
	good, err := codec.Encode(nil, live)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(live.Predict())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh session's record declares three error windows: it decodes,
	// and SetState refuses it.
	var three predict.EnsembleState
	three.Errors = make([][]float64, 3)
	refused, err := three.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]byte{good[:len(good)-3], append(good[:len(good):len(good)], 0), refused} {
		if _, err := codec.Decode(series.Path, bad); err == nil {
			t.Fatalf("a bad record of %d bytes decoded", len(bad))
		}
		s, err := codec.Decode(series.Path, good)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(s.(*Session).Predict()); string(got) != string(want) {
			t.Fatalf("after a failed decode the next one serves\n%s\nwant\n%s", got, want)
		}
	}
}
