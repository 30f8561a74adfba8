package predict

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// ensembleSeries is a synthetic path for the tournament tests: a noisy
// level with occasional shifts and outlier dips, plus per-epoch FB inputs.
func ensembleSeries(rng *rand.Rand, epochs int) ([]float64, []FBInputs) {
	base := 2e6 + 58e6*rng.Float64()
	rtt := 0.01 + 0.19*rng.Float64()
	loss := 0.0
	if rng.Float64() < 0.4 {
		loss = 0.0005 + 0.02*rng.Float64()
	}
	level := base
	xs := make([]float64, epochs)
	ins := make([]FBInputs, epochs)
	for k := range xs {
		if rng.Float64() < 0.03 {
			level = base * (0.4 + 1.2*rng.Float64())
		}
		x := level * (1 + 0.1*rng.NormFloat64())
		if rng.Float64() < 0.03 {
			x = level * (0.2 + 0.3*rng.Float64())
		}
		xs[k] = math.Max(x, 1e4)
		ins[k] = FBInputs{RTT: rtt * (0.9 + 0.3*rng.Float64()), LossRate: loss, AvailBw: level * (0.7 + 0.5*rng.Float64())}
	}
	return xs, ins
}

// paperBest is the paper-ensemble selection written out over the HB trio
// and a fresh FB forecast: once two of them have at least three scored
// errors, the lowest rolling RMSRE among those wins; until then the first
// ready HB member, then FB, stands in.
func paperBest(v View) int {
	hb := v.Families[:3]
	fb := v.Families[v.FB]
	best, qualified, bestRMSRE := -1, 0, math.Inf(1)
	consider := func(i int, f FamilyView) {
		if f.Ready && f.Errors >= 3 && f.Forecast > 0 {
			qualified++
			if f.RMSRE < bestRMSRE {
				best, bestRMSRE = i, f.RMSRE
			}
		}
	}
	for i, f := range hb {
		consider(i, f)
	}
	if !fb.Stale {
		consider(v.FB, fb)
	}
	if qualified >= 2 {
		return best
	}
	for i, f := range hb {
		if f.Ready && f.Forecast > 0 {
			return i
		}
	}
	if !fb.Stale && fb.Ready && fb.Forecast > 0 {
		return v.FB
	}
	return -1
}

// TestEnsembleBestIsPaperSetSelection pins that View.Selected — what the
// service serves as both best and family — is the paper's selection over
// MA, EWMA, HW and FB, including warm-up and the stretches where withheld
// measurements leave FB stale, and that a stale FB is never selected.
func TestEnsembleBestIsPaperSetSelection(t *testing.T) {
	var predicts, stale, warmup, fbBest int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for path := 0; path < 3; path++ {
			xs, ins := ensembleSeries(rng, 120)
			e := NewEnsemble()
			for k, x := range xs {
				// Measurements arrive in bursts; the gaps outlast the staleness threshold.
				if (k/40)%2 == 0 && k%7 != 3 {
					e.SetMeasurement(ins[k])
				}
				v := e.View()
				predicts++
				if want := paperBest(v); v.Selected != want {
					t.Fatalf("seed %d path %d epoch %d: Selected = %d, paper selection = %d", seed, path, k, v.Selected, want)
				}
				if fb := v.Families[v.FB]; fb.Stale {
					stale++
					if v.Selected == v.FB {
						t.Fatalf("seed %d path %d epoch %d: stale FB selected", seed, path, k)
					}
				}
				if v.Selected >= 0 && v.Families[v.Selected].Errors < 3 {
					warmup++
				}
				if v.Selected == v.FB {
					fbBest++
				}
				e.Observe(x)
			}
		}
	}
	// The cases the equivalence has to cover must actually occur.
	if stale == 0 || warmup == 0 || fbBest == 0 {
		t.Fatalf("%d predicts: %d with FB stale, %d warm-up picks, %d FB picks; want all > 0", predicts, stale, warmup, fbBest)
	}
}

// TestEnsembleWarmupHoldsUntilTwoQualify: FB is scored from the first
// observation and the HB trio from the second, so after three observations
// FB alone has three scored errors. Warm-up order holds until a second
// family has as many; only then does RMSRE choose, and then FB, exact on
// this path, wins.
func TestEnsembleWarmupHoldsUntilTwoQualify(t *testing.T) {
	_, ins := ensembleSeries(rand.New(rand.NewSource(4)), 5)
	fb, e := NewFB(FBConfig{}), NewEnsemble()
	for k, in := range ins {
		e.SetMeasurement(in)
		v := e.View()
		// FB is the only family with a forecast before the first
		// observation; from the second to the fourth warm-up order picks
		// 10-MA-LSO.
		want := 0
		if k == 0 || k == 4 {
			want = v.FB
		}
		if v.Selected != want {
			t.Fatalf("epoch %d: selected %d (%+v), want %d", k, v.Selected, v.Families, want)
		}
		e.Observe(fb.Predict(in))
	}
}

// TestEnsembleSelectedQualifies: the tournament winner has the lowest
// RMSRE among qualified families, so it never trails a qualified family.
func TestEnsembleSelectedQualifies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ins := ensembleSeries(rng, 80)
	e := NewEnsemble()
	for k, x := range xs {
		e.SetMeasurement(ins[k])
		e.Observe(x)
	}
	v := e.View()
	if v.Selected < 0 {
		t.Fatal("no winner after 80 epochs")
	}
	win := v.Families[v.Selected]
	for _, f := range v.Families {
		if f.Ready && f.Forecast > 0 && f.Errors >= 3 && !f.Stale && f.RMSRE < win.RMSRE {
			t.Errorf("%s (RMSRE %v) beats the winner %s (RMSRE %v)", f.Name, f.RMSRE, win.Name, win.RMSRE)
		}
	}
	if win.Regret < 0 || !win.Calibrated {
		t.Errorf("winner %s: regret %v, calibrated %v", win.Name, win.Regret, win.Calibrated)
	}
}

// TestEnsembleSteadyStateAllocs: a path's per-epoch work — measurement,
// per-family view, observation — allocates nothing once warm.
func TestEnsembleSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs, ins := ensembleSeries(rng, 300)
	e := NewEnsemble()
	for k := 0; k < 200; k++ {
		e.SetMeasurement(ins[0])
		e.Observe(xs[k])
	}
	k := 200
	avg := testing.AllocsPerRun(100, func() {
		e.SetMeasurement(ins[0])
		e.View()
		e.Observe(xs[k%len(xs)])
		k++
	})
	if avg != 0 {
		t.Fatalf("steady-state SetMeasurement+View+Observe allocates %.1f times", avg)
	}
}

// TestEnsembleStateRoundTrip is the restore property: State, round-tripped
// through its binary form and installed into a fresh ensemble, reproduces
// the live ensemble exactly — the restored ensemble re-encodes to the same
// bytes and shows the same view — whatever the history length at the cut.
// Records carry no predictor state, so this is the claim that replaying
// the detector's clean series rebuilds the HB trio bit for bit. It is
// checked at every epoch of shift-heavy series, and at a few cuts of the
// tournament series every view field is then compared for the next 100
// observations. Measurements come in bursts, so FB goes stale and
// recovers on both sides of the cut.
func TestEnsembleStateRoundTrip(t *testing.T) {
	measure := func(e *Ensemble, k int, ins []FBInputs) {
		if (k/45)%2 == 0 && k%6 != 2 {
			e.SetMeasurement(ins[k])
		}
	}
	const epochs = 400
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, ins := ensembleSeries(rng, epochs)
		xs := throughputSeries(rng, epochs)
		live := NewEnsemble()
		for cut := 0; cut < epochs; cut++ {
			restored := restoreEnsemble(t, live)
			if d := ensembleDiff(live, restored); d != "" {
				t.Fatalf("seed %d cut %d: %s", seed, cut, d)
			}
			measure(live, cut, ins)
			live.Observe(xs[cut])
		}
		if shifts, _ := live.LSOStats(); shifts < 5 {
			t.Fatalf("seed %d: %d level shifts over %d epochs, want a shift-heavy series", seed, shifts, epochs)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, cut := range []int{0, 1, 7, 60, 300} {
			rng := rand.New(rand.NewSource(seed))
			xs, ins := ensembleSeries(rng, cut+100)
			live := NewEnsemble()
			for k := 0; k < cut; k++ {
				measure(live, k, ins)
				live.Observe(xs[k])
			}
			restored := restoreEnsemble(t, live)
			for k := cut; k < cut+100; k++ {
				if d := ensembleDiff(live, restored); d != "" {
					t.Fatalf("seed %d cut %d: diverged at epoch %d: %s", seed, cut, k, d)
				}
				measure(live, k, ins)
				measure(restored, k, ins)
				live.Observe(xs[k])
				restored.Observe(xs[k])
			}
		}
	}
}

// restoreEnsemble round-trips live's state through its binary form into a
// fresh ensemble and requires the result to re-encode to the same bytes.
func restoreEnsemble(t *testing.T, live *Ensemble) *Ensemble {
	t.Helper()
	var st EnsembleState
	live.State(&st)
	data, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var decoded EnsembleState
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatalf("after %d observations: %v", live.Observations(), err)
	}
	restored := NewEnsemble()
	if err := restored.SetState(decoded); err != nil {
		t.Fatalf("after %d observations: SetState: %v", live.Observations(), err)
	}
	var again EnsembleState
	restored.State(&again)
	if got, err := again.AppendBinary(nil); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("after %d observations: restored state re-encodes differently (err %v):\nlive     %x\nrestored %x",
			live.Observations(), err, data, got)
	}
	return restored
}

// ensembleDiff describes the first difference between two ensembles'
// observable state, or returns "".
func ensembleDiff(a, b *Ensemble) string {
	va, vb := a.View(), b.View()
	for i := range va.Families {
		if fa, fb := va.Families[i], vb.Families[i]; fa != fb {
			return fmt.Sprintf("family %d:\nlive     %+v\nrestored %+v", i, fa, fb)
		}
	}
	if va.Selected != vb.Selected {
		return fmt.Sprintf("selection %d vs %d", va.Selected, vb.Selected)
	}
	in1, age1, ok1 := a.Measurement()
	in2, age2, ok2 := b.Measurement()
	if in1 != in2 || age1 != age2 || ok1 != ok2 {
		return fmt.Sprintf("measurement %v/%d/%v vs %v/%d/%v", in1, age1, ok1, in2, age2, ok2)
	}
	ci1, ct1 := a.Coverage()
	ci2, ct2 := b.Coverage()
	s1, o1 := a.LSOStats()
	s2, o2 := b.LSOStats()
	if a.Observations() != b.Observations() || ci1 != ci2 || ct1 != ct2 || s1 != s2 || o1 != o2 {
		return fmt.Sprintf("counters differ: observations %d/%d coverage %d/%d vs %d/%d lso %d/%d vs %d/%d",
			a.Observations(), b.Observations(), ci1, ct1, ci2, ct2, s1, o1, s2, o2)
	}
	return ""
}

// TestEnsembleSetStateRejectsMalformed: state that contradicts the zoo or
// itself is an error naming the problem — never a panic, never silently
// clipped. Error windows are positional, so any count but the zoo's four is
// refused.
func TestEnsembleSetStateRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs, ins := ensembleSeries(rng, 80)
	live := NewEnsemble()
	for k, x := range xs {
		live.SetMeasurement(ins[k])
		live.Observe(x)
	}
	var st EnsembleState
	live.State(&st)
	good, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	const fb = 3 // the FB family's zoo index
	cases := []struct {
		name   string
		mutate func(st *EnsembleState)
		want   string
	}{
		{"LSO window beyond MaxHistory", func(st *EnsembleState) {
			st.LSO.Window = make([]float64, 33)
		}, "MaxHistory"},
		{"NaN in the LSO window", func(st *EnsembleState) {
			st.LSO.Window[0] = math.NaN()
		}, "non-finite LSO window"},
		{"negative LSO shift count", func(st *EnsembleState) {
			st.LSO.Shifts = -1
		}, "negative LSO shift count"},
		{"error window beyond its size", func(st *EnsembleState) {
			st.Errors[fb] = make([]float64, 51)
		}, "window of 50"},
		{"error beyond the clamp", func(st *EnsembleState) {
			st.Errors[fb][0] = 11
		}, "outside"},
		{"three error windows", func(st *EnsembleState) {
			st.Errors = st.Errors[:3]
		}, "3 error windows, want 4"},
		{"five error windows", func(st *EnsembleState) {
			st.Errors = append(st.Errors, nil)
		}, "5 error windows, want 4"},
		{"coverage beyond the observations", func(st *EnsembleState) {
			st.CovTotal = st.Observations + 1
		}, "contradicts"},
		{"measurement age without a measurement", func(st *EnsembleState) {
			st.FB, st.FBAge = nil, 1
		}, "without a measurement"},
		{"negative RTT", func(st *EnsembleState) {
			st.FB.RTT = -1
		}, "invalid measurement"},
	}
	for _, tc := range cases {
		var st EnsembleState
		if err := st.UnmarshalBinary(good); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&st)
		err := NewEnsemble().SetState(st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestEnsembleSetStateManyFamilies: a record may declare any number of
// error windows — a 1 MiB record as many as a million empty ones — and
// one with more than the zoo's four is refused by its count.
func TestEnsembleSetStateManyFamilies(t *testing.T) {
	st := EnsembleState{Errors: make([][]float64, 100000)}
	data, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var decoded EnsembleState
	if err := decoded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if err := NewEnsemble().SetState(decoded); err == nil || !strings.Contains(err.Error(), "100000 error windows, want 4") {
		t.Errorf("SetState of 100 000 error windows: err = %v", err)
	}
}

// TestEnsembleStateBinaryRefuses: the binary form is read from disk and
// from other nodes, so every malformed input is an error, never a panic —
// including every truncation of a real record — and a declared length is
// checked before anything is allocated for it. The encoder refuses what
// json.Marshal refused, and what its decoder would.
func TestEnsembleStateBinaryRefuses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ins := ensembleSeries(rng, 80)
	live := NewEnsemble()
	for k, x := range xs {
		live.SetMeasurement(ins[k])
		live.Observe(x)
	}
	var st EnsembleState
	live.State(&st)
	good, err := st.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(st EnsembleState) []byte {
		t.Helper()
		b, err := st.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// One empty error window ends the record with its length, 0; replace
	// that with a count of 2^60 floats.
	one := encode(EnsembleState{Observations: 1, Errors: [][]float64{nil}})
	huge := append(binary.AppendUvarint(one[:len(one)-1:len(one)-1], 1<<60), make([]byte, 64)...)
	type input struct {
		name string
		data []byte
		want string
	}
	decodeCases := []input{
		{"trailing byte", append(good[:len(good):len(good)], 0), "1 trailing bytes"},
		{"bool byte 2", []byte{0, 2, 0, 0, 0, 0}, "bool byte 2"},
		{"2^60 floats declared", huge, "1152921504606846976 items of 8 bytes declared"},
	}
	for n := range good {
		decodeCases = append(decodeCases, input{fmt.Sprintf("truncated to %d bytes", n), good[:n], "predict: decode state"})
	}
	for _, tc := range decodeCases {
		var st EnsembleState
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := st.UnmarshalBinary(tc.data)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, grew)
		}
	}

	encodeCases := []struct {
		name   string
		mutate func(st *EnsembleState)
		want   string
	}{
		{"NaN error", func(st *EnsembleState) { st.Errors[0][0] = math.NaN() }, "non-finite"},
		{"infinite measurement", func(st *EnsembleState) { st.FB.AvailBw = math.Inf(1) }, "non-finite"},
	}
	for _, tc := range encodeCases {
		var st EnsembleState
		if err := st.UnmarshalBinary(good); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&st)
		if _, err := st.AppendBinary(nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("encode %s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
