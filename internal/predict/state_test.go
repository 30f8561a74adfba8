package predict

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// TestPredictorStateRoundTrip is the restore property one predictor at a
// time, for the parameters the zoo does not use: stateOf, round-tripped
// through the binary form and installed with setStateOf into a fresh
// predictor of the same construction, reproduces the live one — the same
// state, compared as JSON, and bit-equal forecasts for the next 100
// observations. The cuts straddle MA(5)'s ring capacity. The detector's
// window is part of the ensemble's state, not a predictor's:
// TestEnsembleStateRoundTrip restores it.
func TestPredictorStateRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		make func() HB
	}{
		{"MA(5)", func() HB { return NewMA(5) }},
		{"EWMA", func() HB { return NewEWMA(0.8) }},
		{"HW", func() HB { return NewHoltWinters(0.8, 0.2) }},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			for _, cut := range []int{0, 1, 4, 5, 6, 7, 11, 12, 13, 25, 60, 300} {
				xs, _ := ensembleSeries(rand.New(rand.NewSource(seed)), cut+100)
				live := c.make()
				for _, x := range xs[:cut] {
					live.Observe(x)
				}
				st := EnsembleState{Observations: uint64(cut), Families: []FamilySnapshot{{Name: c.name, PredictorState: stateOf(live)}}}
				data, err := st.AppendBinary(nil)
				if err != nil {
					t.Fatalf("%s seed %d cut %d: %v", c.name, seed, cut, err)
				}
				var decoded EnsembleState
				if err := decoded.UnmarshalBinary(data); err != nil {
					t.Fatalf("%s seed %d cut %d: %v", c.name, seed, cut, err)
				}
				restored := c.make()
				if err := setStateOf(restored, decoded.Families[0].PredictorState); err != nil {
					t.Fatalf("%s seed %d cut %d: setStateOf: %v", c.name, seed, cut, err)
				}
				want, _ := json.Marshal(stateOf(live))
				if got, _ := json.Marshal(stateOf(restored)); string(got) != string(want) {
					t.Fatalf("%s seed %d cut %d: restored state differs:\nlive     %s\nrestored %s", c.name, seed, cut, want, got)
				}
				for k, x := range xs[cut:] {
					f1, ok1 := live.Predict()
					f2, ok2 := restored.Predict()
					if f1 != f2 || ok1 != ok2 {
						t.Fatalf("%s seed %d cut %d: forecast %d after the cut: live %v,%v restored %v,%v",
							c.name, seed, cut, k, f1, ok1, f2, ok2)
					}
					live.Observe(x)
					restored.Observe(x)
				}
			}
		}
	}
}
