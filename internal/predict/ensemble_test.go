package predict

import (
	"math"
	"math/rand"
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

// paperBest is the paper-ensemble selection as the service wrote it
// before the zoo and the paper view shared one tournament: among the HB
// trio and a fresh FB forecast, the lowest rolling RMSRE over at least
// three scored errors wins; during warm-up the first ready HB member,
// then FB, stands in.
func paperBest(v View) int {
	hb := v.Families[:3]
	fb := v.Families[v.FB]
	best, bestRMSRE := -1, math.Inf(1)
	consider := func(i int, f FamilyView) {
		if f.Ready && f.Errors >= 3 && f.Forecast > 0 && f.RMSRE < bestRMSRE {
			best, bestRMSRE = i, f.RMSRE
		}
	}
	for i, f := range hb {
		consider(i, f)
	}
	if !fb.Stale {
		consider(v.FB, fb)
	}
	if best >= 0 {
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

// TestEnsembleBestIsPaperSetSelection pins that View.Best is the paper's
// selection over MA, EWMA, HW and FB — including warm-up and the stretches
// where withheld measurements leave FB stale — and that a stale FB is
// never selected by either view.
func TestEnsembleBestIsPaperSetSelection(t *testing.T) {
	var predicts, stale, warmup, fbBest int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for path := 0; path < 3; path++ {
			xs, ins := ensembleSeries(rng, 120)
			e := NewEnsemble(EnsembleConfig{})
			for k, x := range xs {
				// Measurements arrive in bursts; the gaps outlast StaleAfter.
				if (k/40)%2 == 0 && k%7 != 3 {
					e.SetMeasurement(ins[k])
				}
				v := e.View()
				predicts++
				if want := paperBest(v); v.Best != want {
					t.Fatalf("seed %d path %d epoch %d: Best = %d, paper selection = %d", seed, path, k, v.Best, want)
				}
				if fb := v.Families[v.FB]; fb.Stale {
					stale++
					if v.Best == v.FB || v.Selected == v.FB {
						t.Fatalf("seed %d path %d epoch %d: stale FB selected (best %d, selected %d)", seed, path, k, v.Best, v.Selected)
					}
				}
				if v.Best >= 0 && v.Families[v.Best].Errors < 3 {
					warmup++
				}
				if v.Best == v.FB {
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

// TestEnsembleSelectedQualifies: the tournament winner has the lowest
// RMSRE among qualified families, so it never trails a qualified family.
func TestEnsembleSelectedQualifies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs, ins := ensembleSeries(rng, 80)
	e := NewEnsemble(EnsembleConfig{})
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
	e := NewEnsemble(EnsembleConfig{})
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

// TestEnsembleStateRoundTrip: replaying the observations into a fresh
// ensemble and installing State gives the same view as the original.
func TestEnsembleStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs, ins := ensembleSeries(rng, 90)
	live := NewEnsemble(EnsembleConfig{})
	for k, x := range xs {
		if k < 50 {
			live.SetMeasurement(ins[k])
		}
		live.Observe(x)
	}
	restored := NewEnsemble(EnsembleConfig{})
	for _, x := range xs {
		restored.Observe(x)
	}
	restored.SetState(live.State())
	a, b := live.View(), restored.View()
	for i := range a.Families {
		fa, fb := a.Families[i], b.Families[i]
		// EWMA/HW replays without measurements are exact here because the
		// whole series was replayed; regression and ECM come from State.
		if fa != fb {
			t.Errorf("family %d differs after restore:\nlive     %+v\nrestored %+v", i, fa, fb)
		}
	}
	if a.Selected != b.Selected || a.Best != b.Best {
		t.Errorf("selection differs: live %d/%d, restored %d/%d", a.Selected, a.Best, b.Selected, b.Best)
	}
	in1, age1, ok1 := live.Measurement()
	in2, age2, ok2 := restored.Measurement()
	if in1 != in2 || age1 != age2 || ok1 != ok2 {
		t.Errorf("measurement differs: live %v/%d/%v, restored %v/%d/%v", in1, age1, ok1, in2, age2, ok2)
	}
}
