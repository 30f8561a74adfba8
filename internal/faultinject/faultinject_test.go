package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.Check("anything"); err != nil {
		t.Errorf("nil injector Check = %v, want nil", err)
	}
	if in.Stats() != nil {
		t.Error("nil injector reported activity")
	}
}

func TestEveryCadence(t *testing.T) {
	in := New(1, Rule{Site: "s", Every: 3})
	var fires int
	for i := 0; i < 9; i++ {
		if in.Check("s") != nil {
			fires++
		}
	}
	if fires != 3 {
		t.Errorf("Every:3 over 9 calls fired %d times, want 3", fires)
	}
	if st := in.Stats()["s"]; st.Fires != 3 || st.Calls != 9 {
		t.Errorf("counters: fires %d calls %d, want 3/9", st.Fires, st.Calls)
	}
}

func TestAfterAndTimes(t *testing.T) {
	in := New(1, Rule{Site: "s", Every: 1, After: 2, Times: 3})
	var pattern []bool
	for i := 0; i < 8; i++ {
		pattern = append(pattern, in.Check("s") != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("call %d fired=%v, want %v (pattern %v)", i+1, pattern[i], want[i], pattern)
		}
	}
}

func TestProbabilityDeterministicInAggregate(t *testing.T) {
	run := func() uint64 {
		in := New(42, Rule{Site: "s", Probability: 0.3})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 250; i++ {
					in.Check("s")
				}
			}()
		}
		wg.Wait()
		return in.Stats()["s"].Fires
	}
	f1, f2 := run(), run()
	if f1 != f2 {
		t.Errorf("fire counts differ across identical runs: %d vs %d", f1, f2)
	}
	// 2000 draws at p=0.3: expect ~600; a loose sanity band catches a
	// broken RNG without flaking.
	if f1 < 400 || f1 > 800 {
		t.Errorf("fires = %d over 2000 draws at p=0.3, outside sanity band", f1)
	}
}

func TestCustomErrorAndPureDelay(t *testing.T) {
	sentinel := errors.New("boom")
	in := New(1,
		Rule{Site: "err", Every: 1, Err: sentinel},
		Rule{Site: "slow", Every: 1, Delay: 5 * time.Millisecond},
	)
	if err := in.Check("err"); !errors.Is(err, sentinel) {
		t.Errorf("Check(err) = %v, want sentinel", err)
	}
	start := time.Now()
	if err := in.Check("slow"); err != nil {
		t.Errorf("pure-delay rule returned error %v, want nil", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("pure-delay rule slept %v, want >= 5ms", d)
	}
	if err := in.Check("unknown-site"); err != nil {
		t.Errorf("unknown site returned %v, want nil", err)
	}
}

func TestDefaultErrIsErrInjected(t *testing.T) {
	in := New(1, Rule{Site: "s", Every: 1})
	if err := in.Check("s"); !errors.Is(err, ErrInjected) {
		t.Errorf("Check = %v, want ErrInjected", err)
	}
}

func TestStatsAndString(t *testing.T) {
	in := New(1, Rule{Site: "a", Every: 1}, Rule{Site: "b", Every: 2})
	in.Check("a")
	in.Check("b")
	in.Check("b")
	st := in.Stats()
	if st["a"].Fires != 1 || st["a"].Calls != 1 || st["b"].Fires != 1 || st["b"].Calls != 2 {
		t.Errorf("Stats = %+v", st)
	}
	if s := in.String(); s == "" {
		t.Error("empty String()")
	}
}
