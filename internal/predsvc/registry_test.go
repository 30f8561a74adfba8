package predsvc

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestConfigShardRounding(t *testing.T) {
	cases := []struct{ in, want int }{{0, 16}, {1, 1}, {2, 2}, {3, 4}, {9, 16}, {16, 16}, {17, 32}}
	for _, c := range cases {
		r := NewRegistry(Config{Shards: c.in})
		if got := r.Shards(); got != c.want {
			t.Errorf("Shards %d → %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// One shard, capacity 3: recency order is fully observable.
	r := NewRegistry(Config{Shards: 1, Capacity: 3})
	for _, p := range []string{"a", "b", "c"} {
		r.GetOrCreate(p).Observe(1e6)
	}
	// Touch "a" so "b" becomes the least recently used.
	if _, ok := r.Lookup("a"); !ok {
		t.Fatal("a should be present")
	}
	r.GetOrCreate("d") // evicts b
	if _, ok := r.Peek("b"); ok {
		t.Error("b should have been evicted (LRU), but is present")
	}
	for _, p := range []string{"a", "c", "d"} {
		if _, ok := r.Peek(p); !ok {
			t.Errorf("%s should have survived eviction", p)
		}
	}
	if got := r.Evictions(); got != 1 {
		t.Errorf("Evictions = %d, want 1", got)
	}
	// Evicted paths come back as fresh sessions.
	if n := r.GetOrCreate("b").Observe(1e6); n != 1 {
		t.Errorf("recreated session has %d observations, want 1", n)
	}
	if got := r.Evictions(); got != 2 {
		t.Errorf("Evictions = %d, want 2 after re-admitting b", got)
	}
	if got := r.Len(); got != 3 {
		t.Errorf("Len = %d, want 3 (capacity)", got)
	}
}

func TestRegistryCapacityBound(t *testing.T) {
	r := NewRegistry(Config{Shards: 4, Capacity: 8})
	for i := 0; i < 100; i++ {
		r.GetOrCreate(fmt.Sprintf("path-%03d", i))
	}
	if got, bound := r.Len(), r.Capacity(); got > bound {
		t.Errorf("Len = %d exceeds enforced capacity %d", got, bound)
	}
	if r.Evictions() == 0 {
		t.Error("expected evictions after inserting far beyond capacity")
	}
}

// TestRegistryConcurrentHammer drives observe/predict/evict from 16
// goroutines over overlapping paths with a capacity small enough that
// eviction churns constantly. Every goroutine also feeds one hot path,
// which stays recently used through the churn, so its 50-error windows
// wrap under concurrent access too. Run under -race (the short suite
// does), this is the data-race acceptance test for the sharded registry.
func TestRegistryConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		opsPerG    = 400
		pathSpace  = 32
	)
	r := NewRegistry(Config{Shards: 4, Capacity: 16})
	var wg sync.WaitGroup
	var wrapped atomic.Bool
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				// Overlapping paths: all goroutines share the same space.
				p := fmt.Sprintf("path-%02d", (g*7+i)%pathSpace)
				switch i % 4 {
				case 0, 1:
					r.GetOrCreate(p).Observe(1e6 * float64(1+i%10))
				case 2:
					if s, ok := r.Lookup(p); ok {
						s.Predict()
					}
				default:
					hot := r.GetOrCreate("hot")
					hot.Observe(1e6 * float64(1+i%7))
					if hot.Predict().Families[0].ErrorCount == 50 && hot.Observations() > 51 {
						wrapped.Store(true)
					}
					if s, ok := r.Peek(p); ok {
						s.Predict()
					}
					r.Len()
					r.Evictions()
				}
			}
		}(g)
	}
	wg.Wait()
	if !wrapped.Load() {
		t.Error("no session outlived its 50-error window")
	}
	if got, bound := r.Len(), r.Capacity(); got > bound {
		t.Errorf("Len = %d exceeds capacity %d after hammer", got, bound)
	}
	// The snapshot path must also be safe against concurrent mutation.
	var wg2 sync.WaitGroup
	wg2.Add(2)
	go func() { defer wg2.Done(); r.WriteSnapshot(io.Discard) }()
	go func() {
		defer wg2.Done()
		for i := 0; i < 100; i++ {
			r.GetOrCreate(fmt.Sprintf("path-%02d", i%pathSpace)).Observe(2e6)
		}
	}()
	wg2.Wait()
}

// TestSpillHammerKeepsEveryObservation drives the handlers from eight
// goroutines, each owning two paths, against a one-shard, four-slot spill
// store: sixteen paths churn through four hot slots, so nearly every
// request faults one session in and spills another. Every accepted
// observation must be counted in its path's final session. Run under
// -race (the short suite does); a handler that mutates a session after
// releasing the store can lose an observation to a concurrent spill.
func TestSpillHammerKeepsEveryObservation(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 100
	)
	// Oversubscribe the CPUs, as a loaded node is: the OS then preempts
	// handler threads mid-request, which widens any window between a store
	// lookup and the session update that follows it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * goroutines))
	srv, err := Open(Config{Shards: 1, Capacity: 4, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	do := func(method, target, body string) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s = %d: %s", method, target, rec.Code, rec.Body)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := fmt.Sprintf("hammer-%02d", 2*g), fmt.Sprintf("hammer-%02d", 2*g+1)
			for i := 0; i < rounds; i++ {
				x := 1e6 * float64(1+(g+i)%7)
				for _, req := range [][3]string{
					{http.MethodPost, "/v1/measure", fmt.Sprintf(`{"path":%q,"rtt_s":0.05,"loss_rate":0.001,"avail_bw_bps":2e7}`, a)},
					{http.MethodPost, "/v1/observe", fmt.Sprintf(`{"path":%q,"throughput_bps":%g}`, a, x)},
					{http.MethodPost, "/v1/observe-batch", fmt.Sprintf(`{"observations":[{"path":%q,"throughput_bps":%g},{"path":%q,"throughput_bps":%g}]}`, a, x, b, x)},
					{http.MethodGet, "/v1/predict?path=" + a, ""},
					{http.MethodPost, "/v1/predict-batch", fmt.Sprintf(`{"paths":[%q,%q]}`, a, b)},
				} {
					if err := do(req[0], req[1], req[2]); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 2*goroutines; i++ {
		path := fmt.Sprintf("hammer-%02d", i)
		want := uint64(rounds)
		if i%2 == 0 {
			want = 2 * rounds
		}
		s, ok := srv.Registry().Peek(path)
		if !ok {
			t.Fatalf("%s lost", path)
		}
		if got := s.Observations(); got != want {
			t.Errorf("%s: %d observations, want %d", path, got, want)
		}
		// Every path outlives its 50-error windows, so the spill tier
		// round-trips wrapped rings.
		if got := s.Predict().Families[0].ErrorCount; got != 50 {
			t.Errorf("%s: %d errors in the window, want a full 50", path, got)
		}
	}
	if st := srv.Registry().TierStats(); st.Spills == 0 || st.Faults == 0 || st.Errors != 0 {
		t.Errorf("hammer never crossed the spill tier cleanly: %+v", st)
	}
}
