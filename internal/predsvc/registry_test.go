package predsvc

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/predict"
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
// eviction churns constantly. Run under -race (the short suite does), this
// is the data-race acceptance test for the sharded registry.
func TestRegistryConcurrentHammer(t *testing.T) {
	const (
		goroutines = 16
		opsPerG    = 400
		pathSpace  = 32
	)
	r := NewRegistry(Config{Shards: 4, Capacity: 16, Ensemble: predict.EnsembleConfig{ErrorWindow: 8}})
	var wg sync.WaitGroup
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
	if got, bound := r.Len(), r.Capacity(); got > bound {
		t.Errorf("Len = %d exceeds capacity %d after hammer", got, bound)
	}
	// The snapshot path must also be safe against concurrent mutation.
	var wg2 sync.WaitGroup
	wg2.Add(2)
	go func() { defer wg2.Done(); r.Snapshot() }()
	go func() {
		defer wg2.Done()
		for i := 0; i < 100; i++ {
			r.GetOrCreate(fmt.Sprintf("path-%02d", i%pathSpace)).Observe(2e6)
		}
	}()
	wg2.Wait()
}
