package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

// toyEntry is the payload-independent entry the conformance suite runs
// with: a path name plus a self-locked value history, mirroring the shape
// (but none of the weight) of a predictor session.
type toyEntry struct {
	mu   sync.Mutex
	path string
	vals []float64
}

func newToy(path string) Entry { return &toyEntry{path: path} }

func (t *toyEntry) Path() string { return t.path }

func (t *toyEntry) add(v float64) {
	t.mu.Lock()
	t.vals = append(t.vals, v)
	t.mu.Unlock()
}

func (t *toyEntry) sum() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s float64
	for _, v := range t.vals {
		s += v
	}
	return s
}

func toyCodec() Codec {
	return Codec{
		// Encode appends the values as a JSON array in dst's storage
		// without allocating, so testRecordAllocs counts only the store.
		Encode: func(dst []byte, e Entry) ([]byte, error) {
			t := e.(*toyEntry)
			t.mu.Lock()
			defer t.mu.Unlock()
			dst = append(dst, '[')
			for i, v := range t.vals {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
			}
			return append(dst, ']'), nil
		},
		Decode: func(path string, data []byte) (Entry, error) {
			t := &toyEntry{path: path}
			if err := json.Unmarshal(data, &t.vals); err != nil {
				return nil, err
			}
			return t, nil
		},
	}
}

// factory builds one Store implementation for the shared suite.
// retainsEvicted says whether hot-tier eviction loses the entry (MemStore)
// or demotes it to a cold tier it can come back from (SpillStore).
type factory struct {
	name           string
	retainsEvicted bool
	open           func(t *testing.T, mem MemConfig) Store
}

func factories() []factory {
	return []factory{
		{
			name:           "mem",
			retainsEvicted: false,
			open: func(t *testing.T, mem MemConfig) Store {
				mem.Codec = toyCodec()
				return NewMem(mem)
			},
		},
		{
			name:           "spill",
			retainsEvicted: true,
			open: func(t *testing.T, mem MemConfig) Store {
				mem.Codec = toyCodec()
				s, err := OpenSpill(SpillConfig{Mem: mem, Dir: t.TempDir()})
				if err != nil {
					t.Fatalf("OpenSpill: %v", err)
				}
				return s
			},
		},
	}
}

// getOrCreate and lookup reach path's entry the way single-goroutine
// callers do: Pin it, creating it or not, and Unpin at once.
func getOrCreate(st Store, path string) Entry {
	e, _ := st.Pin([]byte(path), true)
	st.Unpin()
	return e
}

func lookup(st Store, path string) (Entry, bool) {
	e, ok := st.Pin([]byte(path), false)
	if ok {
		st.Unpin()
	}
	return e, ok
}

// TestStoreConformance runs the full contract against every Store
// implementation through one shared harness: a behavior added here is a
// behavior every present and future store must honor.
func TestStoreConformance(t *testing.T) {
	for _, f := range factories() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Run("CreateLookupPeek", func(t *testing.T) { testCreateLookupPeek(t, f) })
			t.Run("Pin", func(t *testing.T) { testPin(t, f) })
			t.Run("Eviction", func(t *testing.T) { testEviction(t, f) })
			t.Run("RecencyProtects", func(t *testing.T) { testRecencyProtects(t, f) })
			t.Run("Paths", func(t *testing.T) { testPaths(t, f) })
			t.Run("Recent", func(t *testing.T) { testRecent(t, f) })
			t.Run("Delete", func(t *testing.T) { testDelete(t, f) })
			t.Run("SnapshotRoundTrip", func(t *testing.T) { testSnapshotRoundTrip(t, f) })
			t.Run("RecordOwned", func(t *testing.T) { testRecordOwned(t, f) })
			t.Run("RecordAllocs", func(t *testing.T) { testRecordAllocs(t, f) })
			t.Run("LargePayload", func(t *testing.T) { testLargePayload(t, f) })
			t.Run("Hammer", func(t *testing.T) { testHammer(t, f) })
		})
	}
}

func testCreateLookupPeek(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 4, Capacity: 64, New: newToy})
	defer st.Close()

	if _, ok := lookup(st, "a"); ok {
		t.Fatal("Lookup on empty store reported a hit")
	}
	if _, ok := st.Peek("a"); ok {
		t.Fatal("Peek on empty store reported a hit")
	}
	e := getOrCreate(st, "a")
	if e.Path() != "a" {
		t.Fatalf("created entry path %q, want a", e.Path())
	}
	if again := getOrCreate(st, "a"); again != e {
		t.Fatal("second GetOrCreate returned a different entry")
	}
	got, ok := lookup(st, "a")
	if !ok || got != e {
		t.Fatalf("Lookup(a) = %v, %v; want the created entry", got, ok)
	}
	if got, ok := st.Peek("a"); !ok || got.Path() != "a" {
		t.Fatalf("Peek(a) = %v, %v", got, ok)
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if st.Shards() != 4 {
		t.Fatalf("Shards = %d, want 4", st.Shards())
	}
	if st.Capacity() != 64 {
		t.Fatalf("Capacity = %d, want 64", st.Capacity())
	}
}

// testPin pins the access method's contract: a hit allocates nothing, a
// miss without create holds nothing, and a Pin, with or without create,
// marks the entry most recently used.
func testPin(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 1, Capacity: 3, New: newToy})
	defer st.Close()

	// a is longer than the 32 bytes a conversion that does not escape gets
	// on the stack, so a hit that copied the key would allocate.
	a := []byte("a-path-name-longer-than-32-bytes!")
	b, c, d, ghost := []byte("b"), []byte("c"), []byte("d"), []byte("ghost")
	for _, p := range [][]byte{a, b, c} {
		if _, ok := st.Pin(p, true); !ok {
			t.Fatalf("Pin(%s, create) reported false", p)
		}
		st.Unpin()
	}
	for _, create := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := st.Pin(a, create); ok {
				st.Unpin()
			}
		})
		if allocs != 0 {
			t.Errorf("Pin hit (create %v) allocates %v objects, want 0", create, allocs)
		}
	}

	if e, ok := st.Pin(ghost, false); ok || e != nil {
		t.Fatalf("Pin(ghost) = %v, %v on a miss without create", e, ok)
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := st.Pin(a, false)
		if ok {
			st.Unpin()
		}
		done <- ok
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Pin(a) from another goroutine missed")
		}
	case <-time.After(5 * time.Second):
		st.Unpin() // release what the missed Pin held, so Close can run
		t.Fatal("a missed Pin left the store held: Pin from another goroutine blocked")
	}

	// Pin(c) without create, then Pin(a) with create on a hit, each
	// moves the entry to the front; b is left least recently used.
	for _, pin := range []struct {
		path   []byte
		create bool
	}{{c, false}, {a, true}} {
		if _, ok := st.Pin(pin.path, pin.create); !ok {
			t.Fatalf("Pin(%s) missed", pin.path)
		}
		st.Unpin()
		if got := st.Recent(1)[0].Path(); got != string(pin.path) {
			t.Fatalf("most recent after Pin(%s, %v) = %s", pin.path, pin.create, got)
		}
	}
	getOrCreate(st, string(d)) // evicts the least recently used entry
	want := fmt.Sprint([]string{"c", string(a), "d"})
	if got := fmt.Sprint(st.Paths()[st.Stats().ColdPaths:]); got != want {
		t.Fatalf("hot paths after pinning c, a and inserting d = %s, want b evicted: %s", got, want)
	}
}

func testEviction(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 1, Capacity: 3, New: newToy})
	defer st.Close()

	for _, p := range []string{"a", "b", "c", "d"} {
		getOrCreate(st, p)
	}
	if got := st.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	stats := st.Stats()
	if stats.HotPaths != 3 {
		t.Fatalf("HotPaths = %d, want 3", stats.HotPaths)
	}
	_, ok := lookup(st, "a")
	if f.retainsEvicted {
		if !ok {
			t.Fatal("evicted entry lost by a retaining store")
		}
		if st.Len() != 4 {
			t.Fatalf("Len = %d, want 4 across tiers", st.Len())
		}
	} else {
		if ok {
			t.Fatal("evicted entry still reachable in a non-retaining store")
		}
		if st.Len() != 3 {
			t.Fatalf("Len = %d, want 3", st.Len())
		}
	}
}

func testRecencyProtects(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 1, Capacity: 3, New: newToy})
	defer st.Close()

	getOrCreate(st, "a")
	getOrCreate(st, "b")
	getOrCreate(st, "c")
	// Touch a: b becomes the LRU victim of the next insert.
	if _, ok := lookup(st, "a"); !ok {
		t.Fatal("Lookup(a) missed")
	}
	getOrCreate(st, "d")
	hot := make(map[string]bool)
	for _, e := range st.Recent(10) {
		hot[e.Path()] = true
	}
	if !hot["a"] || hot["b"] {
		t.Fatalf("hot set after touch-then-insert = %v, want a protected and b evicted", hot)
	}
	// Peek must NOT protect: peeking c then inserting evicts c anyway… only
	// when c is the LRU. Rebuild the scenario to pin it down.
	st2 := f.open(t, MemConfig{Shards: 1, Capacity: 2, New: newToy})
	defer st2.Close()
	getOrCreate(st2, "x")
	getOrCreate(st2, "y")
	st2.Peek("x") // no recency touch
	getOrCreate(st2, "z")
	hot2 := make(map[string]bool)
	for _, e := range st2.Recent(10) {
		hot2[e.Path()] = true
	}
	if hot2["x"] {
		t.Fatal("Peek protected x from eviction; it must not touch recency")
	}
}

// testPaths pins the order snapshots walk in: every stored path once,
// coldest first — the cold tier sorted, then each hot shard least
// recently used first.
func testPaths(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 2, Capacity: 4, New: newToy})
	defer st.Close()

	want := map[string]bool{}
	for i := 0; i < 8; i++ { // half spill (or vanish) past capacity 4
		p := fmt.Sprintf("p%02d", i)
		getOrCreate(st, p)
		want[p] = true
	}
	paths := st.Paths()
	seen := map[string]int{}
	for _, p := range paths {
		seen[p]++
	}
	if len(seen) != st.Len() {
		t.Fatalf("Paths listed %d distinct paths, store holds %d", len(seen), st.Len())
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("Paths listed %s %d times", p, n)
		}
		if !want[p] {
			t.Fatalf("Paths listed unknown path %s", p)
		}
	}
	if f.retainsEvicted {
		if cold := paths[:st.Stats().ColdPaths]; !sort.StringsAreSorted(cold) {
			t.Fatalf("cold paths %v are not sorted", cold)
		}
	}
	lru := f.open(t, MemConfig{Shards: 1, Capacity: 3, New: newToy})
	defer lru.Close()
	for _, p := range []string{"a", "b", "c"} {
		getOrCreate(lru, p)
	}
	lookup(lru, "a")
	if got := fmt.Sprint(lru.Paths()); got != "[b c a]" {
		t.Fatalf("Paths after touching a = %s, want least recently used first [b c a]", got)
	}
}

func testRecent(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 4, Capacity: 64, New: newToy})
	defer st.Close()

	for i := 0; i < 10; i++ {
		getOrCreate(st, fmt.Sprintf("p%d", i))
	}
	// Touch three in a known order; they must lead Recent, newest first.
	lookup(st, "p2")
	lookup(st, "p7")
	lookup(st, "p4")
	recent := st.Recent(3)
	if len(recent) != 3 {
		t.Fatalf("Recent(3) returned %d entries", len(recent))
	}
	got := []string{recent[0].Path(), recent[1].Path(), recent[2].Path()}
	want := []string{"p4", "p7", "p2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Recent order = %v, want %v", got, want)
		}
	}
	if n := len(st.Recent(100)); n != 10 {
		t.Fatalf("Recent(100) returned %d entries, want all 10", n)
	}
	if st.Recent(0) != nil {
		t.Fatal("Recent(0) must return nil")
	}
}

// testDelete pins the handoff contract: Delete removes the entry from
// every tier without running the evict hook, is idempotent (a second
// delete reports absent), and a deleted path comes back fresh.
func testDelete(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 1, Capacity: 2, New: newToy})
	defer st.Close()

	if st.Delete("nope") {
		t.Fatal("Delete on empty store reported a hit")
	}
	// a, b fill the hot tier; c evicts a (to the cold tier on a retaining
	// store, to oblivion otherwise).
	getOrCreate(st, "a").(*toyEntry).add(1)
	getOrCreate(st, "b").(*toyEntry).add(2)
	getOrCreate(st, "c").(*toyEntry).add(3)

	// Hot delete.
	if !st.Delete("b") {
		t.Fatal("Delete(b) missed a hot entry")
	}
	if _, ok := st.Peek("b"); ok {
		t.Fatal("deleted hot entry still reachable")
	}
	if st.Delete("b") {
		t.Fatal("second Delete(b) reported a hit; must be idempotent")
	}
	// Cold delete (retaining store only; a lossy store already lost a).
	if f.retainsEvicted {
		if !st.Delete("a") {
			t.Fatal("Delete(a) missed a cold entry")
		}
		if _, ok := lookup(st, "a"); ok {
			t.Fatal("deleted cold entry still reachable")
		}
		if st.Delete("a") {
			t.Fatal("second Delete(a) reported a hit; must be idempotent")
		}
	}
	want := 1 // only c remains
	if got := st.Len(); got != want {
		t.Fatalf("Len after deletes = %d, want %d", got, want)
	}
	// Deleted paths come back fresh, not with their old state.
	if e := getOrCreate(st, "b").(*toyEntry); e.sum() != 0 {
		t.Fatalf("recreated b carries old state (sum %v)", e.sum())
	}
	// A delete is not an eviction: the counter must not move.
	if got := st.Evictions(); got != 1 {
		t.Fatalf("Evictions after deletes = %d, want 1 (only the capacity eviction)", got)
	}
}

// testSnapshotRoundTrip proves the snapshot contract end to end through
// the store interface alone: Paths + Record written as a record stream
// capture every entry, and reading the stream back into a fresh store
// rebuilds identical values — exactly how predsvc snapshots a registry
// over any Store.
func testSnapshotRoundTrip(t *testing.T, f factory) {
	codec := toyCodec()
	st := f.open(t, MemConfig{Shards: 2, Capacity: 4, New: newToy})
	defer st.Close()

	wantSum := map[string]float64{}
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("p%02d", i)
		e := getOrCreate(st, p).(*toyEntry)
		for j := 0; j <= i; j++ {
			e.add(float64(j + 1))
		}
		if f.retainsEvicted {
			wantSum[p] = e.sum()
		}
	}
	if !f.retainsEvicted {
		// Only surviving entries round-trip for a lossy store.
		for _, p := range st.Paths() {
			e, _ := st.Peek(p)
			wantSum[p] = e.(*toyEntry).sum()
		}
	}
	if _, ok := st.Record("absent"); ok {
		t.Fatal("Record of an absent path reported a hit")
	}

	var stream bytes.Buffer
	sw := NewStreamWriter(&stream, "toy/1")
	for _, p := range st.Paths() {
		rec, ok := st.Record(p)
		if !ok {
			t.Fatalf("Record(%s) missed a stored path", p)
		}
		if err := sw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	fresh := f.open(t, MemConfig{Shards: 2, Capacity: 16, New: newToy})
	defer fresh.Close()
	sr, err := NewStreamReader(&stream, "toy/1")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; ; n++ {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		e, err := codec.Decode(rec.Path(), rec.Data())
		if err != nil {
			t.Fatalf("Decode(%s): %v", rec.Path(), err)
		}
		dst := getOrCreate(fresh, rec.Path()).(*toyEntry)
		for _, v := range e.(*toyEntry).vals {
			dst.add(v)
		}
	}
	if n != len(wantSum) {
		t.Fatalf("snapshot captured %d entries, want %d", n, len(wantSum))
	}
	for p, want := range wantSum {
		e, ok := fresh.Peek(p)
		if !ok {
			t.Fatalf("restored store missing %s", p)
		}
		if got := e.(*toyEntry).sum(); got != want {
			t.Fatalf("restored %s sum = %v, want %v", p, got, want)
		}
	}
}

// testRecordOwned: a Record is its caller's. No later store operation —
// the spills and fault-ins that reuse the store's buffers among them —
// changes one already returned, and scribbling over one changes no later
// Record or fault-in.
func testRecordOwned(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 1, Capacity: 2, New: newToy})
	defer st.Close()
	sums := map[string]float64{}
	for i, p := range []string{"a", "b", "c"} {
		e := getOrCreate(st, p).(*toyEntry)
		e.add(float64(i + 1))
		sums[p] = e.sum()
	}
	paths := st.Paths() // on a spill store a is cold, b and c hot
	// churn cycles every path through the hot tier: on a spill store each
	// lookup faults one in and spills another.
	churn := func() {
		for range 2 {
			for _, p := range paths {
				e, ok := lookup(st, p)
				if !ok || e.(*toyEntry).sum() != sums[p] {
					t.Fatalf("lookup(%s) = %v, %v, want sum %v", p, e, ok, sums[p])
				}
			}
		}
	}
	recs, want := map[string]Record{}, map[string][]byte{}
	for _, p := range paths {
		rec, ok := st.Record(p)
		if !ok {
			t.Fatalf("Record(%s) missed", p)
		}
		recs[p], want[p] = rec, bytes.Clone(rec)
	}
	churn()
	for _, p := range paths {
		if !bytes.Equal(recs[p], want[p]) {
			t.Fatalf("Record(%s) changed under later store operations", p)
		}
		for i := range recs[p] {
			recs[p][i] = 0xff
		}
	}
	churn()
	for _, p := range paths {
		if rec, ok := st.Record(p); !ok || !bytes.Equal(rec, want[p]) {
			t.Fatalf("Record(%s) after scribbling over an earlier one = %x, %v; want %x", p, rec, ok, want[p])
		}
	}
}

// testRecordAllocs: Record of a hot entry costs one allocation, the
// caller's exact-size copy, however many times the record's framing grows
// (a session-sized history of 112 values is ≈ 2 KiB). The codec here
// allocates nothing, so every object counted is the store's.
func testRecordAllocs(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 1, Capacity: 4, New: newToy})
	defer st.Close()
	e := getOrCreate(st, "hot").(*toyEntry)
	for i := 0; i < 112; i++ {
		e.add(5e7 * (1 + 0.01*float64(i%7)))
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, ok := st.Record("hot"); !ok {
			t.Fatal("Record(hot) missed")
		}
	}); got != 1 {
		t.Errorf("Record allocates %v objects, want 1", got)
	}
}

// testLargePayload pushes entries whose encoded form runs to hundreds of
// kilobytes through eviction and fault-back. Sessions serialize more
// state than a toy entry (per-family error windows and the LSO window),
// so the spill log's record framing must survive payloads well past any
// small-buffer assumption, byte for byte.
func testLargePayload(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 1, Capacity: 2, New: newToy})
	defer st.Close()

	const vals = 40000 // ≳ 300 KiB of JSON per entry
	want := map[string]float64{}
	for _, p := range []string{"big-a", "big-b", "big-c", "big-d"} {
		e := getOrCreate(st, p).(*toyEntry)
		for j := 0; j < vals; j++ {
			e.add(float64(j%977) + 0.5)
		}
		want[p] = e.sum()
	}
	// Capacity 2 on one shard: two entries were evicted with their full
	// payloads. A retaining store must fault them back intact.
	for p, sum := range want {
		e, ok := lookup(st, p)
		if !f.retainsEvicted {
			continue
		}
		if !ok {
			t.Fatalf("large entry %s lost across eviction", p)
		}
		te := e.(*toyEntry)
		if len(te.vals) != vals {
			t.Fatalf("%s came back with %d values, want %d", p, len(te.vals), vals)
		}
		if got := te.sum(); got != sum {
			t.Fatalf("%s sum = %v after fault-back, want %v", p, got, sum)
		}
	}
}

// testHammer runs 16 goroutines of mixed traffic under -race: the store
// must stay consistent (no lost paths among those under capacity, Len
// agreeing with Paths) with zero data races.
func testHammer(t *testing.T, f factory) {
	st := f.open(t, MemConfig{Shards: 4, Capacity: 32, New: newToy})
	defer st.Close()

	const goroutines = 16
	const opsPer = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				p := fmt.Sprintf("path-%d", (g*7+i)%64)
				switch i % 5 {
				case 0, 1:
					getOrCreate(st, p).(*toyEntry).add(1)
				case 2:
					if e, ok := lookup(st, p); ok {
						e.(*toyEntry).add(1)
					}
				case 3:
					if e, ok := st.Peek(p); ok {
						_ = e.(*toyEntry).sum()
					}
				case 4:
					switch i % 3 {
					case 0:
						st.Paths()
					case 1:
						st.Recent(8)
					default:
						st.Stats()
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if got, want := st.Len(), len(st.Paths()); got != want {
		t.Fatalf("Len = %d but Paths lists %d", got, want)
	}
	if f.retainsEvicted {
		if st.Len() != 64 {
			t.Fatalf("retaining store Len = %d, want all 64 paths", st.Len())
		}
	} else if st.Len() > 32 {
		t.Fatalf("Len = %d exceeds capacity 32", st.Len())
	}
	if hot := st.Stats().HotPaths; hot > 32 {
		t.Fatalf("HotPaths = %d exceeds capacity 32", hot)
	}
}
