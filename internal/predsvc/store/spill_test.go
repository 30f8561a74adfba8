package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func openSpillT(t *testing.T, mem MemConfig, compactMin int64) (*SpillStore, string) {
	t.Helper()
	dir := t.TempDir()
	mem.Codec = toyCodec()
	s, err := OpenSpill(SpillConfig{Mem: mem, Dir: dir, compactMinBytes: compactMin})
	if err != nil {
		t.Fatalf("OpenSpill: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// TestSpillHoldsManyPathsBoundedHot is the capacity claim behind the
// two-tier design: 100k paths through a 256-entry hot tier, every one of
// them still reachable, with the resident hot set never exceeding its
// bound — memory tracks the hot capacity, not the path count.
func TestSpillHoldsManyPathsBoundedHot(t *testing.T) {
	const paths = 100_000
	const hotCap = 256
	s, _ := openSpillT(t, MemConfig{Shards: 4, Capacity: hotCap, New: newToy}, 0)

	for i := 0; i < paths; i++ {
		e := getOrCreate(s, fmt.Sprintf("path-%06d", i)).(*toyEntry)
		e.add(float64(i))
	}
	if got := s.Len(); got != paths {
		t.Fatalf("Len = %d, want %d", got, paths)
	}
	st := s.Stats()
	if st.HotPaths > hotCap {
		t.Fatalf("HotPaths = %d exceeds hot capacity %d", st.HotPaths, hotCap)
	}
	if st.ColdPaths < paths-hotCap {
		t.Fatalf("ColdPaths = %d, want ≥ %d", st.ColdPaths, paths-hotCap)
	}
	if st.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", st.Errors)
	}
	// Old cold paths fault back with their state intact.
	for _, i := range []int{0, 1, 137, 5_000, 50_000, paths - 1} {
		p := fmt.Sprintf("path-%06d", i)
		e, ok := lookup(s, p)
		if !ok {
			t.Fatalf("Lookup(%s) missed", p)
		}
		if got := e.(*toyEntry).sum(); got != float64(i) {
			t.Fatalf("%s faulted back with sum %v, want %v", p, got, float64(i))
		}
	}
	if s.Stats().Faults == 0 {
		t.Fatal("no faults counted despite cold lookups")
	}
}

// TestSpillFaultPreservesState: evict → fault-in must round-trip the
// entry's state through the codec.
func TestSpillFaultPreservesState(t *testing.T) {
	s, _ := openSpillT(t, MemConfig{Shards: 1, Capacity: 1, New: newToy}, 0)

	a := getOrCreate(s, "a").(*toyEntry)
	a.add(3)
	a.add(4)
	getOrCreate(s, "b") // evicts + spills a
	if st := s.Stats(); st.Spills != 1 || st.ColdPaths != 1 {
		t.Fatalf("after eviction: %+v, want 1 spill / 1 cold", st)
	}
	back, ok := lookup(s, "a")
	if !ok {
		t.Fatal("cold entry not found")
	}
	if got := back.(*toyEntry).sum(); got != 7 {
		t.Fatalf("faulted-in sum = %v, want 7", got)
	}
	if st := s.Stats(); st.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", st.Faults)
	}
	// The promotion evicted b; a is hot again and must not re-fault.
	if _, ok := lookup(s, "a"); !ok {
		t.Fatal("promoted entry lost")
	}
	if st := s.Stats(); st.Faults != 1 {
		t.Fatalf("hot lookup faulted: Faults = %d, want still 1", st.Faults)
	}
}

// TestSpillPin: Pin faults a cold entry in or creates one on request,
// holds the store until Unpin, and holds nothing when it misses.
func TestSpillPin(t *testing.T) {
	s, _ := openSpillT(t, MemConfig{Shards: 1, Capacity: 1, New: newToy}, 0)
	if _, ok := s.Pin([]byte("a"), false); ok {
		t.Fatal("Pin without create found an absent entry")
	}
	e, ok := s.Pin([]byte("a"), true)
	if !ok {
		t.Fatal("Pin with create missed")
	}
	e.(*toyEntry).add(5)
	s.Unpin()
	getOrCreate(s, "b") // spills a
	e, ok = s.Pin([]byte("a"), false)
	if !ok || e.(*toyEntry).sum() != 5 {
		t.Fatalf("Pin of a cold entry = %v, %v; want it faulted in with sum 5", e, ok)
	}
	// While a is pinned no other operation can run, so none can evict it.
	done := make(chan struct{})
	go func() {
		getOrCreate(s, "c")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("GetOrCreate ran while an entry was pinned")
	case <-time.After(20 * time.Millisecond):
	}
	s.Unpin()
	<-done
	if st := s.Stats(); st.ColdPaths != 2 || st.Errors != 0 {
		t.Fatalf("after unpin: %+v, want a and b cold", st)
	}
}

// TestSpillCorruptRecordDropped: a bit-flipped record must fail its
// sha256, be dropped with an error counted, and never be served as data.
func TestSpillCorruptRecordDropped(t *testing.T) {
	s, dir := openSpillT(t, MemConfig{Shards: 1, Capacity: 1, New: newToy}, 0)

	a := getOrCreate(s, "aa").(*toyEntry)
	a.add(42)
	getOrCreate(s, "bb") // spills aa at offset 0

	// Flip a byte inside the record payload (past the 8-byte header).
	log := filepath.Join(dir, spillLogName)
	data, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeaderLen+1] ^= 0xff
	if err := os.WriteFile(log, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := lookup(s, "aa"); ok {
		t.Fatal("corrupt record served as a live entry")
	}
	if st := s.Stats(); st.Errors != 1 || st.ColdPaths != 0 {
		t.Fatalf("after corrupt fault-in: %+v, want 1 error / 0 cold", st)
	}
	// The path starts over fresh rather than carrying garbage.
	if got := getOrCreate(s, "aa").(*toyEntry).sum(); got != 0 {
		t.Fatalf("recreated entry sum = %v, want 0 (fresh)", got)
	}
}

// TestSpillCompaction: promotions leave dead records behind; once they
// outweigh live ones the log must be rewritten, shrinking the file while
// preserving every cold entry.
func TestSpillCompaction(t *testing.T) {
	s, _ := openSpillT(t, MemConfig{Shards: 1, Capacity: 1, New: newToy}, 1)

	// A large record for a (spilled, then promoted → dead), a small one
	// for b: dead > live and past the 1-byte floor triggers compaction.
	a := getOrCreate(s, "a").(*toyEntry)
	for i := 0; i < 64; i++ {
		a.add(float64(i))
	}
	getOrCreate(s, "b") // spills big a
	if s.deadBytes != 0 {
		t.Fatalf("deadBytes = %d before any promotion", s.deadBytes)
	}
	if _, ok := lookup(s, "a"); !ok { // promotes a (dead bytes), spills b
		t.Fatal("Lookup(a) missed")
	}
	s.mu.Lock()
	dead, live, off := s.deadBytes, s.liveBytes, s.off
	s.mu.Unlock()
	if dead != 0 {
		t.Fatalf("compaction did not run: deadBytes = %d", dead)
	}
	if off != live {
		t.Fatalf("compacted log offset %d != live bytes %d", off, live)
	}
	// b survived compaction with its record intact.
	if _, ok := lookup(s, "b"); !ok {
		t.Fatal("b lost in compaction")
	}
	if st := s.Stats(); st.Errors != 0 {
		t.Fatalf("Errors = %d after compaction", st.Errors)
	}
}

// TestOpenSpillTruncates: the spill log is a cache extension, not a
// durability mechanism — whatever a previous process left behind is
// discarded on open.
func TestOpenSpillTruncates(t *testing.T) {
	dir := t.TempDir()
	log := filepath.Join(dir, spillLogName)
	if err := os.WriteFile(log, []byte("stale garbage from a previous run"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenSpill(SpillConfig{Mem: MemConfig{New: newToy, Codec: toyCodec()}, Dir: dir})
	if err != nil {
		t.Fatalf("OpenSpill over a stale log: %v", err)
	}
	defer s.Close()
	fi, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("stale log not truncated: %d bytes", fi.Size())
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d on a fresh store", s.Len())
	}
}

// countEntry is an entry whose codec allocates nothing to encode and one
// object, the entry, to decode, so a test can see every allocation the
// store itself makes around it.
type countEntry struct {
	path string
	n    uint64
}

func (c *countEntry) Path() string { return c.path }

// unluckyCount is a value countCodec refuses to decode.
const unluckyCount = 13

func countCodec() Codec {
	return Codec{
		Encode: func(dst []byte, e Entry) ([]byte, error) {
			return binary.BigEndian.AppendUint64(dst, e.(*countEntry).n), nil
		},
		Decode: func(path string, data []byte) (Entry, error) {
			if len(data) != 8 {
				return nil, fmt.Errorf("count of %d bytes", len(data))
			}
			n := binary.BigEndian.Uint64(data)
			if n == unluckyCount {
				return nil, fmt.Errorf("unlucky count")
			}
			return &countEntry{path: path, n: n}, nil
		},
	}
}

// openCounts opens a one-shard spill store of countEntry values with room
// for hot of them, and creates paths p0, p1, ... holding 100, 101, ...;
// all but the last hot ones are cold.
func openCounts(t *testing.T, hot, paths int) (*SpillStore, [][]byte, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := OpenSpill(SpillConfig{Dir: dir, Mem: MemConfig{
		Shards: 1, Capacity: hot, Codec: countCodec(),
		New: func(path string) Entry { return &countEntry{path: path} },
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	keys := make([][]byte, paths)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("p%d", i))
		getOrCreate(s, string(keys[i])).(*countEntry).n = uint64(100 + i)
	}
	return s, keys, dir
}

// TestSpillFaultInAllocs: Pin of a cold path in a full spill store — the
// fault-in, the victim's spill and the LRU reinsert — allocates nothing
// beyond what the codec's Decode does. Cycling eight paths through four
// hot slots makes every Pin one such cycle.
func TestSpillFaultInAllocs(t *testing.T) {
	s, keys, _ := openCounts(t, 4, 8)
	codec := countCodec()
	data := binary.BigEndian.AppendUint64(nil, 7)
	decodeAllocs := testing.AllocsPerRun(100, func() {
		if _, err := codec.Decode("p0", data); err != nil {
			t.Fatal(err)
		}
	})
	faults0 := s.Stats().Faults
	k := 0
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		if _, ok := s.Pin(keys[k%len(keys)], false); !ok {
			t.Fatalf("Pin(%s) missed", keys[k%len(keys)])
		}
		s.Unpin()
		k++
	})
	if st := s.Stats(); st.Faults-faults0 != runs+1 || st.Errors != 0 {
		t.Fatalf("%d faults and %d errors in %d cycles, want every Pin a fault", st.Faults-faults0, st.Errors, runs+1)
	}
	if allocs > decodeAllocs {
		t.Errorf("a fault + spill cycle allocates %.1f objects, the codec's Decode %.1f", allocs, decodeAllocs)
	}
}

// TestSpillFailedFaultLeavesNextCorrect: a fault-in whose record fails its
// checksum, or whose payload the codec refuses, leaves nothing behind in
// the buffers the store reuses: the next fault-in is exact.
func TestSpillFailedFaultLeavesNextCorrect(t *testing.T) {
	s, keys, dir := openCounts(t, 1, 4) // p0, p1 and p2 cold, in log order
	getOrCreate(s, "p3").(*countEntry).n = unluckyCount
	getOrCreate(s, "p4") // spills p3

	// Flip a byte of p0's payload, the log's first record.
	f, err := os.OpenFile(filepath.Join(dir, spillLogName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(recordHeaderLen + len(keys[0]) + 7)
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, bad := range []string{"p0", "p3"} {
		if _, ok := lookup(s, bad); ok {
			t.Fatalf("%s: a record that fails its checksum or decode was served", bad)
		}
		for _, i := range []int{1, 2} {
			e, ok := lookup(s, string(keys[i]))
			if !ok || e.(*countEntry).n != uint64(100+i) {
				t.Fatalf("after %s failed: fault-in of p%d = %v, %v, want %d", bad, i, e, ok, 100+i)
			}
		}
	}
	if st := s.Stats(); st.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", st.Errors)
	}
}
