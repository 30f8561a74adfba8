package store

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// SpillConfig tunes a SpillStore.
type SpillConfig struct {
	// Mem configures the hot tier. Mem.New and Mem.Codec are required; the
	// codec serializes entries across the hot/cold boundary. Mem.OnEvict,
	// when set, is called after the victim has been spilled to disk.
	Mem MemConfig
	// Dir is the directory holding the spill log. Created if absent. The
	// log is truncated on open: it is a cache extension, not a durability
	// mechanism — snapshots remain the restart story.
	Dir string
	// compactMinBytes is the dead-byte threshold below which the log is
	// never compacted (default 1 MiB; tests lower it). Compaction triggers when dead bytes
	// exceed both this and the live bytes.
	compactMinBytes int64
}

// SpillStore is the two-tier implementation: a MemStore holds the hot
// set, and evicted entries spill to an append-only log of Records,
// faulting back into the hot tier on access. The cold tier is bounded only
// by disk: one node holds millions of cold paths while RSS tracks the hot
// capacity plus a small per-cold-path index entry.
//
// A single mutex serializes every operation — the spill store trades the
// MemStore's shard concurrency for capacity. The log is rewritten in
// place (compacted) once dead records outweigh live ones.
type SpillStore struct {
	mu  sync.Mutex
	hot *MemStore
	dir string

	f          *os.File
	off        int64
	cold       map[string]recordRef
	liveBytes  int64
	deadBytes  int64
	compactMin int64
	// wbuf frames the record a spill writes, and rbuf holds the record a
	// fault-in or compaction reads; both are reused under mu.
	wbuf, rbuf []byte

	spills, faults, errs uint64
}

// recordRef locates one Record in the spill log. path is the cold index's
// key, which a faulted-in entry is stored under again.
type recordRef struct {
	path      string
	off, size int64
}

// spillLogName is the log's file name inside SpillConfig.Dir.
const spillLogName = "spill.log"

// OpenSpill opens a SpillStore in cfg.Dir, truncating any previous log.
func OpenSpill(cfg SpillConfig) (*SpillStore, error) {
	if cfg.Mem.New == nil {
		panic("store: SpillConfig.Mem.New is required")
	}
	if cfg.Mem.Codec.Encode == nil || cfg.Mem.Codec.Decode == nil {
		panic("store: SpillConfig.Mem.Codec is required")
	}
	if cfg.compactMinBytes <= 0 {
		cfg.compactMinBytes = 1 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: spill dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(cfg.Dir, spillLogName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: spill log: %w", err)
	}
	s := &SpillStore{
		dir:        cfg.Dir,
		f:          f,
		cold:       make(map[string]recordRef),
		compactMin: cfg.compactMinBytes,
	}
	mem := cfg.Mem
	userEvict := mem.OnEvict
	mem.OnEvict = func(e Entry) {
		s.spill(e)
		if userEvict != nil {
			userEvict(e)
		}
	}
	s.hot = NewMem(mem)
	return s, nil
}

// spill appends a hot-tier victim's Record to the log. Called with s.mu
// held (every hot-tier mutation happens under it). An entry that fails to
// encode is dropped and counted — eviction cannot be refused.
func (s *SpillStore) spill(e Entry) {
	path := e.Path()
	rec, err := s.hot.encode(s.wbuf, e)
	if err == nil {
		s.wbuf = rec
		_, err = s.f.WriteAt(rec, s.off)
	}
	if err != nil {
		s.errs++
		s.dropCold(path)
		return
	}
	ref := recordRef{path: path, off: s.off, size: int64(len(rec))}
	s.off += ref.size
	s.dropCold(path) // a stale record for the same path becomes garbage
	s.cold[path] = ref
	s.liveBytes += ref.size
	s.spills++
	s.maybeCompact()
}

// Interface conformance, checked at compile time.
var (
	_ Store = (*MemStore)(nil)
	_ Store = (*SpillStore)(nil)
)

// dropCold forgets path's cold record, accounting its bytes as dead.
func (s *SpillStore) dropCold(path string) {
	if old, ok := s.cold[path]; ok {
		delete(s.cold, path)
		s.liveBytes -= old.size
		s.deadBytes += old.size
	}
}

// readRecord reads and verifies ref's Record from the log into buf, grown
// as needed; on error it still returns the buffer for reuse.
func (s *SpillStore) readRecord(buf []byte, ref recordRef) (Record, error) {
	buf = slices.Grow(buf[:0], int(ref.size))[:ref.size]
	if _, err := s.f.ReadAt(buf, ref.off); err != nil {
		return buf, err
	}
	rec, err := checkRecord(buf)
	if err != nil {
		return buf, err
	}
	if string(rec.pathBytes()) != ref.path {
		return buf, fmt.Errorf("store: spill record for %q holds %q", ref.path, rec.Path())
	}
	return rec, nil
}

// faultIn decodes path's cold record. promote removes it from the cold
// index (the caller inserts it into the hot tier); a transient read keeps
// the record. Any read/verify/decode failure drops the record and counts
// an error — the entry's state is lost, not silently corrupted.
func (s *SpillStore) faultIn(ref recordRef, promote bool) (Entry, bool) {
	var e Entry
	rec, err := s.readRecord(s.rbuf, ref)
	s.rbuf = rec
	if err == nil {
		e, err = s.hot.cfg.Codec.Decode(ref.path, rec.Data())
	}
	if err != nil {
		s.errs++
		s.dropCold(ref.path)
		s.maybeCompact()
		return nil, false
	}
	if promote {
		s.faults++
		s.dropCold(ref.path)
		s.maybeCompact()
	}
	return e, true
}

// Pin returns the entry for path: a hot hit, a cold fault-in (promoting
// it back to the hot tier, possibly spilling another entry), or with
// create set a fresh entry. It holds the store mutex until Unpin: every
// eviction happens under it, so nothing can be spilled meanwhile. A
// hot-tier hit costs no allocation, and a fault-in none beyond the codec's
// Decode: it reuses the cold index's key and the log buffers, and the
// victim it spills gives up its LRU node. The create path clones the key.
func (s *SpillStore) Pin(path []byte, create bool) (Entry, bool) {
	s.mu.Lock()
	if e, ok := s.hot.Pin(path, false); ok {
		return e, true
	}
	if ref, ok := s.cold[string(path)]; ok {
		if e, ok := s.faultIn(ref, true); ok {
			s.hot.put(ref.path, e)
			return e, true
		}
	}
	if create {
		return s.hot.Pin(path, true)
	}
	s.mu.Unlock()
	return nil, false
}

// Unpin releases the entry Pin returned.
func (s *SpillStore) Unpin() { s.mu.Unlock() }

// Peek returns the entry for path without touching recency. A cold entry
// comes back as a transient decoded copy (not counted as a fault): reads
// are accurate, mutations are lost — for stats only.
func (s *SpillStore) Peek(path string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.hot.Peek(path); ok {
		return e, true
	}
	if ref, ok := s.cold[path]; ok {
		return s.faultIn(ref, false)
	}
	return nil, false
}

// Record returns path's Record, in bytes of its own, without touching
// recency: a cold path's log bytes, copied verbatim once their checksum
// verifies (a record that fails is dropped and counted, like a failed
// fault-in), or a hot entry encoded through the codec. The store mutex is
// held for this one call.
func (s *SpillStore) Record(path string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.hot.Peek(path); ok {
		rec, err := s.hot.encode(s.wbuf, e)
		if err != nil {
			s.errs++
			return nil, false
		}
		s.wbuf = rec
		return slices.Clone(rec), true
	}
	ref, ok := s.cold[path]
	if !ok {
		return nil, false
	}
	rec, err := s.readRecord(nil, ref)
	if err != nil {
		s.errs++
		s.dropCold(path)
		s.maybeCompact()
		return nil, false
	}
	return rec, true
}

// Delete removes path's entry from whichever tier holds it, reporting
// whether it was present. A hot delete bypasses the spill-on-evict hook
// (the entry is relinquished, not demoted); a cold delete marks the log
// record dead, to be reclaimed by the next compaction.
func (s *SpillStore) Delete(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hot.Delete(path) {
		// Any stale cold record for the same path is garbage too.
		s.dropCold(path)
		s.maybeCompact()
		return true
	}
	if _, ok := s.cold[path]; ok {
		s.dropCold(path)
		s.maybeCompact()
		return true
	}
	return false
}

// Len returns the number of entries across both tiers.
func (s *SpillStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hot.Len() + len(s.cold)
}

// Capacity returns the hot-tier bound; the cold tier is bounded only by
// disk.
func (s *SpillStore) Capacity() int { return s.hot.Capacity() }

// Shards returns the hot tier's shard count.
func (s *SpillStore) Shards() int { return s.hot.Shards() }

// Evictions returns how many entries the hot tier has evicted — each one
// a spill, not a loss.
func (s *SpillStore) Evictions() uint64 { return s.hot.Evictions() }

// Recent returns up to n hot-tier entries, most recently used first.
func (s *SpillStore) Recent(n int) []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hot.Recent(n)
}

// Paths returns every stored path, coldest first: the cold tier sorted,
// then each hot shard least recently used first.
func (s *SpillStore) Paths() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.cold)+s.hot.Len())
	for p := range s.cold {
		out = append(out, p)
	}
	sort.Strings(out)
	return append(out, s.hot.Paths()...)
}

// Stats reports both tiers' occupancy and the log activity counters.
func (s *SpillStore) Stats() TierStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return TierStats{
		HotPaths:  s.hot.Len(),
		ColdPaths: len(s.cold),
		Spills:    s.spills,
		Faults:    s.faults,
		Errors:    s.errs,
	}
}

// maybeCompact rewrites the log without its dead records once they
// outweigh the live ones (and exceed the configured floor) — re-spilled
// and promoted paths leave garbage behind that would otherwise grow the
// append-only log forever.
func (s *SpillStore) maybeCompact() {
	if s.deadBytes < s.compactMin || s.deadBytes <= s.liveBytes {
		return
	}
	tmpName := filepath.Join(s.dir, spillLogName+".compact")
	nf, err := os.OpenFile(tmpName, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return // keep serving from the bloated log
	}
	newCold := make(map[string]recordRef, len(s.cold))
	var off int64
	for path, ref := range s.cold {
		rec, err := s.readRecord(s.rbuf, ref)
		s.rbuf = rec
		if err != nil {
			s.errs++
			continue
		}
		if _, err := nf.WriteAt(rec, off); err != nil {
			nf.Close()
			os.Remove(tmpName)
			return
		}
		newCold[path] = recordRef{path: path, off: off, size: ref.size}
		off += ref.size
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, spillLogName)); err != nil {
		nf.Close()
		os.Remove(tmpName)
		return
	}
	s.f.Close()
	s.f = nf
	s.off = off
	s.cold = newCold
	s.liveBytes = off
	s.deadBytes = 0
}

// Close closes the spill log. The store must not be used after.
func (s *SpillStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
