package store

import (
	"container/list"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// MemConfig tunes a MemStore.
type MemConfig struct {
	// Shards is the number of shards, rounded up to a power of two
	// (default 16). More shards reduce lock contention.
	Shards int
	// Capacity is the maximum number of entries kept store-wide; the
	// least-recently-used entry of a full shard is evicted to admit a new
	// one. Enforced per shard as Capacity/Shards (default 4096, min 1 per
	// shard).
	Capacity int
	// New builds a fresh entry for a path on first access. Required.
	New func(path string) Entry
	// Codec serializes entries into Records. Record requires it, and so
	// does a SpillStore's hot tier, which spills through it.
	Codec Codec
	// OnEvict, when non-nil, is called with every evicted entry — the
	// evict-notify hook SpillStore builds its disk tier on. It runs with
	// the victim's shard lock held and must not call back into the store.
	OnEvict func(Entry)
}

func (c MemConfig) withDefaults() MemConfig {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	c.Shards = nextPow2(c.Shards)
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	return c
}

// MemStore is the sharded in-memory path → entry map: paths hash onto a
// power-of-two number of shards, each guarded by its own RWMutex and
// evicting its least-recently-used entry at capacity. Store locks are
// held only for map/recency bookkeeping, never across entry state.
type MemStore struct {
	cfg       MemConfig
	shards    []*shard
	mask      uint64
	touch     atomic.Uint64 // global recency clock, for Recent
	evictions atomic.Uint64
	recMu     sync.Mutex // guards recBuf, the buffer Record frames into
	recBuf    []byte
}

type shard struct {
	mu       sync.RWMutex
	capacity int
	elems    map[string]*list.Element // path → element in lru
	lru      *list.List               // front = most recently used
}

// memNode is the LRU payload: the entry plus its last-touch stamp on the
// store-wide recency clock.
type memNode struct {
	e     Entry
	touch uint64
}

// NewMem builds a MemStore from cfg. cfg.New must be set.
func NewMem(cfg MemConfig) *MemStore {
	cfg = cfg.withDefaults()
	if cfg.New == nil {
		panic("store: MemConfig.New is required")
	}
	perShard := cfg.Capacity / cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	m := &MemStore{cfg: cfg, mask: uint64(cfg.Shards - 1)}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i] = &shard{
			capacity: perShard,
			elems:    make(map[string]*list.Element),
			lru:      list.New(),
		}
	}
	return m
}

// Shards returns the shard count (a power of two).
func (m *MemStore) Shards() int { return len(m.shards) }

// Capacity returns the store-wide entry capacity actually enforced
// (per-shard capacity × shard count).
func (m *MemStore) Capacity() int { return m.shards[0].capacity * len(m.shards) }

// FNV-1a, inlined: hash/fnv's New64a costs a heap allocation per call
// through the hash.Hash64 interface, which the request hot path cannot
// afford. The constants are the standard ones, so shard assignment is
// unchanged from the hash/fnv implementation this replaces.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv64a[K string | []byte](k K) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= fnvPrime64
	}
	return h
}

// shardFor returns the shard path hashes onto. It takes a string or a
// byte-slice view of the path, so wire decoders that never materialize a
// string hash the same way.
func shardFor[K string | []byte](m *MemStore, path K) *shard {
	return m.shards[fnv64a(path)&m.mask]
}

// Pin returns the entry for path, marking it most recently used; with
// create set an absent path gets a fresh entry (possibly evicting the
// shard's least-recently-used one). A hit costs no allocation (the map
// lookup through string(path) is recognized by the compiler), and only an
// insertion clones the key. The slice is never retained.
func (m *MemStore) Pin(path []byte, create bool) (Entry, bool) {
	sh := shardFor(m, path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.elems[string(path)]; ok {
		sh.lru.MoveToFront(e)
		n := e.Value.(*memNode)
		n.touch = m.touch.Add(1)
		return n.e, true
	}
	if !create {
		return nil, false
	}
	key := string(path)
	entry := m.cfg.New(key)
	m.putLocked(sh, key, entry)
	return entry, true
}

// Unpin does nothing: an entry the MemStore evicts is dropped, not
// copied, so there is no copy an update made after Pin could miss.
func (m *MemStore) Unpin() {}

// put inserts (or replaces) path's entry as most recently used, evicting
// as needed — how SpillStore promotes a faulted-in entry back to the hot
// tier.
func (m *MemStore) put(path string, e Entry) {
	sh := shardFor(m, path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.elems[path]; ok {
		n := old.Value.(*memNode)
		n.e = e
		n.touch = m.touch.Add(1)
		sh.lru.MoveToFront(old)
		return
	}
	m.putLocked(sh, path, e)
}

// putLocked inserts path's entry as most recently used. In a full shard the
// least recently used entry is evicted, and its list element and node
// carry the new entry.
func (m *MemStore) putLocked(sh *shard, path string, e Entry) {
	if sh.lru.Len() < sh.capacity {
		sh.elems[path] = sh.lru.PushFront(&memNode{e: e, touch: m.touch.Add(1)})
		return
	}
	el := sh.lru.Back()
	n := el.Value.(*memNode)
	victim := n.e
	delete(sh.elems, victim.Path())
	m.evictions.Add(1)
	if m.cfg.OnEvict != nil {
		m.cfg.OnEvict(victim)
	}
	n.e, n.touch = e, m.touch.Add(1)
	sh.lru.MoveToFront(el)
	sh.elems[path] = el
}

// Peek returns the entry for path without touching recency (shared lock
// only) — for stats.
func (m *MemStore) Peek(path string) (Entry, bool) {
	sh := shardFor(m, path)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.elems[path]
	if !ok {
		return nil, false
	}
	return e.Value.(*memNode).e, true
}

// Delete removes path's entry, reporting whether it was present. The
// evict hook does not run: a delete relinquishes the entry (shard
// handoff), it does not demote it.
func (m *MemStore) Delete(path string) bool {
	sh := shardFor(m, path)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.elems[path]
	if !ok {
		return false
	}
	sh.lru.Remove(e)
	delete(sh.elems, path)
	return true
}

// Len returns the number of stored entries.
func (m *MemStore) Len() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.RLock()
		n += len(sh.elems)
		sh.mu.RUnlock()
	}
	return n
}

// Evictions returns the number of LRU evictions since construction.
func (m *MemStore) Evictions() uint64 { return m.evictions.Load() }

// Paths returns all stored path names shard by shard, least recently used
// first within each shard.
func (m *MemStore) Paths() []string {
	var out []string
	for _, sh := range m.shards {
		sh.mu.RLock()
		for e := sh.lru.Back(); e != nil; e = e.Prev() {
			out = append(out, e.Value.(*memNode).e.Path())
		}
		sh.mu.RUnlock()
	}
	return out
}

// Record returns path's entry encoded through MemConfig.Codec, without
// touching recency, in bytes of its own. The shard lock is released before
// encoding (entries self-lock); the record is framed in a reused buffer
// and cloned once. An entry that fails to encode is reported absent.
func (m *MemStore) Record(path string) (Record, bool) {
	e, ok := m.Peek(path)
	if !ok {
		return nil, false
	}
	m.recMu.Lock()
	defer m.recMu.Unlock()
	rec, err := m.encode(m.recBuf, e)
	m.recBuf = rec // nil on error, as is its clone
	return slices.Clone(rec), err == nil
}

// encode frames e's Record in buf's storage, growing it as needed.
func (m *MemStore) encode(buf []byte, e Entry) (Record, error) {
	rec, err := m.cfg.Codec.Encode(startRecord(buf[:0], e.Path()), e)
	if err != nil {
		return nil, err
	}
	return sealRecord(rec)
}

// Recent returns up to n entries, most recently used first across all
// shards (merged on the store-wide recency clock).
func (m *MemStore) Recent(n int) []Entry {
	if n <= 0 {
		return nil
	}
	type stamped struct {
		e     Entry
		touch uint64
	}
	var all []stamped
	for _, sh := range m.shards {
		sh.mu.RLock()
		for e := sh.lru.Front(); e != nil; e = e.Next() {
			nd := e.Value.(*memNode)
			all = append(all, stamped{nd.e, nd.touch})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].touch > all[j].touch })
	if len(all) > n {
		all = all[:n]
	}
	out := make([]Entry, len(all))
	for i, s := range all {
		out[i] = s.e
	}
	return out
}

// Stats reports everything hot: a MemStore has no cold tier.
func (m *MemStore) Stats() TierStats {
	return TierStats{HotPaths: m.Len()}
}

// Close is a no-op: a MemStore holds no disk resources.
func (m *MemStore) Close() error { return nil }
