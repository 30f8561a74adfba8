package predsvc

import (
	"sort"
	"sync"
	"unsafe"

	"repro/internal/predict"
	"repro/internal/predsvc/store"
)

// Registry is the path → Session map of the service, a thin façade over
// the store.Store interface: all concrete map/LRU/spill machinery lives
// in internal/predsvc/store, and everything above this point — Server,
// snapshots, obs metrics — talks to the interface only.
//
// Two backings ship today: the sharded in-memory MemStore (the default;
// an evicted path loses its session) and the two-tier SpillStore
// (Config.SpillDir; evicted sessions spill to a checksummed disk log and
// fault back in on access, so cold paths survive far beyond Capacity).
type Registry struct {
	cfg Config
	st  store.Store
	// codec is the store's codec, which snapshot restore and handoff
	// import decode records through too.
	codec store.Codec
}

// NewRegistry builds an in-memory registry from cfg (zero value:
// defaults). cfg.SpillDir is ignored here — use OpenRegistry for a
// registry that may need disk resources.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, codec: sessionCodec()}
	r.st = store.NewMem(r.memConfig())
	return r
}

// OpenRegistry builds a registry honoring cfg.SpillDir: empty gives the
// in-memory store, non-empty the disk-spilling two-tier store (whose log
// directory must be creatable — the only error source).
func OpenRegistry(cfg Config) (*Registry, error) {
	if cfg.SpillDir == "" {
		return NewRegistry(cfg), nil
	}
	cfg = cfg.withDefaults()
	r := &Registry{cfg: cfg, codec: sessionCodec()}
	st, err := store.OpenSpill(store.SpillConfig{Mem: r.memConfig(), Dir: cfg.SpillDir})
	if err != nil {
		return nil, err
	}
	r.st = st
	return r, nil
}

// memConfig maps the service Config onto the hot tier's store config,
// with the session constructor as the entry factory and the registry's
// codec.
func (r *Registry) memConfig() store.MemConfig {
	return store.MemConfig{
		Shards:   r.cfg.Shards,
		Capacity: r.cfg.Capacity,
		New:      func(path string) store.Entry { return newSession(path) },
		Codec:    r.codec,
	}
}

// sessionCodec serializes a session as the binary form of its
// predict.EnsembleState (see EnsembleState.AppendBinary), the payload of
// every record the store writes. The path is not repeated in the payload:
// the record frame carries it under the record's checksum. A decoded
// session is a copy of the encoded one, exact at any history length. The
// record may come from disk or another node, so it is untrusted: one that
// does not parse, or holds state the zoo refuses, is an error, which the
// spill store counts as it drops the record.
//
// Both directions pass the session through one EnsembleState, reused under
// a mutex (the spill store calls the codec under its own lock), so neither
// allocates one.
func sessionCodec() store.Codec {
	var (
		mu sync.Mutex
		st predict.EnsembleState
	)
	return store.Codec{
		Encode: func(dst []byte, e store.Entry) ([]byte, error) {
			mu.Lock()
			defer mu.Unlock()
			e.(*Session).state(&st)
			return st.AppendBinary(dst)
		},
		Decode: func(path string, data []byte) (store.Entry, error) {
			mu.Lock()
			defer mu.Unlock()
			if err := st.UnmarshalBinary(data); err != nil {
				return nil, err
			}
			ens := predict.NewEnsemble()
			if err := ens.SetState(st); err != nil {
				return nil, err
			}
			return &Session{path: path, ens: ens}, nil
		},
	}
}

// decode rebuilds path's session from a record's data through the codec.
func (r *Registry) decode(path string, data []byte) (*Session, error) {
	e, err := r.codec.Decode(path, data)
	if err != nil {
		return nil, err
	}
	return e.(*Session), nil
}

// Config returns the effective (defaulted) configuration.
func (r *Registry) Config() Config { return r.cfg }

// Shards returns the hot tier's shard count (a power of two).
func (r *Registry) Shards() int { return r.st.Shards() }

// Capacity returns the enforced hot-tier session capacity.
func (r *Registry) Capacity() int { return r.st.Capacity() }

// GetOrCreate returns the session for path, creating it (possibly
// evicting — or, on a spill store, demoting — another) if absent. The
// returned session is marked most recently used.
//
// GetOrCreate pins the session and unpins it before returning, so it is
// not eviction-safe under concurrency: another request may then evict the
// session, and on a spill store an update made after that lands on a copy
// the log no longer reflects — it is lost when the path faults back in.
// Concurrent callers that mutate sessions use WithBytes.
func (r *Registry) GetOrCreate(path string) *Session {
	e, _ := r.st.Pin(pathBytes(path), true)
	r.st.Unpin()
	return e.(*Session)
}

// WithBytes runs fn on path's session while the session is pinned (see
// store.Store.Pin), so no concurrent eviction can lose an update fn makes
// — the entry point of every handler that reads or updates a session,
// keyed by a byte-slice view of the path so a hot hit costs no
// allocation. With create set an absent path is created; otherwise fn
// runs only when path is present. It reports whether fn ran. fn must not
// call back into the registry.
func (r *Registry) WithBytes(path []byte, create bool, fn func(*Session)) bool {
	e, ok := r.st.Pin(path, create)
	if !ok {
		return false
	}
	defer r.st.Unpin()
	fn(e.(*Session))
	return true
}

// Lookup returns the session for path if present, marking it most
// recently used (a spill store promotes a cold session back into
// memory). Like GetOrCreate it unpins the session before returning.
func (r *Registry) Lookup(path string) (*Session, bool) {
	e, ok := r.st.Pin(pathBytes(path), false)
	if !ok {
		return nil, false
	}
	r.st.Unpin()
	return e.(*Session), true
}

// pathBytes views path as the byte slice Pin takes, without the copy that
// []byte(path) makes for an argument passed through an interface: Pin
// never writes to or retains its argument.
func pathBytes(path string) []byte { return unsafe.Slice(unsafe.StringData(path), len(path)) }

// Peek returns the session for path without touching recency — for stats,
// metrics and handoff's last-writer-wins check. On a spill store a cold
// session is served as a transient decoded copy: reads are accurate,
// mutations are lost.
func (r *Registry) Peek(path string) (*Session, bool) {
	e, ok := r.st.Peek(path)
	if !ok {
		return nil, false
	}
	return e.(*Session), true
}

// Delete removes path's session from every tier, reporting whether it
// was present. Deletion is how shard handoff relinquishes a path that
// now belongs to another node: no evict hook runs, the state is simply
// forgotten here (the importing node owns the authoritative copy).
func (r *Registry) Delete(path string) bool { return r.st.Delete(path) }

// install replaces path's session state with ens — the import side of
// shard handoff and the per-record step of ReadSnapshot. The previous
// session is deleted rather than faulted in, and the install never merges,
// so a retried import lands in the same state.
func (r *Registry) install(path string, ens *predict.Ensemble) {
	r.st.Delete(path)
	r.WithBytes(pathBytes(path), true, func(s *Session) { s.install(ens) })
}

// Len returns the number of registered paths across all tiers.
func (r *Registry) Len() int { return r.st.Len() }

// Evictions returns the number of hot-tier evictions since construction
// (on a spill store each one is a spill, not a loss).
func (r *Registry) Evictions() uint64 { return r.st.Evictions() }

// TierStats reports hot/cold occupancy and spill/fault activity.
func (r *Registry) TierStats() store.TierStats { return r.st.Stats() }

// Recent returns up to n hot-tier sessions, most recently used first.
func (r *Registry) Recent(n int) []*Session {
	entries := r.st.Recent(n)
	out := make([]*Session, len(entries))
	for i, e := range entries {
		out[i] = e.(*Session)
	}
	return out
}

// Paths returns all registered path names, sorted (export order).
func (r *Registry) Paths() []string {
	out := r.st.Paths()
	sort.Strings(out)
	return out
}

// Close releases the store's disk resources (a no-op for the in-memory
// store). The registry must not be used after.
func (r *Registry) Close() error { return r.st.Close() }

// forEachLRU visits every session coldest first (cold tier, then each
// hot shard least recently used first) without touching recency; cold
// sessions are transient decoded copies. Sessions self-lock; fn runs
// outside the store's locks.
func (r *Registry) forEachLRU(fn func(*Session)) {
	for _, p := range r.st.Paths() {
		if s, ok := r.Peek(p); ok {
			fn(s)
		}
	}
}
