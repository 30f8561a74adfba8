// Package store is the session-storage seam of the prediction service:
// a Store interface over "path → entry" maps with LRU recency semantics,
// plus the two implementations the service ships with — the sharded
// in-memory MemStore (the original registry core) and the two-tier
// SpillStore that evicts cold entries to an append-only disk log and
// faults them back in on access — and the one framing every persisted or
// transferred entry uses: the checksummed Record and the record stream
// (StreamWriter, StreamReader) that snapshot files and shard handoff carry.
//
// The package is deliberately ignorant of predictor sessions: entries are
// anything with a path name, and Records carry them as serialized by a
// caller-supplied Codec. internal/predsvc wires its *Session in; the
// conformance suite (conformance_test.go) runs against a toy entry type,
// proving the contract is implementation- and payload-independent.
package store

// Entry is one path's stored value. Implementations must be safe for
// concurrent use by their own locking — the store serializes only its own
// map/recency bookkeeping, never entry state.
type Entry interface {
	// Path returns the path name the entry is stored under.
	Path() string
}

// Codec serializes entries into Record payloads. Encode appends the
// payload to dst and returns the extended slice, which the store frames in
// place; it must be deterministic. Decode must rebuild an entry that
// behaves exactly like the one Encode captured, without retaining data.
type Codec struct {
	Encode func(dst []byte, e Entry) ([]byte, error)
	Decode func(path string, data []byte) (Entry, error)
}

// TierStats reports a store's tier occupancy and disk-tier activity.
// MemStore reports everything hot; SpillStore splits hot/cold and counts
// spills (evictions serialized to the log) and faults (log reads that
// promoted an entry back to the hot tier).
type TierStats struct {
	// HotPaths is the number of entries resident in memory.
	HotPaths int `json:"hot_paths"`
	// ColdPaths is the number of entries resident only in the spill log.
	ColdPaths int `json:"cold_paths"`
	// Spills counts entries written to the spill log on eviction.
	Spills uint64 `json:"spills"`
	// Faults counts spill-log reads that promoted an entry back to the hot
	// tier. Transient peeks (stats, metrics walks, handoff's
	// last-writer-wins check) are not faults.
	Faults uint64 `json:"faults"`
	// Errors counts spill records that failed their checksum or codec on
	// either side — the entry's state was dropped and recreated fresh.
	Errors uint64 `json:"errors,omitempty"`
}

// Store is the session-storage contract the prediction service builds on.
// All methods are goroutine-safe. Recency: Pin marks the entry most
// recently used; Peek and Record never touch recency.
type Store interface {
	// Pin returns the entry for path, a byte-slice view the store never
	// retains, and marks it most recently used; a SpillStore promotes a
	// cold entry back to the hot tier here. With create set an absent path
	// gets a fresh entry (possibly evicting another); otherwise Pin
	// reports false. A hot-tier hit costs no allocation.
	//
	// Until the paired Unpin no update made to the returned entry can be
	// lost to an eviction: a SpillStore holds every entry resident, and a
	// MemStore drops what it evicts, so it has no copy that could go
	// stale. When Pin reports false nothing is pinned and Unpin must not
	// be called. The caller must not call back into the store while an
	// entry is pinned.
	Pin(path []byte, create bool) (Entry, bool)
	// Unpin releases the entry the last successful Pin returned.
	Unpin()
	// Peek returns the entry for path without touching recency — for
	// stats. A SpillStore serves cold entries as transient decoded copies:
	// reads are accurate, mutations are lost.
	Peek(path string) (Entry, bool)
	// Delete removes path's entry from every tier, reporting whether it
	// was present. A delete is not an eviction: no evict hook runs and no
	// spill happens — the entry is simply forgotten. It is how shard
	// handoff relinquishes ownership of a path that now lives on another
	// node.
	Delete(path string) bool
	// Len returns the number of stored entries across all tiers.
	Len() int
	// Capacity returns the enforced hot-tier entry bound.
	Capacity() int
	// Shards returns the hot tier's shard count (a power of two).
	Shards() int
	// Evictions returns how many entries the hot tier has evicted. For a
	// MemStore an eviction loses the entry; for a SpillStore it spills it.
	Evictions() uint64
	// Recent returns up to n hot-tier entries, most recently used first.
	// Cold entries are by construction older than every hot entry and are
	// not listed.
	Recent(n int) []Entry
	// Paths returns every stored path name, coldest first: the cold tier
	// in sorted order, then each hot shard least recently used first — so
	// entries restored in this order rebuild the hot set as the most
	// recent ones.
	Paths() []string
	// Record returns path's entry as a Record without touching recency,
	// holding the store's locks for this one call only: a cold entry's log
	// bytes copied verbatim once their checksum verifies, a hot one encoded
	// through the Codec. It reports false when path is absent or its
	// Record cannot be produced.
	Record(path string) (Record, bool)
	// Stats reports tier occupancy and disk activity.
	Stats() TierStats
	// Close releases disk resources. The store must not be used after.
	Close() error
}

// nextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
