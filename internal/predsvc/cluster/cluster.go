// Package cluster partitions prediction-service paths across replicas
// with rendezvous (highest-random-weight) hashing. Every client that
// knows the same node list routes a path to the same owner — no
// coordination, no shared state — and removing a node only reassigns the
// paths that node owned, never shuffling the rest (the property that
// keeps per-path predictor history, and thus prediction digests, stable
// as a cluster is resized).
//
// cmd/predload uses a Map for client-side routing (-cluster); any
// deployment gateway can do the same with a few lines.
package cluster

import "hash/fnv"

// Map assigns path names to a fixed list of node addresses.
type Map struct {
	nodes  []string
	hashes []uint64
}

// New builds a map over the given nodes. Order matters only for ties
// (which are astronomically unlikely); duplicates are kept as given.
// A Map over zero nodes is valid but cannot route.
func New(nodes ...string) *Map {
	m := &Map{nodes: append([]string(nil), nodes...)}
	m.hashes = make([]uint64, len(m.nodes))
	for i, n := range m.nodes {
		h := fnv.New64a()
		h.Write([]byte(n))
		m.hashes[i] = h.Sum64()
	}
	return m
}

// Owner returns the index of the node owning path, or -1 for an empty
// map: the node whose (node, path) hash scores highest.
func (m *Map) Owner(path string) int {
	h := fnv.New64a()
	h.Write([]byte(path))
	ph := h.Sum64()
	best, bestScore := -1, uint64(0)
	for i, nh := range m.hashes {
		score := mix(nh ^ ph)
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Node returns the address of the node owning path ("" for an empty map).
func (m *Map) Node(path string) string {
	i := m.Owner(path)
	if i < 0 {
		return ""
	}
	return m.nodes[i]
}

// mix is the splitmix64 finalizer: a full-avalanche bijection that turns
// the xor of two FNV hashes into a uniformly distributed score, so the
// max over nodes behaves like independent draws per (node, path) pair.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
