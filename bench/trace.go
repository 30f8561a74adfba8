package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced pass records a span at each layer boundary the harness itself
// crosses — around its calls into a layer's public functions, never inside
// the program. Spans stay in memory and are written out once, at the end;
// what recording them cost is measured by replaying the same inputs with
// the recorder off and reported as bench.trace_overhead_frac.

// span is one completed interval. Spans of one operation share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offsets from the recorder's anchor
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans. A nil recorder records nothing, so call sites
// need no branches and the untraced replay runs the identical code.
type recorder struct {
	anchor time.Time
	mu     sync.Mutex
	next   uint64
	spans  []span
}

func newRecorder() *recorder { return &recorder{anchor: time.Now()} }

// open is a started span.
type open struct {
	r     *recorder
	id    uint64
	par   uint64
	op    uint64
	name  string
	start int64
}

func (r *recorder) now() int64 { return int64(time.Since(r.anchor)) }

// start opens a span named name under parent (0 = root) for operation op.
func (r *recorder) start(name string, parent, op uint64) open {
	if r == nil {
		return open{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return open{r: r, id: id, par: parent, op: op, name: name, start: r.now()}
}

// end completes the span with an optional count payload.
func (o open) end(count int64) {
	if o.r == nil {
		return
	}
	s := span{ID: o.id, Parent: o.par, Op: o.op, Name: o.name, Start: o.start, End: o.r.now(), Count: count}
	o.r.mu.Lock()
	o.r.spans = append(o.r.spans, s)
	o.r.mu.Unlock()
}

// add records an already-measured span (used to import the program's own
// pre-existing phase spans, which the traced pass may read).
func (r *recorder) add(s span) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its direct children cover. Children are clipped to the
// parent and overlapping children (parallel work) are merged first, so time
// is never subtracted twice and self time is never negative.
func selfTimes(spans []span) map[uint64]int64 {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered := int64(0)
		cur := s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// selfByName sums self time per span name: the per-layer budget.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// traceFile is the on-disk form of one traced pass.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
	Spans    []span           `json:"spans"`
}

// writeTrace stores the spans in bench/out/trace-<workload>.json.
func writeTrace(outDir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, SelfNs: selfByName(spans), Spans: spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
