package predict

import "slices"

// orderedRing is a bounded FIFO of samples that keeps an ascending mirror
// of its contents current at push time, so the median and the empirical
// quantiles read order statistics straight off the mirror and no query
// sorts anything. A push moves at most one sample out of the mirror and
// one into it, each by binary search and copy. The ring and its mirror are
// carved from one backing array.
//
// It is the sample window of every ResidualWindow and each of ECM's
// conditioning buckets and fallback distribution.
type orderedRing struct {
	buf    []float64 // the samples in ring order; the oldest is buf[next]
	sorted []float64 // the same samples, ascending
	next   int       // the slot the next push overwrites once buf is full
}

// newOrderedRing returns a ring that retains the last n samples (n ≥ 1).
func newOrderedRing(n int) orderedRing { return orderedRingOver(make([]float64, 2*n)) }

// orderedRingOver returns a ring that retains the last len(b)/2 samples,
// carved from b (len(b) even, at least 2).
func orderedRingOver(b []float64) orderedRing {
	n := len(b) / 2
	return orderedRing{buf: b[:0:n], sorted: b[n : n : 2*n]}
}

// push appends x, evicting the oldest sample once the ring is full.
func (r *orderedRing) push(x float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, x)
	} else {
		r.sorted = sortedRemove(r.sorted, r.buf[r.next])
		r.buf[r.next] = x
		r.next = (r.next + 1) % len(r.buf)
	}
	r.sorted = sortedInsert(r.sorted, x)
}

func (r *orderedRing) count() int    { return len(r.buf) }
func (r *orderedRing) capacity() int { return cap(r.buf) }

func (r *orderedRing) reset() {
	r.buf, r.sorted, r.next = r.buf[:0], r.sorted[:0], 0
}

// resort rebuilds the mirror from buf by insertion sort. Its one caller,
// ResidualWindow.SetErrors, clamps every sample to ±stats.ErrClamp first,
// so no NaN needs slices.Sort's ordering, and on a restored window of at
// most a few dozen errors the plain loop is the cheaper sort.
func (r *orderedRing) resort() {
	s := append(r.sorted[:0], r.buf...)
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && s[j-1] > x; j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
	r.sorted = s
}

// chronological appends the samples oldest first to dst.
func (r *orderedRing) chronological(dst []float64) []float64 {
	return append(append(dst, r.buf[r.next:]...), r.buf[:r.next]...)
}

// sortedInsert inserts v into the ascending xs, reallocating only when xs
// is at capacity.
func sortedInsert(xs []float64, v float64) []float64 {
	i, _ := slices.BinarySearch(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

// sortedRemove deletes one instance of v, which must be present, from the
// ascending xs.
func sortedRemove(xs []float64, v float64) []float64 {
	i, _ := slices.BinarySearch(xs, v)
	return slices.Delete(xs, i, i+1)
}
