package tcpsim

// Block is a half-open segment range [Start, End).
type Block struct {
	Start, End int64
}

// blockList is a sorted list of disjoint, non-adjacent half-open ranges.
// It backs both the receiver's out-of-order buffer and the sender's SACK
// scoreboard.
type blockList struct {
	blocks []Block
}

// Add merges [start, end) into the list. It mutates the backing array in
// place — during SACK-heavy recovery Add runs on every ACK against a
// scoreboard of O(cwnd) blocks, and reallocating the slice per call was
// the simulator's single largest allocation site.
func (l *blockList) Add(start, end int64) {
	if end <= start {
		return
	}
	bs := l.blocks
	// Find insertion window: all blocks overlapping or adjacent to
	// [start, end) get coalesced. Binary search for the first candidate.
	lo, hi := 0, len(bs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bs[mid].End < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	j := i
	for j < len(bs) && bs[j].Start <= end {
		if bs[j].Start < start {
			start = bs[j].Start
		}
		if bs[j].End > end {
			end = bs[j].End
		}
		j++
	}
	if i == j {
		// Nothing to coalesce: open a slot at i.
		bs = append(bs, Block{})
		copy(bs[i+1:], bs[i:])
		bs[i] = Block{start, end}
		l.blocks = bs
		return
	}
	// Collapse blocks[i:j] into the merged range.
	bs[i] = Block{start, end}
	if j > i+1 {
		n := copy(bs[i+1:], bs[j:])
		bs = bs[:i+1+n]
	}
	l.blocks = bs
}

// TrimBelow removes coverage of all segments below seq.
func (l *blockList) TrimBelow(seq int64) {
	bs := l.blocks
	i := 0
	for i < len(bs) && bs[i].End <= seq {
		i++
	}
	bs = bs[i:]
	if len(bs) > 0 && bs[0].Start < seq {
		bs[0].Start = seq
	}
	l.blocks = bs
}

// Max returns the highest covered segment + 1, or 0 when empty.
func (l *blockList) Max() int64 {
	if len(l.blocks) == 0 {
		return 0
	}
	return l.blocks[len(l.blocks)-1].End
}

// PopFirstIfStartsAt removes and returns the first block when it starts
// exactly at seq (used by the receiver to advance the cumulative ACK).
func (l *blockList) PopFirstIfStartsAt(seq int64) (Block, bool) {
	if len(l.blocks) == 0 || l.blocks[0].Start != seq {
		return Block{}, false
	}
	b := l.blocks[0]
	l.blocks = l.blocks[1:]
	return b, true
}

// Snapshot returns a copy of the block slice.
func (l *blockList) Snapshot() []Block {
	return append([]Block(nil), l.blocks...)
}

// Subtract appends to out the portions of [start, end) not covered by the
// list and returns the extended slice.
func (l *blockList) Subtract(out []Block, start, end int64) []Block {
	cur := start
	for _, b := range l.blocks {
		if b.End <= cur {
			continue
		}
		if b.Start >= end {
			break
		}
		if b.Start > cur {
			e := b.Start
			if e > end {
				e = end
			}
			out = append(out, Block{cur, e})
		}
		if b.End > cur {
			cur = b.End
		}
		if cur >= end {
			return out
		}
	}
	if cur < end {
		out = append(out, Block{cur, end})
	}
	return out
}

// Count returns the number of blocks.
func (l *blockList) Count() int { return len(l.blocks) }
