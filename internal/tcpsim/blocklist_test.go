package tcpsim

import (
	"sort"
	"testing"
	"testing/quick"
)

func blocksEqual(a, b []Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBlockListAddMerge(t *testing.T) {
	var l blockList
	l.Add(5, 10)
	l.Add(20, 25)
	l.Add(10, 20) // bridges the gap
	want := []Block{{5, 25}}
	if !blocksEqual(l.Snapshot(), want) {
		t.Errorf("blocks = %v, want %v", l.Snapshot(), want)
	}
}

func TestBlockListAddOverlap(t *testing.T) {
	var l blockList
	l.Add(1, 4)
	l.Add(3, 8)
	l.Add(0, 2)
	want := []Block{{0, 8}}
	if !blocksEqual(l.Snapshot(), want) {
		t.Errorf("blocks = %v, want %v", l.Snapshot(), want)
	}
}

func TestBlockListDisjoint(t *testing.T) {
	var l blockList
	l.Add(10, 12)
	l.Add(1, 3)
	l.Add(5, 7)
	want := []Block{{1, 3}, {5, 7}, {10, 12}}
	if !blocksEqual(l.Snapshot(), want) {
		t.Errorf("blocks = %v, want %v", l.Snapshot(), want)
	}
	if l.Count() != 3 {
		t.Errorf("count=%d", l.Count())
	}
}

// covers reports whether the list covers seq.
func covers(l *blockList, seq int64) bool { return len(l.Subtract(nil, seq, seq+1)) == 0 }

func TestBlockListContains(t *testing.T) {
	var l blockList
	l.Add(5, 8)
	for seq, want := range map[int64]bool{4: false, 5: true, 7: true, 8: false} {
		if covers(&l, seq) != want {
			t.Errorf("covers(%d) = %v, want %v", seq, !want, want)
		}
	}
}

func TestBlockListTrimBelow(t *testing.T) {
	var l blockList
	l.Add(1, 5)
	l.Add(8, 12)
	l.TrimBelow(3)
	want := []Block{{3, 5}, {8, 12}}
	if !blocksEqual(l.Snapshot(), want) {
		t.Errorf("after TrimBelow(3): %v, want %v", l.Snapshot(), want)
	}
	l.TrimBelow(20)
	if l.Count() != 0 {
		t.Errorf("TrimBelow(20) left %v", l.Snapshot())
	}
}

func TestBlockListMaxAndFirst(t *testing.T) {
	var l blockList
	if l.Max() != 0 {
		t.Error("empty Max should be 0")
	}
	if len(l.blocks) != 0 {
		t.Error("empty list holds a block")
	}
	l.Add(3, 6)
	l.Add(10, 11)
	if l.Max() != 11 {
		t.Errorf("Max = %d, want 11", l.Max())
	}
	if b := l.blocks[0]; b != (Block{3, 6}) {
		t.Errorf("first block = %v", b)
	}
}

func TestBlockListPopFirstIfStartsAt(t *testing.T) {
	var l blockList
	l.Add(3, 6)
	if _, ok := l.PopFirstIfStartsAt(4); ok {
		t.Error("pop at wrong start should fail")
	}
	b, ok := l.PopFirstIfStartsAt(3)
	if !ok || b != (Block{3, 6}) {
		t.Errorf("pop = %v, %v", b, ok)
	}
	if l.Count() != 0 {
		t.Error("block not removed")
	}
}

func TestBlockListSubtract(t *testing.T) {
	var l blockList
	l.Add(3, 5)
	l.Add(8, 10)
	got := l.Subtract(nil, 0, 12)
	want := []Block{{0, 3}, {5, 8}, {10, 12}}
	if !blocksEqual(got, want) {
		t.Errorf("Subtract = %v, want %v", got, want)
	}
	if got := l.Subtract(nil, 3, 5); got != nil {
		t.Errorf("fully covered Subtract = %v, want nil", got)
	}
	if got := l.Subtract(nil, 5, 8); !blocksEqual(got, []Block{{5, 8}}) {
		t.Errorf("hole Subtract = %v", got)
	}
}

// TestBlockListMatchesSet cross-checks against a naive set model.
func TestBlockListMatchesSet(t *testing.T) {
	f := func(ops []struct {
		Start uint8
		Len   uint8
	}) bool {
		var l blockList
		set := map[int64]bool{}
		for _, op := range ops {
			s := int64(op.Start)
			e := s + int64(op.Len%16)
			l.Add(s, e)
			for q := s; q < e; q++ {
				set[q] = true
			}
		}
		// Coverage must agree everywhere.
		for q := int64(0); q < 300; q++ {
			if covers(&l, q) != set[q] {
				return false
			}
		}
		// Blocks must be sorted, disjoint, non-adjacent.
		bs := l.Snapshot()
		if !sort.SliceIsSorted(bs, func(i, j int) bool { return bs[i].Start < bs[j].Start }) {
			return false
		}
		for i := 1; i < len(bs); i++ {
			if bs[i].Start <= bs[i-1].End {
				return false
			}
		}
		var covered int64
		for _, b := range bs {
			if b.End <= b.Start {
				return false
			}
			covered += b.End - b.Start
		}
		return covered == int64(len(set))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBlockListSubtractProperty: Subtract returns exactly the uncovered
// portion of the query range.
func TestBlockListSubtractProperty(t *testing.T) {
	f := func(ops []uint8, qs, ql uint8) bool {
		var l blockList
		set := map[int64]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			s := int64(ops[i])
			e := s + int64(ops[i+1]%10)
			l.Add(s, e)
			for q := s; q < e; q++ {
				set[q] = true
			}
		}
		start := int64(qs)
		end := start + int64(ql)
		out := l.Subtract(nil, start, end)
		uncovered := map[int64]bool{}
		for _, b := range out {
			for q := b.Start; q < b.End; q++ {
				uncovered[q] = true
			}
		}
		for q := start; q < end; q++ {
			if set[q] == uncovered[q] {
				return false // must be exactly complementary within range
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
