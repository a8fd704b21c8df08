// Package iterator defines the forward iterator contract shared by
// memtables, table sequences and trees, plus a k-way merging iterator.
// Scans in LSA/IAM must merge every sequence of a node in every level
// (Sec. 5.2); the merging iterator is that primitive.
package iterator

import "container/heap"

// Iterator walks key/value pairs in ascending internal-key order.
// Implementations are single-goroutine.  Key and Value remain valid only
// until the next positioning call.
type Iterator interface {
	// First positions at the smallest key.
	First()
	// Seek positions at the first key >= target.
	Seek(target []byte)
	// Next advances by one entry.
	Next()
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// Key returns the current internal key.
	Key() []byte
	// Value returns the current value.
	Value() []byte
	// Err reports the first error encountered, if any.
	Err() error
	// Close releases resources.
	Close() error
}

// Compare orders internal keys.
type Compare func(a, b []byte) int

// Empty is an iterator over nothing.
type Empty struct{}

// First implements Iterator.
func (Empty) First() {}

// Seek implements Iterator.
func (Empty) Seek([]byte) {}

// Next implements Iterator.
func (Empty) Next() {}

// Valid implements Iterator.
func (Empty) Valid() bool { return false }

// Key implements Iterator.
func (Empty) Key() []byte { return nil }

// Value implements Iterator.
func (Empty) Value() []byte { return nil }

// Err implements Iterator.
func (Empty) Err() error { return nil }

// Close implements Iterator.
func (Empty) Close() error { return nil }

// Failed is Empty with an error to report: what a source that could not
// be opened hands to a merge, which surfaces it through Err.
type Failed struct {
	Empty
	Cause error
}

// Err implements Iterator.
func (f Failed) Err() error { return f.Cause }

// Merging merges n child iterators into one ascending stream.  When two
// children are positioned at equal keys the one added earlier wins ties;
// callers therefore order children newest-first when duplicate internal
// keys are possible (they are not, in IamDB: sequence numbers are
// unique), so tie order is effectively irrelevant here.
type Merging struct {
	cmp   Compare
	kids  []Iterator
	rkids []ReverseIterator // kids again, once something moved backward
	h     mergeHeap
	cur   Iterator
	err   error
	dir   dir
}

// NewMerging builds a merging iterator.  It takes ownership of kids and
// closes them on Close.
func NewMerging(cmp Compare, kids ...Iterator) *Merging {
	m := &Merging{cmp: cmp, kids: kids}
	m.h.cmp = cmp
	return m
}

type heapItem struct {
	it  Iterator
	ord int
}

type mergeHeap struct {
	cmp      Compare
	items    []heapItem
	backward bool
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	c := h.cmp(h.items[i].it.Key(), h.items[j].it.Key())
	if c != 0 {
		if h.backward {
			return c > 0 // max-heap when iterating backward
		}
		return c < 0
	}
	return h.items[i].ord < h.items[j].ord
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(heapItem)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}

func (m *Merging) rebuild() {
	m.h.backward = m.dir == dirBackward
	m.h.items = m.h.items[:0]
	for i, it := range m.kids {
		if it.Valid() {
			m.h.items = append(m.h.items, heapItem{it, i})
		} else if err := it.Err(); err != nil && m.err == nil {
			m.err = err
		}
	}
	heap.Init(&m.h)
	m.setCur()
}

func (m *Merging) setCur() {
	if len(m.h.items) == 0 {
		m.cur = nil
		return
	}
	m.cur = m.h.items[0].it
}

// First implements Iterator.
func (m *Merging) First() {
	for _, it := range m.kids {
		it.First()
	}
	m.dir = dirForward
	m.rebuild()
}

// Seek implements Iterator.
func (m *Merging) Seek(target []byte) {
	for _, it := range m.kids {
		it.Seek(target)
	}
	m.dir = dirForward
	m.rebuild()
}

// Next implements Iterator.
func (m *Merging) Next() {
	if m.cur == nil {
		return
	}
	if m.dir == dirBackward {
		// Direction switch: move every child to the first key
		// strictly above the current one, then re-heap forward.
		curKey := append([]byte(nil), m.cur.Key()...)
		for _, it := range m.kids {
			it.Seek(curKey)
			if it.Valid() && m.cmp(it.Key(), curKey) == 0 {
				it.Next()
			}
		}
		m.dir = dirForward
		m.rebuild()
		return
	}
	m.cur.Next()
	if m.cur.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		if err := m.cur.Err(); err != nil && m.err == nil {
			m.err = err
		}
		heap.Pop(&m.h)
	}
	m.setCur()
}

// Valid implements Iterator.
func (m *Merging) Valid() bool { return m.cur != nil && m.err == nil }

// Key implements Iterator.
func (m *Merging) Key() []byte {
	if m.cur == nil {
		return nil
	}
	return m.cur.Key()
}

// Value implements Iterator.
func (m *Merging) Value() []byte {
	if m.cur == nil {
		return nil
	}
	return m.cur.Value()
}

// Err implements Iterator.
func (m *Merging) Err() error { return m.err }

// Close implements Iterator: the children are closed and the merge
// stands on no record.
func (m *Merging) Close() error {
	m.cur = nil
	var first error
	for _, it := range m.kids {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Slice iterates over parallel key/value slices already in ascending
// order; it is used by tests and by engines that stage records in
// memory during flush partitioning.
type Slice struct {
	Keys, Vals [][]byte
	cmp        Compare
	i          int
}

// NewSlice builds a slice iterator; keys must be ascending under cmp.
func NewSlice(cmp Compare, keys, vals [][]byte) *Slice {
	return &Slice{Keys: keys, Vals: vals, cmp: cmp, i: -1}
}

// First implements Iterator.
func (s *Slice) First() { s.i = 0 }

// Seek implements Iterator.
func (s *Slice) Seek(target []byte) {
	lo, hi := 0, len(s.Keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cmp(s.Keys[mid], target) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.i = lo
}

// Next implements Iterator.
func (s *Slice) Next() { s.i++ }

// Valid implements Iterator.
func (s *Slice) Valid() bool { return s.i >= 0 && s.i < len(s.Keys) }

// Key implements Iterator.
func (s *Slice) Key() []byte { return s.Keys[s.i] }

// Value implements Iterator.
func (s *Slice) Value() []byte { return s.Vals[s.i] }

// Err implements Iterator.
func (s *Slice) Err() error { return nil }

// Close implements Iterator.
func (s *Slice) Close() error { return nil }
