package iterator

import "container/heap"

// ReverseIterator extends Iterator with backward positioning.  All of
// IamDB's storage iterators (memtables, table sequences, level
// concatenations) implement it; compaction-only iterators (the MVCC
// filter) do not need to.
type ReverseIterator interface {
	Iterator
	// Last positions at the largest key.
	Last()
	// Prev steps backward; it is only legal while Valid.
	Prev()
	// SeekForPrev positions at the last key <= target.
	SeekForPrev(target []byte)
}

// Reverse-direction methods for Empty.

// Last implements ReverseIterator.
func (Empty) Last() {}

// Prev implements ReverseIterator.
func (Empty) Prev() {}

// SeekForPrev implements ReverseIterator.
func (Empty) SeekForPrev([]byte) {}

// Reverse-direction methods for Slice.

// Last implements ReverseIterator.
func (s *Slice) Last() { s.i = len(s.Keys) - 1 }

// Prev implements ReverseIterator.
func (s *Slice) Prev() { s.i-- }

// SeekForPrev implements ReverseIterator.
func (s *Slice) SeekForPrev(target []byte) {
	s.Seek(target)
	if s.i >= len(s.Keys) || (s.Valid() && s.cmp(s.Keys[s.i], target) > 0) {
		s.i--
	}
}

// Merging direction handling.  The heap's ordering flips when moving
// backward: the current entry is the maximum.  Switching direction
// re-seeks every child relative to the current key, as in LevelDB.

type dir int8

const (
	dirForward dir = iota
	dirBackward
)

// Last implements ReverseIterator.  It panics if any child lacks
// reverse support, as does Prev/SeekForPrev.
func (m *Merging) Last() {
	for _, it := range m.mustReverse() {
		it.Last()
	}
	m.dir = dirBackward
	m.rebuild()
}

// SeekForPrev implements ReverseIterator.
func (m *Merging) SeekForPrev(target []byte) {
	for _, it := range m.mustReverse() {
		it.SeekForPrev(target)
	}
	m.dir = dirBackward
	m.rebuild()
}

// Prev implements ReverseIterator.
func (m *Merging) Prev() {
	if m.cur == nil {
		return
	}
	if m.dir != dirBackward {
		// Direction switch: move every child to the largest key
		// strictly below the current one, then re-heap backward.
		kids := m.mustReverse()
		curKey := append([]byte(nil), m.cur.Key()...)
		for _, it := range kids {
			it.SeekForPrev(curKey)
			if it.Valid() && m.cmp(it.Key(), curKey) == 0 {
				it.Prev()
			}
		}
		m.dir = dirBackward
		m.rebuild()
		return
	}
	m.cur.(ReverseIterator).Prev()
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

// mustReverse returns the children as ReverseIterators, resolved on the
// first backward call and kept: a merge that only runs forward (every
// compaction, most scans) pays neither the slice nor the assertions.
func (m *Merging) mustReverse() []ReverseIterator {
	if m.rkids == nil {
		rkids := make([]ReverseIterator, len(m.kids))
		for i, it := range m.kids {
			r, ok := it.(ReverseIterator)
			if !ok {
				panic("iterator: Merging child does not support reverse iteration")
			}
			rkids[i] = r
		}
		m.rkids = rkids
	}
	return m.rkids
}
