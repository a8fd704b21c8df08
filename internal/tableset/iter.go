package tableset

import (
	"sort"

	"iamdb/internal/iterator"
	"iamdb/internal/kv"
)

// levelIter concatenates tables with disjoint sorted ranges (one level
// >= 1, or a single level 0 table).  The tables are a slice of the
// version v, on which it holds a reference until Close, so it outlives
// their removal from the set and stays the view it was made from.  The
// trees append to live tables in place: a later append may widen a
// table's range and adds a sequence — possibly of keys below ones the
// scan already emitted (gap records a neighbour shed) — so the iterator
// routes by the ranges, and reads exactly the sequences, that v was
// published with.  Tables open lazily, one at a time.
type levelIter struct {
	iterator.Concat
	s      *Set
	v      *version
	tables []*Table
	open   iterator.ReverseIterator // the table iterator Open last returned
	closed bool
}

// newLevelIter takes its own reference on v, which the caller has pinned.
func (s *Set) newLevelIter(v *version, tables []*Table) *levelIter {
	v.refs.Add(1)
	l := &levelIter{s: s, v: v, tables: tables}
	l.Init(l, len(tables))
	return l
}

// Open implements iterator.ConcatSource.  It closes the table iterator
// it replaces, even one of the same table: a positioned iterator that is
// re-positioned holds a read-ahead window per sequence of its table.
func (l *levelIter) Open(i int) iterator.ReverseIterator {
	if l.open != nil {
		l.open.Close()
	}
	l.open = l.tables[i].NewIterAt(l.tables[i].nseq)
	return l.open
}

// Find implements iterator.ConcatSource: a Seek starts at the first
// table whose range ends at or above the target's user key, a
// SeekForPrev at the last one whose range starts at or below it.
func (l *levelIter) Find(target []byte, backward bool) int {
	u := kv.UserKey(target)
	if backward {
		return sort.Search(len(l.tables), func(j int) bool {
			return kv.CompareUser(l.tables[j].rng.Lo, u) > 0
		}) - 1
	}
	return sort.Search(len(l.tables), func(j int) bool {
		return kv.CompareUser(u, l.tables[j].rng.Hi) <= 0
	})
}

// Close implements iterator.Iterator.
func (l *levelIter) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.open != nil {
		err = l.open.Close()
	}
	l.s.unpin(l.v)
	return err
}
