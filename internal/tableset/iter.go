package tableset

import (
	"sort"

	"iamdb/internal/iterator"
	"iamdb/internal/kv"
)

// concatIter concatenates tables with disjoint sorted ranges (one level
// >= 1, or a single level 0 table): concatenation preserves order.  The
// tables are a slice of the version v, on which it holds a reference until
// Close, so it outlives their removal from the set and stays the view it
// was made from.  The trees append to live tables in place: a later append
// may widen a table's range and adds a sequence — possibly of keys below
// ones the scan already emitted (gap records a neighbour shed) — so the
// iterator routes by the ranges, and reads exactly the sequences, that v
// was published with.
type concatIter struct {
	s      *Set
	v      *version
	tables []*Table
	idx    int
	cur    iterator.Iterator
	err    error
	closed bool
}

// newConcatIter takes its own reference on v, which the caller has pinned.
func (s *Set) newConcatIter(v *version, tables []*Table) *concatIter {
	v.refs.Add(1)
	return &concatIter{s: s, v: v, tables: tables}
}

// open makes table i's iterator the current one, or none when i is out
// of range, and closes the one it replaces: a positioned iterator that is
// re-positioned holds a read-ahead window per sequence of its table.
func (l *concatIter) open(i int) {
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
	l.idx = i
	if i >= 0 && i < len(l.tables) {
		l.cur = l.tables[i].NewIterAt(l.tables[i].nseq)
	}
}

// First implements iterator.Iterator.
func (l *concatIter) First() {
	l.err = nil
	l.open(0)
	if l.cur != nil {
		l.cur.First()
		l.skipExhausted()
	}
}

// Seek implements iterator.Iterator.
func (l *concatIter) Seek(target []byte) {
	l.err = nil
	u := kv.UserKey(target)
	i := sort.Search(len(l.tables), func(j int) bool {
		return kv.CompareUser(u, l.tables[j].rng.Hi) <= 0
	})
	l.open(i)
	if l.cur != nil {
		l.cur.Seek(target)
		l.skipExhausted()
	}
}

// Next implements iterator.Iterator.
func (l *concatIter) Next() {
	if l.cur == nil {
		return
	}
	l.cur.Next()
	l.skipExhausted()
}

func (l *concatIter) skipExhausted() {
	for l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Err(); err != nil {
			l.err = err
			l.open(-1)
			return
		}
		l.open(l.idx + 1)
		if l.cur != nil {
			l.cur.First()
		}
	}
}

// Valid implements iterator.Iterator.
func (l *concatIter) Valid() bool { return l.cur != nil && l.cur.Valid() }

// Key implements iterator.Iterator.
func (l *concatIter) Key() []byte {
	if l.cur == nil {
		return nil
	}
	return l.cur.Key()
}

// Value implements iterator.Iterator.
func (l *concatIter) Value() []byte {
	if l.cur == nil {
		return nil
	}
	return l.cur.Value()
}

// Err implements iterator.Iterator.
func (l *concatIter) Err() error { return l.err }

// Close implements iterator.Iterator.
func (l *concatIter) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.cur != nil {
		err = l.cur.Close()
	}
	l.s.unpin(l.v)
	return err
}

// Last implements iterator.ReverseIterator.
func (l *concatIter) Last() {
	l.err = nil
	l.open(len(l.tables) - 1)
	if l.cur != nil {
		l.cur.(iterator.ReverseIterator).Last()
		l.skipExhaustedBackward()
	}
}

// Prev implements iterator.ReverseIterator.
func (l *concatIter) Prev() {
	if l.cur == nil {
		return
	}
	l.cur.(iterator.ReverseIterator).Prev()
	l.skipExhaustedBackward()
}

// SeekForPrev implements iterator.ReverseIterator.
func (l *concatIter) SeekForPrev(target []byte) {
	l.err = nil
	u := kv.UserKey(target)
	// Last table whose range starts at or below the target key.
	i := sort.Search(len(l.tables), func(j int) bool {
		return kv.CompareUser(l.tables[j].rng.Lo, u) > 0
	}) - 1
	l.open(i)
	if l.cur != nil {
		l.cur.(iterator.ReverseIterator).SeekForPrev(target)
		l.skipExhaustedBackward()
	}
}

func (l *concatIter) skipExhaustedBackward() {
	for l.cur != nil && !l.cur.Valid() {
		if err := l.cur.Err(); err != nil {
			l.err = err
			l.open(-1)
			return
		}
		l.open(l.idx - 1)
		if l.cur != nil {
			l.cur.(iterator.ReverseIterator).Last()
		}
	}
}
