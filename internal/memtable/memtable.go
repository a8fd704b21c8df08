// Package memtable implements the in-memory level L0 of LSA/IAM and the
// memtable of the LSM baselines: a lock-free skiplist ordered by
// internal key.  Records accumulate here until the table reaches its
// capacity threshold Ct, whereupon it becomes an immutable memtable and
// is flushed to disk (Sec. 5.2).
//
// Concurrency model (LevelDB/Pebble style, extended to many writers):
// nodes and their key/value bytes are carved from a chunked arena,
// written exactly once, and then published by CAS-ing the predecessor's
// next pointer.  Readers and iterators traverse with atomic loads only
// and never block; concurrent Add callers contend only on the CAS of
// the splice point they are inserting at.  A reader that observes a
// node through a next pointer is guaranteed (by the CAS release/acquire
// edge) to see the node's fully-written ikey and value.
package memtable

import (
	"math/rand"
	"sync/atomic"

	"iamdb/internal/iterator"
	"iamdb/internal/kv"
)

const (
	maxHeight = 12
	branching = 4
)

// heightTab replays the height stream of the historical single-writer
// skiplist (a seeded math/rand source drawn under its lock), so tower
// heights — and therefore ApproximateSize, which structural tests and
// flush boundaries depend on — stay byte-for-byte identical while the
// draw itself becomes one atomic add.  The table cycles after 2^18
// inserts, which only recycles the distribution, never a lock.
const heightTabLen = 1 << 18

var heightTab = func() []uint8 {
	rnd := rand.New(rand.NewSource(0xdeadbeef))
	t := make([]uint8, heightTabLen)
	for i := range t {
		h := uint8(1)
		for h < maxHeight && rnd.Intn(branching) == 0 {
			h++
		}
		t[i] = h
	}
	return t
}()

// node is an atomically-published skiplist element: ikey, value and
// height are written once by the inserting goroutine before the node is
// linked; next pointers are the only mutable fields and are accessed
// atomically.
type node struct {
	ikey   []byte
	value  []byte
	height int32
	next   [maxHeight]atomic.Pointer[node]
}

// MemTable is a skiplist of internal keys.  All methods are safe for
// concurrent use by any number of readers and writers.
type MemTable struct {
	arena  *arena
	head   *node
	height atomic.Int32
	hidx   atomic.Uint64
	size   atomic.Int64
	count  atomic.Int64
}

// New returns an empty memtable.
func New() *MemTable {
	a := newArena()
	head := a.newNode()
	head.height = maxHeight
	m := &MemTable{arena: a, head: head}
	m.height.Store(1)
	return m
}

// randomHeight draws a tower height with P(h+1|h) = 1/branching: one
// atomic add walks the precomputed stream, so concurrent draws are
// race-free and the sequence stays deterministic per insertion order.
func (m *MemTable) randomHeight() int {
	return int(heightTab[(m.hidx.Add(1)-1)%heightTabLen])
}

// findGreaterOrEqual returns the first node with ikey >= key.
func (m *MemTable) findGreaterOrEqual(key []byte) *node {
	x := m.head
	level := int(m.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && kv.CompareInternal(next.ikey, key) < 0 {
			x = next
			continue
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// findSpliceFrom walks level from start (which must sort before key)
// and returns the insertion point: the last node < key and its
// successor.
func (m *MemTable) findSpliceFrom(start *node, key []byte, level int) (prev, next *node) {
	p := start
	for {
		n := p.next[level].Load()
		if n == nil || kv.CompareInternal(n.ikey, key) >= 0 {
			return p, n
		}
		p = n
	}
}

// findSplices computes the per-level insertion points for key.
func (m *MemTable) findSplices(key []byte, prev, next *[maxHeight]*node) {
	lh := int(m.height.Load())
	for i := lh; i < maxHeight; i++ {
		prev[i], next[i] = m.head, nil
	}
	x := m.head
	for level := lh - 1; level >= 0; level-- {
		p, n := m.findSpliceFrom(x, key, level)
		prev[level], next[level] = p, n
		x = p
	}
}

// Add inserts a record.  Internal keys are unique (sequence numbers
// never repeat within a memtable), so Add never overwrites.  Concurrent
// Add callers never block readers; a failed CAS re-searches only the
// level it lost.
func (m *MemTable) Add(seq kv.Seq, kind kv.Kind, ukey, value []byte) {
	kbuf := m.arena.alloc(len(ukey) + kv.TrailerLen)
	ikey := kv.AppendInternalKey(kbuf[:0], ukey, seq, kind)
	var val []byte
	if len(value) > 0 {
		val = m.arena.alloc(len(value))
		copy(val, value)
	}
	h := m.randomHeight()
	n := m.arena.newNode()
	n.ikey, n.value, n.height = ikey, val, int32(h)

	// Raise the list height first; a reader that sees the new height
	// before the node links just walks empty upper levels.
	for {
		lh := m.height.Load()
		if int32(h) <= lh || m.height.CompareAndSwap(lh, int32(h)) {
			break
		}
	}

	var prev, next [maxHeight]*node
	m.findSplices(ikey, &prev, &next)
	// Link bottom-up: once level 0 succeeds the node is visible to
	// every search; upper levels are an acceleration structure and may
	// lag briefly.
	for level := 0; level < h; level++ {
		p, x := prev[level], next[level]
		for {
			n.next[level].Store(x)
			if p.next[level].CompareAndSwap(x, n) {
				break
			}
			p, x = m.findSpliceFrom(p, ikey, level)
		}
	}
	m.size.Add(int64(len(ikey) + len(value) + 16*h))
	m.count.Add(1)
}

// Get returns the newest record for ukey visible at snapshot snap.  The
// search key is built on the stack unless ukey is long.
func (m *MemTable) Get(ukey []byte, snap kv.Seq) (value []byte, kind kv.Kind, seq kv.Seq, found bool) {
	var buf [64]byte
	n := m.findGreaterOrEqual(kv.AppendInternalKey(buf[:0], ukey, snap, kv.MaxKind))
	if n == nil {
		return nil, 0, 0, false
	}
	u, s, k, ok := kv.ParseInternalKey(n.ikey)
	if !ok || kv.CompareUser(u, ukey) != 0 {
		return nil, 0, 0, false
	}
	return n.value, k, s, true
}

// ApproximateSize reports the bytes the table occupies, the quantity
// compared against the capacity threshold Ct.
func (m *MemTable) ApproximateSize() int64 { return m.size.Load() }

// Count reports the number of records.
func (m *MemTable) Count() int { return int(m.count.Load()) }

// Empty reports whether the table has no records.
func (m *MemTable) Empty() bool { return m.Count() == 0 }

// NewIter iterates the table in internal-key order.  The iterator sees
// a live view and never blocks writers; records inserted after a
// positioning call may or may not be observed.
func (m *MemTable) NewIter() iterator.Iterator { return &iter{m: m} }

type iter struct {
	m *MemTable
	n *node
}

// First implements iterator.Iterator.
func (it *iter) First() { it.n = it.m.head.next[0].Load() }

// Seek implements iterator.Iterator.
func (it *iter) Seek(target []byte) { it.n = it.m.findGreaterOrEqual(target) }

// Next implements iterator.Iterator.
func (it *iter) Next() {
	if it.n != nil {
		it.n = it.n.next[0].Load()
	}
}

// Valid implements iterator.Iterator.
func (it *iter) Valid() bool { return it.n != nil }

// Key implements iterator.Iterator.
func (it *iter) Key() []byte {
	if it.n == nil {
		return nil
	}
	return it.n.ikey
}

// Value implements iterator.Iterator.
func (it *iter) Value() []byte {
	if it.n == nil {
		return nil
	}
	return it.n.value
}

// Err implements iterator.Iterator.
func (it *iter) Err() error { return nil }

// Close implements iterator.Iterator.
func (it *iter) Close() error { return nil }

// findLessThan returns the last node with ikey < key, or nil.
func (m *MemTable) findLessThan(key []byte) *node {
	x := m.head
	level := int(m.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && kv.CompareInternal(next.ikey, key) < 0 {
			x = next
			continue
		}
		if level == 0 {
			if x == m.head {
				return nil
			}
			return x
		}
		level--
	}
}

// findLast returns the final node, or nil when empty.
func (m *MemTable) findLast() *node {
	x := m.head
	level := int(m.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil {
			x = next
			continue
		}
		if level == 0 {
			if x == m.head {
				return nil
			}
			return x
		}
		level--
	}
}

// Last implements iterator.ReverseIterator.
func (it *iter) Last() { it.n = it.m.findLast() }

// Prev implements iterator.ReverseIterator.  Skiplists have forward
// pointers only, so each step re-descends from the head (O(log n), the
// LevelDB approach).
func (it *iter) Prev() {
	if it.n == nil {
		return
	}
	it.n = it.m.findLessThan(it.n.ikey)
}

// SeekForPrev implements iterator.ReverseIterator.
func (it *iter) SeekForPrev(target []byte) {
	n := it.m.findGreaterOrEqual(target)
	if n != nil && kv.CompareInternal(n.ikey, target) == 0 {
		it.n = n
	} else {
		it.n = it.m.findLessThan(target)
	}
}
