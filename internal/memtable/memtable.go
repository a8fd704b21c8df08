// Package memtable implements the in-memory level L0 of LSA/IAM and the
// memtable of the LSM baselines: a skiplist ordered by internal key.
// Records accumulate here until the table reaches its capacity
// threshold Ct, whereupon it becomes an immutable memtable and is
// flushed to disk (Sec. 5.2).
//
// Concurrency model (LevelDB's): one writer at a time, and any number
// of lock-free readers beside it.  The writer is the store's commit
// leader under commitMu, or recovery replaying the log before the store
// is shared.  A node and its key/value bytes are written once by the
// writer and then published by an atomic store to its predecessor's
// next pointer; readers and iterators traverse with atomic loads only
// and never block.  A reader that observes a node through a next
// pointer is guaranteed (by the store's release/acquire edge) to see
// the node's fully-written ikey and value.
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
	// nodeSlabLen is the number of skiplist nodes the writer allocates
	// at a time.
	nodeSlabLen = 256
)

// heightTab replays the height stream of the historical skiplist (a
// seeded math/rand source), cycling after 2^18 inserts.  Tower heights
// decide ApproximateSize, and with it every flush boundary, so the table
// is kept as it is: a memtable's heights, past the cycle too, are the
// ones every pinned output was recorded with, and a draw costs one
// lookup rather than a seeded source per memtable.
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

// node is an atomically-published skiplist element: ikey and value are
// written once by the writer before the node is linked; next pointers
// are the only mutable fields and are accessed atomically.
type node struct {
	ikey  []byte
	value []byte
	next  [maxHeight]atomic.Pointer[node]
}

// MemTable is a skiplist of internal keys.  Add calls must not overlap;
// any number of readers (Get, iterators, Count, ApproximateSize) may run
// beside the one writer.
type MemTable struct {
	head   *node
	height atomic.Int32
	size   atomic.Int64
	count  atomic.Int64

	// Owned by the writer.
	bytes kv.Arena // key and value bytes, never reset
	nodes []node   // the unused rest of the current node slab
	kbuf  []byte   // the internal key being added
	hidx  uint64   // the next heightTab entry
}

// New returns an empty memtable.
func New() *MemTable {
	m := &MemTable{head: &node{}}
	m.height.Store(1)
	return m
}

// newNode returns a fresh, zeroed node from the writer's slab.
func (m *MemTable) newNode() *node {
	if len(m.nodes) == 0 {
		m.nodes = make([]node, nodeSlabLen)
	}
	n := &m.nodes[0]
	m.nodes = m.nodes[1:]
	return n
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

// findSplices sets prev[level], for every level of the list, to the
// last node before key: the node the insertion links after.
func (m *MemTable) findSplices(key []byte, prev *[maxHeight]*node) {
	x := m.head
	for level := int(m.height.Load()) - 1; level >= 0; level-- {
		for {
			n := x.next[level].Load()
			if n == nil || kv.CompareInternal(n.ikey, key) >= 0 {
				break
			}
			x = n
		}
		prev[level] = x
	}
}

// Add inserts a record.  Internal keys are unique (sequence numbers
// never repeat within a memtable), so Add never overwrites.  Calls must
// not overlap; readers running beside one never block.
func (m *MemTable) Add(seq kv.Seq, kind kv.Kind, ukey, value []byte) {
	m.kbuf = kv.AppendInternalKey(m.kbuf[:0], ukey, seq, kind)
	n := m.newNode()
	n.ikey = m.bytes.Copy(m.kbuf)
	if len(value) > 0 {
		n.value = m.bytes.Copy(value)
	}
	h := int(heightTab[m.hidx%heightTabLen])
	m.hidx++

	// Raise the list height first; a reader that sees the new height
	// before the node links just walks empty upper levels.
	if int32(h) > m.height.Load() {
		m.height.Store(int32(h))
	}

	var prev [maxHeight]*node
	m.findSplices(n.ikey, &prev)
	// Link bottom-up, each level's successor first: the store to the
	// predecessor publishes the node, and once level 0 is linked every
	// search finds it; upper levels are an acceleration structure and
	// may lag briefly.
	for level := 0; level < h; level++ {
		n.next[level].Store(prev[level].next[level].Load())
		prev[level].next[level].Store(n)
	}
	m.size.Add(int64(len(n.ikey) + len(value) + 16*h))
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
