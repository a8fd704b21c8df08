package iamdb

import (
	"time"

	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/shard"
)

// Iterator walks live user keys in ascending order at a fixed snapshot,
// hiding MVCC versions and tombstones.  Usage:
//
//	it := db.NewIterator()
//	defer it.Close()
//	for it.First(); it.Valid(); it.Next() {
//	    use(it.Key(), it.Value())
//	}
//
// Key and Value return copies safe to retain.
type Iterator struct {
	db   *DB
	in   iterator.ReverseIterator
	snap kv.Seq
	key  []byte
	val  []byte
	// vkind is the raw kind behind val: a KindValuePtr val is a value-log
	// pointer that Value resolves lazily — scans that never call Value on
	// a key pay nothing for its large value — through the store that
	// owns the key.
	vkind kv.Kind
	// shadow is advance's copy of the user key whose newest visible
	// version it consumed, kept between calls for its storage.
	shadow   []byte
	valid    bool
	err      error
	backward bool
	closed   bool
}

// NewIterator returns an iterator over the DB at the current watermark.
// A scan merges both memtables and, per level, every sequence of at
// most one node (Sec. 5.2); across stores it concatenates their
// disjoint ranges in key order, forward and backward.  The watermark is
// pinned until every store's tables are captured, so no merge in
// between can drop a version the view needs; the captured tables are
// referenced and read only through the sequences they held at capture
// (appends after it are invisible, see tableset's levelIter), so the
// pin is not held for the iterator's life.  On a closed DB the
// iterator is never Valid and its Err is ErrClosed.
func (db *DB) NewIterator() *Iterator {
	seq := db.pin()
	it := db.newIteratorAt(seq)
	db.unpin(seq)
	return it
}

// newIteratorAt builds the merged iterator at snap, which the caller
// holds pinned (and loaded before any store's state, so every view
// covers it — see DB.getInto).  A single store's merging iterator is
// used as is; several are concatenated — the ranges are disjoint and
// ordered, so no heap is needed and a scan only pays for the stores it
// actually touches.  A closed DB's iterator fails from the start and is
// not counted open, so its Close does nothing; one opened before Close
// and used after it is not covered.
func (db *DB) newIteratorAt(snap kv.Seq) *Iterator {
	if db.closedA.Load() {
		return db.closedIterator()
	}
	db.iters.Add(1)
	if len(db.stores) == 1 {
		return &Iterator{db: db, in: db.stores[0].newIter(), snap: snap}
	}
	c := &storeIter{part: db.part, kids: make([]iterator.ReverseIterator, len(db.stores))}
	for i, st := range db.stores {
		c.kids[i] = st.newIter()
	}
	c.Init(c, len(c.kids))
	return &Iterator{db: db, in: c, snap: snap}
}

// closedIterator returns an iterator that fails from the start.  It is
// not counted open, so its Close does nothing.
func (db *DB) closedIterator() *Iterator {
	return &Iterator{db: db, in: iterator.Failed{Cause: ErrClosed}, err: ErrClosed, closed: true}
}

// First positions at the smallest live key.  Positioning latency
// (First and Seek) feeds the DB's scan histogram.
func (it *Iterator) First() {
	var start time.Duration
	if it.db.timing {
		start = it.db.clock.Now()
	}
	it.backward = false
	it.in.First()
	it.advance(nil)
	if it.db.timing {
		it.db.scanHist.Record(it.db.clock.Now() - start)
	}
}

// Seek positions at the first live key >= ukey.
func (it *Iterator) Seek(ukey []byte) {
	var start time.Duration
	if it.db.timing {
		start = it.db.clock.Now()
	}
	it.backward = false
	it.in.Seek(kv.MakeInternalKey(ukey, it.snap, kv.MaxKind))
	it.advance(nil)
	if it.db.timing {
		it.db.scanHist.Record(it.db.clock.Now() - start)
	}
}

// Next advances past the current key to the next live key.
func (it *Iterator) Next() {
	if !it.valid {
		return
	}
	if it.backward {
		// Direction switch: the inner iterator rests before the
		// emitted key; jump to the first record past all its versions.
		it.backward = false
		it.in.Seek(kv.MakeInternalKey(it.key, 0, kv.KindDelete))
		it.advance(it.key)
		return
	}
	prev := it.key
	it.in.Next()
	it.advance(prev)
}

// advance finds the next visible, live user key, skipping versions
// above the snapshot, shadowed versions, tombstones, and skipKey.
func (it *Iterator) advance(skipKey []byte) {
	it.valid = false
	shadowed := skipKey != nil
	it.shadow = append(it.shadow[:0], skipKey...)
	for it.in.Valid() {
		u, seq, kind, ok := kv.ParseInternalKey(it.in.Key())
		if !ok {
			it.err = errBadBatch
			return
		}
		if seq > it.snap {
			it.in.Next()
			continue
		}
		if shadowed && kv.CompareUser(u, it.shadow) == 0 {
			it.in.Next()
			continue
		}
		if kind == kv.KindDelete {
			shadowed, it.shadow = true, append(it.shadow[:0], u...)
			it.in.Next()
			continue
		}
		it.key = append(it.key[:0], u...)
		it.val = append(it.val[:0], it.in.Value()...)
		it.vkind = kind
		it.valid = true
		return
	}
	if err := it.in.Err(); err != nil {
		it.err = err
	}
}

// Valid reports whether the iterator is positioned at a live entry.
func (it *Iterator) Valid() bool { return it.valid && it.err == nil }

// Key returns the current user key.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value, resolving key-value-separated
// records through the value log on first access (the result is cached
// for repeated calls at the same position).  A resolution failure —
// always a typed corruption — invalidates the iterator and surfaces
// through Err.
func (it *Iterator) Value() []byte {
	if it.valid && it.vkind == kv.KindValuePtr {
		v, err := it.db.storeFor(it.key).resolvePointer(it.val[:0], it.key, it.val)
		if err != nil {
			it.err = err
			it.valid = false
			return nil
		}
		it.val = v
		it.vkind = kv.KindSet
	}
	return it.val
}

// Err reports the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases the iterator's resources.
func (it *Iterator) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	// The last view closing lets deferred value-log deletions proceed.
	if it.db.iters.Add(-1) == 0 {
		it.db.kickVlogGC()
	}
	return it.in.Close()
}

// storeIter concatenates the stores' iterators, whose ranges are the
// partition's disjoint, ascending ones.  They are captured together at
// creation, which keeps the view point-in-time without holding the pin.
type storeIter struct {
	iterator.Concat
	part shard.Partition
	kids []iterator.ReverseIterator
}

// Open implements iterator.ConcatSource.
func (c *storeIter) Open(i int) iterator.ReverseIterator { return c.kids[i] }

// Find implements iterator.ConcatSource: the store that owns the key.
func (c *storeIter) Find(target []byte, _ bool) int {
	return c.part.IndexOf(kv.UserKey(target))
}

// Close implements iterator.Iterator: it closes every store's iterator.
func (c *storeIter) Close() error {
	var first error
	for _, kid := range c.kids {
		if err := kid.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
