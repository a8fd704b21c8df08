// Package cache implements the sharded LRU block cache that stands in
// for the OS page cache in the paper's design.  It is populated by user
// reads only — point lookups and scans; a merge looks its input blocks
// up here but inserts none, since every table it reads is evicted when
// it publishes.  IAM's mixed-level tuning
// (Sec. 5.1.3) needs to know how much of each table is memory-resident —
// the paper samples mincore; here residency is exact, tracked per table,
// so Eq. (2) can be evaluated deterministically.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

const numShards = 16

// Key identifies a cached block: the owning table's id and the block's
// file offset.
type Key struct {
	Table uint64
	Off   uint64
}

// Cache is a fixed-capacity LRU over data blocks, safe for concurrent
// use.  Capacity is in bytes of cached block payload.
type Cache struct {
	shards [numShards]shard

	hits      atomic.Int64
	misses    atomic.Int64
	fills     atomic.Int64 // blocks Set stored
	evictions atomic.Int64 // blocks pushed out for lack of room

	// resident maps table id -> *atomic.Int64 of cached bytes.  The
	// sync.Map plus per-table counters keep the hot Set/evict paths off
	// any single lock: once a table's counter exists, adjustments are
	// one atomic add, and the 16 shards never rendezvous.
	resident sync.Map
}

type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List // front = most recent
	items    map[Key]*entry
	// tables indexes the entries by table: the head of the chain through
	// each entry's next and prev, so EvictTable visits a table's own
	// blocks and no others.
	tables map[uint64]*entry
}

type entry struct {
	key        Key
	data       []byte
	el         *list.Element // the entry's place in ll
	next, prev *entry        // the table's other entries in this shard
}

// add stores e at the front of the LRU order and of its table's chain.
func (s *shard) add(e *entry) {
	e.el = s.ll.PushFront(e)
	s.items[e.key] = e
	s.used += int64(len(e.data))
	if e.next = s.tables[e.key.Table]; e.next != nil {
		e.next.prev = e
	}
	s.tables[e.key.Table] = e
}

// remove takes e out of the shard.
func (s *shard) remove(e *entry) {
	s.ll.Remove(e.el)
	delete(s.items, e.key)
	s.used -= int64(len(e.data))
	if e.next != nil {
		e.next.prev = e.prev
	}
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case e.next != nil:
		s.tables[e.key.Table] = e.next
	default:
		delete(s.tables, e.key.Table)
	}
}

// New creates a cache holding at most capacity bytes.  A capacity <= 0
// yields a cache that stores nothing (every Get misses), modelling a
// machine with no spare RAM.
func New(capacity int64) *Cache {
	c := &Cache{}
	per := capacity / numShards
	for i := range c.shards {
		c.shards[i] = shard{capacity: per, ll: list.New(), items: make(map[Key]*entry), tables: make(map[uint64]*entry)}
	}
	return c
}

func (c *Cache) shardFor(k Key) *shard {
	h := k.Table*0x9e3779b97f4a7c15 ^ k.Off*0xbf58476d1ce4e5b9
	return &c.shards[h%numShards]
}

// Get returns the cached block or nil on miss.  The returned slice must
// be treated as read-only.
func (c *Cache) Get(table, off uint64) []byte {
	k := Key{table, off}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.items[k]; ok {
		s.ll.MoveToFront(e.el)
		c.hits.Add(1)
		return e.data
	}
	c.misses.Add(1)
	return nil
}

// Set inserts a block, evicting LRU entries as needed.  Blocks larger
// than a shard's whole capacity are not cached.
func (c *Cache) Set(table, off uint64, data []byte) {
	k := Key{table, off}
	s := c.shardFor(k)
	if int64(len(data)) > s.capacity {
		return
	}
	c.fills.Add(1)
	s.mu.Lock()
	if old, ok := s.items[k]; ok {
		s.used += int64(len(data)) - int64(len(old.data))
		c.addResident(table, int64(len(data))-int64(len(old.data)))
		old.data = data
		s.ll.MoveToFront(old.el)
	} else {
		s.add(&entry{key: k, data: data})
		c.addResident(table, int64(len(data)))
	}
	for s.used > s.capacity {
		back := s.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.remove(e)
		c.addResident(e.key.Table, -int64(len(e.data)))
		c.evictions.Add(1)
	}
	s.mu.Unlock()
}

// addResident adjusts per-table residency with one atomic add (after
// a lock-free map hit on the steady state).  Counters are removed only
// by EvictTable, so a table whose blocks cycle through the cache keeps
// its counter — an empty counter is a few words, and table ids are not
// reused within a run.
func (c *Cache) addResident(table uint64, delta int64) {
	v, ok := c.resident.Load(table)
	if !ok {
		v, _ = c.resident.LoadOrStore(table, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(delta)
}

// EvictTable removes every block of a table, once the table file is
// deleted by a compaction and its last reader has let go, and reports how
// many it removed.  Most dropped tables were only ever read by a merge and
// hold nothing here; those cost one map lookup and no shard lock.  The
// others cost their own blocks: each shard is held for its share of them.
func (c *Cache) EvictTable(table uint64) (blocks int) {
	if v, ok := c.resident.Load(table); !ok || v.(*atomic.Int64).Load() == 0 {
		c.resident.Delete(table)
		return 0
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.tables[table]; e != nil; e = s.tables[table] {
			s.remove(e)
			blocks++
		}
		s.mu.Unlock()
	}
	c.resident.Delete(table)
	return blocks
}

// Used reports total cached bytes.
func (c *Cache) Used() int64 {
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.used
		s.mu.Unlock()
	}
	return n
}

// ResidentBytes reports how many bytes of the given table are cached.
// This is the deterministic analogue of the paper's mincore sampling.
func (c *Cache) ResidentBytes(table uint64) int64 {
	if v, ok := c.resident.Load(table); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// HitRate reports the fraction of Gets served from cache, and the raw
// hit/miss counts.
func (c *Cache) HitRate() (rate float64, hits, misses int64) {
	hits, misses = c.hits.Load(), c.misses.Load()
	if hits+misses == 0 {
		return 0, 0, 0
	}
	return float64(hits) / float64(hits+misses), hits, misses
}

// Traffic reports how many blocks were inserted since the cache was
// made and how many of them capacity pushed out again; blocks that left
// with their table (EvictTable) count as neither.
func (c *Cache) Traffic() (fills, evictions int64) {
	return c.fills.Load(), c.evictions.Load()
}

// Capacity reports the configured capacity in bytes.
func (c *Cache) Capacity() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].capacity
	}
	return n
}
