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
}

// Nothing caches the blocks it writes (user reads fill the cache, see the
// package comment), but a merge looks its input blocks up, and unpin
// evicts a dropped table's blocks (EvictBlocks) from inside Apply, both
// with the table set's mutex held; a shard takes no lock of its own
// under mu.
//
//iamlint:lockorder tableset.Set.Mu < cache.shard.mu; cache.shard.mu leaf
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	// lru is the sentinel of the recency ring, which closes through it:
	// lru.older is the most recently used entry, lru.newer the least.
	lru   entry
	items map[Key]*entry
	// tables indexes the entries by table, so EvictTable visits a table's
	// own blocks and no others, and ResidentBytes reads one sum per shard.
	tables map[uint64]*chain
}

// chain is one table's entries in a shard, linked through their next and
// prev, and the bytes they hold.
type chain struct {
	head  *entry
	bytes int64
}

type entry struct {
	key          Key
	data         []byte
	newer, older *entry // the entry's neighbours in the recency ring
	next, prev   *entry // the table's other entries in this shard
}

// unlink takes e out of the recency ring.
func (e *entry) unlink() {
	e.newer.older, e.older.newer = e.older, e.newer
}

// touch links e, which is not in the ring, in as its most recent entry.
func (s *shard) touch(e *entry) {
	e.newer, e.older = &s.lru, s.lru.older
	e.older.newer, s.lru.older = e, e
}

// add stores e as the most recent entry and at the head of its table's
// chain.
func (s *shard) add(e *entry) {
	s.touch(e)
	s.items[e.key] = e
	s.used += int64(len(e.data))
	ch := s.tables[e.key.Table]
	if ch == nil {
		ch = &chain{}
		s.tables[e.key.Table] = ch
	}
	if e.next = ch.head; e.next != nil {
		e.next.prev = e
	}
	ch.head = e
	ch.bytes += int64(len(e.data))
}

// remove takes e out of the shard.
func (s *shard) remove(e *entry) {
	e.unlink()
	delete(s.items, e.key)
	s.used -= int64(len(e.data))
	ch := s.tables[e.key.Table]
	ch.bytes -= int64(len(e.data))
	if e.next != nil {
		e.next.prev = e.prev
	}
	switch {
	case e.prev != nil:
		e.prev.next = e.next
	case e.next != nil:
		ch.head = e.next
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
		s := &c.shards[i]
		s.capacity, s.items, s.tables = per, make(map[Key]*entry), make(map[uint64]*chain)
		s.lru.newer, s.lru.older = &s.lru, &s.lru
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
		e.unlink()
		s.touch(e)
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
		s.remove(old)
	}
	s.add(&entry{key: k, data: data})
	for s.used > s.capacity {
		s.remove(s.lru.newer)
		c.evictions.Add(1)
	}
	s.mu.Unlock()
}

// EvictTable removes every block of a table, once the table file is
// deleted by a compaction and its last reader has let go, and reports how
// many it removed.  It costs a map lookup per shard and the table's own
// blocks; most dropped tables were only ever read by a merge and hold
// none.
func (c *Cache) EvictTable(table uint64) (blocks int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for ch := s.tables[table]; ch != nil; ch = s.tables[table] {
			s.remove(ch.head)
			blocks++
		}
		s.mu.Unlock()
	}
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
	var n int64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if ch := s.tables[table]; ch != nil {
			n += ch.bytes
		}
		s.mu.Unlock()
	}
	return n
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
