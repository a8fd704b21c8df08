package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestGetSetBasic(t *testing.T) {
	c := New(1 << 20)
	if got := c.Get(1, 0); got != nil {
		t.Fatal("miss should return nil")
	}
	c.Set(1, 0, []byte("block-data"))
	if got := c.Get(1, 0); string(got) != "block-data" {
		t.Fatalf("hit got %q", got)
	}
	if got := c.Get(1, 4096); got != nil {
		t.Fatal("different offset must miss")
	}
	if got := c.Get(2, 0); got != nil {
		t.Fatal("different table must miss")
	}
}

func TestUpdateExistingKey(t *testing.T) {
	c := New(1 << 20)
	c.Set(1, 0, make([]byte, 100))
	c.Set(1, 0, make([]byte, 300))
	if c.Used() != 300 {
		t.Fatalf("used %d want 300", c.Used())
	}
	if c.ResidentBytes(1) != 300 {
		t.Fatalf("resident %d want 300", c.ResidentBytes(1))
	}
}

func TestLRUEviction(t *testing.T) {
	// Use one shard's worth of keys by fixing table and varying offsets
	// that map to the same shard: easier — small total capacity and
	// check global behaviour.
	c := New(16 * 1024) // 1 KiB per shard
	blk := make([]byte, 512)
	// Insert far more than capacity.
	for i := uint64(0); i < 256; i++ {
		c.Set(7, i*4096, blk)
	}
	if c.Used() > c.Capacity() {
		t.Fatalf("used %d exceeds capacity %d", c.Used(), c.Capacity())
	}
	if c.ResidentBytes(7) != c.Used() {
		t.Fatalf("resident %d != used %d", c.ResidentBytes(7), c.Used())
	}
}

func TestLRURecencyOrder(t *testing.T) {
	// Single-shard behaviour: capacity for exactly 2 blocks per shard.
	c := New(numShards * 1024)
	a := make([]byte, 512)
	// Find three offsets in the same shard.
	var offs []uint64
	base := c.shardFor(Key{1, 0})
	for off := uint64(0); len(offs) < 3; off += 4096 {
		if c.shardFor(Key{1, off}) == base {
			offs = append(offs, off)
		}
	}
	c.Set(1, offs[0], a)
	c.Set(1, offs[1], a)
	c.Get(1, offs[0]) // touch 0 so 1 is LRU
	c.Set(1, offs[2], a)
	if c.Get(1, offs[0]) == nil {
		t.Error("recently used block evicted")
	}
	if c.Get(1, offs[1]) != nil {
		t.Error("LRU block not evicted")
	}
}

func TestOversizeBlockNotCached(t *testing.T) {
	c := New(16 * 1024)
	c.Set(1, 0, make([]byte, 10*1024))
	if c.Get(1, 0) != nil {
		t.Error("oversize block should be rejected")
	}
	if c.Used() != 0 {
		t.Errorf("used %d", c.Used())
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New(0)
	c.Set(1, 0, []byte("x"))
	if c.Get(1, 0) != nil {
		t.Error("zero-capacity cache must store nothing")
	}
	if c.ResidentBytes(1) != 0 {
		t.Error("residency leak")
	}
}

func TestEvictTable(t *testing.T) {
	c := New(1 << 20)
	for i := uint64(0); i < 50; i++ {
		c.Set(1, i*4096, make([]byte, 100))
		c.Set(2, i*4096, make([]byte, 100))
	}
	if c.ResidentBytes(1) != 5000 || c.ResidentBytes(2) != 5000 {
		t.Fatalf("resident %d/%d", c.ResidentBytes(1), c.ResidentBytes(2))
	}
	c.EvictTable(1)
	if c.ResidentBytes(1) != 0 {
		t.Errorf("table 1 still resident: %d", c.ResidentBytes(1))
	}
	if c.ResidentBytes(2) != 5000 {
		t.Errorf("table 2 disturbed: %d", c.ResidentBytes(2))
	}
	if c.Get(1, 0) != nil {
		t.Error("evicted block served")
	}
	if c.Get(2, 0) == nil {
		t.Error("surviving block lost")
	}
	if c.Used() != 5000 {
		t.Errorf("used %d", c.Used())
	}
}

// TestEvictTableWithNothingCached: a table that was never cached, one
// already evicted, and one whose every block capacity pushed out leave
// the cache exactly as it was — the case of nearly every table a merge
// drops.
func TestEvictTableWithNothingCached(t *testing.T) {
	c := New(16 * 1000) // 1000 bytes per shard
	for i := uint64(0); i < 10; i++ {
		c.Set(1, i*4096, make([]byte, 100))
		c.Set(2, i*4096, make([]byte, 100))
	}
	c.EvictTable(1)
	// Table 3's one block shares its shard with the block that replaces it.
	k3 := Key{3, 0}
	c.Set(k3.Table, k3.Off, make([]byte, 900))
	for off := uint64(1 << 30); c.ResidentBytes(3) != 0; off++ {
		if k := (Key{2, off}); c.shardFor(k) == c.shardFor(k3) {
			c.Set(k.Table, k.Off, make([]byte, 900))
		}
	}
	used, resident2 := c.Used(), c.ResidentBytes(2)
	fills, evictions := c.Traffic()
	if evictions == 0 {
		t.Fatal("table 3's block left the cache without an eviction being counted")
	}
	for _, id := range []uint64{1, 3, 99} { // evicted, pushed out, never cached
		c.EvictTable(id)
		if c.Used() != used || c.ResidentBytes(2) != resident2 || c.ResidentBytes(id) != 0 {
			t.Fatalf("EvictTable(%d): used %d -> %d, table 2 resident %d -> %d, own residency %d",
				id, used, c.Used(), resident2, c.ResidentBytes(2), c.ResidentBytes(id))
		}
	}
	if f, e := c.Traffic(); f != fills || e != evictions {
		t.Fatalf("EvictTable moved the traffic counters: fills %d -> %d, evictions %d -> %d", fills, f, evictions, e)
	}
	if c.Get(2, 0) == nil {
		t.Fatal("a block of the surviving table is gone")
	}
}

func TestResidencyMatchesUsedUnderChurn(t *testing.T) {
	c := New(64 * 1024)
	check := func(when string) {
		t.Helper()
		var sum int64
		for id := uint64(0); id < 5; id++ {
			sum += c.ResidentBytes(id)
		}
		if sum != c.Used() {
			t.Fatalf("%s: sum of residents %d != used %d", when, sum, c.Used())
		}
	}
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 100; i++ {
			c.Set(i%5, i*4096+uint64(round), make([]byte, 200+int(i)))
			if i%17 == 0 {
				// A table with blocks, then the same one with none, then
				// one that never had any.
				c.EvictTable((i + uint64(round)) % 5)
				c.EvictTable((i + uint64(round)) % 5)
				c.EvictTable(5 + i)
				check("after an eviction")
			}
		}
	}
	check("at the end")
	if fills, evictions := c.Traffic(); fills != 1000 || evictions == 0 || evictions >= fills {
		t.Fatalf("1000 blocks set into a cache too small for them: %d fills, %d evictions", fills, evictions)
	}
}

// TestMatchesNaiveModel drives a seeded mix of Set, Get and EvictTable
// against the obvious model — per shard, a slice in recency order — and
// compares, after every step, what the cache reports and how it is linked:
// Used, every table's residency, each shard's recency ring, and the
// per-table chains EvictTable walks (each names exactly the table's
// entries and counts their bytes).
func TestMatchesNaiveModel(t *testing.T) {
	const tables = 6
	c := New(numShards * 3000) // room for a handful of blocks per shard
	type block struct {
		key Key
		n   int
	}
	var model [numShards][]block // front = most recent
	shardOf := func(k Key) int {
		for i := range c.shards {
			if c.shardFor(k) == &c.shards[i] {
				return i
			}
		}
		panic("unreachable")
	}
	touch := func(k Key, n int) { // n < 0: a Get
		lst := model[shardOf(k)]
		at := slices.IndexFunc(lst, func(b block) bool { return b.key == k })
		switch {
		case at >= 0 && n < 0:
			n = lst[at].n
			lst = slices.Delete(lst, at, at+1)
		case at >= 0:
			lst = slices.Delete(lst, at, at+1)
		case n < 0:
			return
		}
		lst = slices.Insert(lst, 0, block{k, n})
		for used := 0; ; lst = lst[:len(lst)-1] {
			used = 0
			for _, b := range lst {
				used += b.n
			}
			if used <= 3000 {
				break
			}
		}
		model[shardOf(k)] = lst
	}
	evicted := map[uint64]bool{} // evicted and not set since: no chain may remain
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 4000; step++ {
		k := Key{Table: uint64(rng.Intn(tables)), Off: uint64(rng.Intn(40)) * 4096}
		switch op := rng.Intn(20); {
		case op == 0:
			want := 0
			for i := range model {
				want += len(model[i])
				model[i] = slices.DeleteFunc(model[i], func(b block) bool { return b.key.Table == k.Table })
				want -= len(model[i])
			}
			if got := c.EvictTable(k.Table); got != want {
				t.Fatalf("step %d: EvictTable visited %d entries, the table had %d", step, got, want)
			}
			evicted[k.Table] = true
		case op < 8:
			hit := c.Get(k.Table, k.Off) != nil
			touch(k, -1)
			if at := slices.IndexFunc(model[shardOf(k)], func(b block) bool { return b.key == k }); hit != (at >= 0) {
				t.Fatalf("step %d: Get(%v) hit=%v, the model holds it: %v", step, k, hit, at >= 0)
			}
		default:
			n := 100 + rng.Intn(1200)
			if rng.Intn(50) == 0 {
				n = 3001 // larger than a shard: not cached, and nothing else moves
			} else {
				touch(k, n)
				delete(evicted, k.Table)
			}
			c.Set(k.Table, k.Off, make([]byte, n))
		}

		var used int64
		resident := map[uint64]int64{}
		for i := range model {
			s := &c.shards[i]
			e := s.lru.older
			chained := 0
			for _, b := range model[i] {
				if e == &s.lru || e.key != b.key || len(e.data) != b.n || e.older.newer != e {
					t.Fatalf("step %d: shard %d departs from the model's recency order at %v", step, i, b.key)
				}
				e = e.older
				used += int64(b.n)
				resident[b.key.Table] += int64(b.n)
			}
			if e != &s.lru || s.lru.newer.older != &s.lru || len(s.items) != len(model[i]) {
				t.Fatalf("step %d: shard %d holds %d entries, the model %d", step, i, len(s.items), len(model[i]))
			}
			for id, ch := range s.tables {
				if ch.head == nil || ch.head.prev != nil {
					t.Fatalf("step %d: shard %d has a bad chain head for table %d", step, i, id)
				}
				var bytes int64
				for e := ch.head; e != nil; e = e.next {
					if e.key.Table != id || s.items[e.key] != e || e.next != nil && e.next.prev != e {
						t.Fatalf("step %d: shard %d, table %d: chain broken at %v", step, i, id, e.key)
					}
					chained++
					bytes += int64(len(e.data))
				}
				if ch.bytes != bytes {
					t.Fatalf("step %d: shard %d, table %d: the chain counts %d bytes and holds %d", step, i, id, ch.bytes, bytes)
				}
				if evicted[id] {
					t.Fatalf("step %d: shard %d keeps a chain for table %d after EvictTable", step, i, id)
				}
			}
			if chained != len(model[i]) {
				t.Fatalf("step %d: shard %d chains %d of its %d entries", step, i, chained, len(model[i]))
			}
		}
		if c.Used() != used {
			t.Fatalf("step %d: Used %d, the model %d", step, c.Used(), used)
		}
		for id := uint64(0); id < tables; id++ {
			if c.ResidentBytes(id) != resident[id] {
				t.Fatalf("step %d: table %d resident %d, the model %d", step, id, c.ResidentBytes(id), resident[id])
			}
		}
	}
}

// Evicting a table costs its own blocks, however full the cache is.
func TestEvictTableVisitsOnlyItsOwnBlocks(t *testing.T) {
	c := New(16 << 20)
	blk := make([]byte, 4096)
	for i := uint64(0); i < 3*4096; i++ { // other tables' blocks, three times what fits
		c.Set(1+i%7, i*4133, blk)
	}
	for i := uint64(0); i < 3; i++ {
		c.Set(99, i*4096, blk)
	}
	if c.Used() < 15<<20 {
		t.Fatalf("the cache holds %d bytes; the test wants it full", c.Used())
	}
	used := c.Used()
	if n := c.ResidentBytes(99); n != 3*4096 {
		t.Fatalf("the 3-block table is resident with %d bytes", n)
	}
	if visited := c.EvictTable(99); visited != 3 || c.Used() != used-3*4096 || c.ResidentBytes(99) != 0 {
		t.Fatalf("evicting a 3-block table visited %d entries, freed %d bytes and left %d resident",
			visited, used-c.Used(), c.ResidentBytes(99))
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				off := uint64(i % 64 * 4096)
				c.Set(uint64(g), off, []byte(fmt.Sprintf("%d-%d", g, i)))
				c.Get(uint64(g), off)
				if i%100 == 0 {
					c.EvictTable(uint64(g))
				}
			}
		}(g)
	}
	wg.Wait()
	// Post-condition: residency bookkeeping consistent.
	var sum int64
	for id := uint64(0); id < 8; id++ {
		sum += c.ResidentBytes(id)
	}
	if sum != c.Used() {
		t.Fatalf("resident sum %d != used %d", sum, c.Used())
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(1 << 24)
	blk := make([]byte, 4096)
	for i := uint64(0); i < 1000; i++ {
		c.Set(1, i*4096, blk)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(1, uint64(i%1000)*4096)
	}
}
