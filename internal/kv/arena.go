package kv

import (
	"sync"

	"iamdb/internal/invariants"
)

// arenaChunk is the least an Arena allocates at a time: the gathers and
// memtables that use one copy whole runs into it, so a record costs a
// copy and no allocation.
const arenaChunk = 64 << 10

// Arena copies byte strings into chunks it owns: the storage of a
// Gather, and of a memtable's keys and values.  The copies stay valid
// until Reset, which keeps the chunks for the next round; a memtable
// never resets its arena, so its copies live as long as it does.  The
// zero Arena is ready to use; an Arena is not safe for concurrent use.
type Arena struct {
	chunks [][]byte
	cur    int // chunks before this one are full
}

// Copy returns a copy of b that no later Copy overwrites.
func (a *Arena) Copy(b []byte) []byte {
	for ; a.cur < len(a.chunks); a.cur++ {
		c := a.chunks[a.cur]
		if n := len(c); n+len(b) <= cap(c) {
			c = append(c, b...)
			a.chunks[a.cur] = c
			return c[n:len(c):len(c)]
		}
	}
	c := append(make([]byte, 0, max(arenaChunk, len(b))), b...)
	a.chunks = append(a.chunks, c)
	return c[:len(c):len(c)]
}

// Reset invalidates every copy handed out and makes their storage
// available to the copies that follow.
func (a *Arena) Reset() {
	for i, c := range a.chunks {
		if invariants.Enabled {
			invariants.Poison(c)
		}
		a.chunks[i] = c[:0]
	}
	a.cur = 0
}

// Gather stages one sorted run: copies of the records an iterator is
// about to overwrite, as the parallel slices iterator.NewSlice reads.
// A flush cascade stages a run per node it loads and per table it
// writes, so gathers are pooled with their chunks: NewGather lends one,
// Release takes it back, and nothing it staged may be used after that
// (under -tags invariants the chunks are poisoned on the way in).
type Gather struct {
	arena      Arena
	Keys, Vals [][]byte
}

var gatherPool = sync.Pool{New: func() any { return new(Gather) }}

// NewGather returns an empty gather.
func NewGather() *Gather { return gatherPool.Get().(*Gather) }

// Add stages a copy of one record behind those already staged.
func (g *Gather) Add(key, val []byte) {
	g.Keys = append(g.Keys, g.arena.Copy(key))
	g.Vals = append(g.Vals, g.arena.Copy(val))
}

// Reset forgets the staged records and keeps their storage for the next
// run.
func (g *Gather) Reset() {
	g.arena.Reset()
	g.Keys, g.Vals = g.Keys[:0], g.Vals[:0]
}

// Release gives the gather and its storage back for another caller.
func (g *Gather) Release() {
	g.Reset()
	gatherPool.Put(g)
}
