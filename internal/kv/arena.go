package kv

import "iamdb/internal/invariants"

// arenaChunk is the least an Arena allocates at a time: the gathers that
// use one stage whole runs, so a record costs a copy and no allocation.
const arenaChunk = 64 << 10

// Arena copies byte strings into chunks it owns, for code that stages
// many records an iterator is about to overwrite.  The copies stay valid
// until Reset, which keeps the chunks for the next round.  The zero
// Arena is ready to use; an Arena is not safe for concurrent use.
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
