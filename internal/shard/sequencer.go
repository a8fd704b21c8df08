package shard

import (
	"sync"
	"sync/atomic"

	"iamdb/internal/kv"
)

// Sequencer allocates global sequence ranges to cross-shard commits
// and tracks the visible watermark: the end of the longest prefix of
// allocations whose commits have fully completed.  Readers take the
// watermark as their snapshot, so a batch spanning shards becomes
// visible atomically — every record of a ticket at or below the
// watermark has been applied to its shard's memtable, and no record of
// any incomplete ticket is at or below it (ranges are contiguous and
// allocated in order).
//
// A ticket MUST be ended even when its commit failed: a leaked ticket
// stalls the watermark forever.  A failed commit's sequence range then
// reads as burned — the same gap semantics the single-tree commit path
// already has for failed WAL appends.
type Sequencer struct {
	// visibleA is the watermark, readable without the mutex.
	visibleA atomic.Uint64

	// Mu orders allocation and completion.  It is a leaf: nothing else
	// is ever acquired while it is held.  It is exported so a caller can
	// make one more step atomic with an allocation (Alloc): the router
	// appends a write to its stores' commit queues in the same hold, so
	// every queue is in sequence order.
	//
	//iamlint:lockorder Sequencer.Mu leaf
	Mu      sync.Mutex
	cond    *sync.Cond
	last    kv.Seq   // last allocated sequence number
	pending []ticket // outstanding allocations, FIFO (ascending Base)
}

// Ticket is one contiguous sequence-range allocation [Base, End].  It
// is a plain value: Alloc allocates nothing per write.
type Ticket struct {
	Base, End kv.Seq
}

// ticket is a Ticket's seat in the pending queue.
type ticket struct {
	Ticket
	done bool
}

// NewSequencer starts allocation after start (the recovered maximum
// sequence across all shards); the watermark begins there too.
func NewSequencer(start kv.Seq) *Sequencer {
	s := &Sequencer{last: start}
	s.cond = sync.NewCond(&s.Mu)
	s.visibleA.Store(uint64(start))
	return s
}

// Alloc allocates the next n sequence numbers as one ticket.  The
// caller holds Mu, and keeps it for whatever else must be ordered like
// the allocation.
func (s *Sequencer) Alloc(n int) Ticket {
	t := Ticket{Base: s.last + 1, End: s.last + kv.Seq(n)}
	s.last = t.End
	s.pending = append(s.pending, ticket{Ticket: t})
	return t
}

// End marks the ticket's commits complete (applied or abandoned) and
// advances the watermark past every completed prefix ticket.
func (s *Sequencer) End(t Ticket) {
	s.Mu.Lock()
	// The completing ticket is almost always the oldest one, so the
	// search ends at pending[0].
	for i := range s.pending {
		if s.pending[i].Base == t.Base {
			s.pending[i].done = true
			break
		}
	}
	n := 0
	for n < len(s.pending) && s.pending[n].done {
		n++
	}
	if n > 0 {
		s.visibleA.Store(uint64(s.pending[n-1].End))
		// Copy down instead of re-slicing so the queue keeps its
		// backing array and Alloc's append stays allocation-free.
		s.pending = s.pending[:copy(s.pending, s.pending[n:])]
		s.cond.Broadcast()
	}
	s.Mu.Unlock()
}

// Visible returns the watermark: the largest sequence at which every
// allocation at or below it has completed.
func (s *Sequencer) Visible() kv.Seq {
	return kv.Seq(s.visibleA.Load())
}

// WaitVisible blocks until the watermark reaches seq — the router's
// read-your-writes barrier after a commit.
func (s *Sequencer) WaitVisible(seq kv.Seq) {
	if kv.Seq(s.visibleA.Load()) >= seq {
		return
	}
	s.Mu.Lock()
	for kv.Seq(s.visibleA.Load()) < seq {
		s.cond.Wait()
	}
	s.Mu.Unlock()
}
