// Package atomicpubbad mutates structs after they have been published
// through an atomic.Pointer: readers reach them with a lock-free Load,
// so any later plain-field write is a data race.  The atomicpub pass
// must flag every write below; the compliant patterns (build the value
// fresh, then Store it) live in testdata/good.
package atomicpubbad

import "sync/atomic"

type entry struct {
	key  []byte
	hits int
	next [4]atomic.Pointer[entry]
}

type index struct {
	head atomic.Pointer[entry]
}

// mutateLoaded writes a field of a node reached through the atomic
// pointer — the canonical post-publication race.
func (x *index) mutateLoaded() {
	x.head.Load().key = nil // want [atomicpub] published via atomic.Pointer
}

// mutateParam writes through a parameter: the callee cannot prove the
// entry has not been published yet.
func mutateParam(e *entry, k []byte) {
	e.key = k // want [atomicpub] published via atomic.Pointer
}

// increment covers the ++/-- statement form.
func increment(e *entry) {
	e.hits++ // want [atomicpub] published via atomic.Pointer
}

// reachedThroughField writes through a struct field rather than a
// fresh local; field-held values may already be shared.
type wrapper struct {
	e *entry
}

func (w *wrapper) reachedThroughField(k []byte) {
	w.e.key = k // want [atomicpub] published via atomic.Pointer
}

// snapshot is published whole: the slices it holds are part of what
// readers see, so an element written after the swap is the same race.
type snapshot struct {
	levels [][]int
}

type set struct {
	cur atomic.Pointer[snapshot]
}

func (s *set) mutateElements() {
	s.cur.Load().levels[0] = nil // want [atomicpub] published via atomic.Pointer
	v := s.cur.Load()
	v.levels[1][2] = 7 // want [atomicpub] published via atomic.Pointer
}
