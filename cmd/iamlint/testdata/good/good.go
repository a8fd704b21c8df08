// Package good contains code every iamlint pass accepts: deferred and
// per-path unlocks, handled or explicitly-discarded storage errors,
// copy-before-retain iterator use, and a suppression directive.
package good

import (
	"sync"
	"sync/atomic"

	"iamdb/internal/vfs"
)

type iter struct{ buf []byte }

func (it *iter) Key() []byte   { return it.buf }
func (it *iter) Value() []byte { return it.buf }

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	dst  []byte
	last []byte
}

func (s *store) deferred(fs vfs.FS, name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fs.Remove(name)
}

func (s *store) explicitPaths(n int) int {
	s.mu.Lock()
	if n > 0 {
		s.mu.Unlock()
		return n
	}
	s.mu.Unlock()
	return -n
}

func (s *store) readLocked() int {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return len(s.dst)
}

func (s *store) deferredLiteral() {
	s.mu.Lock()
	defer func() {
		s.dst = s.dst[:0]
		s.mu.Unlock()
	}()
	s.dst = append(s.dst, 1)
}

func blessedDiscard(fs vfs.FS, name string) {
	_ = fs.Remove(name) // explicit discard is the sanctioned form
}

func deferredCleanup(f vfs.File) error {
	defer f.Close() // deferred cleanup is exempt
	return f.Sync()
}

func rotted(fs vfs.FS, name string) error {
	_, _, _, err := vfs.CorruptByte(fs, name, 0, vfs.RotFlip)
	return err // handled: the caller sees the error
}

func rottedBestEffort(fs vfs.FS, name string) {
	_, _, _, _ = vfs.CorruptByte(fs, name, 0, vfs.RotFlip) // explicit discard is the sanctioned form
}

func (s *store) copyBeforeRetain(it *iter) {
	s.dst = append(s.dst[:0], it.Key()...) // ellipsis append copies
	k := it.Value()                        // locals are fine
	s.dst = append(s.dst, k...)
}

func (s *store) suppressed(it *iter) {
	s.last = it.Key() //iamlint:ignore alias
}

// box is published through an atomic.Pointer, so atomicpub freezes its
// plain fields after publication; every write below happens on a value
// the pass can prove is still private.
type box struct {
	val []byte
}

type holder struct {
	cur atomic.Pointer[box]
}

func newBox() *box { return &box{} }

func (h *holder) publishLiteral(v []byte) {
	b := &box{}
	b.val = v // fresh: composite literal, not yet stored
	h.cur.Store(b)
}

func (h *holder) publishNew(v []byte) {
	b := new(box)
	b.val = v // fresh: new(T)
	h.cur.Store(b)
}

func (h *holder) publishConstructed(v []byte) {
	b := newBox()
	b.val = v // fresh: same-package new* constructor
	h.cur.CompareAndSwap(h.cur.Load(), b)
}

func (h *holder) publishSuppressed() {
	h.cur.Load().val = nil //iamlint:ignore atomicpub
}

// levels is published too; a successor is built in a fresh value, its
// slices copied before an element is written, and then stored.
type levels struct {
	tables [][]int
}

type levelSet struct {
	cur atomic.Pointer[levels]
}

func (s *levelSet) publishSuccessor() {
	old := s.cur.Load()
	nv := &levels{tables: append([][]int(nil), old.tables...)}
	nv.tables[0] = append([]int{1}, old.tables[0]...) // fresh: elements of a literal's field
	s.cur.Store(nv)
}
