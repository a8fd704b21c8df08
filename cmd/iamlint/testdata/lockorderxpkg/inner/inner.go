// Package inner is the callee half of the lockorderxpkg fixture: its
// lock is taken only inside its own methods, which the other package
// calls statically.
package inner

import "sync"

// Store guards a counter with its own mutex.
type Store struct {
	mu sync.Mutex
	n  int
}

// Bump takes Store.mu; a caller holding a lock of its own orders the two.
func (s *Store) Bump() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}
