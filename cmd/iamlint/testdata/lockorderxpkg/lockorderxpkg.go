// Package lockorderxpkg holds lock-order edges that exist only across
// a package boundary: each function below holds its own lock while a
// static call into package inner takes inner.Store.mu.  The package
// declares owner.mu < inner.Store.mu, so the owner's edge is clean and
// the stranger's is flagged — which the pass can do only by reaching
// the callee's summary from a call that names it through export data.
//
//iamlint:lockorder owner.mu < inner.Store.mu
package lockorderxpkg

import (
	"sync"

	"iamdb/cmd/iamlint/testdata/lockorderxpkg/inner"
)

type owner struct {
	mu sync.Mutex
	s  inner.Store
}

type stranger struct{ mu sync.Mutex }

// bump nests in the declared direction: clean.
func (o *owner) bump() {
	o.mu.Lock()
	o.s.Bump()
	o.mu.Unlock()
}

// bump takes inner.Store.mu under a lock the order does not place.
func (x *stranger) bump(s *inner.Store) {
	x.mu.Lock()
	s.Bump() // want [lockorder] not in the declared lock order
	x.mu.Unlock()
}
