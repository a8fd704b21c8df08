// Package lockorderbad holds lock-hierarchy violations the lockorder
// pass must flag.  The package declares a.mu < b.mu with c.mu a leaf;
// the functions below break that hierarchy in each distinct way the
// pass reports: a cycle against the declared direction, an
// acquisition under a leaf, an undeclared interprocedural edge, and
// recursive locking.
//
//iamlint:lockorder a.mu < b.mu; c.mu leaf
package lockorderbad

import "sync"

type a struct{ mu sync.Mutex }
type b struct{ mu sync.Mutex }
type c struct{ mu sync.Mutex }
type d struct{ mu sync.Mutex }

var (
	av a
	bv b
	cv c
	dv d
)

// declaredOrder nests in the declared direction: clean.
func declaredOrder() {
	av.mu.Lock()
	bv.mu.Lock()
	bv.mu.Unlock()
	av.mu.Unlock()
}

// inverted nests against the declared direction, completing a cycle
// with declaredOrder's edge.
func inverted() {
	bv.mu.Lock()
	av.mu.Lock() // want [lockorder] completes a lock-order cycle
	av.mu.Unlock()
	bv.mu.Unlock()
}

// leafViolation acquires another lock while holding the declared leaf.
func leafViolation() {
	cv.mu.Lock()
	dv.mu.Lock() // want [lockorder] leaf lock
	dv.mu.Unlock()
	cv.mu.Unlock()
}

func lockA() {
	av.mu.Lock()
	av.mu.Unlock()
}

// viaCall creates an interprocedural edge (d.mu held while the callee
// takes a.mu) that no directive covers.
func viaCall() {
	dv.mu.Lock()
	lockA() // want [lockorder] not in the declared lock order
	dv.mu.Unlock()
}

// recursive re-acquires a mutex it already holds.
func recursive() {
	dv.mu.Lock()
	dv.mu.Lock() // want [lockorder] recursive locking
	dv.mu.Unlock()
	dv.mu.Unlock()
}

type e struct{ mu sync.Mutex }

var ev e

// earlyReturn releases a.mu only on the branch that returns, so the path
// that falls through still holds it when it takes e.mu, which no clause
// orders.
func earlyReturn(done bool) {
	av.mu.Lock()
	if done {
		av.mu.Unlock()
		return
	}
	ev.mu.Lock() // want [lockorder] not in the declared lock order
	ev.mu.Unlock()
	av.mu.Unlock()
}
