package main

import "fmt"

// lockcheck enforces the repo's lock discipline: every sync.Mutex /
// sync.RWMutex Lock() or RLock() inside a function must be released
// before every return path of that same function, either by a matching
// `defer Unlock()` or by explicit Unlock calls on each path, and in the
// mode it was taken.
//
// The pass reads the summary walk (summary.go): a lock held without a
// deferred release at a return, or at the end of a body a path reaches,
// is reported there, and so is a release in the other mode.  Lock
// identity is the source text of the receiver expression ("db.mu",
// "h.f.mu") plus the mode, which matches how this codebase names
// locks.  Intentional cross-function handoffs (none exist today) would
// use //iamlint:ignore lockcheck.
func lockcheck(pr *program, emit func(diag)) {
	for _, n := range pr.order {
		for _, x := range n.sum.exits {
			for _, h := range x.held {
				if h.deferred {
					continue
				}
				lock, unlock := h.methods()
				emit(diag{
					pass: "lockcheck",
					pos:  pr.fset.Position(x.pos),
					msg: fmt.Sprintf("%s.%s() at line %d is not released on this path (add defer %s.%s() or unlock before returning)",
						h.expr, lock, pr.fset.Position(h.pos).Line, h.expr, unlock),
				})
			}
		}
		for _, s := range n.sum.slips {
			took, right := s.held.methods()
			wrong := "RUnlock"
			if s.held.read {
				wrong = "Unlock"
			}
			emit(diag{
				pass: "lockcheck",
				pos:  pr.fset.Position(s.pos),
				msg:  fmt.Sprintf("%s.%s() released by %s() — mode mismatch, use %s.%s()", s.held.expr, took, wrong, s.held.expr, right),
			})
		}
	}
}

// methods names the call that took a lock in its mode and the one that
// releases it.
func (id lockID) methods() (lock, unlock string) {
	if id.read {
		return "RLock", "RUnlock"
	}
	return "Lock", "Unlock"
}
