// Package invariants provides build-tag-gated runtime assertions for
// the engine's hot paths.  Build with `-tags invariants` to enable
// them; without the tag, Enabled is a compile-time false and every
// guarded check is dead-code-eliminated — zero cost, zero allocations.
//
// Usage: guard each check with the constant so arguments are never
// evaluated in release builds:
//
//	if invariants.Enabled {
//		invariants.Assertf(a <= b, "range inverted: %d > %d", a, b)
//	}
package invariants

import "fmt"

// Assert panics with msg when cond is false.  Call only under an
// `if invariants.Enabled` guard.
func Assert(cond bool, msg string) {
	if !cond {
		panic("invariant violated: " + msg)
	}
}

// Assertf panics with a formatted message when cond is false.  Call
// only under an `if invariants.Enabled` guard so the format arguments
// are not evaluated (or boxed) in release builds.
func Assertf(cond bool, format string, args ...any) {
	if !cond {
		panic("invariant violated: " + fmt.Sprintf(format, args...))
	}
}

// Poison overwrites b up to its capacity with 0xDB.  Call it, under an
// `if invariants.Enabled` guard, on a buffer that is about to be reused:
// a reader still holding an alias from the buffer's previous life then
// fails a checksum or a comparison instead of passing by luck.
func Poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xDB
	}
}
