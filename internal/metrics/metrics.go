// Package metrics is the storage engine's observability substrate: an
// injectable monotonic clock, the windowed Sampler and the structured
// EventListener the engines fire compaction events through.
//
// Everything here is deterministic by construction — the package never
// reads the wall clock or the OS (it is inside the iamlint determinism
// scope); time always arrives through a Clock the caller injects.  The
// public DB layer injects real monotonic time, the experiment harness
// injects the virtual disk clock, and tests inject a ManualClock.
package metrics

import (
	"sync/atomic"
	"time"
)

// Clock is a monotonic time source: Now reports elapsed time since an
// arbitrary fixed epoch.  Implementations must be safe for concurrent
// use.  vfs.DiskClock satisfies Clock with virtual device time; the DB
// layer's default wires real monotonic time.
type Clock interface {
	Now() time.Duration
}

// ManualClock is a Clock tests drive by hand.
type ManualClock struct {
	d atomic.Int64
}

// Now implements Clock.
func (c *ManualClock) Now() time.Duration { return time.Duration(c.d.Load()) }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.d.Add(int64(d)) }

// NopClock is the zero time source: Now is always 0.  Engines opened
// without an injected clock use it, so durations read as zero rather
// than lying.
var NopClock Clock = nopClock{}

type nopClock struct{}

func (nopClock) Now() time.Duration { return 0 }
