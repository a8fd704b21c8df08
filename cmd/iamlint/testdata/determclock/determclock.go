// Package determclock opts into the determinism scope and measures
// time the sanctioned way: through an injected metrics.Clock instead
// of the wall clock.  Every pattern here — interface clock reads,
// manual test clocks, atomic counters, event listeners with
// clock-derived durations — must lint clean, while the same code
// written with time.Now stays rejected (see determbad).
//
//iamlint:deterministic
package determclock

import (
	"sync/atomic"
	"time"

	"iamdb/internal/metrics"
)

// timed measures a step against whatever clock the caller injected;
// the harness passes the virtual disk clock, tests a ManualClock.
func timed(c metrics.Clock, step func()) time.Duration {
	start := c.Now()
	step()
	return c.Now() - start
}

// events fires a listener callback with a clock-derived duration.
func events(c metrics.Clock, l *metrics.EventListener) {
	l = l.EnsureDefaults()
	start := c.Now()
	l.FlushEnd(metrics.FlushInfo{Bytes: 1, Duration: c.Now() - start})
}

// manual is the unit-test pattern: a hand-advanced clock.
func manual() time.Duration {
	mc := new(metrics.ManualClock)
	mc.Advance(time.Second)
	return mc.Now()
}

// instruments exercises a counter without any ambient time source.
func instruments() int64 {
	var stalls atomic.Int64
	stalls.Add(1)
	stalls.Add(2)
	return stalls.Load()
}
