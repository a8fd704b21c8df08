package histogram

import (
	"math"
	"sync/atomic"
	"time"
)

// Concurrent is a latency histogram safe for concurrent use: every
// bucket is an atomic counter, so Record never takes a lock and never
// allocates.  It exists for always-on metrics (the DB's per-operation
// latency tracking), where many goroutines record into one histogram;
// harnesses that own their workers can keep using the cheaper H.
//
// Max and min are maintained with CAS loops; between Record and
// Snapshot the counters are only ever monotonically stale, so a
// Snapshot taken during concurrent recording is a consistent-enough
// view for reporting (bucket sums may trail count by in-flight ops).
type Concurrent struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64
}

// NewConcurrent returns an empty concurrent histogram.
func NewConcurrent() *Concurrent {
	c := &Concurrent{}
	c.min.Store(math.MaxInt64)
	return c
}

// Record adds one latency observation.  Safe for concurrent use.
func (c *Concurrent) Record(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	c.buckets[bucketOf(ns)].Add(1)
	c.count.Add(1)
	c.sum.Add(ns)
	for {
		cur := c.max.Load()
		if ns <= cur || c.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := c.min.Load()
		if ns >= cur || c.min.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count reports the number of observations.
func (c *Concurrent) Count() int64 { return c.count.Load() }

// Sum reports the total of every observation, in nanoseconds.
func (c *Concurrent) Sum() int64 { return c.sum.Load() }

// Snapshot folds the counters into a plain H for percentile math.
func (c *Concurrent) Snapshot() *H {
	h := New()
	for i := range c.buckets {
		h.buckets[i] = c.buckets[i].Load()
	}
	h.count = c.count.Load()
	h.sum = c.sum.Load()
	h.max = c.max.Load()
	h.min = c.min.Load()
	return h
}

// Summary reports the headline statistics of the histogram.
func (c *Concurrent) Summary() Summary { return c.Snapshot().Summary() }

// Summary is a copyable, JSON-friendly digest of a histogram: the
// quantities the paper's QoS discussion reports (Sec. 6.2, Table 5).
type Summary struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// Summary reports the headline statistics of the histogram.
func (h *H) Summary() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(0.50),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
		Max:   h.Max(),
	}
}
