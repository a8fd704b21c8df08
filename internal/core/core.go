// Package core implements the paper's primary contribution: the
// Log-Structured Append-tree (LSA, Sec. 4) and the Integrated
// Append/Merge-tree (IAM, Sec. 5).  One Tree type serves both — the
// paper's IamDB "works as either LSA or IAM with proper configuration"
// — differing only in the flush policy that picks appends or merges.
//
// Structure (Fig. 2): one in-memory level L0 (the memtable, owned by
// the DB layer) and n on-disk levels L1..Ln.  Level Li holds at most
// t^i nodes with disjoint, sorted, not necessarily contiguous user-key
// ranges.  A node is an MSTable of up to Ct bytes of record data.  The
// tree compacts with three operations: flush (move a node's records to
// its children), split (a full node with 2t children divides in two),
// and combine (destroy a node, flushing its records down, to restore
// Ni <= t^i).
package core

import (
	"fmt"
	"sort"

	"iamdb/internal/cache"
	"iamdb/internal/engine"
	"iamdb/internal/kv"
	"iamdb/internal/metrics"
	"iamdb/internal/table"
	"iamdb/internal/tableset"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
)

// Policy selects the paper's tree variant.
type Policy int

const (
	// LSA compacts by appends everywhere; only a full leaf child
	// forces a merge (Sec. 4).
	LSA Policy = iota
	// IAM divides levels into appending levels (< m), one mixed level
	// (m, nodes capped at k sequences) and merging levels (> m), with
	// m and k tuned to the memory budget by Eq. (2) (Sec. 5).
	IAM
)

func (p Policy) String() string {
	if p == LSA {
		return "LSA"
	}
	return "IAM"
}

// Config parameterizes a Tree.  Zero fields take the paper's defaults.
type Config struct {
	FS    vfs.FS
	Dir   string
	Cache *cache.Cache

	// NodeCapacity is Ct, the node size threshold (default 128 MiB;
	// experiments scale it down, preserving ratios).
	NodeCapacity int64
	// Fanout is t: level thresholds are t^i and a node averages t
	// children (default 10).
	Fanout int
	// Policy picks LSA or IAM.
	Policy Policy
	// K caps the sequences per node in IAM's mixed level (default 3).
	K int
	// MemBudget is M, the memory available for caching appended
	// sequences (Sec. 5.1.3).  Defaults to the cache's capacity.
	MemBudget int64
	// FixedM pins the mixed level (used by Table 3's ablation);
	// 0 means tune m from Eq. (2) on every flush.
	FixedM int
	// LeafInitFrac divides Ct to get the initial size of leaf nodes
	// born from a leaf merge: Cts = Ct/LeafInitFrac (default 5).
	LeafInitFrac int
	// BitsPerKey sets Bloom-filter density (default 14).
	BitsPerKey int
	// Compression enables flate compression of data blocks (off by
	// default, matching the paper's setup).
	Compression bool
	// OnDrop is notified of every record merges discard (see
	// engine.DropObserver); the DB layer uses it to feed value-log
	// discard statistics.  Nil disables the callback.
	OnDrop engine.DropObserver
	// Events receives structural event notifications (flush, split,
	// combine, merge, ...).  Nil means no-op listeners.
	Events *metrics.EventListener
	// Clock supplies monotonic time for event durations.  Nil means
	// the zero clock: events fire but durations read 0.
	Clock metrics.Clock
	// Trace records structural spans (flush cascade, per-job
	// append/merge/split/combine with file lineage).  Nil disables
	// tracing at zero cost.
	Trace *trace.Recorder
}

func (c *Config) fill() {
	if c.NodeCapacity == 0 {
		c.NodeCapacity = 128 << 20
	}
	if c.Fanout == 0 {
		c.Fanout = 10
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.LeafInitFrac == 0 {
		c.LeafInitFrac = 5
	}
	if c.MemBudget == 0 && c.Cache != nil {
		c.MemBudget = c.Cache.Capacity()
	}
}

// capFactor scales the MSTable file capacity relative to Ct, leaving hole
// room for appends.
const capFactor = 2

func (c *Config) fileCapacity() int64 {
	return max(c.NodeCapacity*capFactor, table.MinCapacity)
}

// Tree is an LSA- or IAM-tree over a table set: a node is a
// tableset.Table, an MSTable plus its assigned range.  The embedded set
// supplies the levels (levels 1..n; level 0 stays empty, L0 is the
// memtable), the manifest, the structural mutex Mu and every read and
// reporting method; what is declared here is the policy, engine.Engine —
// (m, k), the thresholds t^i — and the flush cascade.  All exported
// methods are safe for concurrent use; structural changes serialize on Mu
// while reads go through immutable node tables.
type Tree struct {
	*tableset.Set
	cfg Config

	// curM/curK cache the IAM policy tuning for the current flush.
	curM, curK int

	// rep takes every structural step of the cascade: its span (nested
	// under the step that caused it), its counters and its event.
	rep *engine.Reporter
}

var _ engine.Engine = (*Tree)(nil)

// Open creates or reopens a tree in cfg.Dir.  A directory whose manifest
// holds level 0 tables (written by an LSM baseline) is refused with
// tableset.ErrLayout.
func Open(cfg Config) (*Tree, error) {
	cfg.fill()
	set, err := tableset.Open(tableset.Config{
		FS: cfg.FS, Dir: cfg.Dir, Cache: cfg.Cache,
		BitsPerKey: cfg.BitsPerKey, Compression: cfg.Compression,
		Events: cfg.Events, MinLevel: 1,
	})
	if err != nil {
		return nil, err
	}
	return &Tree{Set: set, cfg: cfg, rep: engine.NewReporter("core", cfg.Events, cfg.Clock, cfg.Trace)}, nil
}

// n returns the number of on-disk levels.
func (t *Tree) n() int { return t.NumLevels() - 1 }

// threshold returns t^i, the node-count threshold of level i.
func (t *Tree) threshold(i int) int {
	th := 1
	for j := 0; j < i; j++ {
		th *= t.cfg.Fanout
	}
	return th
}

// full reports whether a node reached the size threshold Ct.
func (t *Tree) full(nd *tableset.Table) bool { return nd.DataSize() >= t.cfg.NodeCapacity }

// childSpan returns the half-open index interval [start, end) of nodes
// in level i+1 overlapping rng.  Ranges within a level are disjoint
// and sorted, so both bounds binary-search.
func (t *Tree) childSpan(i int, rng kv.Range) (int, int) {
	if i+1 > t.n() || rng.Empty() {
		return 0, 0
	}
	lvl := t.Level(i + 1)
	start := sort.Search(len(lvl), func(j int) bool {
		return kv.CompareUser(lvl[j].Range().Hi, rng.Lo) >= 0
	})
	end := sort.Search(len(lvl), func(j int) bool {
		return kv.CompareUser(lvl[j].Range().Lo, rng.Hi) > 0
	})
	if end < start {
		end = start
	}
	return start, end
}

// children returns the nodes of level i+1 overlapping rng, as a copy of
// the level's window: the cascade reshapes the level while it walks them.
// An empty slice means the flush can move the node down untouched.
func (t *Tree) children(i int, rng kv.Range) []*tableset.Table {
	start, end := t.childSpan(i, rng)
	if start >= end {
		return nil
	}
	return append([]*tableset.Table(nil), t.Level(i + 1)[start:end]...)
}

// childCount counts level i+1 nodes overlapping rng without copying
// them.
func (t *Tree) childCount(i int, rng kv.Range) int {
	start, end := t.childSpan(i, rng)
	return end - start
}

// WorkStep, StallLevel and Settle are the tree's policy stated as
// constants: the cascade that Flush runs restores every threshold before
// it returns, so there is no background step to take, no debt to stall
// writers over and nothing left to settle.
func (t *Tree) WorkStep() (bool, error) { return false, nil }
func (t *Tree) StallLevel() int         { return 0 }
func (t *Tree) Settle() error           { return nil }

// Stats implements engine.Engine.
func (t *Tree) Stats() engine.StatsSnapshot { return t.rep.Snapshot() }

// levelDataSizesLocked returns D_1..D_n, the inputs to Eq. (2); caller
// holds Mu.
func (t *Tree) levelDataSizesLocked() []int64 {
	out := make([]int64, t.n()+1)
	for i := 1; i <= t.n(); i++ {
		for _, nd := range t.Level(i) {
			out[i] += nd.DataSize()
		}
	}
	return out
}

// CheckInvariants validates the set's structural invariants plus the
// tree's own: level node counts within their thresholds.  Tests, the
// harness and DB.Scrub call it after workloads.
func (t *Tree) CheckInvariants() error {
	t.Mu.Lock()
	defer t.Mu.Unlock()
	return t.checkInvariantsLocked()
}

// checkInvariantsLocked is CheckInvariants for callers already holding
// Mu — the `-tags invariants` build runs it after every flush.
func (t *Tree) checkInvariantsLocked() error {
	if err := t.CheckStructure(); err != nil {
		return err
	}
	// Quarantined nodes are excused from the threshold: they cannot be
	// combined away without reading their (corrupt) contents.
	for i := 1; i < t.n(); i++ {
		if t.ActiveCount(i) > t.threshold(i) {
			return fmt.Errorf("L%d has %d nodes > threshold %d", i, t.ActiveCount(i), t.threshold(i))
		}
	}
	return nil
}
