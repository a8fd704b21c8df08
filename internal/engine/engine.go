// Package engine holds what the two engine families (the LSM baselines in
// internal/lsm, the LSA/IAM trees in internal/core) share as policy code:
// the contract the DB layer drives them through, the per-level
// write-amplification statistics with the Reporter that feeds them (and
// the trace span and the event of the same structural step), and the MVCC
// record filter applied during merges.  Everything below the policy —
// levels, manifest, reads, reporting — is internal/tableset, which the DB
// layer asks directly.
package engine

import (
	"sync"

	"iamdb/internal/iterator"
	"iamdb/internal/kv"
)

// Engine is the policy over a table set: when to act, what to pick and
// how data moves (append, merge, move, split, combine).  These are the
// calls core.Tree and lsm.DB answer differently; DESIGN.md, "Engines as
// policy", has the table.
type Engine interface {
	// Flush writes one immutable memtable (as an internal-key ordered
	// iterator) into the tree, performing whatever compaction cascade
	// the tree's policy requires.
	Flush(it iterator.Iterator) error
	// WorkStep performs one unit of background compaction, reporting
	// whether it did anything.
	WorkStep() (bool, error)
	// StallLevel reports write-throttle state: 0 none, 1 slowdown,
	// 2 stop.  The DB layer translates this into write delays.
	StallLevel() int
	// Settle runs whatever work the policy still owes after the last
	// Flush, to completion (the paper's "tuning phase", Sec. 6.2).
	Settle() error
	// Stats returns cumulative compaction statistics.
	Stats() StatsSnapshot
	// CheckInvariants validates the table set's structure plus whatever
	// the policy promises about it (the trees: level node counts).
	CheckInvariants() error
}

// Stats accumulates compaction-side counters, broken down by level.
// All engines attribute every table write to the level it lands in and
// every compaction read to the level it came from; Table 3 and Table 4
// are ratios of these counters to user bytes.
//
// The engines report steps with the table set's mutex held; mu guards
// only the counters.
//
//iamlint:lockorder tableset.Set.Mu < engine.Stats.mu; engine.Stats.mu leaf
type Stats struct {
	mu       sync.Mutex
	perLevel []LevelStats
	flushes  int64
}

// LevelStats is the cumulative traffic in and out of one level.
type LevelStats struct {
	// WriteBytes is payload written into this level by
	// flushes/compactions (excluding the user log, as in the paper's
	// Sec. 6.2 accounting).
	WriteBytes int64
	// ReadBytes is payload read from this level as compaction input.
	ReadBytes int64
	Appends   int64 // append operations landing on this level
	Merges    int64 // merge (rewrite) operations landing on this level
	Moves     int64 // metadata-only move-downs landing on this level
	Splits    int64 // node splits at this level
	Combines  int64 // node combines at this level
}

// Add folds o into l, field by field.
func (l *LevelStats) Add(o LevelStats) {
	l.WriteBytes += o.WriteBytes
	l.ReadBytes += o.ReadBytes
	l.Appends += o.Appends
	l.Merges += o.Merges
	l.Moves += o.Moves
	l.Splits += o.Splits
	l.Combines += o.Combines
}

// StatsSnapshot is a copyable view of Stats.
type StatsSnapshot struct {
	// PerLevel[i] is the cumulative traffic for level i.
	PerLevel []LevelStats
	// FlushBytes mirrors PerLevel[i].WriteBytes; older callers
	// consume the per-level write traffic under this name.
	FlushBytes []int64
	Appends    int64 // append operations (total across levels)
	Merges     int64 // merge (rewrite) operations (total)
	Moves      int64 // metadata-only move-downs (total)
	Splits     int64
	Combines   int64
	Flushes    int64 // node flushes (incl. memtable flushes)
}

// add folds d into level's row, growing the table to reach it.  It and
// addFlush are the only writers, and the Reporter their only caller: what
// a structural step counts is decided in steps, nowhere else.
func (st *Stats) add(level int, d LevelStats) {
	st.mu.Lock()
	for len(st.perLevel) <= level {
		st.perLevel = append(st.perLevel, LevelStats{})
	}
	st.perLevel[level].Add(d)
	st.mu.Unlock()
}

// addFlush counts one node flush (a flush has no level row of its own: the
// bytes it moves are attributed where they land).
func (st *Stats) addFlush() { st.mu.Lock(); st.flushes++; st.mu.Unlock() }

// Snapshot returns a copy of the counters, with the per-level rows
// folded into the legacy totals and FlushBytes mirror.
func (st *Stats) Snapshot() StatsSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := StatsSnapshot{
		PerLevel:   append([]LevelStats(nil), st.perLevel...),
		FlushBytes: make([]int64, len(st.perLevel)),
		Flushes:    st.flushes,
	}
	var tot LevelStats
	for i, l := range st.perLevel {
		out.FlushBytes[i] = l.WriteBytes
		tot.Add(l)
	}
	out.Appends, out.Merges, out.Moves, out.Splits, out.Combines = tot.Appends, tot.Merges, tot.Moves, tot.Splits, tot.Combines
	return out
}

// TotalFlushBytes sums per-level flush bytes.
func (s StatsSnapshot) TotalFlushBytes() int64 {
	var n int64
	for _, b := range s.FlushBytes {
		n += b
	}
	return n
}

// TotalReadBytes sums per-level compaction-read bytes.
func (s StatsSnapshot) TotalReadBytes() int64 {
	var n int64
	for _, l := range s.PerLevel {
		n += l.ReadBytes
	}
	return n
}

// DropObserver is notified of every record the retention rule discards,
// with the record's kind and value (the slices alias merge buffers and
// must not be retained).  The DB layer uses it to credit dropped
// value-log pointers to their segments' discard statistics — the signal
// density GC runs on.
type DropObserver func(kind kv.Kind, val []byte)

// DropObsolete wraps a merge input, applying the MVCC retention rule:
// for each user key keep every version newer than horizon (still
// visible to some snapshot) plus the newest version at or below the
// horizon; drop the rest.  When atBottom is true — the merge output is
// the deepest data for its key range — a tombstone that would be that
// retained newest version is dropped entirely (Sec. 5.2: "In merges,
// the outdated records are removed and the valid records remain").
// onDrop, when non-nil, sees every dropped record.
//
// Appends never pass through this filter; that is precisely why append
// trees carry extra space amplification (Sec. 5.3.3).
func DropObsolete(it iterator.Iterator, horizon kv.Seq, atBottom bool, onDrop DropObserver) iterator.Iterator {
	return &dropIter{in: it, horizon: horizon, atBottom: atBottom, onDrop: onDrop}
}

type dropIter struct {
	in       iterator.Iterator
	horizon  kv.Seq
	atBottom bool
	onDrop   DropObserver
	lastUser []byte
	hasLast  bool
	keptLow  bool // emitted the newest version <= horizon for lastUser
}

func (d *dropIter) reset() {
	d.lastUser = d.lastUser[:0]
	d.hasLast = false
	d.keptLow = false
}

// skipDropped advances the inner iterator past records the retention
// rule discards, leaving it on the next record to emit (or invalid).
func (d *dropIter) skipDropped() {
	for d.in.Valid() {
		u, seq, kind, ok := kv.ParseInternalKey(d.in.Key())
		if !ok {
			return // surface the corrupt record to the caller
		}
		newUser := !d.hasLast || kv.CompareUser(u, d.lastUser) != 0
		if newUser {
			d.lastUser = append(d.lastUser[:0], u...)
			d.hasLast = true
			d.keptLow = false
		}
		if seq > d.horizon {
			return // visible to a snapshot: keep
		}
		if !d.keptLow {
			d.keptLow = true
			if kind == kv.KindDelete && d.atBottom {
				d.drop(kind)
				d.in.Next() // tombstone with nothing underneath: drop
				continue
			}
			return
		}
		d.drop(kind)
		d.in.Next() // shadowed version: drop
	}
}

// drop notifies the observer about the record the inner iterator is
// positioned on, which skipDropped is about to discard.
func (d *dropIter) drop(kind kv.Kind) {
	if d.onDrop != nil {
		d.onDrop(kind, d.in.Value())
	}
}

// First implements iterator.Iterator.
func (d *dropIter) First() {
	d.reset()
	d.in.First()
	d.skipDropped()
}

// Seek implements iterator.Iterator.  Seeking mid-stream forgets user
// key context; callers only Seek before consuming, which is safe.
func (d *dropIter) Seek(target []byte) {
	d.reset()
	d.in.Seek(target)
	d.skipDropped()
}

// Next implements iterator.Iterator.
func (d *dropIter) Next() {
	d.in.Next()
	d.skipDropped()
}

// Valid implements iterator.Iterator.
func (d *dropIter) Valid() bool { return d.in.Valid() }

// Key implements iterator.Iterator.
func (d *dropIter) Key() []byte { return d.in.Key() }

// Value implements iterator.Iterator.
func (d *dropIter) Value() []byte { return d.in.Value() }

// Err implements iterator.Iterator.
func (d *dropIter) Err() error { return d.in.Err() }

// Close implements iterator.Iterator.
func (d *dropIter) Close() error { return d.in.Close() }
