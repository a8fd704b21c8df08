// Package iamdb is a persistent, crash-recovering, MVCC key-value
// storage library — the implementation of the LSA- and IAM-trees from
// "On Integration of Appends and Merges in Log-Structured Merge Trees"
// (ICPP 2019), together with LevelDB- and RocksDB-style leveled-LSM
// baselines behind the same API.
//
// Quickstart:
//
//	db, err := iamdb.Open("./data", &iamdb.Options{Engine: iamdb.IAM})
//	defer db.Close()
//	db.Put([]byte("k"), []byte("v"))
//	v, err := db.Get([]byte("k"))
//	it := db.NewIterator()
//	for it.Seek([]byte("a")); it.Valid(); it.Next() { ... }
//	it.Close()
package iamdb

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iamdb/internal/histogram"
	"iamdb/internal/kv"
	"iamdb/internal/shard"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
)

var (
	// ErrNotFound reports that a key has no visible value.
	ErrNotFound = errors.New("iamdb: not found")
	// ErrClosed reports use of a closed DB.
	ErrClosed = errors.New("iamdb: closed")
	// ErrReadOnly reports that the DB degraded to read-only mode after
	// repeated background failures.  Reads still work; writes fail with
	// an error wrapping both ErrReadOnly and the background cause.  The
	// DB heals automatically once a background retry succeeds, or
	// explicitly via Resume.
	ErrReadOnly = errors.New("iamdb: read-only (background error)")
)

// BackgroundError is the error recorded when background flush or
// compaction work fails.  It wraps the underlying cause, so
// errors.Is/As see through it.
type BackgroundError struct {
	// Op names the failed operation: a background step ("flush",
	// "compact", "gc") or a commit-path append ("wal", "vlog").
	Op string
	// Err is the underlying error.
	Err error
}

func (e *BackgroundError) Error() string {
	return fmt.Sprintf("iamdb: background %s: %v", e.Op, e.Err)
}

// Unwrap returns the underlying cause.
func (e *BackgroundError) Unwrap() error { return e.Err }

// DB is a key-value store.  All methods are safe for concurrent use.
//
// A DB is always a router over 1..N stores (store.go), each owning a
// disjoint key range with its own WAL, memtable, engine and commit
// pipeline; an unsharded database is the 1-store case, its store living
// in the database directory itself.  What is global lives here, once:
// the sequencer whose watermark is every reader's view, the snapshot
// registry that bounds what merges may drop, the operation latency
// histograms and the trace recorder.
type DB struct {
	opt    Options
	fs     vfs.FS
	events *EventListener
	clock  Clock
	// timing enables the per-operation latency histograms and the
	// stores' commit-wait clock reads.  It is set when the caller
	// attached a listener or injected a clock — i.e. opted into
	// observability — so the default configuration skips the clock
	// reads on every operation.
	timing bool

	io       *vfs.IOStats
	putHist  *histogram.Concurrent
	getHist  *histogram.Concurrent
	scanHist *histogram.Concurrent
	getOps   atomic.Int64 // point lookups served

	// part routes user keys to stores; seqr allocates every write's
	// sequence range and publishes the visible watermark — the end of
	// the longest fully-committed allocation prefix — that every read
	// view starts from, so a batch spanning stores is visible
	// all-or-nothing.
	part   shard.Partition
	seqr   *shard.Sequencer
	stores []*store

	// The snapshot registry: pinned sequences and their reference
	// counts.  iters counts open iterators; together they gate deferred
	// value-log segment deletion (pointers a live view captured must
	// stay resolvable).  See horizon for what merges may drop.
	snapMu sync.Mutex
	snaps  map[kv.Seq]int
	iters  atomic.Int64

	// tr records structural spans (nil = disabled, zero-cost).
	tr *trace.Recorder

	// closedA flips once, in Close, which then closes quit to wake any
	// store backing off a background failure.
	closedA atomic.Bool
	quit    chan struct{}
}

// Open opens (creating as needed) a database in dir.  A nil opt uses
// defaults (IAM engine, OS filesystem).  With Options.Shards > 1 — or
// when dir carries a SHARDS marker from an earlier sharded open — the
// keyspace is range-partitioned across that many stores in shard-NNN
// subdirectories; otherwise the one store lives in dir itself.
func Open(dir string, opt *Options) (*DB, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	// The caller opting into observability is what arms timing; the
	// clock resolved below is an implementation detail.
	timing := o.EventListener != nil || o.Clock != nil
	o = o.withDefaults()
	if o.Clock == nil {
		o.Clock = newWallClock()
	}
	// Every DB measures device IO.  Reuse the caller's StatsFS counters
	// when one is supplied (the bench harness does) so traffic is not
	// double-counted; otherwise wrap the filesystem ourselves.  All
	// stores share the wrapped FS, so device IO is counted once.
	var io *vfs.IOStats
	if sfs, ok := o.FS.(*vfs.StatsFS); ok {
		io = sfs.Stats()
	} else {
		io = &vfs.IOStats{}
		o.FS = vfs.NewStatsFS(o.FS, io)
	}
	db := &DB{
		opt: o, fs: o.FS,
		events:   o.EventListener.EnsureDefaults(),
		clock:    o.Clock,
		timing:   timing,
		io:       io,
		putHist:  histogram.NewConcurrent(),
		getHist:  histogram.NewConcurrent(),
		scanHist: histogram.NewConcurrent(),
		snaps:    make(map[kv.Seq]int),
		tr:       o.Trace,
		quit:     make(chan struct{}),
	}
	if err := db.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	part, err := loadOrInitPartition(db.fs, dir, o.Shards, o.ShardSplits)
	if err != nil {
		return nil, err
	}
	db.part = part

	// Stores: same options, except that the block-cache and memory
	// budgets model total RAM, so they are divided across the stores
	// instead of multiplied by them.
	n := part.Count()
	so := o
	so.CacheSize = max(o.CacheSize/int64(n), 1)
	so.MemBudget = o.MemBudget / int64(n)
	var maxSeq kv.Seq
	for i := 0; i < n; i++ {
		st, err := openStore(db, storeDir(dir, n, i), so)
		if err != nil {
			for _, s := range db.stores {
				_ = s.close()
			}
			if n > 1 {
				err = fmt.Errorf("iamdb: open shard %d: %w", i, err)
			}
			return nil, err
		}
		db.stores = append(db.stores, st)
		maxSeq = max(maxSeq, st.seq)
	}
	// The sequencer resumes after the largest recovered sequence
	// anywhere, so new allocations never collide with replayed records.
	// Workers start only now: they pull their drop horizon from it.
	db.seqr = shard.NewSequencer(maxSeq)
	for _, st := range db.stores {
		st.bg.start()
	}
	return db, nil
}

// storeFor routes a user key to its owning store.
func (db *DB) storeFor(key []byte) *store {
	return db.stores[db.part.IndexOf(key)]
}

// fanout runs fn over every store, joining the errors (one error is
// returned as is).
func (db *DB) fanout(fn func(*store) error) error {
	var err error
	for _, st := range db.stores {
		if e := fn(st); e != nil {
			if err == nil {
				err = e
			} else {
				err = errors.Join(err, e)
			}
		}
	}
	return err
}

// horizon is the sequence at or below which merges may drop shadowed
// record versions: the oldest pinned snapshot, else the visible
// watermark.  The watermark bound is what keeps every reader's view
// intact — the watermark lags while an earlier allocation is still open
// (a stalled writer, a slow store), and a record above it must not
// shadow-drop the version readers at the watermark still see.  Stores
// pull this immediately before each engine flush or compaction step;
// any value computed here stays valid afterwards, since later pins are
// taken at a watermark that only grows.
func (db *DB) horizon() kv.Seq {
	db.snapMu.Lock()
	h := db.seqr.Visible()
	for seq := range db.snaps {
		h = min(h, seq)
	}
	db.snapMu.Unlock()
	return h
}

// pin registers a reference at the current watermark and returns it.
// Reading the watermark inside the registry's critical section orders
// the pin against horizon: a horizon computed earlier is at or below
// this sequence, one computed later sees the pin.
func (db *DB) pin() kv.Seq {
	db.snapMu.Lock()
	seq := db.seqr.Visible()
	db.snaps[seq]++
	db.snapMu.Unlock()
	return seq
}

// unpin drops one reference at seq.
func (db *DB) unpin(seq kv.Seq) {
	db.snapMu.Lock()
	if db.snaps[seq]--; db.snaps[seq] <= 0 {
		delete(db.snaps, seq)
	}
	db.snapMu.Unlock()
}

// viewsOpen reports whether any iterator or snapshot is open.
func (db *DB) viewsOpen() bool {
	if db.iters.Load() != 0 {
		return true
	}
	db.snapMu.Lock()
	defer db.snapMu.Unlock()
	return len(db.snaps) != 0
}

// kickVlogGC wakes every store's GC step: deferred segment deletions
// wait for the last open view.
func (db *DB) kickVlogGC() {
	for _, st := range db.stores {
		st.bg.wake(stepGC)
	}
}

// Put stores a key/value pair.  The store keeps none of key or value:
// the call is synchronous, and before it returns both are copied once
// into the WAL record and once into the memtable arena (or, when the
// value is separated, into the value-log record), so the caller may
// reuse the buffers as soon as it returns.
func (db *DB) Put(key, value []byte) error {
	return db.writeOne(batchOp{kv.KindSet, key, value})
}

// Delete removes a key.  Like Put, it keeps none of key.
func (db *DB) Delete(key []byte) error {
	return db.writeOne(batchOp{kv.KindDelete, key, nil})
}

// writeReq is the bookkeeping of one write in flight, pooled so the
// commit path allocates none of it: the one-op batch Put and Delete
// commit, whose op holds the caller's slices uncopied, and the seat a
// single-store write takes in its store's commit queue.  A request goes
// back to the pool only after its write returned, when every leader has
// resolved its seat and dropped the group that named it.
type writeReq struct {
	b    Batch
	one  [1]batchOp
	seat [1]commitOp
}

var writeReqs = sync.Pool{New: func() any { return new(writeReq) }}

// release clears the request, so the pool keeps no reference to the
// caller's bytes or to a store, and returns it.
func (r *writeReq) release() {
	*r = writeReq{}
	writeReqs.Put(r)
}

// writeOne commits one op as a batch of its own.
func (db *DB) writeOne(op batchOp) error {
	r := writeReqs.Get().(*writeReq)
	defer r.release()
	r.one[0] = op
	r.b.ops = r.one[:]
	return db.timedWrite(&r.b, &r.seat)
}

// Write applies a batch atomically: one WAL record per store it
// touches, consecutive sequence numbers, all-or-nothing visibility.
// The measured latency covers the whole commit, stall and queue time
// included — the tails Sec. 6.2 measures.
func (db *DB) Write(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	r := writeReqs.Get().(*writeReq)
	defer r.release()
	return db.timedWrite(b, &r.seat)
}

// timedWrite is write, recorded in the put histogram when timing is on.
func (db *DB) timedWrite(b *Batch, seat *[1]commitOp) error {
	if !db.timing {
		return db.write(b, seat)
	}
	start := db.clock.Now()
	err := db.write(b, seat)
	db.putHist.Record(db.clock.Now() - start)
	return err
}

// write commits a batch under one global sequence allocation.  The
// batch is split by key range; sub-batches take contiguous sub-ranges
// in store order (so each store reuses the ordinary batch encoding),
// each committed through its store's own leader/follower pipeline.  The
// allocation is always Ended (a failed sub-commit burns its range — the
// gap semantics a failed WAL append has), and on success the writer
// waits for the watermark so it reads its own write.
//
// Order matters three times.  Write stalls are served before the
// allocation, so a throttled writer does not hold the watermark back.
// The allocation and the appends to the stores' commit queues happen in
// one hold of the sequencer's mutex, so every store commits in sequence
// order: a record is never applied above a newer one (the first-hit
// lookup of store.getAt relies on it), and a value-log GC rewrite is
// always checked against every write sequenced before it
// (valueStore.filterGCBatch).  And inline background work
// (sched.afterCommit) runs after End: with nothing concurrently
// invisible the horizon then covers the records just committed, and
// merges drop exactly what an unclamped horizon would.
//
// Failure relaxation: when a sub-commit fails partway, earlier stores'
// sub-batches are already durable and become visible once the watermark
// passes them — a cross-store batch is atomic under concurrency, not
// under mid-commit I/O failure (see DESIGN.md "Commit pipeline").
//
// seat is the commit queue seat of a batch that lands on one store;
// seat must not be in use by another write.
func (db *DB) write(b *Batch, seat *[1]commitOp) error {
	ops := db.split(b, seat)
	for i := range ops {
		ops[i].st.throttle()
	}
	db.seqr.Mu.Lock()
	t := db.seqr.Alloc(b.Len())
	base := t.Base
	for i := range ops {
		op := &ops[i]
		op.base = base
		base += kv.Seq(op.b.Len())
		op.st.pendingQ = append(op.st.pendingQ, op)
	}
	db.seqr.Mu.Unlock()
	var firstErr error
	for i := range ops {
		// Keep committing the remaining stores after a failure: their
		// records are independently durable and the burned range only
		// covers what actually failed.
		op := &ops[i]
		var err error
		op.rotated, err = op.st.commit(op)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	db.seqr.End(t)
	for i := range ops {
		if ops[i].rotated {
			ops[i].st.bg.afterCommit()
		}
	}
	if firstErr != nil {
		return firstErr
	}
	db.seqr.WaitVisible(t.End)
	return nil
}

// split cuts b by key range into one commitOp per store it touches, in
// store order.  A batch that lands on one store (always true for
// Put/Delete) is passed through as it is, in seat, so no sub-batch is
// assembled, nothing is allocated and a GC rewrite batch keeps its
// conditional metadata.
func (db *DB) split(b *Batch, seat *[1]commitOp) []commitOp {
	first := db.part.IndexOf(b.ops[0].key)
	multi := false
	for _, op := range b.ops[1:] {
		if db.part.IndexOf(op.key) != first {
			multi = true
			break
		}
	}
	if !multi {
		seat[0] = commitOp{st: db.stores[first], b: b}
		return seat[:]
	}
	subs := make([]Batch, len(db.stores))
	for _, op := range b.ops {
		i := db.part.IndexOf(op.key)
		subs[i].ops = append(subs[i].ops, op)
	}
	ops := make([]commitOp, 0, len(subs))
	for i := range subs {
		if subs[i].Len() > 0 {
			ops = append(ops, commitOp{st: db.stores[i], b: &subs[i]})
		}
	}
	return ops
}

// Get returns the value for key, or ErrNotFound.  The returned slice
// is a fresh copy the caller may retain; use GetInto to reuse a buffer
// across lookups.
func (db *DB) Get(key []byte) ([]byte, error) {
	return db.GetInto(key, nil)
}

// GetInto appends the value for key to dst and returns the extended
// slice — the copy-into-caller fast path that avoids the per-call
// allocation Get makes.  dst may be nil.  A separated value is read
// from the value log straight into dst.
func (db *DB) GetInto(key, dst []byte) ([]byte, error) {
	var start time.Duration
	if db.timing {
		start = db.clock.Now()
	}
	dst, err := db.getInto(key, dst)
	if db.timing {
		db.getHist.Record(db.clock.Now() - start)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// getInto resolves key against the latest view and appends its value to
// dst: the watermark is loaded first, then the owning store's state
// pointer.  The state may be newer than the sequence but never older,
// records only move down the hierarchy, and no incomplete allocation
// sits at or below the watermark — so the pair is always a consistent
// view that cannot expose part of a batch.
//
// A latest-view read holds no pin, so the value-log collector may
// rewrite, flush and delete the segment a pointer names between the
// tree read and the log read.  A failed resolve therefore looks the key
// up again at a fresh watermark: a different pointer (or none) means
// the first one was collected — a benign race, nothing is counted —
// while the same pointer failing twice is real damage, noted and
// returned.  Snapshot and iterator reads are protected by their pins
// and resolve strictly.
func (db *DB) getInto(key, dst []byte) ([]byte, error) {
	if db.closedA.Load() {
		return nil, ErrClosed
	}
	db.getOps.Add(1)
	st := db.storeFor(key)
	var failed []byte // the pointer encoding whose resolve failed
	for {
		v, kind, err := st.getAt(key, db.seqr.Visible())
		switch {
		case err != nil:
			return nil, err
		case kind == kv.KindDelete:
			return nil, ErrNotFound
		case kind != kv.KindValuePtr:
			return append(dst, v...), nil
		}
		rv, err := st.readPointer(dst, key, v)
		if err == nil {
			return rv, nil
		}
		if failed != nil && bytes.Equal(failed, v) {
			st.noteCorruption(err)
			return nil, err
		}
		failed = append(failed[:0], v...)
	}
}

// Close flushes nothing (recovery replays the WAL), stops background
// work and releases resources.
func (db *DB) Close() error {
	if db.closedA.Swap(true) {
		return ErrClosed
	}
	close(db.quit)
	var err error
	for _, st := range db.stores {
		err = errors.Join(err, st.close())
	}
	return err
}

// Resume clears background-error state once the operator believes the
// underlying fault is gone: the engines rewrite their manifests, the
// stores leave read-only mode, and every background step is woken.
// A store also heals itself when a background retry succeeds; Resume
// just forces the attempt now.
func (db *DB) Resume() error { return db.fanout((*store).resume) }

// CheckInvariants asks the engines to validate their structural
// invariants (crash-recovery tests use it as an oracle).
func (db *DB) CheckInvariants() error {
	return db.fanout(func(st *store) error { return st.eng.CheckInvariants() })
}

// CompactAll flushes both memtables and settles every pending
// compaction — the paper's "tuning phase" run to completion.  Used by
// experiments before measuring stable performance.
func (db *DB) CompactAll() error { return db.fanout((*store).compactAll) }

// Flush forces the current memtables into the trees, waiting for the
// flushes to finish.  Reads are unaffected; use it before measuring
// on-disk state or creating external copies.
func (db *DB) Flush() error { return db.fanout((*store).flush) }

// MixedLevel reports IAM's current (m, k) tuning; zero for baselines.
// Stores tune independently; this is store 0's (the /levels debug
// endpoint shows the rest).
func (db *DB) MixedLevel() (m, k int) { return db.stores[0].mixedLevel() }

// ApproximateSize estimates the on-disk bytes of data stored in the
// user-key range [start, limit], excluding memtable contents.  The
// estimate counts whole nodes inside the range and half of each node
// straddling a boundary.
func (db *DB) ApproximateSize(start, limit []byte) int64 {
	var total int64
	for _, st := range db.stores {
		total += st.set.ApproximateSize(start, limit)
	}
	return total
}
