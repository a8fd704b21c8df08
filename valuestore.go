package iamdb

import (
	"errors"
	"slices"
	"sync"

	"iamdb/internal/corrupt"
	"iamdb/internal/kv"
	"iamdb/internal/metrics"
	"iamdb/internal/vlog"
)

// Key-value separation (WiscKey/Bitcask style; see DESIGN.md "Key-value
// separation").  Values at or above Options.ValueThreshold are appended
// once to a segmented, CRC-per-record value log and the tree carries a
// fixed-size pointer record (kv.KindValuePtr), so flushes, merges,
// splits and combines move O(pointer) bytes per large value instead of
// O(value).  The commit leader performs the separation inside the group
// commit — value durable before the WAL record carrying its pointer —
// and the scheduler's GC step rewrites the live remainder of low-density
// segments through the normal write path, deleting a segment only once
// its replacement records are engine-durable.

// errVlogGCUncertain aborts a segment collection whose conditional
// rewrite could not prove every surviving record was superseded.
var errVlogGCUncertain = errors.New("iamdb: vlog GC liveness check failed; segment kept")

// valueStore is a store's value log with its collector: the segmented
// log, the deferred-delete queue and the separation counters.  A store
// whose directory has no value log holds a nil *valueStore and none of
// this state.
type valueStore struct {
	st     *store
	log    *vlog.Log
	openSt vlog.OpenStats

	// pend queues fully-rewritten segments for deletion until no open
	// view can still chase pointers into them; pendMu is a leaf lock.
	pendMu sync.Mutex
	pend   []uint64

	appends    metrics.Counter
	resolves   metrics.Counter
	gcRewrites metrics.Counter
	gcSegments metrics.Counter
}

// openValueStore opens the store's value log when separation is
// configured or segment files already exist from an earlier run (so
// pointers written then stay resolvable even with separation now off).
// Runs during openStore, after WAL recovery and before any worker
// starts.
func (st *store) openValueStore() error {
	if st.opt.ValueThreshold <= 0 {
		names, err := st.fs.List(st.dir)
		if err != nil {
			return err
		}
		found := false
		for _, name := range names {
			if _, ok := vlog.ParseSegmentName(name); ok {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	log, openSt, err := vlog.Open(st.fs, st.dir, st.opt.VlogSegmentSize)
	if err != nil {
		return err
	}
	st.vs = &valueStore{st: st, log: log, openSt: openSt}
	return nil
}

func (vs *valueStore) segmentPath(seg uint64) string {
	return vlog.SegmentName(vs.st.dir, seg)
}

// onDrop is the engine's drop observer: every value-pointer record a
// merge discards credits its segment's discard bytes — the signal
// density GC runs on.  It runs with engine locks held, so it touches
// only leaf locks: the log's stats and the scheduler's.  Recovery
// flushes run before the log opens; their drops are skipped (their
// segments' density is simply undercounted until later drops).
func (st *store) onDrop(kind kv.Kind, val []byte) {
	vs := st.vs
	if vs == nil || !vlog.IsValuePointer(kind, val) {
		return
	}
	p, _ := vlog.DecodePointer(val)
	vs.log.NoteDiscard(p.Segment, int64(p.Len))
	st.bg.wake(stepGC)
}

// separateGroup is the commit leader's separation step, called with
// commitMu held before the group is encoded: large values move to the
// value log (their batches are substituted with shallow copies carrying
// pointer records — the caller's Batch is never mutated), GC rewrite
// batches are filtered against the current state, and the log is synced
// before the WAL append when SyncWrites is on, so a surviving pointer
// always has a surviving value underneath it — the same
// data-before-metadata discipline tableset.Build keeps for tables, and
// the crash matrix (TestCrashMatrixKVSep) checks.
//
// The returned byte count is what separation removed from the encoded
// group relative to what the user logically wrote (original value bytes
// minus pointer bytes), so user-byte accounting — the denominator of
// write amplification — stays in terms of user payload.
func (vs *valueStore) separateGroup(group []*commitOp) (int64, error) {
	// Keys ordinary batches in this group write: a GC rewrite op for any
	// of them is dropped outright, so a rewrite can never shadow — and
	// thereby resurrect over — a same-group user write or delete,
	// regardless of sequence order within the group.  Only a group that
	// carries a rewrite batch needs them.
	var userKeys map[string]struct{}
	if slices.ContainsFunc(group, func(op *commitOp) bool { return op.b.gcOld != nil }) {
		userKeys = make(map[string]struct{})
		for _, op := range group {
			if op.b.gcOld != nil {
				continue
			}
			for _, bop := range op.b.ops {
				userKeys[string(bop.key)] = struct{}{}
			}
		}
	}
	th := vs.st.opt.ValueThreshold
	var extra int64
	appended := false
	for _, op := range group {
		if op.b.gcOld != nil {
			if vs.filterGCBatch(op.b, userKeys) {
				appended = true // rewritten values await the sync below
			}
			continue
		}
		if th <= 0 {
			continue
		}
		need := false
		for _, bop := range op.b.ops {
			if bop.kind == kv.KindSet && len(bop.val) >= th {
				need = true
				break
			}
		}
		if !need {
			continue
		}
		ops := make([]batchOp, len(op.b.ops))
		copy(ops, op.b.ops)
		for i := range ops {
			if ops[i].kind != kv.KindSet || len(ops[i].val) < th {
				continue
			}
			p, err := vs.log.Append(ops[i].key, ops[i].val)
			if err != nil {
				return 0, err
			}
			extra += int64(len(ops[i].val)) - vlog.PointerLen
			ops[i] = batchOp{kind: kv.KindValuePtr, key: ops[i].key, val: p.Encode()}
			vs.appends.Inc()
			appended = true
		}
		op.b = &Batch{ops: ops}
	}
	if appended && vs.st.opt.SyncWrites {
		if err := vs.log.Sync(); err != nil {
			return 0, err
		}
	}
	return extra, nil
}

// filterGCBatch drops every rewrite op whose key no longer resolves to
// exactly the pointer it is replacing — the key was overwritten,
// deleted, or is being written in this very group — and reports whether
// any op survived.  Caller holds commitMu, so the view it checks
// against includes every previously committed group — and because the
// commit queue is in sequence order (DB.write), every write sequenced
// below this rewrite is in that view or in this group: no acknowledged
// write can land under a rewrite that was checked without it.  A read
// failure (not ErrNotFound) leaves liveness unprovable: the op is
// dropped and the batch poisoned so the collector keeps the old segment.
func (vs *valueStore) filterGCBatch(b *Batch, userKeys map[string]struct{}) bool {
	kept := b.ops[:0]
	for i, op := range b.ops {
		stale := false
		if _, ok := userKeys[string(op.key)]; ok {
			stale = true
		} else {
			cur, kind, err := vs.st.getAt(op.key, kv.MaxSeq)
			if err != nil && !errors.Is(err, ErrNotFound) {
				b.gcFailed = true
			}
			stale = err != nil || kind != kv.KindValuePtr ||
				string(cur) != string(b.gcOld[i])
		}
		if stale {
			// The freshly re-appended copy is garbage before it was ever
			// referenced; credit it so density accounting stays honest.
			if p, ok := vlog.DecodePointer(op.val); ok {
				vs.log.NoteDiscard(p.Segment, int64(p.Len))
			}
			continue
		}
		kept = append(kept, op)
	}
	b.ops = kept
	return len(kept) > 0
}

// readPointer reads one pointer's value from the log.  Every failure —
// malformed encoding, missing segment, CRC mismatch, key mismatch — is
// a typed corruption: the tree acknowledged a value the log cannot
// produce.  The failure is not yet noted; see resolvePointer and
// DB.getRaw for who decides it is real.
func (st *store) readPointer(key, enc []byte) ([]byte, error) {
	p, ok := vlog.DecodePointer(enc)
	if !ok || st.vs == nil {
		return nil, corrupt.New(corrupt.LayerVLog, st.dir, -1, vlog.ErrBad,
			"tree carries an unresolvable value pointer")
	}
	v, err := st.vs.log.Read(p, key)
	if err != nil {
		return nil, err
	}
	st.vs.resolves.Inc()
	return v, nil
}

// resolvePointer is the strict resolve of pinned views (snapshots and
// iterators, whose segments the collector keeps): any failure is
// damage, counted and reported.
func (st *store) resolvePointer(key, enc []byte) ([]byte, error) {
	v, err := st.readPointer(key, enc)
	if err != nil {
		st.noteCorruption(err)
	}
	return v, err
}

// vlogGCDiscardRatio is the dead-bytes fraction at which a sealed
// segment becomes a collection candidate.
const vlogGCDiscardRatio = 0.5

// gcOnce is the GC step: it retries deferred deletions and collects at
// most one segment, reporting whether it did.  A failure (a full disk) is
// its error; an outcome is no work: Close, unprovable liveness (the
// segment is kept), another step's *BackgroundError (which a read-only
// store's writes carry), or an unreadable segment — fenced and reported
// as a detection, so it cannot wedge the collector.
func (vs *valueStore) gcOnce() (bool, error) {
	vs.tryDeletes()
	seg, ok := vs.log.PickGC(vlogGCDiscardRatio)
	if !ok {
		return false, nil
	}
	err := vs.collect(seg)
	var be *BackgroundError
	if err == nil || vs.st.db.closedA.Load() || errors.Is(err, errVlogGCUncertain) || errors.As(err, &be) {
		return err == nil, nil
	}
	if IsCorruption(err) {
		vs.st.noteCorruption(err)
		vs.log.MarkBad(seg)
		return false, nil
	}
	return false, err
}

// collect rewrites segment seg's live records through the normal write
// path and schedules the segment for deletion.  Liveness is checked
// twice: a lock-free pre-filter here (key still resolves to exactly
// this record's pointer) and the authoritative conditional check the
// commit leader runs under commitMu (filterGCBatch) — so a rewrite
// never resurrects a value a concurrent write or delete superseded.
// Rewrite batches commit through the router like any other write (their
// keys all belong to this store's range, so the single-store fast path
// keeps the batch and its conditional metadata intact) and so take
// globally allocated sequences.  The segment is deleted only after
// flush makes the rewritten pointers engine-durable, and only once no
// iterator or snapshot that might still chase the old pointers remains
// open.
func (vs *valueStore) collect(seg uint64) error {
	const (
		maxBatchOps   = 128
		maxBatchBytes = 4 << 20
	)
	st := vs.st
	newGC := func() *Batch { return &Batch{gcOld: make([][]byte, 0)} }
	b := newGC()
	var pending int
	flush := func() error {
		if b.Len() == 0 {
			return nil
		}
		if err := st.db.write(b); err != nil {
			return err
		}
		if b.gcFailed {
			return errVlogGCUncertain
		}
		b = newGC()
		pending = 0
		return nil
	}
	err := vs.log.ScanSegment(seg, func(key, val []byte, p vlog.Pointer) error {
		if st.db.closedA.Load() {
			return ErrClosed
		}
		cur, kind, err := st.getAt(key, kv.MaxSeq)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return nil // key gone: record is dead
			}
			return err
		}
		if kind != kv.KindValuePtr {
			return nil // overwritten inline or deleted
		}
		curp, ok := vlog.DecodePointer(cur)
		if !ok || curp != p {
			return nil // superseded by a newer log record
		}
		np, err := vs.log.Append(key, val)
		if err != nil {
			return err
		}
		b.putPointer(key, np.Encode(), cur)
		vs.gcRewrites.Inc()
		pending += len(val)
		if b.Len() >= maxBatchOps || pending >= maxBatchBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	// Durability order: flush pushes the rewritten pointers out of
	// WAL+memtable into the engine, whose manifest commit syncs them —
	// deleting the segment can then never orphan a recoverable pointer.
	if err := st.flush(); err != nil {
		return err
	}
	vs.gcSegments.Inc()
	vs.deferDelete(seg)
	vs.tryDeletes()
	return nil
}

// deferDelete queues a fully-rewritten segment for deletion.
func (vs *valueStore) deferDelete(seg uint64) {
	vs.pendMu.Lock()
	vs.pend = append(vs.pend, seg)
	vs.pendMu.Unlock()
}

// tryDeletes removes queued segments once no iterator or snapshot is
// open.  Views created after a rewrite committed resolve only the
// rewritten pointers (newer sequences shadow the old ones), so the
// instant zero-check is sufficient: a view opened concurrently with the
// removal is already safe, and one opened before it holds the count
// above zero.
func (vs *valueStore) tryDeletes() {
	if vs.st.db.viewsOpen() {
		return
	}
	vs.pendMu.Lock()
	pend := vs.pend
	vs.pend = nil
	vs.pendMu.Unlock()
	for _, seg := range pend {
		if err := vs.log.RemoveSegment(seg); err != nil {
			vs.deferDelete(seg) // head or transient failure: retry later
		}
	}
}
