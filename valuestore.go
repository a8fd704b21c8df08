package iamdb

import (
	"errors"
	"slices"

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
// and is the log's only writer: the scheduler's GC step proposes the
// live remainder of low-density segments through the normal write path,
// the leader appends the rewrites that are still current, and the
// segment is deleted, under commitMu, once its replacement records are
// engine-durable.

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
	// view can still chase pointers into them (commitMu).
	pend []uint64

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
// commitMu held before the group is encoded.  The leader is the value
// log's only writer: large user values and the GC rewrites that survive
// filterGCBatch move to the log, and their batches carry pointer records
// instead (a user's batch is substituted with a shallow copy — the
// caller's Batch is never mutated).  The log is synced before the WAL
// append when SyncWrites is on, so a surviving pointer always has a
// surviving value underneath it — the same data-before-metadata
// discipline tableset.Build keeps for tables, and the crash matrix
// (TestCrashMatrixKVSep) checks.
//
// The returned byte count is what separation removed from the encoded
// group relative to what the user logically wrote (original value bytes
// minus pointer bytes), so user-byte accounting — the denominator of
// write amplification — stays in terms of user payload.  A rewrite is
// not user payload: it counts as its pointer, and not in vs.appends.
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
		gc := op.b.gcOld != nil
		if gc {
			vs.filterGCBatch(op.b, userKeys)
		}
		need := false
		for _, bop := range op.b.ops {
			if separates(bop, gc, th) {
				need = true
				break
			}
		}
		if !need {
			continue
		}
		ops := op.b.ops // the collector's own batch: rewritten in place
		if !gc {
			ops = slices.Clone(ops)
			op.b = &Batch{ops: ops}
		}
		for i := range ops {
			if !separates(ops[i], gc, th) {
				continue
			}
			p, err := vs.log.Append(ops[i].key, ops[i].val)
			if err != nil {
				return 0, err
			}
			if !gc {
				extra += int64(len(ops[i].val)) - vlog.PointerLen
				vs.appends.Inc()
			}
			ops[i] = batchOp{kind: kv.KindValuePtr, key: ops[i].key, val: p.Encode()}
			appended = true
		}
	}
	if appended && vs.st.opt.SyncWrites {
		if err := vs.log.Sync(); err != nil {
			return 0, err
		}
	}
	return extra, nil
}

// separates reports whether the leader moves op's value to the log:
// every value of a rewrite batch (gc), which filterGCBatch has already
// cut to the survivors, and a user value at or above the threshold th.
func separates(op batchOp, gc bool, th int) bool {
	return op.kind == kv.KindSet && (gc || th > 0 && len(op.val) >= th)
}

// filterGCBatch drops every rewrite op whose key no longer resolves to
// exactly the pointer it is replacing — the key was overwritten,
// deleted, or is being written in this very group.  A dropped op was
// never written, so it leaves nothing to credit as discard.  Caller
// holds commitMu, so the view it checks against includes every
// previously committed group — and because the commit queue is in
// sequence order (DB.write), every write sequenced below this rewrite is
// in that view or in this group: no acknowledged write can land under a
// rewrite that was checked without it.  A read failure (not ErrNotFound)
// leaves liveness unprovable: the op is dropped and the batch poisoned
// so the collector keeps the old segment.
func (vs *valueStore) filterGCBatch(b *Batch, userKeys map[string]struct{}) {
	kept := b.ops[:0]
	for i, op := range b.ops {
		if _, ok := userKeys[string(op.key)]; ok {
			continue
		}
		cur, kind, err := vs.st.getAt(op.key, kv.MaxSeq)
		if err != nil && !errors.Is(err, ErrNotFound) {
			b.gcFailed = true
		}
		if err != nil || kind != kv.KindValuePtr || string(cur) != string(b.gcOld[i]) {
			continue
		}
		kept = append(kept, op)
	}
	b.ops = kept
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
	vs.st.commitMu.Lock()
	vs.tryDeletes()
	vs.st.commitMu.Unlock()
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

// collect proposes a rewrite of segment seg's live records through the
// normal write path and schedules the segment for deletion.  Liveness is
// checked twice: a lock-free pre-filter here (key still resolves to
// exactly this record's pointer) and the authoritative conditional check
// the commit leader runs under commitMu (filterGCBatch) — so a rewrite
// never resurrects a value a concurrent write or delete superseded.  The
// collector writes nothing itself: each op carries the record's value
// and the pointer it replaces, and the leader appends the survivors.
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
	b := &Batch{} // its first gcOld entry marks it a rewrite batch
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
		b = &Batch{}
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
		b.ops = append(b.ops, batchOp{kv.KindSet, slices.Clone(key), slices.Clone(val)})
		b.gcOld = append(b.gcOld, slices.Clone(cur))
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
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	if err := st.flushLocked(); err != nil {
		return err
	}
	vs.gcSegments.Inc()
	vs.pend = append(vs.pend, seg)
	vs.tryDeletes()
	return nil
}

// tryDeletes removes queued segments once no iterator or snapshot is
// open.  Views created after a rewrite committed resolve only the
// rewritten pointers (newer sequences shadow the old ones), so the
// instant zero-check is sufficient: a view opened concurrently with the
// removal is already safe, and one opened before it holds the count
// above zero.  Caller holds commitMu, like every other change to the
// log, so a checkpoint (which holds it too) copies a log that stands
// still.
func (vs *valueStore) tryDeletes() {
	if vs.st.db.viewsOpen() {
		return
	}
	kept := vs.pend[:0]
	for _, seg := range vs.pend {
		if err := vs.log.RemoveSegment(seg); err != nil {
			kept = append(kept, seg) // head or transient failure: retry later
		}
	}
	vs.pend = kept
}
