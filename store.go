package iamdb

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iamdb/internal/cache"
	"iamdb/internal/core"
	"iamdb/internal/corrupt"
	"iamdb/internal/engine"
	"iamdb/internal/histogram"
	"iamdb/internal/invariants"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/lsm"
	"iamdb/internal/memtable"
	"iamdb/internal/metrics"
	"iamdb/internal/tableset"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
	"iamdb/internal/wal"
)

// store is one key range's storage stack: a WAL, a memtable pipeline
// (one active memtable and a queue of immutable ones), an engine, the
// leader/follower commit pipeline in front of them, the scheduler of the
// background work behind them and the background-error state they share.
// The DB router owns 1..N of them; sequence numbers, visibility and the
// drop horizon are the router's (store.db), everything durable is the
// store's.
type store struct {
	db     *DB
	opt    Options
	dir    string
	fs     vfs.FS
	cache  *cache.Cache
	events *EventListener
	clock  Clock
	tr     *trace.Recorder
	// timing is DB.timing, handed down at open: it arms the two clock
	// reads per commit behind commit.wait.
	timing bool
	// eng is the policy (when to flush, merge, stall, settle); set is the
	// table set it drives, the one the engine embeds: reads, reporting,
	// the WAL position and quarantine go to it directly.
	eng engine.Engine
	set *tableset.Set

	// vs is the value log and its collector; nil when the directory has
	// no value log, so an inline store carries none of that state.  Set
	// once during open, before any worker or user operation runs.
	vs *valueStore

	// Commit pipeline (leader/follower group commit).  The router
	// appends a commitOp to pendingQ under the sequencer's mutex, in the
	// same hold that allocates the op's sequence range (DB.write), so the
	// queue — and with it the WAL and the memtables — is in sequence
	// order.  Writers then race for commitMu; the winner becomes leader,
	// drains the whole queue and commits it as one WAL record.  Everyone
	// else finds its op already resolved when it gets the lock.  Lock
	// order is commitMu before store.mu, never the reverse.  The declared
	// hierarchy below is checked statically by iamlint's lockorder pass
	// against the inferred acquisition graph.
	//
	// Drain and compaction steps run under commitMu too (inline, and
	// whenever a caller needs room in the immutable queue), so the
	// router's snapshot registry (the horizon pull) and the engine locks
	// (and through them the trace recorder and vfs locks) nest under it.
	// The scheduler's mutex is a leaf any of them may hold.
	//
	//iamlint:lockorder commitMu < Sequencer.Mu; commitMu < iamdb.store.mu; iamdb.store.mu < vfs.*; commitMu < trace.Recorder.mu; iamdb.store.mu < trace.Recorder.mu; commitMu < tableset.Set.Mu; commitMu < vlog.Log.mu; commitMu < vlog.Log.statsMu; commitMu < snapMu; iamdb.store.mu < iamdb.sched.mu; iamdb.sched.mu leaf
	pendingQ []*commitOp // guarded by db.seqr.Mu
	// spareQ is the array the next leader swaps in for pendingQ: the
	// queue and the group being committed trade two arrays, so a group
	// allocates none (commitMu).
	spareQ   []*commitOp
	commitMu sync.Mutex
	// seq is the largest sequence number in this store's WAL, owned by
	// whoever holds commitMu (and by open before any writer exists).
	// It trails the router's sequencer: writes carry pre-allocated
	// ranges and seq tracks their maximum end.
	seq kv.Seq
	// walBuf is the leader's scratch encoding buffer (commitMu).
	walBuf []byte

	// state is the lock-free read view, re-published on every memtable
	// swap.  Readers load the router's watermark and then state, with
	// no mutex: the watermark only passes a record after its memtable
	// insert landed, so the pair always describes a consistent view.
	state atomic.Pointer[storeState]

	userBytes atomic.Int64 // total key+value bytes written
	putOps    atomic.Int64 // records committed (sequence numbers consumed)

	stallCount   atomic.Int64
	stallNanos   atomic.Int64
	walRotations atomic.Int64
	commitWait   atomic.Int64
	// groupSize records each commit group's batch count: its Count is
	// the groups committed and its Sum the batches.
	groupSize *histogram.Concurrent

	mu   sync.Mutex
	cond *sync.Cond
	mem  *memtable.MemTable
	// imm is the queue of full memtables waiting for the drain, oldest
	// first, at most maxImmutable long.
	imm        []immEntry
	walW       *wal.Writer
	walF       vfs.File
	walNum     uint64
	walRetired int64 // bytes in WAL files already rotated out
	closed     bool
	bgErr      error // last background failure (*BackgroundError), nil when healthy
	readonly   bool  // degraded: writes rejected until a retry succeeds
	bgFails    int   // consecutive background failures
	bgErrSince int64 // clock nanos when bgErr was first latched

	bgNoSpace atomic.Int64

	// Latent-fault accounting (see DESIGN.md "Latent-fault model").
	corrDetected    atomic.Int64
	corrQuarantined atomic.Int64
	scrubBlocks     atomic.Int64

	// walDrops records WAL tails truncated during recovery, reported as
	// detections by noteOpenSuspicion: a torn tail after a crash and a
	// rotted final record are physically indistinguishable, so recovery
	// that drops bytes must always be visible to the operator.
	walDrops []walDrop

	// bg schedules the background steps; immFlushed tells the drain's
	// next attempt that only the last one's log-number record failed.
	bg         *sched
	immFlushed bool
	wg         sync.WaitGroup
}

// maxImmutable bounds the immutable-memtable queue.  It is the
// baselines' own slowdown point (2 × L0CompactTrigger in
// lsm.stallLocked): writers fill memtables while a cascade drains the
// oldest, and wait only when eight are queued (DESIGN.md, "Background
// work").
const maxImmutable = 8

// immEntry is one full memtable in the queue: its records, the WAL that
// holds them, and the last sequence number in that WAL.
type immEntry struct {
	mem     *memtable.MemTable
	walNum  uint64
	lastSeq kv.Seq
}

// storeState is the immutable read view published through store.state
// after every memtable swap.  A reader that loads the watermark and
// then state gets a state that is current or newer than that sequence,
// and since records only ever move down the hierarchy (mem → imm →
// engine) the view contains every record at or below the loaded
// sequence.
type storeState struct {
	mem *memtable.MemTable
	imm []*memtable.MemTable // the queue, newest first: the order reads probe it
}

// publishStateLocked re-publishes the active memtable and the queue.
// Caller holds st.mu, which serializes all memtable swaps.
func (st *store) publishStateLocked() {
	imm := make([]*memtable.MemTable, len(st.imm))
	for i, e := range st.imm {
		imm[len(imm)-1-i] = e.mem
	}
	st.state.Store(&storeState{mem: st.mem, imm: imm})
}

// queueFullLocked reports whether a commit must wait for the drain: the
// active memtable is full and the queue has no room for it.  Caller
// holds st.mu.
func (st *store) queueFullLocked() bool {
	return !st.closed && !st.readonly && len(st.imm) == maxImmutable &&
		st.mem.ApproximateSize() >= st.opt.MemtableSize
}

// commitOp is one writer's seat in one store's commit queue.  done and
// err are written by the leader while it holds commitMu and read by the
// owner only after it acquires commitMu itself, so the mutex orders
// them.  base is the first sequence number of the range the router
// allocated for this batch; rotated is the owner's note that its commit
// rotated the memtable, for sched.afterCommit.
type commitOp struct {
	st      *store
	b       *Batch
	base    kv.Seq
	err     error
	done    bool
	rotated bool
}

// openStore opens one store in dir: engine, WAL recovery, value log.
// No goroutine runs yet — the router starts st.bg once its sequencer
// exists.  o must already have defaults applied and carries
// the shared StatsFS, Clock, EventListener and TraceRecorder, so
// observability stays coherent across stores.
func openStore(db *DB, dir string, o Options) (*store, error) {
	st := &store{
		db: db, opt: o, dir: dir, fs: o.FS,
		cache:     cache.New(o.CacheSize),
		events:    db.events,
		clock:     db.clock,
		tr:        db.tr,
		timing:    db.timing,
		groupSize: histogram.NewConcurrent(),
		mem:       memtable.New(),
	}
	st.cond = sync.NewCond(&st.mu)
	if err := st.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := st.openEngine(); err != nil {
		return nil, err
	}
	if err := st.recover(); err != nil {
		st.set.Close()
		return nil, err
	}
	if err := st.openValueStore(); err != nil {
		_ = st.walF.Close()
		st.set.Close()
		return nil, err
	}
	st.noteOpenSuspicion()
	st.bg = newSched(st)
	st.mu.Lock()
	st.publishStateLocked()
	st.mu.Unlock()
	return st, nil
}

func (st *store) openEngine() error {
	switch st.opt.Engine {
	case IAM, LSA:
		policy := core.IAM
		if st.opt.Engine == LSA {
			policy = core.LSA
		}
		budget := st.opt.MemBudget
		if st.opt.Engine == LSA {
			budget = 0 // LSA ignores the budget (appends everywhere)
		}
		tr, err := core.Open(core.Config{
			FS: st.fs, Dir: st.dir, Cache: st.cache,
			NodeCapacity: st.opt.MemtableSize, Fanout: st.opt.Fanout,
			Policy: policy, K: st.opt.K, MemBudget: budget,
			FixedM: st.opt.FixedM, BitsPerKey: st.opt.BitsPerKey,
			Compression: st.opt.Compression, OnDrop: st.onDrop,
			Events: st.events, Clock: st.clock, Trace: st.tr,
		})
		if err != nil {
			return err
		}
		st.eng, st.set = tr, tr.Set
	case LevelDB, RocksDB:
		profile := lsm.ProfileLevelDB
		if st.opt.Engine == RocksDB {
			profile = lsm.ProfileRocksDB
		}
		d, err := lsm.Open(lsm.Config{
			FS: st.fs, Dir: st.dir, Cache: st.cache,
			FileSize: st.opt.FileSize, LevelSizeBase: st.opt.LevelSizeBase,
			Fanout: st.opt.Fanout, L0CompactTrigger: st.opt.L0CompactTrigger,
			Profile: profile, BitsPerKey: st.opt.BitsPerKey,
			Compression: st.opt.Compression, OnDrop: st.onDrop,
			Events: st.events, Clock: st.clock, Trace: st.tr,
		})
		if err != nil {
			return err
		}
		st.eng, st.set = d, d.Set
	default:
		return fmt.Errorf("iamdb: unknown engine %v", st.opt.Engine)
	}
	return nil
}

func logName(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.log", dir, num)
}

// logNums picks the write-ahead logs out of a directory listing: the
// numbers of the names logName produces, ascending, i.e. oldest first.
func logNums(names []string) []uint64 {
	var logs []uint64
	for _, name := range names {
		if base, ok := strings.CutSuffix(name, ".log"); ok {
			if n, err := strconv.ParseUint(base, 10, 64); err == nil {
				logs = append(logs, n)
			}
		}
	}
	slices.Sort(logs)
	return logs
}

// recover replays WAL files at or after the engine's recorded log
// number, then starts a fresh log.  Its flushes run before the router's
// sequencer exists, at the engine's initial unbounded horizon: nothing
// recovered is invisible to anyone.
func (st *store) recover() error {
	lastSeq, logNum := st.set.LogMeta()
	st.seq = lastSeq

	names, err := st.fs.List(st.dir)
	if err != nil {
		return err
	}
	logs := logNums(names)
	maxLog := logNum
	for _, num := range logs {
		if num < logNum {
			_ = st.fs.Remove(logName(st.dir, num)) // already flushed; best-effort cleanup
			continue
		}
		if num > maxLog {
			maxLog = num
		}
		if err := st.replayLog(num); err != nil {
			return err
		}
	}
	// Flush everything recovered so the replayed logs can be dropped.
	if st.mem.Count() > 0 {
		if err := st.eng.Flush(st.mem.NewIter()); err != nil {
			return err
		}
		st.mem = memtable.New()
	}
	st.walNum = maxLog + 1
	if err := st.set.SetLogMeta(st.seq, st.walNum); err != nil {
		return err
	}
	for _, num := range logs {
		// Obsolete after the flush above; a leftover log is re-deleted on
		// the next recovery, so failure here is not fatal.
		_ = st.fs.Remove(logName(st.dir, num))
	}
	f, err := st.fs.Create(logName(st.dir, st.walNum))
	if err != nil {
		return err
	}
	st.walF = f
	st.walW = wal.NewWriter(f)
	st.walW.SetSync(st.opt.SyncWrites)
	return nil
}

func (st *store) replayLog(num uint64) error {
	f, err := st.fs.Open(logName(st.dir, num))
	if err != nil {
		return err
	}
	defer f.Close()
	// Strict replay: a torn tail (crash mid-append) is tolerated and
	// truncated, but a damaged record with valid data after it is
	// corruption of already-acknowledged writes — it aborts the open
	// with a typed error instead of silently dropping the suffix.
	dropped, err := wal.Replay(f, logName(st.dir, num), func(rec []byte) error {
		last, err := decodeRecordInto(rec, st.mem)
		if err != nil {
			return err
		}
		if last > st.seq {
			st.seq = last
		}
		if st.mem.ApproximateSize() >= st.opt.MemtableSize {
			if err := st.eng.Flush(st.mem.NewIter()); err != nil {
				return err
			}
			st.mem = memtable.New()
		}
		return nil
	})
	if dropped > 0 {
		st.walDrops = append(st.walDrops, walDrop{num: num, bytes: dropped})
	}
	return err
}

// walDrop records one truncated recovery tail for noteOpenSuspicion.
type walDrop struct {
	num   uint64
	bytes int64
}

// flushEngine and workStep are the only ways the running store drives
// its engine's merges: each first pulls the router's current drop
// horizon (see DB.horizon), so no merge ever drops a version a reader
// at the watermark or a pinned snapshot can still see.
func (st *store) flushEngine(it iterator.Iterator) error {
	st.set.SetHorizon(st.db.horizon())
	return st.eng.Flush(it)
}

func (st *store) workStep() (bool, error) {
	st.set.SetHorizon(st.db.horizon())
	return st.eng.WorkStep()
}

// commit resolves op, which the router has already appended to
// pendingQ, through the group-commit queue.  rotated reports that the
// commit rotated the memtable: the caller hands the turn to
// sched.afterCommit once it has ended its allocation.
//
// The writer races for commitMu.  The winner is the leader: it drains
// everything queued so far and commits the whole group.  A loser wakes
// up holding commitMu with its op already resolved — or, if it got the
// lock before any leader served it, becomes the leader itself.  Every
// op is therefore resolved by exactly one leader, with no lost wakeups
// and no condition variable.  The commit.enqueue span and commit.wait
// cover the time an enqueued op waits for the lock.
func (st *store) commit(op *commitOp) (rotated bool, err error) {
	esp := st.tr.Begin("commit.enqueue")
	var qstart time.Duration
	if st.timing {
		qstart = st.clock.Now()
	}
	st.commitMu.Lock()
	esp.End()
	if st.timing {
		st.commitWait.Add(int64(st.clock.Now() - qstart))
	}
	if !op.done {
		st.db.seqr.Mu.Lock()
		group := st.pendingQ
		st.pendingQ = st.spareQ
		st.db.seqr.Mu.Unlock()
		rotated = st.commitGroup(group)
		clear(group) // the spare must not keep a returned seat reachable
		st.spareQ = group[:0]
	}
	st.commitMu.Unlock()
	return rotated, op.err
}

// finishGroup resolves every op in the group.  Caller holds commitMu.
func finishGroup(group []*commitOp, err error) {
	for _, op := range group {
		op.err = err
		op.done = true
	}
}

// commitGroup commits every queued batch as one WAL record: the leader
// encodes each batch at its router-allocated sequence range, appends
// (and, when SyncWrites is on, syncs) once, and applies all memtable
// inserts outside st.mu.  Visibility is the router's: each writer ends
// its allocation after this returns, and the watermark passes a batch
// only once every store it touches has applied it — so a reader can
// never observe part of a batch, and one fsync covers the whole group.
// It reports whether it rotated the memtable.  Caller holds commitMu.
func (st *store) commitGroup(group []*commitOp) (rotated bool) {
	st.mu.Lock()
	if st.queueFullLocked() {
		st.mu.Unlock()
		st.stall(2, st.waitForRoom)
		st.mu.Lock()
	}
	if st.closed {
		st.mu.Unlock()
		finishGroup(group, ErrClosed)
		return false
	}
	if st.readonly {
		// Join keeps both the mode and the cause visible to errors.Is.
		err := errors.Join(ErrReadOnly, st.bgErr)
		st.mu.Unlock()
		finishGroup(group, err)
		return false
	}
	if st.mem.ApproximateSize() >= st.opt.MemtableSize {
		// The last commit filled the memtable while the queue was full:
		// queue it now, so a memtable ends with the commit that filled it
		// however long the drain took.
		if err := st.rotateLocked(); err != nil {
			st.mu.Unlock()
			finishGroup(group, err)
			return false
		}
		rotated = true
	}
	mem, walW := st.mem, st.walW
	// A successful append below heals a previously-latched WAL error
	// (space came back); flush/compaction errors are left for their own
	// retry loops to clear.
	healWal := false
	if be, ok := st.bgErr.(*BackgroundError); ok && (be.Op == "wal" || be.Op == "vlog") {
		healWal = true
	}
	st.mu.Unlock()

	sp := st.tr.Begin("commit.group")
	sp.SetCount(int64(len(group)))

	// Key-value separation: move large values to the value log (synced
	// before the WAL append carrying their pointers) and filter GC
	// rewrites against the committed state.  See valuestore.go.
	var sepExtra int64
	if st.vs != nil {
		var err error
		sepExtra, err = st.vs.separateGroup(group)
		if err != nil {
			sp.End()
			st.noteCommitError("vlog", err)
			finishGroup(group, err)
			return false
		}
	}

	// One record of concatenated batch encodings; recovery decodes
	// them back-to-back (decodeRecordInto).  Every op carries its own
	// (globally allocated, per-store contiguous) start sequence; seq
	// advances to the maximum end, so the store's sequence counter
	// always bounds everything in its WAL.
	buf := st.walBuf[:0]
	seq := st.seq
	for _, op := range group {
		if invariants.Enabled {
			invariants.Assertf(op.base > seq, "commit at seq %d after seq %d: queue order is not sequence order", op.base, seq)
		}
		buf = op.b.appendEncoded(buf, op.base)
		seq = max(seq, op.base+kv.Seq(op.b.Len())-1)
	}
	st.walBuf = buf
	wsp := sp.Child("commit.wal")
	wsp.SetBytes(int64(len(buf)))
	if err := walW.Append(buf); err != nil {
		// The record may be partially durable; the router burns the
		// sequence ranges, so a replay after crash can never collide
		// with a reuse.
		st.seq = seq
		sp.End()
		st.noteCommitError("wal", err)
		finishGroup(group, err)
		return false
	}
	wsp.End()
	if healWal {
		st.noteBgSuccess()
	}

	asp := sp.Child("commit.apply")
	var user, applied int64
	for _, op := range group {
		s := op.base - 1
		for _, bop := range op.b.ops {
			s++
			mem.Add(s, bop.kind, bop.key, bop.val)
			user += int64(len(bop.key) + len(bop.val))
		}
		applied += int64(op.b.Len())
	}
	st.seq = seq
	// sepExtra restores the original value bytes separation replaced
	// with pointers, so user-byte accounting (the write-amplification
	// denominator) stays in terms of what the user logically wrote.
	user += sepExtra
	st.userBytes.Add(user)
	st.putOps.Add(applied)
	asp.SetCount(applied)
	asp.End()

	st.groupSize.Record(time.Duration(len(group)))
	sp.SetBytes(user)
	sp.End()

	var err error
	if mem.ApproximateSize() >= st.opt.MemtableSize {
		st.mu.Lock()
		if st.mem == mem && len(st.imm) < maxImmutable && !st.closed {
			err = st.rotateLocked()
			rotated = rotated || err == nil
		}
		st.mu.Unlock()
	}
	finishGroup(group, err)
	return rotated
}

// throttle applies the engine's write-stall policy in the writer's own
// goroutine, so stall time shows up as write latency — the behaviour
// whose tails Sec. 6.2 measures.  Stalled intervals are measured and
// reported as paired WriteStallBegin/WriteStallEnd events plus the
// cumulative stall counters in Metrics.  The unstalled fast path is one
// StallLevel call: a constant for the trees, a level count under Set.Mu
// for the baselines.
func (st *store) throttle() {
	lvl := st.eng.StallLevel()
	if lvl == 0 {
		return
	}
	// The writer steps compaction itself: a hard stall (2) until no work
	// is left, a slowdown (1) once.  A failed step is noted like a commit
	// fault (counted and reported, no backoff) and ends the writer's share.
	st.stall(lvl, func() {
		for l := lvl; l > 0; l = st.eng.StallLevel() {
			did, err := st.workStep()
			if err != nil {
				st.noteCommitError("compact", err)
			}
			if err != nil || !did || l == 1 {
				break
			}
		}
	})
}

// stall runs wait as one write stall at level lvl: a write.stall span,
// a WriteStallBegin/WriteStallEnd pair and the stall counters.  Both
// stalls a writer can meet go through it: the engine's (throttle) and a
// full immutable queue (commitGroup).
func (st *store) stall(lvl int, wait func()) {
	start := st.clock.Now()
	sp := st.tr.Begin("write.stall")
	sp.SetLevel(lvl)
	st.events.WriteStallBegin(metrics.StallInfo{Level: lvl})
	wait()
	d := st.clock.Now() - start
	st.stallCount.Add(1)
	st.stallNanos.Add(int64(d))
	sp.End()
	st.events.WriteStallEnd(metrics.StallInfo{Level: lvl, Duration: d})
}

// waitForRoom is the stall on a full queue: it drains the oldest
// memtable itself, or waits for the worker draining it, until the queue
// has room or the store stops taking writes.  Caller holds commitMu.
func (st *store) waitForRoom() {
	st.mu.Lock()
	for st.queueFullLocked() {
		st.mu.Unlock()
		ran := st.bg.drainOnCaller()
		st.mu.Lock()
		if !ran && st.queueFullLocked() {
			st.cond.Wait()
		}
	}
	st.mu.Unlock()
}

// rotateLocked queues the full memtable behind the immutable ones and
// opens a fresh WAL.  Caller holds st.mu and has checked the queue has
// room.
func (st *store) rotateLocked() error {
	newNum := st.walNum + 1
	f, err := st.fs.Create(logName(st.dir, newNum))
	if err != nil {
		return err
	}
	// Close the old WAL before swapping state: a failed close may mean
	// lost appends, and the immutable memtable would depend on them for
	// recovery.  On failure, drop the new log and leave state untouched.
	if err := st.walF.Close(); err != nil {
		_ = f.Close()
		_ = st.fs.Remove(logName(st.dir, newNum))
		return err
	}
	oldNum, oldBytes := st.walNum, st.walW.Offset()
	st.walRetired += oldBytes
	st.walRotations.Add(1)
	sp := st.tr.Begin("wal.rotate")
	sp.SetBytes(oldBytes)
	sp.End()
	st.events.WALRotated(metrics.WALRotationInfo{OldNum: oldNum, NewNum: newNum, OldBytes: oldBytes})
	st.imm = append(st.imm, immEntry{mem: st.mem, walNum: st.walNum, lastSeq: st.seq})
	st.mem = memtable.New()
	st.publishStateLocked()
	st.walF = f
	st.walW = wal.NewWriter(f)
	st.walW.SetSync(st.opt.SyncWrites)
	st.walNum = newNum
	st.bg.wake(stepDrain)
	return nil
}

// noteCorruption inspects an error from the read path (or scrub).  If
// it carries corruption provenance the detection is counted, the event
// fired, and — when the damage names a table file — the table is
// quarantined so compaction never rewrites (and thereby launders or
// spreads) the damaged data.  Reads keep being served from quarantined
// tables: intact blocks are still correct, and damaged ones keep
// returning the typed error.
func (st *store) noteCorruption(err error) {
	ce := AsCorruption(err)
	if ce == nil {
		return
	}
	st.corrDetected.Add(1)
	st.events.CorruptionDetected(metrics.CorruptionInfo{
		Path: ce.Path, Layer: ce.Layer, Offset: ce.Offset, Detail: ce.Detail,
	})
	num, ok := tableset.TableFileNum(ce.Path)
	if !ok {
		return
	}
	if st.set.Quarantine(num, ce.Error()) {
		st.corrQuarantined.Add(1)
		st.events.TableQuarantined(metrics.TableInfo{FileNum: num, Level: -1})
	}
}

// noteOpenSuspicion surfaces the damage evidence recovery gathered:
// tables the engine quarantined at load (footer-slot fallback or a
// failed higher-generation candidate — the signature of either a crash
// mid-commit or a rotted footer), WAL and manifest tail bytes dropped
// by strict replay, and unparseable value-log head-tail bytes (a torn
// append and rotted records are physically indistinguishable, so
// dropped bytes must always be visible to the operator).  Runs once
// from openStore, before workers start.
func (st *store) noteOpenSuspicion() {
	for _, qi := range st.set.Quarantined() {
		st.corrDetected.Add(1)
		st.corrQuarantined.Add(1)
		st.events.CorruptionDetected(metrics.CorruptionInfo{
			Path: qi.Path, Layer: corrupt.LayerTableFooter, Offset: -1, Detail: qi.Reason,
		})
		st.events.TableQuarantined(metrics.TableInfo{FileNum: qi.FileNum, Level: qi.Level})
	}
	for _, wd := range st.walDrops {
		st.corrDetected.Add(1)
		st.events.CorruptionDetected(metrics.CorruptionInfo{
			Path: logName(st.dir, wd.num), Layer: corrupt.LayerWAL, Offset: -1,
			Detail: fmt.Sprintf("recovery truncated %d trailing bytes", wd.bytes),
		})
	}
	if n := st.set.RecoveryDropped(); n > 0 {
		st.corrDetected.Add(1)
		st.events.CorruptionDetected(metrics.CorruptionInfo{
			Path: st.dir, Layer: corrupt.LayerManifest, Offset: -1,
			Detail: fmt.Sprintf("manifest replay dropped %d trailing bytes", n),
		})
	}
	if vs := st.vs; vs != nil && vs.openSt.SuspectBytes > 0 {
		st.corrDetected.Add(1)
		st.events.CorruptionDetected(metrics.CorruptionInfo{
			Path:   vs.segmentPath(vs.log.Head()),
			Layer:  corrupt.LayerVLog,
			Offset: vs.openSt.SuspectOffset,
			Detail: fmt.Sprintf("unparseable value-log tail: %d bytes", vs.openSt.SuspectBytes),
		})
	}
}

// noteCommitError latches one failed attempt of op as the store's
// background error: it counts the retry and degrades to read-only once
// more than BgRetryLimit attempts failed in a row, so a full disk stops
// the write path instead of burning sequence ranges forever.  It returns
// the consecutive-failure count, or 0 when the store is closing.
//
// The commit path calls it directly for a log-append failure (op "wal"
// or "vlog"): the failing writer is a foreground goroutine and gets its
// error back immediately, so unlike noteBgError there is no sleep and
// no Resume.
func (st *store) noteCommitError(op string, err error) int {
	if errors.Is(err, vfs.ErrNoSpace) {
		st.bgNoSpace.Add(1)
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return 0
	}
	if st.bgErr == nil {
		st.bgErrSince = int64(st.clock.Now())
	}
	st.bgErr = &BackgroundError{Op: op, Err: err}
	st.bgFails++
	try := st.bgFails
	enteredRO := false
	if !st.readonly && try > st.opt.BgRetryLimit {
		st.readonly = true
		enteredRO = true
	}
	cause := st.bgErr
	st.cond.Broadcast()
	st.mu.Unlock()
	st.events.BackgroundError(metrics.BackgroundErrorInfo{Op: op, Err: err, Retries: try})
	if enteredRO {
		st.events.ReadOnlyEnter(metrics.ReadOnlyInfo{Cause: cause})
	}
	return try
}

// noteBgError records one failed background step (sched.run): it
// latches the error (degrading to read-only after BgRetryLimit
// consecutive failures), asks the engine to Resume (rewrite its manifest
// so half-applied edits are superseded before the retry), and applies
// the backoff policy.  It reports whether the step should run again;
// false means the store is closing or the backoff abandoned the step
// until its next wake.
func (st *store) noteBgError(op string, err error) bool {
	st.noteCorruption(err)
	try := st.noteCommitError(op, err)
	if try == 0 {
		return false
	}
	// Best-effort: a failed Resume is retried with the work itself.
	_ = st.set.Resume()
	if st.opt.BgBackoff != nil {
		return st.opt.BgBackoff(try)
	}
	d := time.Millisecond << uint(min(try, 7))
	select {
	case <-st.db.quit: // Close
		return false
	case <-time.After(d):
		return true
	}
}

// noteBgSuccess clears background-error state after a successful
// attempt, leaving read-only mode with a ReadOnlyExit event that
// carries how long the store was degraded.
func (st *store) noteBgSuccess() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.bgErr == nil && !st.readonly {
		return
	}
	heal := int64(st.clock.Now()) - st.bgErrSince
	if st.readonly {
		// Fired under st.mu and before the flag clears (listeners may run
		// with locks held): no write is accepted before its Exit is seen,
		// so Enter / Exit pair up for a listener that counts them.
		st.events.ReadOnlyExit(metrics.ReadOnlyInfo{Cause: st.bgErr, Duration: time.Duration(heal)})
	}
	st.bgErr, st.readonly, st.bgFails = nil, false, 0
	st.cond.Broadcast()
}

// drainStep flushes the oldest immutable memtable into the engine and
// retires its log, reporting false when the queue is empty.  The log
// number it records is the next queued memtable's WAL, or the live one:
// recovery replays every log from there.  A failure leaves the memtable
// at the head of the queue; when only the log-number record failed, the
// next attempt skips the engine flush.
func (st *store) drainStep() (bool, error) {
	st.mu.Lock()
	if len(st.imm) == 0 {
		st.mu.Unlock()
		return false, nil
	}
	head, nextWal := st.imm[0], st.walNum
	if len(st.imm) > 1 {
		nextWal = st.imm[1].walNum
	}
	st.mu.Unlock()
	if !st.immFlushed {
		if err := st.flushEngine(head.mem.NewIter()); err != nil {
			return false, err
		}
		st.immFlushed = true
	}
	if err := st.set.SetLogMeta(head.lastSeq, nextWal); err != nil {
		return false, err
	}
	st.immFlushed = false
	// The flushed log is re-deleted on next recovery if this best-effort
	// removal fails.  It goes before the head leaves the queue: whoever
	// waits for an empty queue (a checkpoint, holding commitMu) may then
	// take the directory listing as final.
	_ = st.fs.Remove(logName(st.dir, head.walNum))
	st.mu.Lock()
	st.imm = slices.Delete(st.imm, 0, 1)
	st.publishStateLocked()
	st.cond.Broadcast()
	st.mu.Unlock()
	st.bg.wake(stepCompact)
	return true, nil
}

// resume is one store's share of DB.Resume.
func (st *store) resume() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	st.mu.Unlock()
	if err := st.set.Resume(); err != nil {
		return err
	}
	st.noteBgSuccess()
	for k := range numSteps {
		st.bg.wake(k)
	}
	return nil
}

// getAt finds the newest version of key at or below snap in the
// store's current read view.  The caller must have loaded snap before
// this loads the state pointer (see DB.getInto).  The returned value
// aliases internal storage; a KindValuePtr result is the raw pointer
// encoding.
func (st *store) getAt(key []byte, snap kv.Seq) ([]byte, kv.Kind, error) {
	view := st.state.Load()
	if v, kind, _, found := view.mem.Get(key, snap); found {
		return v, kind, nil
	}
	for _, imm := range view.imm {
		if v, kind, _, found := imm.Get(key, snap); found {
			return v, kind, nil
		}
	}
	v, kind, _, found, err := st.set.Get(key, snap)
	if err != nil {
		st.noteCorruption(err)
		return nil, 0, err
	}
	if !found {
		return nil, 0, ErrNotFound
	}
	return v, kind, nil
}

func finishGet(v []byte, kind kv.Kind) ([]byte, error) {
	if kind == kv.KindDelete {
		return nil, ErrNotFound
	}
	return append([]byte(nil), v...), nil
}

// newIter merges the store's current read view — every memtable and
// the engine's tables, captured (and referenced) now — into one
// iterator over internal keys.
func (st *store) newIter() iterator.ReverseIterator {
	view := st.state.Load()
	kids := make([]iterator.Iterator, 0, len(view.imm)+2)
	kids = append(kids, view.mem.NewIter())
	for _, imm := range view.imm {
		kids = append(kids, imm.NewIter())
	}
	kids = append(kids, st.set.NewIter())
	return iterator.NewMerging(kv.CompareInternal, kids...)
}

// close stops the store's workers and releases its files.
func (st *store) close() error {
	st.mu.Lock()
	st.closed = true
	st.cond.Broadcast()
	st.mu.Unlock()
	st.bg.stop()
	st.wg.Wait()
	// Barrier: wait out any in-flight commit leader so the WAL writer
	// is idle before closing it.  Leaders that acquire commitMu later
	// observe closed under st.mu and never touch the WAL.
	st.commitMu.Lock()
	st.commitMu.Unlock()
	err := errors.Join(st.walF.Close(), st.set.Close())
	if st.vs != nil {
		err = errors.Join(err, st.vs.log.Close())
	}
	return err
}

// compactAll is one store's share of DB.CompactAll.
func (st *store) compactAll() error {
	if err := st.flush(); err != nil {
		return err
	}
	return st.eng.Settle()
}

// mixedLevel is reporting only: the trees' current (m, k), zero for the
// baselines.
func (st *store) mixedLevel() (m, k int) {
	if tr, ok := st.eng.(*core.Tree); ok {
		return tr.MixedLevel()
	}
	return 0, 0
}

// flush is one store's share of DB.Flush.
func (st *store) flush() error {
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	return st.flushLocked()
}

// flushLocked empties every memtable into the engine.  Caller holds
// commitMu, so no commit can refill them before it lets go.
func (st *store) flushLocked() error {
	// Drain the queued memtables (e.g. left by an earlier failed Flush)
	// first, or wait for the workers draining them.
	st.bg.drainOnCaller()
	st.mu.Lock()
	for len(st.imm) > 0 && !st.closed && !st.readonly {
		st.cond.Wait()
	}
	if st.closed {
		st.mu.Unlock()
		return ErrClosed
	}
	if st.readonly {
		err := errors.Join(ErrReadOnly, st.bgErr)
		st.mu.Unlock()
		return err
	}
	if st.mem.Count() == 0 {
		st.mu.Unlock()
		return nil
	}
	// Move the memtable through the same queue as automatic flushes: a
	// failed engine flush then keeps the data readable (and retried) in
	// the queue instead of dropping acknowledged writes on the floor.
	err := st.rotateLocked()
	st.mu.Unlock()
	if err != nil {
		// The memtable is still in place; count the failure like any
		// other commit-path fault so a full disk degrades the store
		// instead of failing opaquely forever.
		st.noteCommitError("wal", err)
		return err
	}
	st.bg.drainOnCaller()
	st.mu.Lock()
	for len(st.imm) > 0 && !st.closed && !st.readonly && st.bgErr == nil {
		st.cond.Wait()
	}
	switch {
	case len(st.imm) == 0:
		err = nil
	case st.readonly:
		err = errors.Join(ErrReadOnly, st.bgErr)
	case st.bgErr != nil:
		// The drain failed; it is retried, the data safe in the queue.
		err = st.bgErr
	default:
		err = ErrClosed
	}
	st.mu.Unlock()
	return err
}
