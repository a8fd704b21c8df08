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
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/pprof"
	"sort"
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
	"iamdb/internal/kv"
	"iamdb/internal/lsm"
	"iamdb/internal/memtable"
	"iamdb/internal/metrics"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
	"iamdb/internal/wal"
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
	// Op names the failed operation ("flush" or "compact").
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
type DB struct {
	opt    Options
	dir    string
	fs     vfs.FS
	cache  *cache.Cache
	eng    engine.Engine
	events *EventListener
	clock  Clock
	// settle and mixedLevel are the two engine-specific calls the DB
	// layer makes, bound in openEngine where the concrete type is known:
	// the baselines' DrainCompactions (nil for the trees, which settle
	// inside Flush) and the trees' MixedLevel (nil for the baselines).
	settle     func() error
	mixedLevel func() (m, k int)
	// timing enables the per-operation latency histograms.  It is set
	// when the caller attached a listener or injected a clock — i.e.
	// opted into observability — so the default configuration skips the
	// two clock reads per operation.
	timing bool

	// reg names every DB-owned instrument; the hot paths hold direct
	// pointers below so no map lookup happens per operation.
	reg          *metrics.Registry
	io           *vfs.IOStats
	putHist      *histogram.Concurrent
	getHist      *histogram.Concurrent
	scanHist     *histogram.Concurrent
	stallCount   *metrics.Counter
	stallNanos   *metrics.Counter
	walRotations *metrics.Counter

	// Commit pipeline (leader/follower group commit).  Writers enqueue
	// a commitOp under qmu and then race for commitMu; the winner
	// becomes leader, drains the whole queue and commits it as one WAL
	// record.  Everyone else finds its op already resolved when it gets
	// the lock.  Lock order is commitMu before db.mu, never the
	// reverse.  The declared hierarchy below is checked statically by
	// iamlint's lockorder pass against the inferred acquisition graph.
	//
	// With Options.InlineBackground the leader also runs the flush and
	// compaction pipeline while holding commitMu, so the engine locks
	// (and through them the trace recorder and vfs locks) nest under it.
	//
	//iamlint:lockorder commitMu < qmu; commitMu < iamdb.DB.mu; iamdb.DB.mu < vfs.*; commitMu < trace.Recorder.mu; iamdb.DB.mu < trace.Recorder.mu; commitMu < tableset.Set.Mu; commitMu < vlog.Log.mu; commitMu < vlog.Log.statsMu; qmu leaf
	qmu      sync.Mutex
	pendingQ []*commitOp
	commitMu sync.Mutex
	// seq is the last assigned sequence number, owned by whoever holds
	// commitMu (and by Open before any writer exists).  In a shard
	// child it trails the router's global sequencer: writeAt carries
	// pre-allocated ranges and seq tracks their maximum end.
	seq kv.Seq
	// walBuf is the leader's scratch encoding buffer (commitMu), and
	// baseBuf its per-op start-sequence scratch.
	walBuf  []byte
	baseBuf []kv.Seq

	// shards, when non-nil, makes this DB a range-sharded router: the
	// public API fans out to the independent child DBs it holds and
	// the single-tree fields (eng, mem, walW, ...) stay nil.  See
	// sharded.go.
	shards *shardSet

	// Lock-free read snapshot: readers load seqA and then state, with
	// no mutex.  seqA is the last *published* sequence — stored only
	// after every memtable insert of that group landed — and state is
	// re-published on every memtable swap, so the pair always describes
	// a consistent, torn-batch-free view.
	seqA    atomic.Uint64
	state   atomic.Pointer[dbState]
	closedA atomic.Bool

	userBytes atomic.Int64 // total key+value bytes written
	putOps    atomic.Int64 // records committed (sequence numbers consumed)
	getOps    atomic.Int64 // point lookups served

	// Introspection (see debug.go): tr records structural spans (nil =
	// disabled, zero-cost), samplerA holds the active timeline sampler,
	// and the debug server exposes both over HTTP when
	// Options.DebugAddr is set.  labelCommit, when non-nil, is the
	// pprof label set the commit leader wears; it stays nil unless the
	// debug server is on so the default commit path pays nothing.
	tr          *trace.Recorder
	samplerA    atomic.Pointer[metrics.Sampler]
	debugLn     net.Listener
	debugSrv    *http.Server
	labelCommit context.Context

	commitGroups  *metrics.Counter
	commitBatches *metrics.Counter
	commitWait    *metrics.Counter
	groupSize     *histogram.Concurrent

	mu         sync.Mutex
	cond       *sync.Cond
	mem        *memtable.MemTable
	imm        *memtable.MemTable
	immWalNum  uint64
	immLastSeq kv.Seq
	walW       *wal.Writer
	walF       vfs.File
	walNum     uint64
	walRetired int64 // bytes in WAL files already rotated out
	closed     bool
	bgErr      error // last background failure (*BackgroundError), nil when healthy
	readonly   bool  // degraded: writes rejected until a retry succeeds
	bgFails    int   // consecutive background failures
	bgErrSince int64 // clock nanos when bgErr was first latched

	snapMu sync.Mutex
	snaps  map[kv.Seq]int

	bgRetries   *metrics.Counter
	bgReadonly  *metrics.Counter
	bgHealNanos *metrics.Counter
	bgNoSpace   *metrics.Counter

	// Latent-fault accounting (see DESIGN.md "Latent-fault model").
	corrDetected    *metrics.Counter
	corrQuarantined *metrics.Counter
	scrubBlocksC    *metrics.Counter

	// Key-value separation (see vlogdb.go and DESIGN.md "Key-value
	// separation").  vl is nil when the store has no value log; it is
	// set once during open, before any worker or user operation runs.
	// routerWrite, set on a shard child by the sharded router, commits
	// GC rewrite batches through the router so they take globally
	// allocated sequences.  iterOpen counts open iterators (every shard
	// of a sharded view counts its own) and gates deferred segment
	// deletion; vlogPendMu is a leaf lock guarding that queue.
	vl          *vlog.Log
	vlogOpenSt  vlog.OpenStats
	vlogGCC     chan struct{}
	routerWrite func(*Batch) error
	iterOpen    atomic.Int64
	vlogPendMu  sync.Mutex
	vlogPend    []uint64

	vlogAppendsC   *metrics.Counter
	vlogResolvesC  *metrics.Counter
	vlogGCRewrites *metrics.Counter
	vlogGCSegments *metrics.Counter

	// walDrops records WAL tails truncated during recovery, reported as
	// detections by noteOpenSuspicion: a torn tail after a crash and a
	// rotted final record are physically indistinguishable, so recovery
	// that drops bytes must always be visible to the operator.
	walDrops []walDrop

	// scrub holds the state of the current / most recent Scrub pass
	// (see scrub.go).  scrub.mu is a leaf lock: nothing else is
	// acquired while it is held.
	scrub struct {
		mu      sync.Mutex
		running bool
		last    *ScrubReport
		lastErr error
		tables  atomic.Int64
		blocks  atomic.Int64
		bytes   atomic.Int64
	}

	flushC   chan struct{}
	compactC chan struct{}
	quit     chan struct{}
	wg       sync.WaitGroup
}

// dbState is the immutable read view published through DB.state after
// every memtable swap.  A reader that loads seqA and then state gets a
// state that is current or newer than that sequence, and since records
// only ever move down the hierarchy (mem → imm → engine) the view
// contains every record at or below the loaded sequence.
type dbState struct {
	mem *memtable.MemTable
	imm *memtable.MemTable
}

// publishStateLocked re-publishes the (mem, imm) pair.  Caller holds
// db.mu, which serializes all memtable swaps.
func (db *DB) publishStateLocked() {
	db.state.Store(&dbState{mem: db.mem, imm: db.imm})
}

// commitOp is one writer's seat in the commit queue.  done and err are
// written by the leader while it holds commitMu and read by the owner
// only after it acquires commitMu itself, so the mutex orders them.
// base, when nonzero, is the first sequence number of a range the
// sharded router pre-allocated for this batch; zero lets the leader
// assign the next local sequence range.
type commitOp struct {
	b    *Batch
	base kv.Seq
	err  error
	done bool
}

// Open opens (creating as needed) a database in dir.  A nil opt uses
// defaults (IAM engine, OS filesystem).  With Options.Shards > 1 — or
// when dir carries a SHARDS marker from an earlier sharded open — the
// returned DB is a range-sharded router over independent per-shard
// stores (see sharded.go).
func Open(dir string, opt *Options) (*DB, error) {
	var o Options
	if opt != nil {
		o = *opt
	}
	o = o.withDefaults()
	// The shard-000 probe catches a sharded directory whose SHARDS
	// marker is gone (torn checkpoint, lost file): openSharded turns it
	// into a typed corruption error instead of silently opening an
	// empty single-tree store next to the shard data.
	if o.Shards > 1 || o.FS.Exists(dir+"/"+shardsFileName) ||
		o.FS.Exists(shardDirName(dir, 0)+"/MANIFEST") {
		return openSharded(dir, o)
	}
	return openSingle(dir, o)
}

// openSingle opens one classic single-tree store — standalone, or one
// shard of a sharded DB (o then carries the shared StatsFS, Clock,
// EventListener and TraceRecorder so observability stays coherent).
// o must already have defaults applied.
func openSingle(dir string, o Options) (*DB, error) {
	// Every DB measures device IO.  Reuse the caller's StatsFS counters
	// when one is supplied (the bench harness does) so traffic is not
	// double-counted; otherwise wrap the filesystem ourselves.
	var io *vfs.IOStats
	if sfs, ok := o.FS.(*vfs.StatsFS); ok {
		io = sfs.Stats()
	} else {
		io = &vfs.IOStats{}
		o.FS = vfs.NewStatsFS(o.FS, io)
	}
	db := &DB{
		opt: o, dir: dir, fs: o.FS,
		cache:  cache.New(o.CacheSize),
		events: o.EventListener.EnsureDefaults(),
		clock:  o.Clock,
		timing: o.EventListener != nil || o.Clock != nil,
		reg:    metrics.NewRegistry(),
		io:     io,
		tr:     o.Trace,
		mem:    memtable.New(),
		snaps:  make(map[kv.Seq]int),
		flushC: make(chan struct{}, 1), compactC: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
	if db.clock == nil {
		db.clock = newWallClock()
	}
	db.putHist = db.reg.Histogram("latency.put")
	db.getHist = db.reg.Histogram("latency.get")
	db.scanHist = db.reg.Histogram("latency.scan")
	db.stallCount = db.reg.Counter("stall.count")
	db.stallNanos = db.reg.Counter("stall.nanos")
	db.walRotations = db.reg.Counter("wal.rotations")
	db.bgRetries = db.reg.Counter("bg.retries")
	db.bgReadonly = db.reg.Counter("bg.readonly")
	db.bgHealNanos = db.reg.Counter("bg.heal.nanos")
	db.bgNoSpace = db.reg.Counter("bg.nospace")
	db.corrDetected = db.reg.Counter("corruption.detected")
	db.corrQuarantined = db.reg.Counter("corruption.quarantined")
	db.scrubBlocksC = db.reg.Counter("scrub.blocks")
	db.commitGroups = db.reg.Counter("commit.groups")
	db.commitBatches = db.reg.Counter("commit.batches")
	db.commitWait = db.reg.Counter("commit.wait.nanos")
	db.groupSize = db.reg.Histogram("commit.group.size")
	db.vlogAppendsC = db.reg.Counter("vlog.appends")
	db.vlogResolvesC = db.reg.Counter("vlog.resolves")
	db.vlogGCRewrites = db.reg.Counter("vlog.gc.rewrites")
	db.vlogGCSegments = db.reg.Counter("vlog.gc.segments")
	db.vlogGCC = make(chan struct{}, 1)
	db.cond = sync.NewCond(&db.mu)
	if err := db.fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	if err := db.openEngine(); err != nil {
		return nil, err
	}
	if err := db.recover(); err != nil {
		db.eng.Close()
		return nil, err
	}
	if err := db.openVLog(); err != nil {
		_ = db.walF.Close()
		db.eng.Close()
		return nil, err
	}
	db.noteOpenSuspicion()
	db.noteVlogOpenSuspicion()
	db.seqA.Store(uint64(db.seq))
	db.mu.Lock()
	db.publishStateLocked()
	db.mu.Unlock()
	if !o.InlineBackground {
		db.wg.Add(1)
		go db.flushWorker()
		for i := 0; i < db.opt.CompactionThreads; i++ {
			db.wg.Add(1)
			go db.compactWorker()
		}
	}
	if !o.shardChild {
		// A shard child's collector is started by the router, after
		// routerWrite is wired (rewrites must take global sequences).
		db.startVlogGC()
	}
	if o.DebugAddr != "" {
		if err := db.startDebugServer(o.DebugAddr); err != nil {
			_ = db.Close()
			return nil, err
		}
	}
	return db, nil
}

func (db *DB) openEngine() error {
	switch db.opt.Engine {
	case IAM, LSA:
		policy := core.IAM
		if db.opt.Engine == LSA {
			policy = core.LSA
		}
		budget := db.opt.MemBudget
		if db.opt.Engine == LSA {
			budget = 0 // LSA ignores the budget (appends everywhere)
		}
		tr, err := core.Open(core.Config{
			FS: db.fs, Dir: db.dir, Cache: db.cache,
			NodeCapacity: db.opt.MemtableSize, Fanout: db.opt.Fanout,
			Policy: policy, K: db.opt.K, MemBudget: budget,
			FixedM: db.opt.FixedM, BitsPerKey: db.opt.BitsPerKey,
			Compression: db.opt.Compression, OnDrop: db.vlogOnDrop,
			Events: db.events, Clock: db.clock, Trace: db.tr,
		})
		if err != nil {
			return err
		}
		db.eng, db.mixedLevel = tr, tr.MixedLevel
	case LevelDB, RocksDB:
		profile := lsm.ProfileLevelDB
		if db.opt.Engine == RocksDB {
			profile = lsm.ProfileRocksDB
		}
		d, err := lsm.Open(lsm.Config{
			FS: db.fs, Dir: db.dir, Cache: db.cache,
			FileSize: db.opt.FileSize, LevelSizeBase: db.opt.LevelSizeBase,
			Fanout: db.opt.Fanout, L0CompactTrigger: db.opt.L0CompactTrigger,
			Profile: profile, BitsPerKey: db.opt.BitsPerKey,
			Compression: db.opt.Compression, OnDrop: db.vlogOnDrop,
			Events: db.events, Clock: db.clock, Trace: db.tr,
		})
		if err != nil {
			return err
		}
		db.eng, db.settle = d, d.DrainCompactions
	default:
		return fmt.Errorf("iamdb: unknown engine %v", db.opt.Engine)
	}
	return nil
}

func logName(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.log", dir, num)
}

// recover replays WAL files at or after the engine's recorded log
// number, then starts a fresh log.
func (db *DB) recover() error {
	lastSeq, logNum := db.eng.LogMeta()
	db.seq = lastSeq

	names, err := db.fs.List(db.dir)
	if err != nil {
		return err
	}
	var logs []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".log") {
			n, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64)
			if err == nil {
				logs = append(logs, n)
			}
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	maxLog := logNum
	for _, num := range logs {
		if num < logNum {
			_ = db.fs.Remove(logName(db.dir, num)) // already flushed; best-effort cleanup
			continue
		}
		if num > maxLog {
			maxLog = num
		}
		if err := db.replayLog(num); err != nil {
			return err
		}
	}
	// Flush everything recovered so the replayed logs can be dropped.
	if db.mem.Count() > 0 {
		if err := db.eng.Flush(db.mem.NewIter()); err != nil {
			return err
		}
		db.mem = memtable.New()
	}
	db.walNum = maxLog + 1
	if err := db.eng.SetLogMeta(db.seq, db.walNum); err != nil {
		return err
	}
	for _, num := range logs {
		// Obsolete after the flush above; a leftover log is re-deleted on
		// the next recovery, so failure here is not fatal.
		_ = db.fs.Remove(logName(db.dir, num))
	}
	f, err := db.fs.Create(logName(db.dir, db.walNum))
	if err != nil {
		return err
	}
	db.walF = f
	db.walW = wal.NewWriter(f)
	db.walW.SetSync(db.opt.SyncWrites)
	return nil
}

func (db *DB) replayLog(num uint64) error {
	f, err := db.fs.Open(logName(db.dir, num))
	if err != nil {
		return err
	}
	defer f.Close()
	// Strict replay: a torn tail (crash mid-append) is tolerated and
	// truncated, but a damaged record with valid data after it is
	// corruption of already-acknowledged writes — it aborts the open
	// with a typed error instead of silently dropping the suffix.
	dropped, err := wal.ReplayAllStrict(f, logName(db.dir, num), func(rec []byte) error {
		last, err := decodeRecordInto(rec, db.mem)
		if err != nil {
			return err
		}
		if last > db.seq {
			db.seq = last
		}
		if db.mem.ApproximateSize() >= db.opt.MemtableSize {
			if err := db.eng.Flush(db.mem.NewIter()); err != nil {
				return err
			}
			db.mem = memtable.New()
		}
		return nil
	})
	if dropped > 0 {
		db.walDrops = append(db.walDrops, walDrop{num: num, bytes: dropped})
	}
	return err
}

// walDrop records one truncated recovery tail for noteOpenSuspicion.
type walDrop struct {
	num   uint64
	bytes int64
}

// Put stores a key/value pair.
func (db *DB) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return db.Write(&b)
}

// Delete removes a key.
func (db *DB) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return db.Write(&b)
}

// Write applies a batch atomically: one WAL record, consecutive
// sequence numbers, all-or-nothing visibility.  On a sharded DB the
// batch is split by key range and committed under one global sequence
// allocation, so readers still never observe part of it.
func (db *DB) Write(b *Batch) error {
	if b.Len() == 0 {
		return nil
	}
	if !db.timing {
		return db.writeTop(b)
	}
	start := db.clock.Now()
	err := db.writeTop(b)
	db.putHist.Record(db.clock.Now() - start)
	return err
}

// writeTop routes a batch to the sharded router or the local pipeline.
func (db *DB) writeTop(b *Batch) error {
	if db.shards != nil {
		return db.shards.write(b)
	}
	return db.write(b, 0)
}

// writeAt is the shard child's commit entry point: the batch joins the
// child's group-commit queue carrying the router-allocated sequence
// range starting at base.
func (db *DB) writeAt(b *Batch, base kv.Seq) error {
	return db.write(b, base)
}

// write is Write's body; the wrapper measures commit latency (stall
// and queue time included — the tails Sec. 6.2 measures).
//
// The writer enqueues its batch and then races for commitMu.  The
// winner is the leader: it drains everything queued so far and commits
// the whole group.  A loser wakes up holding commitMu with its op
// already resolved — or, if it got the lock before any leader served
// it, becomes the leader itself.  Every op is therefore resolved by
// exactly one leader, with no lost wakeups and no condition variable.
func (db *DB) write(b *Batch, base kv.Seq) error {
	db.throttle()

	esp := db.tr.Begin("commit.enqueue")
	op := &commitOp{b: b, base: base}
	db.qmu.Lock()
	db.pendingQ = append(db.pendingQ, op)
	db.qmu.Unlock()

	var qstart time.Duration
	if db.timing {
		qstart = db.clock.Now()
	}
	db.commitMu.Lock()
	esp.End()
	if db.timing {
		db.commitWait.Add(int64(db.clock.Now() - qstart))
	}
	if !op.done {
		db.qmu.Lock()
		group := db.pendingQ
		db.pendingQ = nil
		db.qmu.Unlock()
		db.commitGroup(group)
	}
	db.commitMu.Unlock()
	return op.err
}

// finishGroup resolves every op in the group.  Caller holds commitMu.
func finishGroup(group []*commitOp, err error) {
	for _, op := range group {
		op.err = err
		op.done = true
	}
}

// commitGroup commits every queued batch as one WAL record: the leader
// assigns consecutive sequence ranges across the group, appends (and,
// when SyncWrites is on, syncs) once, applies all memtable inserts
// outside db.mu, and only then publishes the new visible sequence —
// so a reader can never observe part of a batch, and one fsync covers
// the whole group.  Caller holds commitMu.
func (db *DB) commitGroup(group []*commitOp) {
	db.mu.Lock()
	for !db.closed && !db.readonly && db.imm != nil &&
		db.mem.ApproximateSize() >= db.opt.MemtableSize {
		db.cond.Wait() // both memtables full: wait for the flusher
	}
	if db.closed {
		db.mu.Unlock()
		finishGroup(group, ErrClosed)
		return
	}
	if db.readonly {
		// Join keeps both the mode and the cause visible to errors.Is.
		err := errors.Join(ErrReadOnly, db.bgErr)
		db.mu.Unlock()
		finishGroup(group, err)
		return
	}
	mem, walW := db.mem, db.walW
	// A successful append below heals a previously-latched WAL error
	// (space came back); flush/compaction errors are left for their own
	// retry loops to clear.
	healWal := false
	if be, ok := db.bgErr.(*BackgroundError); ok && (be.Op == "wal" || be.Op == "vlog") {
		healWal = true
	}
	db.mu.Unlock()

	if ctx := db.labelCommit; ctx != nil {
		pprof.SetGoroutineLabels(ctx)
		defer pprof.SetGoroutineLabels(context.Background())
	}
	sp := db.tr.Begin("commit.group")
	sp.SetCount(int64(len(group)))

	// Key-value separation: move large values to the value log (synced
	// before the WAL append carrying their pointers) and filter GC
	// rewrites against the committed state.  See vlogdb.go.
	var sepExtra int64
	if db.vl != nil {
		var err error
		sepExtra, err = db.separateGroup(group)
		if err != nil {
			sp.End()
			db.noteCommitError("vlog", err)
			finishGroup(group, err)
			return
		}
	}

	// One record of concatenated batch encodings; recovery decodes
	// them back-to-back (decodeRecordInto).  Router-assigned ops carry
	// their own (globally allocated, per-shard contiguous) start
	// sequence; local ops take the next local range.  seq advances to
	// the maximum end either way, so a shard's sequence counter always
	// bounds everything in its WAL.
	buf := db.walBuf[:0]
	bases := db.baseBuf[:0]
	seq := db.seq
	for _, op := range group {
		start := op.base
		if start == 0 {
			start = seq + 1
		}
		bases = append(bases, start)
		buf = op.b.appendEncoded(buf, start)
		if end := start + kv.Seq(op.b.Len()) - 1; end > seq {
			seq = end
		}
	}
	db.walBuf = buf
	db.baseBuf = bases
	wsp := sp.Child("commit.wal")
	wsp.SetBytes(int64(len(buf)))
	if err := walW.Append(buf); err != nil {
		// The record may be partially durable; burn the sequence range
		// so a replay after crash can never collide with a reuse.
		db.seq = seq
		sp.End()
		db.noteCommitError("wal", err)
		finishGroup(group, err)
		return
	}
	wsp.End()
	if healWal {
		db.noteBgSuccess()
	}

	asp := sp.Child("commit.apply")
	var user, applied int64
	for gi, op := range group {
		s := bases[gi] - 1
		for _, bop := range op.b.ops {
			s++
			mem.Add(s, bop.kind, bop.key, bop.val)
			user += int64(len(bop.key) + len(bop.val))
		}
		applied += int64(op.b.Len())
	}
	db.seq = seq
	// sepExtra restores the original value bytes separation replaced
	// with pointers, so user-byte accounting (the write-amplification
	// denominator) stays in terms of what the user logically wrote.
	user += sepExtra
	db.userBytes.Add(user)
	db.putOps.Add(applied)
	// Publish: every record at or below seq committed by THIS pipeline
	// is inserted, so local readers may now see the whole group.  seq
	// never decreases (it starts at the previous db.seq), so the store
	// is monotone.  (A sharded router ignores per-child seqA and gates
	// visibility on the global sequencer's watermark instead, which
	// only advances once the whole allocation prefix has committed.)
	db.seqA.Store(uint64(seq))
	asp.SetCount(applied)
	asp.End()

	db.commitGroups.Inc()
	db.commitBatches.Add(int64(len(group)))
	db.groupSize.Record(time.Duration(len(group)))
	sp.SetBytes(user)
	sp.End()

	var err error
	if mem.ApproximateSize() >= db.opt.MemtableSize {
		db.mu.Lock()
		if db.mem == mem && db.imm == nil && !db.closed {
			err = db.rotateLocked()
		}
		db.mu.Unlock()
		if err == nil && db.opt.InlineBackground {
			db.inlineBG()
		}
	}
	finishGroup(group, err)
}

// inlineBG runs the background pipeline synchronously on the commit
// leader (Options.InlineBackground): drain the immutable memtable just
// rotated out, then run compaction steps until the engine is settled.
// Caller holds commitMu, so the engine locks nest under it — the
// declared lock order covers this nesting.
func (db *DB) inlineBG() {
	db.drainImm()
	for {
		did, err := db.eng.WorkStep()
		if err != nil {
			if !db.noteBgError("compact", err) {
				return
			}
			continue
		}
		if !did {
			return
		}
		db.noteBgSuccess()
	}
}

// throttle applies the engine's write-stall policy in the writer's own
// goroutine, so stall time shows up as write latency — the behaviour
// whose tails Sec. 6.2 measures.  Stalled intervals are measured and
// reported as paired WriteStallBegin/WriteStallEnd events plus the
// cumulative stall counters in Metrics; the unstalled fast path reads
// one atomic and returns.
func (db *DB) throttle() {
	lvl := db.eng.StallLevel()
	if lvl == 0 {
		return
	}
	start := db.clock.Now()
	sp := db.tr.Begin("write.stall")
	sp.SetLevel(lvl)
	db.events.WriteStallBegin(metrics.StallInfo{Level: lvl})
	db.stallWork(lvl)
	d := db.clock.Now() - start
	db.stallCount.Inc()
	db.stallNanos.Add(int64(d))
	sp.End()
	db.events.WriteStallEnd(metrics.StallInfo{Level: lvl, Duration: d})
}

// stallWork runs compaction steps in the stalled writer's goroutine
// until the stall clears: a hard stall (2) works until no work is
// left, a slowdown (1) contributes one step.
func (db *DB) stallWork(lvl int) {
	for {
		switch lvl {
		case 2:
			if did, _ := db.eng.WorkStep(); !did {
				return
			}
		case 1:
			db.eng.WorkStep()
			return
		default:
			return
		}
		lvl = db.eng.StallLevel()
	}
}

// rotateLocked swaps the full memtable to the immutable slot and opens
// a fresh WAL.  Caller holds db.mu.
func (db *DB) rotateLocked() error {
	newNum := db.walNum + 1
	f, err := db.fs.Create(logName(db.dir, newNum))
	if err != nil {
		return err
	}
	// Close the old WAL before swapping state: a failed close may mean
	// lost appends, and the immutable memtable would depend on them for
	// recovery.  On failure, drop the new log and leave state untouched.
	if err := db.walF.Close(); err != nil {
		_ = f.Close()
		_ = db.fs.Remove(logName(db.dir, newNum))
		return err
	}
	oldNum, oldBytes := db.walNum, db.walW.Offset()
	db.walRetired += oldBytes
	db.walRotations.Inc()
	sp := db.tr.Begin("wal.rotate")
	sp.SetBytes(oldBytes)
	sp.End()
	db.events.WALRotated(metrics.WALRotationInfo{OldNum: oldNum, NewNum: newNum, OldBytes: oldBytes})
	db.imm = db.mem
	db.immWalNum = db.walNum
	db.immLastSeq = db.seq
	db.mem = memtable.New()
	db.publishStateLocked()
	db.walF = f
	db.walW = wal.NewWriter(f)
	db.walW.SetSync(db.opt.SyncWrites)
	db.walNum = newNum
	select {
	case db.flushC <- struct{}{}:
	default:
	}
	return nil
}

// fileNumFromPath recovers the table file number from a path like
// "dir/000123.mst", so a corruption error's provenance can be mapped
// back to the engine's quarantine list.
func fileNumFromPath(path string) (uint64, bool) {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	base, ok := strings.CutSuffix(path, ".mst")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// noteCorruption inspects an error from the read path (or scrub).  If
// it carries corruption provenance the detection is counted, the event
// fired, and — when the damage names a table file — the table is
// quarantined so compaction never rewrites (and thereby launders or
// spreads) the damaged data.  Reads keep being served from quarantined
// tables: intact blocks are still correct, and damaged ones keep
// returning the typed error.
func (db *DB) noteCorruption(err error) {
	ce := AsCorruption(err)
	if ce == nil {
		return
	}
	db.corrDetected.Inc()
	db.events.CorruptionDetected(metrics.CorruptionInfo{
		Path: ce.Path, Layer: ce.Layer, Offset: ce.Offset, Detail: ce.Detail,
	})
	num, ok := fileNumFromPath(ce.Path)
	if !ok {
		return
	}
	if db.eng.Quarantine(num, ce.Error()) {
		db.corrQuarantined.Inc()
		db.events.TableQuarantined(metrics.TableInfo{FileNum: num, Level: -1})
	}
}

// noteOpenSuspicion surfaces the damage evidence recovery gathered:
// tables the engine quarantined at load (footer-slot fallback or a
// failed higher-generation candidate — the signature of either a crash
// mid-commit or a rotted footer) and manifest tail bytes dropped by
// strict replay.  Runs once from Open, before workers start.
func (db *DB) noteOpenSuspicion() {
	for _, qi := range db.eng.Quarantined() {
		db.corrDetected.Inc()
		db.corrQuarantined.Inc()
		db.events.CorruptionDetected(metrics.CorruptionInfo{
			Path: qi.Path, Layer: corrupt.LayerTableFooter, Offset: -1, Detail: qi.Reason,
		})
		db.events.TableQuarantined(metrics.TableInfo{FileNum: qi.FileNum, Level: qi.Level})
	}
	for _, wd := range db.walDrops {
		db.corrDetected.Inc()
		db.events.CorruptionDetected(metrics.CorruptionInfo{
			Path: logName(db.dir, wd.num), Layer: corrupt.LayerWAL, Offset: -1,
			Detail: fmt.Sprintf("recovery truncated %d trailing bytes", wd.bytes),
		})
	}
	if n := db.eng.RecoveryDropped(); n > 0 {
		db.corrDetected.Inc()
		db.events.CorruptionDetected(metrics.CorruptionInfo{
			Path: db.dir, Layer: corrupt.LayerManifest, Offset: -1,
			Detail: fmt.Sprintf("manifest replay dropped %d trailing bytes", n),
		})
	}
}

// noteCommitError latches a log-append failure from the commit path
// (op "wal" or "vlog") as a background error.  Unlike noteBgError it
// never sleeps and never calls Resume — the failing writer is a
// foreground goroutine and gets its error back immediately — but the
// same consecutive-failure counting degrades the DB to read-only once
// the limit is exceeded, so a full disk stops the write path instead
// of burning sequence ranges forever.
func (db *DB) noteCommitError(op string, err error) {
	if errors.Is(err, vfs.ErrNoSpace) {
		db.bgNoSpace.Inc()
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return
	}
	if db.bgErr == nil {
		db.bgErrSince = int64(db.clock.Now())
	}
	db.bgErr = &BackgroundError{Op: op, Err: err}
	db.bgFails++
	try := db.bgFails
	db.bgRetries.Inc()
	enteredRO := false
	if !db.readonly && try > db.opt.BgRetryLimit {
		db.readonly = true
		enteredRO = true
		db.bgReadonly.Inc()
	}
	cause := db.bgErr
	db.cond.Broadcast()
	db.mu.Unlock()
	db.events.BackgroundError(metrics.BackgroundErrorInfo{Op: op, Err: err, Retries: try})
	if enteredRO {
		db.events.ReadOnlyEnter(metrics.ReadOnlyInfo{Cause: cause})
	}
}

// noteBgError records one failed background attempt: it latches the
// error, counts the retry, degrades to read-only after BgRetryLimit
// consecutive failures, asks the engine to Resume (rewrite its
// manifest so half-applied edits are superseded before the retry), and
// applies the backoff policy.  It reports whether the worker should
// retry; false means the DB is closing or the backoff abandoned the
// loop (the worker goes back to waiting for a kick).
func (db *DB) noteBgError(op string, err error) bool {
	if errors.Is(err, vfs.ErrNoSpace) {
		db.bgNoSpace.Inc()
	}
	db.noteCorruption(err)
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return false
	}
	if db.bgErr == nil {
		db.bgErrSince = int64(db.clock.Now())
	}
	db.bgErr = &BackgroundError{Op: op, Err: err}
	db.bgFails++
	try := db.bgFails
	db.bgRetries.Inc()
	enteredRO := false
	if !db.readonly && try > db.opt.BgRetryLimit {
		db.readonly = true
		enteredRO = true
		db.bgReadonly.Inc()
	}
	cause := db.bgErr
	db.cond.Broadcast()
	db.mu.Unlock()
	db.events.BackgroundError(metrics.BackgroundErrorInfo{Op: op, Err: err, Retries: try})
	if enteredRO {
		db.events.ReadOnlyEnter(metrics.ReadOnlyInfo{Cause: cause})
	}
	// Best-effort: a failed Resume is retried with the work itself.
	_ = db.eng.Resume()
	if db.opt.BgBackoff != nil {
		return db.opt.BgBackoff(try)
	}
	d := time.Millisecond << uint(min(try, 7))
	select {
	case <-db.quit:
		return false
	case <-time.After(d):
		return true
	}
}

// noteBgSuccess clears background-error state after a successful
// attempt, leaving read-only mode and recording the heal duration.
func (db *DB) noteBgSuccess() {
	db.mu.Lock()
	if db.bgErr == nil && !db.readonly {
		db.mu.Unlock()
		return
	}
	cause := db.bgErr
	wasRO := db.readonly
	heal := int64(db.clock.Now()) - db.bgErrSince
	db.bgErr, db.readonly, db.bgFails = nil, false, 0
	db.bgHealNanos.Add(heal)
	db.cond.Broadcast()
	db.mu.Unlock()
	if wasRO {
		db.events.ReadOnlyExit(metrics.ReadOnlyInfo{Cause: cause, Duration: time.Duration(heal)})
	}
}

func (db *DB) flushWorker() {
	defer db.wg.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("iamdb", "flush-worker")))
	for {
		select {
		case <-db.quit:
			return
		case <-db.flushC:
		}
		db.drainImm()
	}
}

// drainImm flushes the immutable memtable, retrying failures until it
// succeeds, the backoff abandons, or the DB closes.  The worker never
// exits on error: a healed DB resumes without reopening.
func (db *DB) drainImm() {
	flushed := false // the Flush itself succeeded; only SetLogMeta remains
	for {
		db.mu.Lock()
		imm := db.imm
		immWal := db.immWalNum
		immSeq := db.immLastSeq
		curWal := db.walNum
		db.mu.Unlock()
		if imm == nil {
			return
		}
		var err error
		if !flushed {
			err = db.eng.Flush(imm.NewIter())
		}
		if err == nil {
			flushed = true
			err = db.eng.SetLogMeta(immSeq, curWal)
		}
		if err != nil {
			if !db.noteBgError("flush", err) {
				return
			}
			continue
		}
		db.noteBgSuccess()
		flushed = false
		db.mu.Lock()
		db.imm = nil
		db.publishStateLocked()
		db.cond.Broadcast()
		db.mu.Unlock()
		// The flushed log is re-deleted on next recovery if this
		// best-effort removal fails.
		_ = db.fs.Remove(logName(db.dir, immWal))
		select {
		case db.compactC <- struct{}{}:
		default:
		}
	}
}

func (db *DB) compactWorker() {
	defer db.wg.Done()
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("iamdb", "compact-worker")))
	for {
		did, err := db.eng.WorkStep()
		if err != nil {
			if !db.noteBgError("compact", err) {
				select {
				case <-db.quit:
					return
				case <-db.compactC:
				}
			}
			continue
		}
		if did {
			db.noteBgSuccess()
			continue
		}
		select {
		case <-db.quit:
			return
		case <-db.compactC:
		}
	}
}

// Resume clears background-error state once the operator believes the
// underlying fault is gone: the engine rewrites its manifest, the DB
// leaves read-only mode, and the background workers are kicked.  The
// DB also heals itself when a background retry succeeds; Resume just
// forces the attempt now.
func (db *DB) Resume() error {
	if ss := db.shards; ss != nil {
		return ss.fanout(func(kid *DB) error { return kid.Resume() })
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.mu.Unlock()
	if err := db.eng.Resume(); err != nil {
		return err
	}
	db.noteBgSuccess()
	select {
	case db.flushC <- struct{}{}:
	default:
	}
	select {
	case db.compactC <- struct{}{}:
	default:
	}
	return nil
}

// CheckInvariants asks the engine to validate its structural
// invariants (crash-recovery tests use it as an oracle).
func (db *DB) CheckInvariants() error {
	if ss := db.shards; ss != nil {
		return ss.fanout(func(kid *DB) error { return kid.CheckInvariants() })
	}
	return db.eng.CheckInvariants()
}

// Get returns the value for key, or ErrNotFound.  The returned slice
// is a fresh copy the caller may retain; use GetInto to reuse a buffer
// across lookups.
func (db *DB) Get(key []byte) ([]byte, error) {
	if !db.timing {
		return db.get(key)
	}
	start := db.clock.Now()
	v, err := db.get(key)
	db.getHist.Record(db.clock.Now() - start)
	return v, err
}

// GetInto appends the value for key to dst and returns the extended
// slice — the copy-into-caller fast path that avoids the per-call
// allocation Get makes.  dst may be nil.
func (db *DB) GetInto(key, dst []byte) ([]byte, error) {
	var start time.Duration
	if db.timing {
		start = db.clock.Now()
	}
	v, kind, err := db.getRaw(key)
	if err == nil {
		if kind == kv.KindDelete {
			err = ErrNotFound
		} else {
			dst = append(dst, v...)
		}
	}
	if db.timing {
		db.getHist.Record(db.clock.Now() - start)
	}
	if err != nil {
		return nil, err
	}
	return dst, nil
}

func (db *DB) get(key []byte) ([]byte, error) {
	v, kind, err := db.getRaw(key)
	if err != nil {
		return nil, err
	}
	return finishGet(v, kind)
}

// getRaw resolves key against the lock-free read snapshot: the visible
// sequence is loaded first, then the state pointer.  The state may be
// newer than the sequence but never older, and records only move down
// the hierarchy, so the pair is always a consistent view that cannot
// expose part of a batch.  The returned value aliases internal storage
// and must be copied before the call returns to the user.
func (db *DB) getRaw(key []byte) ([]byte, kv.Kind, error) {
	if db.closedA.Load() {
		return nil, 0, ErrClosed
	}
	db.getOps.Add(1)
	if ss := db.shards; ss != nil {
		return ss.get(key)
	}
	snap := kv.Seq(db.seqA.Load())
	st := db.state.Load()
	v, kind, err := db.getRawAt(key, snap, st.mem, st.imm)
	if err != nil {
		return nil, 0, err
	}
	return db.maybeResolve(key, v, kind)
}

func (db *DB) getRawAt(key []byte, snap kv.Seq, mem, imm *memtable.MemTable) ([]byte, kv.Kind, error) {
	if v, kind, _, found := mem.Get(key, snap); found {
		return v, kind, nil
	}
	if imm != nil {
		if v, kind, _, found := imm.Get(key, snap); found {
			return v, kind, nil
		}
	}
	v, kind, _, found, err := db.eng.Get(key, snap)
	if err != nil {
		db.noteCorruption(err)
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

// Close flushes nothing (recovery replays the WAL), stops background
// work and releases resources.
func (db *DB) Close() error {
	if db.shards != nil {
		return db.closeSharded()
	}
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.closedA.Store(true)
	db.cond.Broadcast()
	db.mu.Unlock()
	close(db.quit)
	if db.debugSrv != nil {
		// Unblocks the Serve goroutine so wg.Wait below can finish.
		_ = db.debugSrv.Close()
	}
	db.wg.Wait()
	// Barrier: wait out any in-flight commit leader so the WAL writer
	// is idle before closing it.  Leaders that acquire commitMu later
	// observe closed under db.mu and never touch the WAL.
	db.commitMu.Lock()
	db.commitMu.Unlock()
	return errors.Join(db.walF.Close(), db.closeVlog(), db.eng.Close())
}

// CompactAll flushes both memtables and settles every pending
// compaction — the paper's "tuning phase" run to completion.  Used by
// experiments before measuring stable performance.
func (db *DB) CompactAll() error {
	if ss := db.shards; ss != nil {
		return ss.fanout(func(kid *DB) error { return kid.CompactAll() })
	}
	if err := db.Flush(); err != nil {
		return err
	}
	if db.settle != nil {
		return db.settle()
	}
	return nil
}

// MixedLevel reports IAM's current (m, k) tuning; zero for baselines.
// Shards tune independently; a sharded DB reports shard 0 (use
// ShardMetrics-style per-shard access via the debug endpoints for the
// rest).
func (db *DB) MixedLevel() (m, k int) {
	if ss := db.shards; ss != nil {
		return ss.kids[0].MixedLevel()
	}
	if db.mixedLevel != nil {
		return db.mixedLevel()
	}
	return 0, 0
}

// Flush forces the current memtable into the tree, waiting for the
// flush to finish.  Reads are unaffected; use it before measuring
// on-disk state or creating external copies.
func (db *DB) Flush() error {
	if ss := db.shards; ss != nil {
		return ss.fanout(func(kid *DB) error { return kid.Flush() })
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.opt.InlineBackground {
		// No workers in inline mode: drain any leftover immutable
		// memtable (e.g. from an earlier failed Flush) ourselves.
		db.inlineBG()
	}
	db.mu.Lock()
	for db.imm != nil && !db.closed && !db.readonly {
		db.cond.Wait()
	}
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.readonly {
		err := errors.Join(ErrReadOnly, db.bgErr)
		db.mu.Unlock()
		return err
	}
	if db.mem.Count() == 0 {
		db.mu.Unlock()
		return nil
	}
	// Move the memtable through the same immutable-slot pipeline as
	// automatic flushes: a failed engine flush then keeps the data
	// readable (and retried) in the immutable memtable instead of
	// dropping acknowledged writes on the floor.
	err := db.rotateLocked()
	db.mu.Unlock()
	if err != nil {
		// The memtable is still in place; count the failure like any
		// other commit-path fault so a full disk degrades the store
		// instead of failing opaquely forever.
		db.noteCommitError("wal", err)
		return err
	}
	if db.opt.InlineBackground {
		db.inlineBG()
	}
	db.mu.Lock()
	for db.imm != nil && !db.closed && !db.readonly && db.bgErr == nil {
		db.cond.Wait()
	}
	switch {
	case db.imm == nil:
		err = nil
	case db.readonly:
		err = errors.Join(ErrReadOnly, db.bgErr)
	case db.bgErr != nil:
		// The flush attempt failed; the background worker keeps
		// retrying with the data safe in the immutable memtable.
		err = db.bgErr
	default:
		err = ErrClosed
	}
	db.mu.Unlock()
	return err
}

// ApproximateSize estimates the on-disk bytes of data stored in the
// user-key range [start, limit], excluding memtable contents.  The
// estimate counts whole nodes inside the range and half of each node
// straddling a boundary.
func (db *DB) ApproximateSize(start, limit []byte) int64 {
	if ss := db.shards; ss != nil {
		var total int64
		for _, kid := range ss.kids {
			total += kid.ApproximateSize(start, limit)
		}
		return total
	}
	return db.eng.ApproximateSize(start, limit)
}
