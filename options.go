package iamdb

import (
	"iamdb/internal/metrics"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
)

// EventListener receives structured notifications about the DB's
// internal activity: flushes, appends, merges, moves, splits,
// combines, WAL rotations, manifest edits, table lifecycle, and write
// stalls.  All callbacks are optional (nil fields become no-ops) and
// run synchronously on DB goroutines, often with locks held — they
// must not call back into the DB and should return quickly.
//
// It is an alias of the internal metrics type so the engines can fire
// events without importing the public package.
type EventListener = metrics.EventListener

// Event payload types carried by EventListener callbacks.
type (
	FlushInfo        = metrics.FlushInfo
	AppendInfo       = metrics.AppendInfo
	MergeInfo        = metrics.MergeInfo
	MoveInfo         = metrics.MoveInfo
	SplitInfo        = metrics.SplitInfo
	CombineInfo      = metrics.CombineInfo
	WALRotationInfo  = metrics.WALRotationInfo
	ManifestEditInfo = metrics.ManifestEditInfo
	TableInfo        = metrics.TableInfo
	StallInfo        = metrics.StallInfo
	// BackgroundErrorInfo and ReadOnlyInfo carry the background-error
	// and read-only-degradation callbacks (see DESIGN.md "Failure
	// model & crash consistency").
	BackgroundErrorInfo = metrics.BackgroundErrorInfo
	ReadOnlyInfo        = metrics.ReadOnlyInfo
	// CorruptionInfo carries the CorruptionDetected callback (see
	// DESIGN.md "Latent-fault model").
	CorruptionInfo = metrics.CorruptionInfo
)

// Clock is the monotonic time source used for event durations and
// latency histograms: Now reports elapsed time since an arbitrary
// fixed epoch.  The default measures real monotonic time; the bench
// harness injects the virtual disk clock so latencies are measured in
// simulated device time.
type Clock = metrics.Clock

// TraceRecorder is the structured-tracing ring buffer: spans for
// commit groups, the flush cascade, compaction jobs (with file
// lineage) and write stalls.  It is an alias of the internal trace
// type; construct one with NewTraceRecorder and pass it in
// Options.Trace, then export via WriteJSONLines / WriteChromeTrace or
// the /traces endpoint of DB.DebugHandler.
type TraceRecorder = trace.Recorder

// TraceSpan is one completed span from a TraceRecorder snapshot.
type TraceSpan = trace.Span

// NewTraceRecorder returns a recorder keeping the last capacity spans
// (≤ 0 means 4096).  clock should match Options.Clock so span
// timestamps line up with the latency histograms; nil falls back to
// zero timestamps.
func NewTraceRecorder(capacity int, clock Clock) *TraceRecorder {
	return trace.NewRecorder(capacity, clock)
}

// NewWallClock returns a real-time Clock reading monotonic time since
// this call.  Pass the same instance as Options.Clock and to
// NewTraceRecorder so latency histograms and span timestamps share one
// epoch (a DB opened with a nil Clock creates its own wall clock, which
// an outside recorder cannot see).
func NewWallClock() Clock { return newWallClock() }

// Sampler snapshots the DB's counters into a bounded timeline; see
// DB.NewSampler.
type Sampler = metrics.Sampler

// TimelinePoint is one closed window of a Sampler's timeline.
type TimelinePoint = metrics.TimelinePoint

// NewLoggingListener returns an EventListener that formats every event
// as one line through logf (e.g. log.Printf or t.Logf).
func NewLoggingListener(logf func(format string, args ...any)) *EventListener {
	return metrics.NewLoggingListener(logf)
}

// EngineKind selects the storage tree backing a DB.
type EngineKind int

const (
	// IAM is the paper's Integrated Append/Merge-tree (the default):
	// appends above the mixed level, merges below, tuned to memory.
	IAM EngineKind = iota
	// LSA is the Log-Structured Append-tree: compaction by appends,
	// minimal merges (lowest write amplification, higher scan/space
	// cost).
	LSA
	// LevelDB is the overflow-tolerant leveled-LSM baseline profile.
	LevelDB
	// RocksDB is the strict, stall-controlled leveled-LSM baseline
	// profile.
	RocksDB
)

func (e EngineKind) String() string {
	switch e {
	case IAM:
		return "IAM"
	case LSA:
		return "LSA"
	case LevelDB:
		return "LevelDB"
	case RocksDB:
		return "RocksDB"
	default:
		return "unknown"
	}
}

// Options configure a DB.  The zero value gives the paper's defaults
// at full scale; experiments scale sizes down proportionally.
type Options struct {
	// Engine picks the tree structure (default IAM).
	Engine EngineKind

	// FS is the filesystem; nil means the operating system.  Tests
	// and the benchmark harness pass vfs.MemFS or vfs.Disk wrappers.
	FS vfs.FS

	// MemtableSize is the memtable capacity threshold Ct (default
	// 128 MiB, Sec. 6.1).  Tree engines reuse it as the node capacity.
	MemtableSize int64

	// CacheSize is the block-cache capacity modelling available RAM
	// (default 64 MiB at library scale).
	CacheSize int64

	// MemBudget is IAM's memory budget M for Eq. (2); 0 means the
	// cache size.
	MemBudget int64

	// Fanout is t (default 10).
	Fanout int

	// K caps sequences per node in IAM's mixed level (default 3).
	K int

	// FixedM pins IAM's mixed level for ablations; 0 = auto-tune.
	FixedM int

	// BitsPerKey sets Bloom filter density (default 14).
	BitsPerKey int

	// FileSize is the baselines' SSTable size (default MemtableSize/2,
	// matching the paper's 64 MiB files against 128 MiB memtables).
	FileSize int64

	// LevelSizeBase is the baselines' L1 threshold (default
	// 5*MemtableSize, matching the paper's 640 MiB against 128 MiB).
	LevelSizeBase int64

	// L0CompactTrigger is the baselines' L0 file trigger (default 4).
	L0CompactTrigger int

	// CompactionThreads sizes each store's background workers:
	// CompactionThreads + 1 goroutines (default 1, so 2) take the flush,
	// compaction and value-log GC steps, one worker per kind at a time,
	// so no more start than the store has kinds of step: 2, or 3 with a
	// value log.  With InlineBackground none start and every step, GC
	// included, runs inline.  It buys no parallelism: IAM / LSA's
	// WorkStep does nothing (the cascade runs inside Flush), the
	// baselines' holds Set.Mu.
	CompactionThreads int

	// Shards, when > 1, range-partitions the keyspace across that many
	// fully independent shards — each with its own WAL, memtable,
	// engine instance and commit pipeline — behind this one DB (see
	// DESIGN.md "Commit pipeline").  The shard layout is recorded in
	// a SHARDS marker file at the database root; reopening adopts the
	// recorded layout, and opening with a conflicting explicit layout
	// fails.  0 or 1 means an unsharded database: one store, living in
	// the database directory itself, with no marker.
	Shards int

	// ShardSplits overrides the default equal-width first-byte split
	// points: len(ShardSplits) must be Shards-1 and the keys strictly
	// increasing.  Shard i serves keys in [ShardSplits[i-1],
	// ShardSplits[i]).  Nil uses shard.DefaultSplits.
	ShardSplits [][]byte

	// SyncWrites makes every write durable before returning.
	SyncWrites bool

	// ValueThreshold enables key-value separation: values of at least
	// this many bytes are appended once to a segmented, CRC-per-record
	// value log and the tree carries only a fixed-size pointer, so
	// merges move O(pointer) instead of O(value) bytes (see DESIGN.md
	// "Key-value separation").  0 disables separation (every value
	// inline).  A sharded DB gives each shard its own log.
	ValueThreshold int

	// VlogSegmentSize is the value-log segment size (default 64 MiB).
	// Smaller segments give garbage collection finer reclamation
	// granularity at the cost of more files.
	VlogSegmentSize int64

	// Compression enables flate compression of on-disk data blocks.
	// Off by default, matching the paper's experimental setup
	// (Sec. 6.1: "data compression is turned off").
	Compression bool

	// EventListener receives structured event notifications.  Nil
	// installs no-op listeners, which add no allocations to the hot
	// path.
	EventListener *EventListener

	// Clock is the monotonic time source for event durations and the
	// latency histograms in Metrics.  Nil means real monotonic time.
	Clock Clock

	// Trace records structural spans (commit groups, flush cascade,
	// compaction jobs, write stalls) into a fixed-size ring.  Nil
	// disables tracing; the disabled path adds zero allocations to
	// Put/Get.
	Trace *TraceRecorder

	// InlineBackground starts no background worker: the writer whose
	// commit rotated the memtable runs the ready steps itself — flush
	// and compaction under the commit lock, then value-log GC — before
	// it returns.  With a virtual clock this makes entire runs
	// deterministic — two identical runs produce byte-identical metrics,
	// timelines and traces — at the cost of commit latency absorbing
	// background work.  The harness's paper experiments and the golden
	// determinism tests use it; production configurations should not.
	InlineBackground bool

	// BgRetryLimit is how many consecutive background flush/compaction
	// failures the DB tolerates before degrading to read-only mode
	// (writes return ErrReadOnly, reads keep working).  Default 5.
	BgRetryLimit int

	// BgBackoff, when non-nil, is called between background retry
	// attempts with the consecutive-failure count; returning false
	// abandons the retry loop until the next kick (Resume or new
	// work).  Nil uses an exponential sleep capped at 128ms that also
	// aborts on Close.  Tests inject this to make retries instant and
	// deterministic.
	BgBackoff func(failures int) bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FS == nil {
		out.FS = vfs.NewOSFS()
	}
	if out.MemtableSize == 0 {
		out.MemtableSize = 128 << 20
	}
	if out.CacheSize == 0 {
		out.CacheSize = 64 << 20
	}
	if out.Fanout == 0 {
		out.Fanout = 10
	}
	if out.K == 0 {
		out.K = 3
	}
	if out.FileSize == 0 {
		out.FileSize = out.MemtableSize / 2
	}
	if out.LevelSizeBase == 0 {
		out.LevelSizeBase = 5 * out.MemtableSize
	}
	if out.L0CompactTrigger == 0 {
		out.L0CompactTrigger = 4
	}
	if out.CompactionThreads == 0 {
		out.CompactionThreads = 1
	}
	if out.BgRetryLimit == 0 {
		out.BgRetryLimit = 5
	}
	if out.VlogSegmentSize == 0 {
		out.VlogSegmentSize = 64 << 20
	}
	return out
}
