package iamdb

import (
	"fmt"
	"strings"
	"time"

	"iamdb/internal/engine"
	"iamdb/internal/histogram"
	"iamdb/internal/metrics"
	"iamdb/internal/tableset"
	"iamdb/internal/vfs"
)

// wallClock is the default Clock: real monotonic time since Open.
// It lives in the public package, outside the iamlint determinism
// scope, so the internal packages never read the wall clock directly.
type wallClock struct {
	base time.Time
}

func newWallClock() wallClock { return wallClock{base: time.Now()} }

// Now implements Clock.
func (c wallClock) Now() time.Duration { return time.Since(c.base) }

// Metrics is a unified snapshot of the DB's observable state: per-level
// structure and traffic, memtable/WAL/cache state, device IO, write
// stalls, and operation latency histograms.
type Metrics struct {
	// Engine holds per-level traffic and operation counts.
	Engine engine.StatsSnapshot
	// Levels summarizes the current tree shape.
	Levels []tableset.LevelInfo
	// SpaceUsed is the on-disk footprint in bytes (excluding WAL).
	SpaceUsed int64
	// UserBytes is the total key+value bytes written by the user.
	UserBytes int64
	// CacheHitRate is the block-cache hit fraction since open.
	CacheHitRate float64
	// CacheFills counts the blocks inserted into the block cache since
	// open — by user reads only; merges look blocks up and insert none —
	// and CacheEvictions those that capacity pushed out again.
	CacheFills     int64
	CacheEvictions int64

	// MemtableBytes is the approximate size of the mutable memtable.
	MemtableBytes int64
	// ImmutableMemtables counts memtables waiting to flush (0–8).
	ImmutableMemtables int
	// WALNum is the current write-ahead log file number.
	WALNum uint64
	// WALBytes is the total bytes appended to all WAL files since
	// open, including record headers and block padding.
	WALBytes int64
	// WALRotations counts WAL file rotations since open.
	WALRotations int64

	// IO is the device traffic since open (data files, manifest, and
	// WAL together).
	IO vfs.IOSnapshot

	// StallCount counts write stalls imposed on the commit path, and
	// StallTime is their cumulative duration.
	StallCount int64
	StallTime  time.Duration

	// CorruptionsDetected counts typed corruption detections (read
	// path, open-time suspicion, scrub); TablesQuarantined counts
	// tables fenced off as a consequence.  ScrubBlocks totals data
	// blocks verified by Scrub passes, and NoSpaceErrors counts
	// operations failed by a full disk (see DESIGN.md "Latent-fault
	// model").
	CorruptionsDetected int64
	TablesQuarantined   int64
	ScrubBlocks         int64
	NoSpaceErrors       int64

	// Value-log state (all zero when key-value separation is off):
	// VLogSegments/VLogBytes describe the current log, VLogDiscardBytes
	// the dead fraction GC reclaims, VLogAppends/VLogResolves the
	// separation traffic, and VLogGCSegments the segments collected
	// since open.  VLogBytes is included in SpaceUsed.
	VLogSegments     int
	VLogBytes        int64
	VLogDiscardBytes int64
	VLogAppends      int64
	VLogResolves     int64
	VLogGCSegments   int64

	// CommitGroups counts leader-led group commits (one WAL record,
	// one sync each), and CommitBatches the batches committed through
	// them; their ratio is the mean group size.
	CommitGroups  int64
	CommitBatches int64
	// CommitWait is the cumulative time writers spent queued behind a
	// commit leader (populated when a clock or listener is attached).
	CommitWait time.Duration
	// GroupSize digests batches-per-group: the histogram records one
	// observation per group on an integer scale where 1ns = 1 batch.
	GroupSize histogram.Summary

	// Put, Get and Scan are operation latency digests (put covers the
	// whole batch commit, stall time included; scan covers iterator
	// positioning).
	Put  histogram.Summary
	Get  histogram.Summary
	Scan histogram.Summary
}

// WriteAmplification is total compaction writes over user writes, as the
// paper computes it (Sec. 6.2) — tree only: excludes the WAL and the value
// log, so it reads near zero for a store whose values are separated.
// IO.BytesWritten over UserBytes is what the device saw.
func (m Metrics) WriteAmplification() float64 {
	if m.UserBytes == 0 {
		return 0
	}
	return float64(m.Engine.TotalFlushBytes()) / float64(m.UserBytes)
}

// MeanCommitGroupSize is the average number of batches a commit leader
// coalesced into one WAL record.
func (m Metrics) MeanCommitGroupSize() float64 {
	if m.CommitGroups == 0 {
		return 0
	}
	return float64(m.CommitBatches) / float64(m.CommitGroups)
}

// Metrics returns a snapshot of the DB's statistics, aggregated across
// its stores: per-level structure and traffic merged by level index,
// sizes and counters summed, device IO reported once from the shared
// filesystem counters, cache hit rate recomputed from pooled lookups,
// commit-group-size histograms merged, and the operation latency
// digests taken from the DB's own histograms (which time whole
// operations, cross-store ones included).
func (db *DB) Metrics() Metrics { return db.metricsOf(db.stores) }

// ShardMetrics returns the snapshot restricted to shard i's store;
// device IO and the latency digests stay DB-wide.
func (db *DB) ShardMetrics(i int) Metrics { return db.metricsOf(db.stores[i : i+1]) }

func (db *DB) metricsOf(stores []*store) Metrics {
	var m Metrics
	group := histogram.New()
	var hits, lookups int64
	for _, st := range stores {
		view := st.state.Load()
		m.MemtableBytes += view.mem.ApproximateSize()
		m.ImmutableMemtables += len(view.imm)
		st.mu.Lock()
		m.WALNum = max(m.WALNum, st.walNum)
		m.WALBytes += st.walRetired
		if st.walW != nil {
			m.WALBytes += st.walW.Offset()
		}
		st.mu.Unlock()
		m.WALRotations += st.walRotations.Load()
		mergeEngineStats(&m.Engine, st.eng.Stats())
		m.Levels = addRows(m.Levels, st.set.Levels())
		m.SpaceUsed += st.set.SpaceUsed()
		if vs := st.vs; vs != nil {
			ls := vs.log.Stats()
			m.VLogSegments += ls.Segments
			m.VLogBytes += ls.Bytes
			m.VLogDiscardBytes += ls.DiscardBytes
			m.SpaceUsed += vs.log.SpaceUsed()
			m.VLogAppends += vs.appends.Load()
			m.VLogResolves += vs.resolves.Load()
			m.VLogGCSegments += vs.gcSegments.Load()
		}
		m.UserBytes += st.userBytes.Load()
		_, h, miss := st.cache.HitRate()
		hits += h
		lookups += h + miss
		fills, evictions := st.cache.Traffic()
		m.CacheFills += fills
		m.CacheEvictions += evictions
		m.StallCount += st.stallCount.Load()
		m.StallTime += time.Duration(st.stallNanos.Load())
		m.CorruptionsDetected += st.corrDetected.Load()
		m.TablesQuarantined += st.corrQuarantined.Load()
		m.ScrubBlocks += st.scrubBlocks.Load()
		m.NoSpaceErrors += st.bgNoSpace.Load()
		m.CommitGroups += st.commitGroups.Load()
		m.CommitBatches += st.commitBatches.Load()
		m.CommitWait += time.Duration(st.commitWait.Load())
		group.Merge(st.groupSize.Snapshot())
	}
	if lookups > 0 {
		m.CacheHitRate = float64(hits) / float64(lookups)
	}
	m.IO = db.io.Snapshot()
	m.GroupSize = group.Summary()
	m.Put = db.putHist.Summary()
	m.Get = db.getHist.Summary()
	m.Scan = db.scanHist.Summary()
	return m
}

// mergeEngineStats folds one store's traffic snapshot into the sum.
func mergeEngineStats(dst *engine.StatsSnapshot, src engine.StatsSnapshot) {
	dst.PerLevel = addRows(dst.PerLevel, src.PerLevel)
	for i, fb := range src.FlushBytes {
		if i == len(dst.FlushBytes) {
			dst.FlushBytes = append(dst.FlushBytes, 0)
		}
		dst.FlushBytes[i] += fb
	}
	dst.Appends += src.Appends
	dst.Merges += src.Merges
	dst.Moves += src.Moves
	dst.Splits += src.Splits
	dst.Combines += src.Combines
	dst.Flushes += src.Flushes
}

// addRows folds src's per-level rows into dst's by position, extending
// dst where src is longer.  Every store of a DB runs the one engine, so
// the stores' level lists start at the same level and line up index by
// index.
func addRows[T any, PT interface {
	*T
	Add(T)
}](dst, src []T) []T {
	for i, r := range src {
		if i == len(dst) {
			dst = append(dst, r)
		} else {
			PT(&dst[i]).Add(r)
		}
	}
	return dst
}

// SampleCumulative gathers the monotone counters a Sampler snapshots at
// every window edge: operation and stall totals, device and per-level
// traffic, cache lookups, commit pipeline counts and the put-latency
// histogram.  It holds no DB locks beyond the engines' own stats locks.
func (db *DB) SampleCumulative() metrics.Cumulative {
	var c metrics.Cumulative
	var levels []engine.LevelStats
	c.Ops = db.getOps.Load()
	for _, st := range db.stores {
		levels = addRows(levels, st.eng.Stats().PerLevel)
		c.Ops += st.putOps.Load()
		c.StallNanos += st.stallNanos.Load()
		_, hits, misses := st.cache.HitRate()
		c.CacheHits += hits
		c.CacheLookups += hits + misses
		c.CommitGroups += st.commitGroups.Load()
		c.CommitBatches += st.commitBatches.Load()
	}
	for _, ls := range levels {
		c.PerLevelWrite = append(c.PerLevelWrite, ls.WriteBytes)
		c.PerLevelRead = append(c.PerLevelRead, ls.ReadBytes)
	}
	io := db.io.Snapshot()
	c.WriteBytes = io.BytesWritten
	c.ReadBytes = io.BytesRead
	c.Put = db.putHist.Snapshot()
	return c
}

// NewSampler returns a timeline sampler over the DB's cumulative counters
// (ops/sec, stall fraction, per-level write/read bytes, cache hit rate,
// commit group size, put latency) snapshotted at every window edge and
// kept in a bounded ring that drops every other edge — doubling the
// window — when full; a window is the difference of its two edges.
// window ≤ 0 means one second; capacity ≤ 0 means 128 points.  The
// sampler is pull-based: call Poll from the workload loop (one atomic
// load when no window boundary passed), then Points for the closed
// windows, oldest first; DebugHandler serves them as /timeline.
func (db *DB) NewSampler(window time.Duration, capacity int) *Sampler {
	return metrics.NewSampler(db.clock, window, capacity, db.SampleCumulative)
}

// Trace returns the recorder passed in Options.Trace, or nil when
// tracing is disabled.
func (db *DB) Trace() *TraceRecorder { return db.tr }

func mb(n int64) float64 { return float64(n) / (1 << 20) }

// String renders the snapshot as a LevelDB-`leveldb.stats`-style
// report: one row per level plus totals and summary lines.
func (m Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Level | Files  Seqs  Size(MB) | Write(MB)  Read(MB) | Appends  Merges  Moves  Splits  Combines\n")
	fmt.Fprintf(&b, "------+------------------------+----------------------+-----------------------------------------\n")

	// Rows span the union of the shape (Levels) and traffic (PerLevel)
	// views: a drained level keeps its traffic history.
	rows := len(m.Engine.PerLevel)
	byLevel := make(map[int]tableset.LevelInfo, len(m.Levels))
	for _, li := range m.Levels {
		byLevel[li.Level] = li
		if li.Level+1 > rows {
			rows = li.Level + 1
		}
	}
	var totInfo tableset.LevelInfo
	var totStats engine.LevelStats
	for lvl := 0; lvl < rows; lvl++ {
		info := byLevel[lvl]
		var ls engine.LevelStats
		if lvl < len(m.Engine.PerLevel) {
			ls = m.Engine.PerLevel[lvl]
		}
		if info.Nodes == 0 && info.Bytes == 0 && ls == (engine.LevelStats{}) {
			continue
		}
		fmt.Fprintf(&b, "%5d | %5d %5d %9.1f | %9.1f %9.1f | %7d %7d %6d %7d %9d\n",
			lvl, info.Nodes, info.Seqs, mb(info.Bytes),
			mb(ls.WriteBytes), mb(ls.ReadBytes),
			ls.Appends, ls.Merges, ls.Moves, ls.Splits, ls.Combines)
		totInfo.Add(info)
		totStats.Add(ls)
	}
	fmt.Fprintf(&b, "total | %5d %5d %9.1f | %9.1f %9.1f | %7d %7d %6d %7d %9d\n",
		totInfo.Nodes, totInfo.Seqs, mb(totInfo.Bytes),
		mb(totStats.WriteBytes), mb(totStats.ReadBytes),
		totStats.Appends, totStats.Merges, totStats.Moves, totStats.Splits, totStats.Combines)

	fmt.Fprintf(&b, "Flushes: %d  UserWrite(MB): %.1f  WriteAmp: %.2f  SpaceUsed(MB): %.1f\n",
		m.Engine.Flushes, mb(m.UserBytes), m.WriteAmplification(), mb(m.SpaceUsed))
	fmt.Fprintf(&b, "Memtable: %.1f MB (+%d immutable)  WAL: file %06d, %.1f MB written, %d rotations\n",
		mb(m.MemtableBytes), m.ImmutableMemtables, m.WALNum, mb(m.WALBytes), m.WALRotations)
	fmt.Fprintf(&b, "Block cache hit rate: %.1f%%, %d fills, %d evictions\n", 100*m.CacheHitRate, m.CacheFills, m.CacheEvictions)
	fmt.Fprintf(&b, "Write stalls: %d, total %v\n", m.StallCount, m.StallTime)
	// Value-log line only with separation active, so inline runs keep
	// their familiar (and golden-tested) report shape.
	if m.VLogSegments != 0 || m.VLogAppends != 0 || m.VLogGCSegments != 0 {
		fmt.Fprintf(&b, "Value log: %d segments, %.1f MB (%.1f MB dead), %d appends, %d resolves, %d segments GC'd\n",
			m.VLogSegments, mb(m.VLogBytes), mb(m.VLogDiscardBytes),
			m.VLogAppends, m.VLogResolves, m.VLogGCSegments)
	}
	// Latent-fault line only when something happened, so healthy runs
	// keep their familiar (and golden-tested) report shape.
	if m.CorruptionsDetected != 0 || m.TablesQuarantined != 0 || m.ScrubBlocks != 0 || m.NoSpaceErrors != 0 {
		fmt.Fprintf(&b, "Faults: %d corruptions detected, %d tables quarantined, %d blocks scrubbed, %d no-space errors\n",
			m.CorruptionsDetected, m.TablesQuarantined, m.ScrubBlocks, m.NoSpaceErrors)
	}
	fmt.Fprintf(&b, "Commit pipeline: %d groups, %d batches (mean group %.2f), queue wait %v\n",
		m.CommitGroups, m.CommitBatches, m.MeanCommitGroupSize(), m.CommitWait)
	fmt.Fprintf(&b, "Device IO: %.1f MB written (%d ops), %.1f MB read (%d ops), %d seeks\n",
		mb(m.IO.BytesWritten), m.IO.WriteOps, mb(m.IO.BytesRead), m.IO.ReadOps, m.IO.Seeks)
	for _, h := range []struct {
		name string
		s    histogram.Summary
	}{{"put", m.Put}, {"get", m.Get}, {"scan", m.Scan}} {
		fmt.Fprintf(&b, "Latency %-4s n=%d  mean=%v  p50=%v  p99=%v  p99.9=%v  max=%v\n",
			h.name, h.s.Count, h.s.Mean, h.s.P50, h.s.P99, h.s.P999, h.s.Max)
	}
	return b.String()
}
