package metrics

import "time"

// FlushInfo describes a memtable flush reaching the tree.
type FlushInfo struct {
	// Bytes is the payload written to level 0 by the flush.
	Bytes int64
	// Duration is the flush's elapsed time on the engine clock.
	Duration time.Duration
}

// AppendInfo describes an append of flushed runs onto a child node
// (the IAM tree's cheap alternative to merging).
type AppendInfo struct {
	// Level is the destination level receiving the appended runs.
	Level int
	// Bytes is the payload written to the destination.
	Bytes int64
}

// MergeInfo describes a merge (sort-merge rewrite) into a level.
type MergeInfo struct {
	// Level is the destination level receiving the merged output.
	Level int
	// Bytes is the payload written to the destination.
	Bytes int64
	// Duration is the merge's elapsed time on the engine clock.
	Duration time.Duration
}

// MoveInfo describes a trivial move of a node or file down one level.
type MoveInfo struct {
	// FromLevel is the level the data left.
	FromLevel int
	// ToLevel is the level the data landed on.
	ToLevel int
}

// SplitInfo describes an overflowing node splitting into children.
type SplitInfo struct {
	// Level is the level of the node that split.
	Level int
	// Bytes is the payload rewritten while splitting.
	Bytes int64
	// NewNodes is how many children the node split into.
	NewNodes int
}

// CombineInfo describes underfull sibling nodes combining into one.
type CombineInfo struct {
	// Level is the level of the combined node.
	Level int
}

// WALRotationInfo describes the write-ahead log advancing to a fresh
// file.
type WALRotationInfo struct {
	// OldNum and NewNum are the retiring and fresh WAL file numbers.
	OldNum, NewNum uint64
	// OldBytes is the size of the retiring WAL.
	OldBytes int64
}

// ManifestEditInfo describes one durable edit of the tree manifest.
type ManifestEditInfo struct {
	// Adds and Deletes count the node records in the edit.
	Adds, Deletes int
}

// TableInfo describes one on-disk table (node) file.
type TableInfo struct {
	// FileNum is the table's file number.
	FileNum uint64
	// Level is the level the table belongs to, or -1 when the engine
	// does not know it at event time (the IAM tree places tables in a
	// level only after creating them).
	Level int
	// Bytes is the table's data size (0 if unknown at event time).
	Bytes int64
}

// StallInfo describes a write stall imposed on the commit path.
type StallInfo struct {
	// Level is the stall level: 1 = soft (the engine's slowdown), 2 =
	// hard (the engine's stop, or a full immutable-memtable queue).
	Level int
	// Duration is how long the writer was stalled; zero in the
	// begin event.
	Duration time.Duration
}

// BackgroundErrorInfo describes one failed attempt of background
// flush or compaction work.
type BackgroundErrorInfo struct {
	// Op names the failed operation ("flush" or "compact").
	Op string
	// Err is the underlying error.
	Err error
	// Retries is the consecutive-failure count including this one.
	Retries int
}

// CorruptionInfo describes one detected latent-media fault: a
// checksum mismatch or structural damage attributed to a file.
type CorruptionInfo struct {
	// Path is the damaged file.
	Path string
	// Layer names the format layer that detected the damage
	// ("block", "table.footer", "table.meta", "table.block", "wal",
	// "manifest").
	Layer string
	// Offset is the byte offset of the damage within the file, or -1
	// when the layer cannot attribute one.
	Offset int64
	// Detail is a human-readable description of the damage.
	Detail string
}

// ReadOnlyInfo describes the DB entering or leaving read-only
// degradation after repeated background failures.
type ReadOnlyInfo struct {
	// Cause is the background error that triggered the transition.
	Cause error
	// Duration is how long the DB spent degraded; zero in the enter
	// event.
	Duration time.Duration
}

// EventListener receives notifications about the engine's structural
// activity.  All fields are optional; EnsureDefaults fills the nil
// ones with no-ops so call sites never nil-check.  Callbacks run
// synchronously on engine goroutines, often with engine locks held —
// they must not call back into the DB and should return quickly.
type EventListener struct {
	FlushEnd        func(FlushInfo)
	AppendEnd       func(AppendInfo)
	MergeEnd        func(MergeInfo)
	MoveEnd         func(MoveInfo)
	SplitEnd        func(SplitInfo)
	CombineEnd      func(CombineInfo)
	WALRotated      func(WALRotationInfo)
	ManifestEdit    func(ManifestEditInfo)
	TableCreated    func(TableInfo)
	TableDeleted    func(TableInfo)
	WriteStallBegin func(StallInfo)
	WriteStallEnd   func(StallInfo)
	BackgroundError func(BackgroundErrorInfo)
	ReadOnlyEnter   func(ReadOnlyInfo)
	ReadOnlyExit    func(ReadOnlyInfo)
	// CorruptionDetected fires once per detected corruption (read
	// path, open-time suspicion, or scrub).  TableQuarantined fires
	// when a table is newly fenced off as a consequence.
	CorruptionDetected func(CorruptionInfo)
	TableQuarantined   func(TableInfo)
}

// EnsureDefaults returns a copy of the listener with every nil
// callback replaced by a no-op, so the engines can invoke callbacks
// unconditionally.  A nil receiver yields the all-no-op listener.
func (l *EventListener) EnsureDefaults() *EventListener {
	var out EventListener
	if l != nil {
		out = *l
	}
	if out.FlushEnd == nil {
		out.FlushEnd = func(FlushInfo) {}
	}
	if out.AppendEnd == nil {
		out.AppendEnd = func(AppendInfo) {}
	}
	if out.MergeEnd == nil {
		out.MergeEnd = func(MergeInfo) {}
	}
	if out.MoveEnd == nil {
		out.MoveEnd = func(MoveInfo) {}
	}
	if out.SplitEnd == nil {
		out.SplitEnd = func(SplitInfo) {}
	}
	if out.CombineEnd == nil {
		out.CombineEnd = func(CombineInfo) {}
	}
	if out.WALRotated == nil {
		out.WALRotated = func(WALRotationInfo) {}
	}
	if out.ManifestEdit == nil {
		out.ManifestEdit = func(ManifestEditInfo) {}
	}
	if out.TableCreated == nil {
		out.TableCreated = func(TableInfo) {}
	}
	if out.TableDeleted == nil {
		out.TableDeleted = func(TableInfo) {}
	}
	if out.WriteStallBegin == nil {
		out.WriteStallBegin = func(StallInfo) {}
	}
	if out.WriteStallEnd == nil {
		out.WriteStallEnd = func(StallInfo) {}
	}
	if out.BackgroundError == nil {
		out.BackgroundError = func(BackgroundErrorInfo) {}
	}
	if out.ReadOnlyEnter == nil {
		out.ReadOnlyEnter = func(ReadOnlyInfo) {}
	}
	if out.ReadOnlyExit == nil {
		out.ReadOnlyExit = func(ReadOnlyInfo) {}
	}
	if out.CorruptionDetected == nil {
		out.CorruptionDetected = func(CorruptionInfo) {}
	}
	if out.TableQuarantined == nil {
		out.TableQuarantined = func(TableInfo) {}
	}
	return &out
}

// NewLoggingListener returns a listener that formats every event as a
// single line through logf (e.g. log.Printf or t.Logf).
func NewLoggingListener(logf func(format string, args ...any)) *EventListener {
	return &EventListener{
		FlushEnd: func(i FlushInfo) {
			logf("flush: %d bytes in %v", i.Bytes, i.Duration)
		},
		AppendEnd: func(i AppendInfo) {
			logf("append: L%d +%d bytes", i.Level, i.Bytes)
		},
		MergeEnd: func(i MergeInfo) {
			logf("merge: L%d %d bytes in %v", i.Level, i.Bytes, i.Duration)
		},
		MoveEnd: func(i MoveInfo) {
			logf("move: L%d -> L%d", i.FromLevel, i.ToLevel)
		},
		SplitEnd: func(i SplitInfo) {
			logf("split: L%d into %d nodes, %d bytes", i.Level, i.NewNodes, i.Bytes)
		},
		CombineEnd: func(i CombineInfo) {
			logf("combine: L%d", i.Level)
		},
		WALRotated: func(i WALRotationInfo) {
			logf("wal: rotated %d -> %d (%d bytes)", i.OldNum, i.NewNum, i.OldBytes)
		},
		ManifestEdit: func(i ManifestEditInfo) {
			logf("manifest: +%d -%d nodes", i.Adds, i.Deletes)
		},
		TableCreated: func(i TableInfo) {
			logf("table created: %06d L%d %d bytes", i.FileNum, i.Level, i.Bytes)
		},
		TableDeleted: func(i TableInfo) {
			logf("table deleted: %06d", i.FileNum)
		},
		WriteStallBegin: func(i StallInfo) {
			logf("write stall begin: level %d", i.Level)
		},
		WriteStallEnd: func(i StallInfo) {
			logf("write stall end: level %d after %v", i.Level, i.Duration)
		},
		BackgroundError: func(i BackgroundErrorInfo) {
			logf("background error: %s attempt %d: %v", i.Op, i.Retries, i.Err)
		},
		ReadOnlyEnter: func(i ReadOnlyInfo) {
			logf("read-only: entered (%v)", i.Cause)
		},
		ReadOnlyExit: func(i ReadOnlyInfo) {
			logf("read-only: healed after %v", i.Duration)
		},
		CorruptionDetected: func(i CorruptionInfo) {
			logf("corruption: %s layer %s @%d: %s", i.Path, i.Layer, i.Offset, i.Detail)
		},
		TableQuarantined: func(i TableInfo) {
			logf("table quarantined: %06d L%d", i.FileNum, i.Level)
		},
	}
}
