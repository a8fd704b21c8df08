package iamdb

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"iamdb/internal/table"
	"iamdb/internal/vlog"
	"iamdb/internal/wal"
)

// ErrScrubRunning reports that a Scrub pass is already in flight; only
// one runs at a time.
var ErrScrubRunning = errors.New("iamdb: scrub already running")

// ScrubReport summarises one full verification pass over the store's
// durable state.
type ScrubReport struct {
	// Tables is how many table files were verified; Seqs, Blocks,
	// Bytes and Entries total what their verification covered.
	Tables  int
	Seqs    int
	Blocks  int64
	Bytes   int64
	Entries uint64

	// WALFiles and WALRecords count the write-ahead logs scanned and
	// the records that verified; WALDropped is trailing bytes skipped
	// as a torn tail (expected after a crash, not corruption).
	WALFiles   int
	WALRecords int64
	WALDropped int64

	// VLogSegments and VLogRecords count the value-log segments scanned
	// and the records whose CRCs verified; VLogBytes totals their size.
	// VLogSuspect is trailing bytes of the head segment skipped as a
	// torn append (expected after a crash, not corruption).  All zero
	// when the store has no value log.
	VLogSegments int
	VLogRecords  int64
	VLogBytes    int64
	VLogSuspect  int64

	// Corruptions lists every typed corruption the pass found, in
	// discovery order.  Quarantined is how many tables the engine has
	// fenced off after the pass (including earlier detections).
	Corruptions []error
	Quarantined int
}

// String renders a one-line operator summary.
func (r *ScrubReport) String() string {
	s := fmt.Sprintf(
		"scrub: %d tables (%d seqs, %d blocks, %d bytes, %d entries), %d WALs (%d records, %d tail bytes dropped)",
		r.Tables, r.Seqs, r.Blocks, r.Bytes, r.Entries,
		r.WALFiles, r.WALRecords, r.WALDropped)
	if r.VLogSegments > 0 {
		s += fmt.Sprintf(", %d vlog segments (%d records, %d bytes, %d tail bytes suspect)",
			r.VLogSegments, r.VLogRecords, r.VLogBytes, r.VLogSuspect)
	}
	return s + fmt.Sprintf(", %d corruptions, %d quarantined",
		len(r.Corruptions), r.Quarantined)
}

// ScrubProgress is a point-in-time view of the current or most recent
// Scrub pass, for the /scrub debug endpoint and operator polling.
type ScrubProgress struct {
	// Running reports whether a pass is in flight right now.
	Running bool
	// Tables, Blocks and Bytes count what the in-flight (or last)
	// pass has covered so far.
	Tables int64
	Blocks int64
	Bytes  int64
	// Last is the most recent completed report (nil before the first
	// pass finishes); LastErr is that pass's error result.
	Last    *ScrubReport
	LastErr error
}

// Progress returns the current scrub progress counters.  A sharded DB
// reports the router-level flag and report with coverage counters
// summed across the shards' passes.
func (db *DB) ScrubProgress() ScrubProgress {
	db.scrub.mu.Lock()
	p := ScrubProgress{
		Running: db.scrub.running,
		Last:    db.scrub.last,
		LastErr: db.scrub.lastErr,
	}
	db.scrub.mu.Unlock()
	if ss := db.shards; ss != nil {
		for _, kid := range ss.kids {
			p.Tables += kid.scrub.tables.Load()
			p.Blocks += kid.scrub.blocks.Load()
			p.Bytes += kid.scrub.bytes.Load()
		}
		return p
	}
	p.Tables = db.scrub.tables.Load()
	p.Blocks = db.scrub.blocks.Load()
	p.Bytes = db.scrub.bytes.Load()
	return p
}

// scrubPacer rate-limits scrub reads to Options.ScrubBytesPerSec using
// real wall time (the scrub is an operator-facing maintenance job, not
// part of the deterministic engine clockwork).
type scrubPacer struct {
	rate  int64
	clock Clock
	start time.Duration
	bytes int64
}

func (p *scrubPacer) pace(n int64) {
	if p.rate <= 0 {
		return
	}
	p.bytes += n
	ahead := time.Duration(float64(p.bytes)/float64(p.rate)*float64(time.Second)) -
		(p.clock.Now() - p.start)
	if ahead > time.Millisecond {
		time.Sleep(ahead)
	}
}

// Scrub verifies every durable byte the store depends on: each table
// file's footer, metadata, index structure, data-block CRCs (read from
// disk, bypassing the cache), record ordering, Bloom membership and
// entry counts; each write-ahead log's record CRCs (a torn tail is
// tolerated, damage before valid records is not); and the engine's
// structural invariants (every manifest-referenced file present, ranges
// consistent).
//
// Detected corruption is counted, reported through the EventListener,
// and — when attributable to a table file — quarantines that table so
// compaction never rewrites the damaged data.  The pass continues past
// failures and lists everything it found in the report; err is the
// first corruption (or I/O failure) so callers can simply check err !=
// nil.  Reads to verify are rate-limited to Options.ScrubBytesPerSec
// when that is set.  Only one Scrub runs at a time.
func (db *DB) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	if db.closedA.Load() {
		return rep, ErrClosed
	}
	db.scrub.mu.Lock()
	if db.scrub.running {
		db.scrub.mu.Unlock()
		return rep, ErrScrubRunning
	}
	db.scrub.running = true
	db.scrub.mu.Unlock()
	db.scrub.tables.Store(0)
	db.scrub.blocks.Store(0)
	db.scrub.bytes.Store(0)

	var err error
	if ss := db.shards; ss != nil {
		// One shard at a time: the rate limit applies per shard, and the
		// router's running flag covers the whole pass.
		rep, err = ss.scrub()
	} else {
		rep, err = db.scrubPass()
	}

	db.scrub.mu.Lock()
	db.scrub.running = false
	db.scrub.last = &rep
	db.scrub.lastErr = err
	db.scrub.mu.Unlock()
	return rep, err
}

func (db *DB) scrubPass() (ScrubReport, error) {
	var rep ScrubReport
	var firstErr error
	note := func(err error) {
		rep.Corruptions = append(rep.Corruptions, err)
		if firstErr == nil {
			firstErr = err
		}
		db.noteCorruption(err)
	}
	pacer := &scrubPacer{rate: db.opt.ScrubBytesPerSec, clock: newWallClock()}
	pacer.start = pacer.clock.Now()

	// Tables: the engine hands us a referenced snapshot of every live
	// table; Verify re-reads each from disk without touching the cache.
	err := db.eng.VisitTables(func(level int, num uint64, t *table.Table) error {
		if db.closedA.Load() {
			return ErrClosed
		}
		st, verr := t.Verify(func(n int64) {
			db.scrubBlocksC.Inc()
			db.scrub.blocks.Add(1)
			db.scrub.bytes.Add(n)
			pacer.pace(n)
		})
		rep.Tables++
		db.scrub.tables.Add(1)
		rep.Seqs += st.Seqs
		rep.Blocks += st.Blocks
		rep.Bytes += st.Bytes
		rep.Entries += st.Entries
		if verr != nil {
			if IsCorruption(verr) {
				note(verr)
				return nil // keep scrubbing the other tables
			}
			return verr // I/O failure: abort the pass
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Write-ahead logs: strict replay of every .log file.  The active
	// log's in-flight tail reads as a torn tail, which strict replay
	// tolerates; damage in front of valid records is corruption.
	names, err := db.fs.List(db.dir)
	if err != nil {
		return rep, err
	}
	sort.Strings(names)
	for _, name := range names {
		if !strings.HasSuffix(name, ".log") {
			continue
		}
		if _, err := strconv.ParseUint(strings.TrimSuffix(name, ".log"), 10, 64); err != nil {
			continue
		}
		path := db.dir + "/" + name
		f, err := db.fs.Open(path)
		if err != nil {
			return rep, err
		}
		records := int64(0)
		dropped, rerr := wal.ReplayAllStrict(f, path, func(rec []byte) error {
			records++
			db.scrub.bytes.Add(int64(len(rec)))
			pacer.pace(int64(len(rec)))
			return nil
		})
		_ = f.Close()
		rep.WALFiles++
		rep.WALRecords += records
		rep.WALDropped += dropped
		if rerr != nil {
			if IsCorruption(rerr) {
				note(rerr)
				continue
			}
			return rep, rerr
		}
	}

	// Value log: re-read every record's CRC.  The head segment may end
	// in a torn append (crash mid-write), and a torn tail is physically
	// indistinguishable from rot, so trailing head bytes that fail to
	// parse are reported as suspect rather than corruption — the same
	// rule the WAL's torn tail gets.  Damage in any sealed segment is
	// corruption and fences that segment off from GC (rewriting damaged
	// records would launder the damage into fresh CRCs).
	if db.vl != nil {
		head := db.vl.Head()
		for _, seg := range db.vl.Segments() {
			if db.closedA.Load() {
				return rep, ErrClosed
			}
			path := vlog.SegmentName(db.dir, seg)
			if !db.fs.Exists(path) {
				continue // collected while the pass was running
			}
			scanned, serr := vlog.ScanFile(db.fs, path, func(key, val []byte, off int64, n int) error {
				rep.VLogRecords++
				db.scrub.bytes.Add(int64(n))
				pacer.pace(int64(n))
				return nil
			})
			rep.VLogSegments++
			rep.VLogBytes += scanned
			if serr == nil {
				continue
			}
			if !IsCorruption(serr) {
				return rep, serr
			}
			if seg == head {
				if f, ferr := db.fs.Open(path); ferr == nil {
					if sz, szerr := f.Size(); szerr == nil && sz > scanned {
						rep.VLogSuspect += sz - scanned
					}
					_ = f.Close()
				}
				continue
			}
			note(serr)
			db.vl.MarkBad(seg)
		}
	}

	// Structure: every manifest-referenced file present and the
	// engine's invariants intact.
	if cerr := db.CheckInvariants(); cerr != nil {
		note(cerr)
	}

	rep.Quarantined = len(db.eng.Quarantined())
	return rep, firstErr
}
