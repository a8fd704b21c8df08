package iamdb

import (
	"errors"
	"fmt"

	"iamdb/internal/table"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
	"iamdb/internal/wal"
)

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

// Scrub verifies every durable byte the database depends on: each table
// file's footer, metadata, index structure, data-block CRCs (read from
// disk, bypassing the cache), record ordering, Bloom membership and
// entry counts; each write-ahead log's record CRCs (a torn tail is
// tolerated, damage before valid records is not); each value-log
// record's CRC; and the engines' structural invariants (every
// manifest-referenced file present, ranges consistent).
//
// Detected corruption is counted, reported through the EventListener,
// and — when attributable to a table file — quarantines that table so
// compaction never rewrites the damaged data.  The pass covers one
// store at a time, continues past failures and lists everything it
// found in the report; err is the first corruption (or I/O failure) so
// callers can simply check err != nil.  The report is the only record
// of the pass; Metrics.ScrubBlocks counts verified blocks as it goes.
// Passes may overlap: each reads only, apart from its idempotent
// quarantine marks and counters.
func (db *DB) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	if db.closedA.Load() {
		return rep, ErrClosed
	}
	var err error
	for _, st := range db.stores {
		serr := st.scrubPass(&rep)
		if err == nil {
			err = serr
		}
		if errors.Is(serr, ErrClosed) {
			break
		}
	}
	return rep, err
}

// scrubPass verifies this store's durable state, adding what it covered
// and found to rep and returning its first corruption or I/O failure
// (an I/O failure aborts the store's pass).
func (st *store) scrubPass(rep *ScrubReport) error {
	var firstErr error
	note := func(err error) {
		rep.Corruptions = append(rep.Corruptions, err)
		if firstErr == nil {
			firstErr = err
		}
		st.noteCorruption(err)
	}

	// Tables: the set hands us a referenced snapshot of every live
	// table; Verify re-reads each from disk without touching the cache.
	err := st.set.VisitTables(func(level int, num uint64, t *table.Table) error {
		if st.db.closedA.Load() {
			return ErrClosed
		}
		vst, verr := t.Verify(func(int64) { st.scrubBlocks.Add(1) })
		rep.Tables++
		rep.Seqs += vst.Seqs
		rep.Blocks += vst.Blocks
		rep.Bytes += vst.Bytes
		rep.Entries += vst.Entries
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
		return err
	}

	// Write-ahead logs: strict replay of every .log file.  The active
	// log's in-flight tail reads as a torn tail, which strict replay
	// tolerates; damage in front of valid records is corruption.
	names, err := st.fs.List(st.dir)
	if err != nil {
		return err
	}
	for _, num := range logNums(names) {
		path := logName(st.dir, num)
		f, err := st.fs.Open(path)
		if errors.Is(err, vfs.ErrNotFound) {
			continue // retired by a flush while the pass was running
		}
		if err != nil {
			return err
		}
		records := int64(0)
		dropped, rerr := wal.Replay(f, path, func([]byte) error {
			records++
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
			return rerr
		}
	}

	// Value log: re-read every record's CRC.  The head segment may end
	// in a torn append (crash mid-write), and a torn tail is physically
	// indistinguishable from rot, so trailing head bytes that fail to
	// parse are reported as suspect rather than corruption — the same
	// rule the WAL's torn tail gets.  Damage in any sealed segment is
	// corruption and fences that segment off from GC (rewriting damaged
	// records would launder the damage into fresh CRCs).
	if vs := st.vs; vs != nil {
		head := vs.log.Head()
		for _, seg := range vs.log.Segments() {
			if st.db.closedA.Load() {
				return ErrClosed
			}
			sc, serr := vlog.ScanFile(st.fs, vs.segmentPath(seg), func([]byte, []byte, int64, int) error {
				rep.VLogRecords++
				return nil
			})
			if errors.Is(serr, vfs.ErrNotFound) {
				continue // collected while the pass was running
			}
			rep.VLogSegments++
			rep.VLogBytes += sc.Valid
			if serr == nil {
				continue
			}
			if !IsCorruption(serr) {
				return serr
			}
			if seg == head {
				rep.VLogSuspect += sc.Suspect // the figure vlog.Open reports for the same bytes
				continue
			}
			note(serr)
			vs.log.MarkBad(seg)
		}
	}

	// Structure: every manifest-referenced file present and the
	// engine's invariants intact.
	if cerr := st.eng.CheckInvariants(); cerr != nil {
		note(cerr)
	}

	rep.Quarantined += len(st.set.Quarantined())
	return firstErr
}
