package vlog

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"iamdb/internal/corrupt"
	"iamdb/internal/vfs"
)

// ErrCorrupt is the sentinel wrapped by every typed corruption error
// this package raises, for errors.Is.
var ErrCorrupt = ErrBad

// SegmentName builds the canonical segment file name for a number.
func SegmentName(dir string, num uint64) string {
	return fmt.Sprintf("%s/%06d.vlg", dir, num)
}

// SegmentSuffix is the file-name suffix segments carry; scrub,
// checkpoint and the rot matrix recognise value-log files by it.
const SegmentSuffix = ".vlg"

// ParseSegmentName recovers a segment number from a base name like
// "000002.vlg".
func ParseSegmentName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, SegmentSuffix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Log is one DB's (or one shard's) value log.  It has one writer: the
// DB calls Append (which seals a full head), Sync and RemoveSegment with
// its store's commit lock held (commitMu < vlog.Log.mu is declared and
// checked), and Close after the last commit, so a checkpoint holding
// that lock copies a log nobody can change.  mu guards the segment maps against concurrent Reads and
// the collector's PickGC.  Discard statistics take their own leaf lock
// because engines report drops mid-merge with tree locks held.
//
//iamlint:lockorder vlog.Log.mu < vfs.*; vlog.Log.statsMu leaf
type Log struct {
	fs      vfs.FS
	dir     string
	segSize int64

	mu      sync.Mutex
	head    vfs.File
	headNum uint64
	headOff int64
	dirty   bool
	files   map[uint64]vfs.File // open handles, head included
	written map[uint64]int64    // record bytes per segment (GC density base)
	buf     []byte              // append scratch

	readBufs sync.Pool // *[]byte: ReadInto's record buffers

	statsMu sync.Mutex
	discard map[uint64]int64 // dropped record bytes per segment
	bad     map[uint64]bool  // segments GC must skip (detected damage)
}

// OpenStats reports what Open found.
type OpenStats struct {
	// Segments is the number of segment files.
	Segments int
	// SuspectBytes counts trailing head-segment bytes the open scan
	// could not parse — a torn tail after a crash or rotted records.
	// New appends go after them; reads into them fail typed.  The DB
	// layer reports them as a detection, like truncated WAL tails.
	SuspectBytes int64
	// SuspectOffset is where the unparseable tail starts (meaningful
	// when SuspectBytes > 0).
	SuspectOffset int64
}

// Open opens (creating as needed) the value log in dir.  The head
// segment — the one appends continue into — is scanned record by
// record to rebuild the append offset and surface torn or rotted
// tails; older segments are validated lazily, read by read.
func Open(fs vfs.FS, dir string, segSize int64) (*Log, OpenStats, error) {
	l := &Log{
		fs: fs, dir: dir, segSize: segSize,
		files:   make(map[uint64]vfs.File),
		written: make(map[uint64]int64),
		discard: make(map[uint64]int64),
		bad:     make(map[uint64]bool),
	}
	names, err := fs.List(dir)
	if err != nil {
		return nil, OpenStats{}, err
	}
	var segs []uint64
	for _, name := range names {
		if n, ok := ParseSegmentName(name); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	var st OpenStats
	for _, n := range segs {
		f, err := fs.Open(SegmentName(dir, n))
		if err != nil {
			l.closeAll()
			return nil, OpenStats{}, err
		}
		l.files[n] = f
		size, err := f.Size()
		if err != nil {
			l.closeAll()
			return nil, OpenStats{}, err
		}
		l.written[n] = size - int64(HeaderSize)
		if l.written[n] < 0 {
			l.written[n] = 0
		}
	}
	st.Segments = len(segs)
	if len(segs) == 0 {
		if err := l.createSegmentLocked(1); err != nil {
			return nil, OpenStats{}, err
		}
		st.Segments = 1
		return l, st, nil
	}
	head := segs[len(segs)-1]
	sc, err := scan(l.files[head], SegmentName(dir, head), new([]byte), nil)
	if err != nil && !errors.Is(err, ErrBad) {
		l.closeAll()
		return nil, OpenStats{}, err
	}
	l.headNum = head
	l.head = l.files[head]
	size := sc.Valid + sc.Suspect
	if !sc.HeaderOK && size < int64(HeaderSize) {
		// A header shorter than HeaderSize is a torn creation: records
		// are only synced after the header write, so nothing durable can
		// live here — rewrite the header in place and continue.
		if _, err := l.head.WriteAt([]byte(Magic), 0); err != nil {
			l.closeAll()
			return nil, OpenStats{}, err
		}
		l.headOff = int64(HeaderSize)
		l.written[head] = 0
		l.dirty = true
		return l, st, nil
	}
	st.SuspectBytes, st.SuspectOffset = sc.Suspect, sc.Valid
	if !sc.HeaderOK {
		// A full-size header with wrong magic could be rotted synced bytes:
		// quarantine the whole segment as suspect (CRC'd records inside
		// still resolve by direct read) and start a fresh head after it.
		l.statsMu.Lock()
		l.bad[head] = true
		l.statsMu.Unlock()
		if err := l.createSegmentLocked(head + 1); err != nil {
			l.closeAll()
			return nil, OpenStats{}, err
		}
		st.Segments++
		return l, st, nil
	}
	// Appends continue after everything present — the suspect region
	// is left in place (reads into it fail with typed errors; with
	// sync-before-WAL ordering no surviving pointer can reference it).
	l.headOff = size
	return l, st, nil
}

// createSegmentLocked starts a fresh head segment.  Caller holds mu
// (or is Open, before the log is shared).
func (l *Log) createSegmentLocked(num uint64) error {
	f, err := l.fs.Create(SegmentName(l.dir, num))
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte(Magic), 0); err != nil {
		_ = f.Close()
		return err
	}
	l.files[num] = f
	l.written[num] = 0
	l.head = f
	l.headNum = num
	l.headOff = int64(HeaderSize)
	l.dirty = true
	return nil
}

// Append writes one record and returns its pointer.  The record is not
// durable until Sync; the DB's commit leader syncs before it appends
// the pointer batch to the WAL, so a surviving pointer always has a
// surviving value underneath it.
func (l *Log) Append(key, val []byte) (Pointer, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.headOff >= l.segSize && l.headOff > int64(HeaderSize) {
		// Seal the head: sync it so every record in a non-head segment
		// is durable (GC and deletion reason about sealed segments
		// only), then start the next one.
		if l.dirty {
			if err := l.head.Sync(); err != nil {
				return Pointer{}, err
			}
			l.dirty = false
		}
		if err := l.createSegmentLocked(l.headNum + 1); err != nil {
			return Pointer{}, err
		}
	}
	l.buf = AppendRecord(l.buf[:0], key, val)
	if _, err := l.head.WriteAt(l.buf, l.headOff); err != nil {
		return Pointer{}, err
	}
	p := Pointer{Segment: l.headNum, Offset: l.headOff, Len: uint32(len(l.buf))}
	l.headOff += int64(len(l.buf))
	l.written[l.headNum] += int64(len(l.buf))
	l.dirty = true
	return p, nil
}

// Sync makes every appended record durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.dirty {
		return nil
	}
	if err := l.head.Sync(); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// handle returns the open file for a segment, opening it on demand.
func (l *Log) handle(num uint64) (vfs.File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if f, ok := l.files[num]; ok {
		return f, nil
	}
	f, err := l.fs.Open(SegmentName(l.dir, num))
	if err != nil {
		return nil, corrupt.New(corrupt.LayerVLog, SegmentName(l.dir, num), -1, ErrBad,
			fmt.Sprintf("segment missing: %v", err))
	}
	l.files[num] = f
	return f, nil
}

// maxRecordLen bounds a pointer's claimed record length so a rotted
// pointer cannot drive a giant allocation.
const maxRecordLen = 1 << 30

// Read resolves one pointer, verifying the record CRC and that the
// stored key matches the key the pointer was found under.  It is
// ReadInto with a nil dst: the returned value is a fresh allocation of
// the value alone, which the caller may retain.
func (l *Log) Read(p Pointer, wantKey []byte) ([]byte, error) { return l.ReadInto(nil, p, wantKey) }

// maxPooledRead is the largest record buffer ReadInto keeps for the next
// read, so one outsized record does not stay pinned in the pool.
const maxPooledRead = 1 << 20

// ReadInto resolves one pointer and appends its value to dst, returning
// the extended slice.  The record is read into a scratch buffer the log
// pools and checked as Read says; dst is written only once the checks
// pass, so on an error it is left as it was.
func (l *Log) ReadInto(dst []byte, p Pointer, wantKey []byte) ([]byte, error) {
	if p.Len < uint32(crcLen+2) || p.Len > maxRecordLen {
		return nil, l.readErr(p, fmt.Sprintf("implausible record length %d", p.Len))
	}
	f, err := l.handle(p.Segment)
	if err != nil {
		return nil, err
	}
	bp, _ := l.readBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf := slices.Grow((*bp)[:0], int(p.Len))[:p.Len]
	defer func() {
		if cap(buf) <= maxPooledRead {
			*bp = buf
			l.readBufs.Put(bp)
		}
	}()
	if _, err := f.ReadAt(buf, p.Offset); err != nil {
		return nil, l.readErr(p, fmt.Sprintf("record read failed: %v", err))
	}
	key, val, n, err := DecodeRecord(buf)
	if err != nil || n != int(p.Len) {
		return nil, l.readErr(p, "record failed CRC or framing check")
	}
	if string(key) != string(wantKey) {
		return nil, l.readErr(p, "record key does not match pointer's key")
	}
	return append(dst, val...), nil
}

// readErr is Read's corruption error, naming the segment file only on
// the failure path: a read that succeeds formats no path.
func (l *Log) readErr(p Pointer, detail string) error {
	return corrupt.New(corrupt.LayerVLog, SegmentName(l.dir, p.Segment), p.Offset, ErrBad, detail)
}

// ScanResult classifies a segment file's bytes after one walk from the
// front: Valid is the prefix that parses (the header and whole records),
// Suspect what follows it and does not — a torn append or rot, the walk
// cannot tell which.  A short or mismatched header makes every byte
// untrustworthy: HeaderOK is false and Valid 0.
type ScanResult struct {
	Valid, Suspect int64
	HeaderOK       bool
}

// ScanFile walks every record of one segment file, calling fn with
// slices into the walk's own buffer: the whole file, read once into a
// fresh allocation nothing else shares and nothing writes after the
// read, so fn may keep the slices past its return; a kept slice keeps
// the whole buffer alive.  It is the only walk there is: Open classifies
// the head segment with it, Scrub and the iamdump vlog subcommand read
// segments through it, and ScanSegment, the collector's walk, is it on a
// reused buffer.  A header or record failure ends the walk with a typed
// corruption error beside the classification.
func ScanFile(fs vfs.FS, path string, fn func(key, val []byte, off int64, n int) error) (ScanResult, error) {
	return scanFile(fs, path, new([]byte), fn)
}

// scanFile is ScanFile reading into *buf, grown as needed.
func scanFile(fs vfs.FS, path string, buf *[]byte, fn func(key, val []byte, off int64, n int) error) (ScanResult, error) {
	f, err := fs.Open(path)
	if err != nil {
		return ScanResult{}, err
	}
	defer f.Close()
	return scan(f, path, buf, fn)
}

// scan is scanFile on an open handle; path only names the file in errors.
func scan(f vfs.File, path string, buf *[]byte, fn func(key, val []byte, off int64, n int) error) (ScanResult, error) {
	size, err := f.Size()
	if err != nil {
		return ScanResult{}, err
	}
	if size < int64(HeaderSize) {
		// A crash can tear the header write itself, before any record
		// could have been acknowledged; the caller decides what that means.
		return ScanResult{Suspect: size}, corrupt.New(corrupt.LayerVLog, path, 0, ErrBad,
			fmt.Sprintf("segment shorter than header: %d bytes", size))
	}
	data := slices.Grow((*buf)[:0], int(size))[:size]
	*buf = data
	if _, err := f.ReadAt(data, 0); err != nil {
		return ScanResult{}, err
	}
	if string(data[:HeaderSize]) != Magic {
		return ScanResult{Suspect: size}, corrupt.New(corrupt.LayerVLog, path, 0, ErrBad,
			"bad segment magic")
	}
	off := int64(HeaderSize)
	for off < size {
		key, val, n, derr := DecodeRecord(data[off:])
		if derr != nil {
			return ScanResult{Valid: off, Suspect: size - off, HeaderOK: true}, corrupt.New(corrupt.LayerVLog, path, off, ErrBad,
				fmt.Sprintf("record failed CRC or framing check (%v)", derr))
		}
		if fn != nil {
			if err := fn(key, val, off, n); err != nil {
				return ScanResult{Valid: off, HeaderOK: true}, err
			}
		}
		off += int64(n)
	}
	return ScanResult{Valid: off, HeaderOK: true}, nil
}

// ScanSegment walks one of this log's segments as ScanFile does, but
// reads it into *buf, grown as needed and kept there for the next walk:
// the slices fn is handed are valid until the next scan into the same
// buffer.  The collector lends its buffer to one walk at a time.
func (l *Log) ScanSegment(num uint64, buf *[]byte, fn func(key, val []byte, p Pointer) error) error {
	_, err := scanFile(l.fs, SegmentName(l.dir, num), buf, func(key, val []byte, off int64, n int) error {
		return fn(key, val, Pointer{Segment: num, Offset: off, Len: uint32(n)})
	})
	return err
}

// NoteDiscard credits n dropped record bytes to a segment.  Engines
// call it from merge filters with tree locks held, so it takes only
// the stats leaf lock.
func (l *Log) NoteDiscard(seg uint64, n int64) {
	l.statsMu.Lock()
	l.discard[seg] += n
	l.statsMu.Unlock()
}

// MarkBad fences a segment off from GC after detected damage, so the
// collector does not loop on an unreadable segment.
func (l *Log) MarkBad(seg uint64) {
	l.statsMu.Lock()
	l.bad[seg] = true
	l.statsMu.Unlock()
}

// PickGC returns the sealed segment with the highest discard ratio at
// or above minRatio, if any — the coldest candidate by live density.
func (l *Log) PickGC(minRatio float64) (seg uint64, ok bool) {
	l.mu.Lock()
	head := l.headNum
	type cand struct {
		num     uint64
		written int64
	}
	var cands []cand
	for num, w := range l.written {
		if num != head && w > 0 {
			cands = append(cands, cand{num, w})
		}
	}
	l.mu.Unlock()
	l.statsMu.Lock()
	defer l.statsMu.Unlock()
	best := minRatio
	for _, c := range cands {
		if l.bad[c.num] {
			continue
		}
		ratio := float64(l.discard[c.num]) / float64(c.written)
		if ratio >= best {
			best, seg, ok = ratio, c.num, true
		}
	}
	return seg, ok
}

// RemoveSegment deletes a fully-rewritten segment.
func (l *Log) RemoveSegment(num uint64) error {
	l.mu.Lock()
	if num == l.headNum {
		l.mu.Unlock()
		return fmt.Errorf("vlog: refusing to remove head segment %d", num)
	}
	if f, ok := l.files[num]; ok {
		_ = f.Close()
		delete(l.files, num)
	}
	delete(l.written, num)
	l.mu.Unlock()
	l.statsMu.Lock()
	delete(l.discard, num)
	delete(l.bad, num)
	l.statsMu.Unlock()
	return l.fs.Remove(SegmentName(l.dir, num))
}

// Segments returns the current segment numbers, ascending.
func (l *Log) Segments() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, 0, len(l.written))
	for num := range l.written {
		out = append(out, num)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Head reports the current head segment number.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.headNum
}

// Dir reports the directory the log lives in.
func (l *Log) Dir() string { return l.dir }

// Stats summarizes the log for metrics reporting.
type Stats struct {
	// Segments is the live segment count.
	Segments int
	// Bytes is the record payload across segments (headers excluded).
	Bytes int64
	// DiscardBytes is the dropped-record bytes engines have reported
	// against live segments — the fuel of density GC.
	DiscardBytes int64
}

// Stats snapshots the log's size and discard accounting.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	var st Stats
	st.Segments = len(l.written)
	segs := make([]uint64, 0, len(l.written))
	for num, w := range l.written {
		st.Bytes += w
		segs = append(segs, num)
	}
	l.mu.Unlock()
	l.statsMu.Lock()
	for _, num := range segs {
		st.DiscardBytes += l.discard[num]
	}
	l.statsMu.Unlock()
	return st
}

// SpaceUsed reports on-disk bytes, headers included.
func (l *Log) SpaceUsed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, w := range l.written {
		n += w + int64(HeaderSize)
	}
	return n
}

// closeAll closes every handle (open-failure cleanup).
func (l *Log) closeAll() {
	for _, f := range l.files {
		_ = f.Close()
	}
	l.files = map[uint64]vfs.File{}
}

// Close syncs the head (a clean shutdown leaves every acknowledged
// record durable) and closes every handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	if l.dirty && l.head != nil {
		first = l.head.Sync()
		l.dirty = false
	}
	for _, f := range l.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	l.files = map[uint64]vfs.File{}
	l.head = nil
	return first
}
