package vfs

import (
	"sync/atomic"
)

// IOStats accumulates raw device traffic.  The paper's amplification
// metrics are ratios over these counters: write amplification is
// BytesWritten (excluding the user log, which callers track separately)
// divided by the bytes users inserted; read amplification is Seeks per
// query in the out-of-RAM regime.
type IOStats struct {
	BytesWritten atomic.Int64
	BytesRead    atomic.Int64
	WriteOps     atomic.Int64
	ReadOps      atomic.Int64
	// Seeks counts positioned I/Os that did not continue the handle's
	// previous one of the same kind (seekMarks).
	Seeks atomic.Int64
}

// Snapshot returns a plain-struct copy of the counters.
func (s *IOStats) Snapshot() IOSnapshot {
	return IOSnapshot{
		BytesWritten: s.BytesWritten.Load(),
		BytesRead:    s.BytesRead.Load(),
		WriteOps:     s.WriteOps.Load(),
		ReadOps:      s.ReadOps.Load(),
		Seeks:        s.Seeks.Load(),
	}
}

// IOSnapshot is a point-in-time copy of IOStats.
type IOSnapshot struct {
	BytesWritten int64
	BytesRead    int64
	WriteOps     int64
	ReadOps      int64
	Seeks        int64
}

// Sub returns the delta s - o, counter by counter.
func (s IOSnapshot) Sub(o IOSnapshot) IOSnapshot {
	return IOSnapshot{
		BytesWritten: s.BytesWritten - o.BytesWritten,
		BytesRead:    s.BytesRead - o.BytesRead,
		WriteOps:     s.WriteOps - o.WriteOps,
		ReadOps:      s.ReadOps - o.ReadOps,
		Seeks:        s.Seeks - o.Seeks,
	}
}

// seekMarks is the one seek model: StatsFS counts it in Seeks and Disk
// charges SeekLatency by it, so the counter and the clock agree.  An
// access seeks unless it starts where the handle's previous access of
// the same kind ended; a sequential Write moves neither mark.
type seekMarks struct {
	read, write atomic.Int64 // end of the previous ReadAt / WriteAt plus one; 0 before the first
}

// seeked moves mark past an access of n bytes at off and reports
// whether the access was a seek.
func seeked(mark *atomic.Int64, off int64, n int) bool {
	return mark.Swap(off+int64(n)+1) != off+1
}

// StatsFS wraps an FS and records traffic into an IOStats.
type StatsFS struct {
	FS
	stats *IOStats
}

// NewStatsFS wraps fs; all handles opened through the wrapper feed st.
func NewStatsFS(fs FS, st *IOStats) *StatsFS {
	return &StatsFS{FS: fs, stats: st}
}

// Stats returns the wrapped counter set.
func (s *StatsFS) Stats() *IOStats { return s.stats }

// Create implements FS.
func (s *StatsFS) Create(name string) (File, error) { return s.wrap(s.FS.Create(name)) }

// Open implements FS.
func (s *StatsFS) Open(name string) (File, error) { return s.wrap(s.FS.Open(name)) }

func (s *StatsFS) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &statsFile{File: f, stats: s.stats}, nil
}

type statsFile struct {
	File
	stats *IOStats
	marks seekMarks
}

func (f *statsFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.stats.BytesRead.Add(int64(n))
	f.stats.ReadOps.Add(1)
	if seeked(&f.marks.read, off, n) {
		f.stats.Seeks.Add(1)
	}
	return n, err
}

func (f *statsFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.stats.BytesWritten.Add(int64(n))
	f.stats.WriteOps.Add(1)
	if seeked(&f.marks.write, off, n) {
		f.stats.Seeks.Add(1)
	}
	return n, err
}

func (f *statsFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.stats.BytesWritten.Add(int64(n))
	f.stats.WriteOps.Add(1)
	return n, err
}
