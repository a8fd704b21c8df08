package main

// The concurrency experiment measures the commit pipeline's group
// commit under real write contention: N goroutines issue synchronous
// Puts against one DB, and throughput is wall-clock ops/sec.  It lives
// in cmd/iambench (not internal/harness) because it must read the wall
// clock — the harness packages are in iamlint's determinism scope.
//
// The filesystem is an in-memory FS whose Sync carries a fixed modeled
// device latency.  That latency is the quantity group commit exists to
// amortize: with one writer every commit pays a full sync; with N
// writers the queue fills while the leader is inside Sync, so the next
// leader commits the whole backlog under a single sync.  Throughput
// should therefore scale close to linearly with the writer count until
// group sizes saturate.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"iamdb"
	"iamdb/internal/harness"
	"iamdb/internal/vfs"
)

const (
	// concSyncLat is the modeled device sync latency.
	concSyncLat = 100 * time.Microsecond
	// concValueSize is the harness's default value size — referenced,
	// not restated, so the two cannot drift.
	concValueSize = harness.DefaultValueSize
)

// latFS wraps an FS so every file Sync sleeps for the modeled device
// time before delegating: base, plus perByte for each byte written to
// that file since its previous Sync (zero charges no transfer time).
// Reads and writes stay free, which isolates the costs a commit pipeline
// amortizes (the sync) and several overlap (the transfer).
type latFS struct {
	vfs.FS
	base    time.Duration
	perByte float64 // nanoseconds
}

func (fs latFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &latFile{File: f, fs: fs}, nil
}

func (fs latFS) Create(name string) (vfs.File, error) { return fs.wrap(fs.FS.Create(name)) }
func (fs latFS) Open(name string) (vfs.File, error)   { return fs.wrap(fs.FS.Open(name)) }

type latFile struct {
	vfs.File
	fs      latFS
	pending atomic.Int64 // bytes written since the last Sync
}

func (f *latFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.pending.Add(int64(n))
	return n, err
}

func (f *latFile) Sync() error {
	time.Sleep(f.fs.base + time.Duration(float64(f.pending.Swap(0))*f.fs.perByte))
	return f.File.Sync()
}

// runConcurrency produces the contention table: ops/sec, mean commit
// group size, and speedup over one writer, at 1/4/8/16 writers.
func runConcurrency(s harness.Scale) (harness.Table, error) {
	ops := 4000
	if s.Name == "small" {
		ops = 1600
	}
	tbl := harness.Table{
		Title: fmt.Sprintf("Concurrent commit throughput: %d sync Puts on MemFS with %v sync latency (IAM)",
			ops, concSyncLat),
		Header: []string{"writers", "ops/sec", "mean group", "speedup"},
	}
	var base float64
	for _, w := range []int{1, 4, 8, 16} {
		opsPerSec, m, err := writersRun(latFS{FS: vfs.NewMemFS(), base: concSyncLat},
			harness.MetricsRecord{
				Engine: fmt.Sprintf("IAM-%dwriters", w),
				Disk:   fmt.Sprintf("mem+sync%v", concSyncLat),
			}, w, 1, ops, concValueSize,
			func(key []byte, w, i int) []byte { return fmt.Appendf(key, "w%03d-%09d", w, i) })
		if err != nil {
			return harness.Table{}, err
		}
		if base == 0 {
			base = opsPerSec
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%.0f", opsPerSec),
			fmt.Sprintf("%.2f", m.MeanCommitGroupSize()),
			fmt.Sprintf("%.2fx", opsPerSec/base),
		})
	}
	return tbl, nil
}

// writersRun times writers concurrent goroutines splitting totalOps
// synchronous Puts of valueSize bytes over a fresh IAM DB on fs with the
// given shard count; key appends the key of writer w's op i to an empty
// buffer.  The DB's final metrics go to the harness sink in rec and come
// back for the caller's own columns.
func writersRun(fs vfs.FS, rec harness.MetricsRecord, writers, shards, totalOps, valueSize int,
	key func(buf []byte, w, i int) []byte) (opsPerSec float64, m iamdb.Metrics, err error) {
	db, err := iamdb.Open("db", &iamdb.Options{
		Engine: iamdb.IAM, FS: fs, SyncWrites: true, Shards: shards,
	})
	if err != nil {
		return 0, m, err
	}
	val := bytes.Repeat([]byte("v"), valueSize)
	perW := totalOps / writers
	errs := make([]error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, 0, 32)
			for i := 0; i < perW && errs[w] == nil; i++ {
				errs[w] = db.Put(key(buf[:0], w, i), val)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rec.Metrics = db.Metrics()
	harness.Report(rec)
	err = errors.Join(append(errs, db.Close())...)
	return float64(perW*writers) / elapsed.Seconds(), rec.Metrics, err
}
