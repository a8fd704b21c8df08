package lsm

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"iamdb/internal/cache"
	"iamdb/internal/kv"
	"iamdb/internal/memtable"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
)

// TestSpansEndUnderFaults fails the n-th table write of one flush, and
// of one compaction, for every n up to the job's length, and checks that
// every span begun under the job was ended: each ID the recorder handed
// out between two marker spans is in its snapshot (the ring is sized so
// that none is overwritten).
func TestSpansEndUnderFaults(t *testing.T) {
	for _, job := range []struct {
		span string
		run  func(d *DB, mt *memtable.MemTable) error
	}{
		{"lsm.flush", func(d *DB, mt *memtable.MemTable) error { return d.Flush(mt.NewIter()) }},
		{"lsm.compact", func(d *DB, _ *memtable.MemTable) error {
			did, err := d.WorkStep()
			if err == nil && !did {
				return errors.New("no compaction was due")
			}
			return err
		}},
	} {
		failed := 0
		for n := 0; ; n++ {
			ffs := vfs.NewFaultFS(vfs.NewMemFS())
			rec := trace.NewRecorder(1<<10, nil)
			d, err := Open(Config{
				FS: ffs, Dir: "db", Cache: cache.New(1 << 20),
				FileSize: 8 * 1024, LevelSizeBase: 40 * 1024, Fanout: 10,
				L0CompactTrigger: 4, Profile: ProfileRocksDB, Trace: rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Four overlapping level 0 files make a merging compaction
			// due; a fifth memtable is the one the faulted flush empties.
			rng := rand.New(rand.NewSource(9))
			var seq kv.Seq
			fill := func() *memtable.MemTable {
				mt := memtable.New()
				for i := 0; i < 200; i++ {
					seq++
					mt.Add(seq, kv.KindSet, []byte(fmt.Sprintf("user%06d", rng.Intn(2000))), []byte("value-value-value-value"))
				}
				return mt
			}
			for f := 0; f < 4; f++ {
				if err := d.Flush(fill().NewIter()); err != nil {
					t.Fatal(err)
				}
			}
			mt := fill()

			before := rec.Begin("marker")
			before.End()
			ffs.FailAfterPath(vfs.FaultWrite, ".mst", n)
			jobErr := job.run(d, mt)
			ffs.Clear()
			after := rec.Begin("marker")
			after.End()
			if rec.Dropped() != 0 {
				t.Fatalf("the ring overwrote %d spans; size it to the run", rec.Dropped())
			}

			ended := map[uint64]string{}
			for _, sp := range rec.Snapshot() {
				ended[sp.ID] = sp.Name
			}
			for id := before.ID() + 1; id < after.ID(); id++ {
				if _, ok := ended[id]; !ok {
					t.Fatalf("%s, write fault %d (error: %v): span %d was begun under the job and never ended", job.span, n, jobErr, id)
				}
			}
			if got := ended[after.ID()-1]; got != job.span {
				t.Fatalf("%s, write fault %d: the job ran under span %q", job.span, n, got)
			}
			d.Close()
			if jobErr == nil {
				break // the job has fewer than n table writes: every one has been failed
			}
			if !errors.Is(jobErr, vfs.ErrInjected) {
				t.Fatalf("%s, write fault %d: the job failed with %v", job.span, n, jobErr)
			}
			failed++
		}
		if failed == 0 {
			t.Fatalf("%s: no write fault landed", job.span)
		}
	}
}
