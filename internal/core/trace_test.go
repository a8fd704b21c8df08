package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"iamdb/internal/cache"
	"iamdb/internal/trace"
	"iamdb/internal/vfs"
)

// TestSpansEndUnderFaults fails the n-th table write of one flush
// cascade, for every n up to the cascade's length, and checks that every
// span begun under that flush was ended: each ID the recorder handed out
// between two marker spans is in its snapshot (the ring is sized so that
// none is overwritten).  A span dropped on an error return would leave
// the children of core.flush no longer summing to it.
func TestSpansEndUnderFaults(t *testing.T) {
	failedIn := map[string]int{}
	for n := 0; ; n++ {
		ffs := vfs.NewFaultFS(vfs.NewMemFS())
		rec := trace.NewRecorder(1<<16, nil)
		// The budget holds level 1 only: appends there, merges below.
		tr, err := Open(Config{
			FS: ffs, Dir: "db", Cache: cache.New(1 << 20),
			NodeCapacity: 8 * 1024, Fanout: 4, Policy: IAM, MemBudget: 24 * 1024, K: 3,
			Trace: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := newLoader(t, tr)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 3000; i++ {
			l.put(fmt.Sprintf("user%06d", rng.Intn(6000)), "value-value-value-value")
		}
		l.flush()
		for i := 0; i < 100 || l.mt.Count() == 0; i++ { // the memtable the faulted flush empties
			l.put(fmt.Sprintf("user%06d", rng.Intn(6000)), "value-value-value-value")
		}

		before := rec.Begin("marker")
		before.End()
		ffs.FailAfterPath(vfs.FaultWrite, ".mst", n)
		flushErr := tr.Flush(l.mt.NewIter())
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
				t.Fatalf("write fault %d (flush error: %v): span %d was begun under the flush and never ended", n, flushErr, id)
			}
		}
		tr.Close()
		if flushErr == nil {
			break // the cascade has fewer than n table writes: every one has been failed
		}
		if !errors.Is(flushErr, vfs.ErrInjected) {
			t.Fatalf("write fault %d: flush failed with %v", n, flushErr)
		}
		// The innermost job span is the last begun, so the highest ID.
		failedIn[ended[after.ID()-1]]++
	}
	if failedIn["core.merge"] == 0 || failedIn["core.append"] == 0 {
		t.Fatalf("faults landed in %v: want some mid-merge and some mid-append", failedIn)
	}
}
