package core

// Scenario tests that pin the tree's behaviour to the paper's worked
// figures: Fig. 4 (flushing to the leaf level: full children merge and
// chunk, non-full children receive appends) and Fig. 5 (the mixed
// level: only the child that reached k sequences merges).

import (
	"fmt"
	"testing"

	"iamdb/internal/kv"
	"iamdb/internal/memtable"
	"iamdb/internal/vfs"
)

// buildTwoLevels loads an LSA tree until it has at least two on-disk
// levels with multiple leaf children.
func buildTwoLevels(t *testing.T, tr *Tree) {
	t.Helper()
	l := newLoader(t, tr)
	for i := 0; i < 4000; i++ {
		l.put(fmt.Sprintf("user%06d", (i*2654435761)%100000), "value-payload")
	}
	l.flush()
	if tr.n() < 2 {
		t.Skip("load too small to form two levels")
	}
}

// TestFigure4LeafFlushMergesFullChildOnly reproduces Fig. 4: when a
// parent flushes into the leaf level, a full child is merged (rewritten
// into chunks of the initial size Cts) while its non-full siblings only
// receive appended sequences.
func TestFigure4LeafFlushMergesFullChildOnly(t *testing.T) {
	tr, _ := testTree(t, LSA, 0)
	defer tr.Close()
	buildTwoLevels(t, tr)

	tr.Mu.Lock()
	leaf := tr.n()
	// Pick a leaf child and stuff it to the capacity threshold so the
	// next delivery to it must merge.
	if len(tr.Level(leaf)) == 0 {
		tr.Mu.Unlock()
		t.Skip("empty leaf level")
	}
	victim := tr.Level(leaf)[0]
	victimRange := victim.Range()
	tr.Mu.Unlock()

	// Write keys inside the victim's range until it is full, flushing
	// through the tree each time.
	l := newLoader(t, tr)
	mid := victimRange.Lo
	fill := 0
	for !tr.full(victim) && fill < 100000 {
		l.put(string(mid)+fmt.Sprintf("~%06d", fill), "padpadpadpadpadpadpadpad")
		fill++
		// The node object may have been replaced by a merge already;
		// refresh the pointer by range lookup.
		tr.Mu.Lock()
		for _, nd := range tr.Level(leaf) {
			if nd.Range().Contains(mid) {
				victim = nd
			}
		}
		tr.Mu.Unlock()
	}
	before := tr.Stats()
	l.flush()
	// Keep inserting into the victim's range: the full child must be
	// merged (Merges increases) and the output chunked small.
	for i := 0; i < 2000; i++ {
		l.put(string(mid)+fmt.Sprintf("!%06d", i), "morepayloadmorepayload")
	}
	l.flush()
	after := tr.Stats()
	if after.Merges <= before.Merges {
		t.Fatalf("full leaf child never merged (merges %d -> %d)", before.Merges, after.Merges)
	}
	// Appends to non-full siblings continued meanwhile.
	if after.Appends <= before.Appends {
		t.Fatalf("non-full children stopped receiving appends")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFigure5MixedLevelKSequences reproduces Fig. 5: with the mixed
// level pinned and k = 3, children accumulate up to 3 sequences by
// appends; the 3-sequence child merges back to a single sequence on
// its next delivery.
func TestFigure5MixedLevelKSequences(t *testing.T) {
	fs := vfs.NewMemFS()
	tr, err := Open(Config{
		FS: fs, Dir: "db", NodeCapacity: 8 * 1024, Fanout: 4,
		Policy: IAM, FixedM: 2, K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	l := newLoader(t, tr)
	for i := 0; i < 6000; i++ {
		l.put(fmt.Sprintf("user%06d", (i*2654435761)%50000), "v-payload")
	}
	l.flush()
	if tr.n() < 2 {
		t.Skip("too shallow")
	}
	// Mixed level is L2: every node must carry at most k=3 sequences.
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	maxSeqs := 0
	for _, nd := range tr.Level(2) {
		if s := nd.NumSeqs(); s > maxSeqs {
			maxSeqs = s
		}
	}
	if maxSeqs > 3 {
		t.Fatalf("mixed level node carries %d sequences > k=3", maxSeqs)
	}
	// And appends actually accumulate there (some node has >1).
	if maxSeqs <= 1 && len(tr.Level(2)) > 2 {
		t.Fatalf("mixed level never accumulated appended sequences")
	}
}

// TestMoveDownKeepsSequences verifies the move-down path of Sec. 6.2
// ("most nodes in level 5 are moved directly from level 4 without
// rewriting"): a multi-sequence node that moves levels keeps its file
// and sequence count.
func TestMoveDownKeepsSequences(t *testing.T) {
	tr, _ := testTree(t, LSA, 0)
	defer tr.Close()
	// Sequential load: every node moves down without rewriting.
	mt := memtable.New()
	seq := kv.Seq(0)
	for i := 0; i < 3000; i++ {
		seq++
		mt.Add(seq, kv.KindSet, []byte(fmt.Sprintf("s%08d", i)), []byte("value-value"))
		if mt.ApproximateSize() >= tr.cfg.NodeCapacity {
			if err := tr.Flush(mt.NewIter()); err != nil {
				t.Fatal(err)
			}
			mt = memtable.New()
		}
	}
	tr.Flush(mt.NewIter())
	st := tr.Stats()
	if st.Moves == 0 {
		t.Fatal("sequential load should move nodes down")
	}
	if st.Merges > st.Moves/2 {
		t.Fatalf("sequential load merged too much: %d merges vs %d moves", st.Merges, st.Moves)
	}
}
