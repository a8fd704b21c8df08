package engine

import (
	"fmt"
	"testing"

	"iamdb/internal/iterator"
	"iamdb/internal/kv"
)

type rec struct {
	user string
	seq  kv.Seq
	kind kv.Kind
}

func dropInput(recs ...rec) iterator.Iterator {
	var ks, vs [][]byte
	for _, r := range recs {
		ks = append(ks, kv.MakeInternalKey([]byte(r.user), r.seq, r.kind))
		vs = append(vs, []byte("v"))
	}
	return iterator.NewSlice(kv.CompareInternal, ks, vs)
}

func collectDrop(it iterator.Iterator) []string {
	var out []string
	for it.First(); it.Valid(); it.Next() {
		u, s, k, _ := kv.ParseInternalKey(it.Key())
		out = append(out, fmt.Sprintf("%s@%d:%v", u, s, k))
	}
	return out
}

func TestDropObsoleteKeepsNewestOnly(t *testing.T) {
	in := dropInput(
		rec{"a", 30, kv.KindSet},
		rec{"a", 20, kv.KindSet},
		rec{"a", 10, kv.KindSet},
		rec{"b", 5, kv.KindSet},
	)
	got := collectDrop(DropObsolete(in, kv.MaxSeq, false, nil))
	want := "[a@30:set b@5:set]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDropObsoleteHorizonKeepsVisible(t *testing.T) {
	in := dropInput(
		rec{"a", 30, kv.KindSet},
		rec{"a", 20, kv.KindSet},
		rec{"a", 10, kv.KindSet},
	)
	// Snapshot at 15 is active: keep 30 and 20 (>15) plus newest <= 15 (10).
	got := collectDrop(DropObsolete(in, 15, false, nil))
	want := "[a@30:set a@20:set a@10:set]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v want %v", got, want)
	}
	// Horizon 25: keep 30, plus newest <=25 (20); drop 10.
	in2 := dropInput(
		rec{"a", 30, kv.KindSet},
		rec{"a", 20, kv.KindSet},
		rec{"a", 10, kv.KindSet},
	)
	got = collectDrop(DropObsolete(in2, 25, false, nil))
	want = "[a@30:set a@20:set]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestDropObsoleteTombstones(t *testing.T) {
	mk := func() iterator.Iterator {
		return dropInput(
			rec{"a", 20, kv.KindDelete},
			rec{"a", 10, kv.KindSet},
			rec{"b", 5, kv.KindSet},
		)
	}
	// Mid-tree: tombstone must survive to shadow deeper data.
	got := collectDrop(DropObsolete(mk(), kv.MaxSeq, false, nil))
	if fmt.Sprint(got) != "[a@20:delete b@5:set]" {
		t.Fatalf("mid-tree: %v", got)
	}
	// Bottom: tombstone and everything under it vanish.
	got = collectDrop(DropObsolete(mk(), kv.MaxSeq, true, nil))
	if fmt.Sprint(got) != "[b@5:set]" {
		t.Fatalf("bottom: %v", got)
	}
	// Bottom but tombstone above horizon: must stay (a snapshot may
	// still need to observe the delete... and older versions too).
	got = collectDrop(DropObsolete(mk(), 15, true, nil))
	if fmt.Sprint(got) != "[a@20:delete a@10:set b@5:set]" {
		t.Fatalf("bottom with snapshot: %v", got)
	}
}

func TestDropObsoleteEmptyAndSingle(t *testing.T) {
	got := collectDrop(DropObsolete(dropInput(), kv.MaxSeq, true, nil))
	if got != nil {
		t.Fatalf("empty: %v", got)
	}
	got = collectDrop(DropObsolete(dropInput(rec{"x", 1, kv.KindSet}), kv.MaxSeq, true, nil))
	if fmt.Sprint(got) != "[x@1:set]" {
		t.Fatalf("single: %v", got)
	}
	// A single tombstone at bottom disappears completely.
	got = collectDrop(DropObsolete(dropInput(rec{"x", 1, kv.KindDelete}), kv.MaxSeq, true, nil))
	if got != nil {
		t.Fatalf("single tombstone: %v", got)
	}
}

func TestStatsAccumulate(t *testing.T) {
	r := NewReporter("x", nil, nil, nil)
	step := func(kind StepKind, level int, bytes int64) {
		st := r.Begin(kind, level)
		st.Done(bytes, 0)
		st.End()
	}
	step(StepMerge, 3, 100)
	step(StepAppend, 1, 50)
	step(StepMerge, 3, 100)
	reader := r.Begin(StepMerge, 2)
	reader.Read(2, 75)
	reader.Done(0, 0)
	reader.End()
	step(StepMove, 2, 0)
	step(StepSplit, 1, 0)
	step(StepCombine, 1, 0)
	step(StepFlush, NoLevel, 0)
	s := r.Snapshot()
	if s.FlushBytes[3] != 200 || s.FlushBytes[1] != 50 || s.FlushBytes[0] != 0 {
		t.Fatalf("flush bytes: %v", s.FlushBytes)
	}
	if s.TotalFlushBytes() != 250 {
		t.Fatalf("total: %d", s.TotalFlushBytes())
	}
	if s.TotalReadBytes() != 75 {
		t.Fatalf("read total: %d", s.TotalReadBytes())
	}
	if s.Appends != 1 || s.Merges != 3 || s.Moves != 1 || s.Splits != 1 || s.Combines != 1 || s.Flushes != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if len(s.PerLevel) != 4 {
		t.Fatalf("per-level rows: %d", len(s.PerLevel))
	}
	if l := s.PerLevel[3]; l.WriteBytes != 200 || l.Merges != 2 {
		t.Fatalf("L3 stats: %+v", l)
	}
	if l := s.PerLevel[2]; l.ReadBytes != 75 || l.Merges != 1 || l.Moves != 1 {
		t.Fatalf("L2 stats: %+v", l)
	}
	if l := s.PerLevel[1]; l.WriteBytes != 50 || l.Appends != 1 || l.Splits != 1 || l.Combines != 1 {
		t.Fatalf("L1 stats: %+v", l)
	}
	// Snapshot is a copy.
	s.FlushBytes[3] = 0
	s.PerLevel[3].WriteBytes = 0
	if got := r.Snapshot(); got.FlushBytes[3] != 200 || got.PerLevel[3].WriteBytes != 200 {
		t.Fatal("snapshot aliases internal state")
	}
}
