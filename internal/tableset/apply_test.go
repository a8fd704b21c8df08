package tableset

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"iamdb/internal/kv"
	"iamdb/internal/manifest"
	"iamdb/internal/vfs"
)

// agreesWithReplay compares the set in memory with what manifest.Replay
// makes of the file on disk: the same tables on the same levels, in the
// same order, with the same ranges, and the same file counter.  Replay
// orders every level by range; the set orders level 0 by file number, as
// load does after replaying, so level 0 is compared in that order.
func agreesWithReplay(s *Set, fs vfs.FS) error {
	st, dropped, err := manifest.Replay(fs, "db/"+manifestName)
	if err != nil || dropped != 0 {
		return fmt.Errorf("replay: %v, %d bytes dropped", err, dropped)
	}
	s.Mu.Lock()
	defer s.Mu.Unlock()
	if st.NextFile != s.nextFile {
		return fmt.Errorf("the manifest names file counter %d, memory holds %d", st.NextFile, s.nextFile)
	}
	// Replay grows its levels on demand, so it may hold fewer than the set.
	for lvl := 0; lvl < s.NumLevels(); lvl++ {
		var recs []manifest.NodeRecord
		if lvl < len(st.Levels) {
			recs = st.Levels[lvl]
		}
		if lvl == 0 {
			sort.Slice(recs, func(a, b int) bool { return recs[a].FileNum < recs[b].FileNum })
		}
		mem := s.Level(lvl)
		if len(recs) != len(mem) {
			return fmt.Errorf("L%d: the manifest places %d tables, memory holds %d", lvl, len(recs), len(mem))
		}
		for j, rec := range recs {
			if rec.FileNum != mem[j].ID() || !mem[j].Range().Equal(kv.MakeRange(rec.Lo, rec.Hi)) {
				return fmt.Errorf("L%d[%d]: the manifest places %d %v, memory holds %d %v",
					lvl, j, rec.FileNum, kv.MakeRange(rec.Lo, rec.Hi), mem[j].ID(), mem[j].Range())
			}
		}
	}
	return nil
}

// TestApplyMatchesReplay drives a seeded sequence of every kind of change
// the engines make through Apply and checks "manifest agreement" after
// each: what the edits on disk replay to is what memory holds.  A failed
// manifest append may break the agreement; Resume must restore it.
func TestApplyMatchesReplay(t *testing.T) {
	const levels = 4
	fs := vfs.NewFaultFS(vfs.NewMemFS())
	s := openSet(t, fs, 0, levels)
	defer s.Close()
	rng := rand.New(rand.NewSource(7))

	// Every table owns one key prefix, so the ranges of a level stay
	// disjoint whatever moves where, and a widened range stays inside it.
	taken := map[string]bool{}
	build := func() *Table {
		t.Helper()
		prefix := fmt.Sprintf("t%05d", rng.Intn(100000))
		for taken[prefix] {
			prefix = fmt.Sprintf("t%05d", rng.Intn(100000))
		}
		taken[prefix] = true
		s.Mu.Lock()
		defer s.Mu.Unlock()
		tb, _, err := s.Build(testCap, run(1, prefix+"-a", prefix+"-b", prefix+"-c"))
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	widened := func(tb *Table) kv.Range {
		prefix := tb.UserRange().Lo[:6]
		return kv.MakeRange(prefix, append(append([]byte(nil), prefix...), '~'))
	}
	// pick returns a random table standing on a level in [0, below).
	pick := func(below int) (int, *Table) {
		s.Mu.Lock()
		defer s.Mu.Unlock()
		for _, lvl := range rng.Perm(below) {
			if n := len(s.Level(lvl)); n > 0 {
				return lvl, s.Level(lvl)[rng.Intn(n)]
			}
		}
		return -1, nil
	}

	kinds := map[string]int{}
	step := func() (string, *Change) {
		c := new(Change)
		lvl, tb := pick(levels)
		switch op := rng.Intn(7); {
		case tb == nil || op == 0:
			return "place", c.Place(rng.Intn(levels), build())
		case op == 1:
			return "drop", c.Drop(lvl, tb)
		case op == 2:
			if lvl, tb = pick(levels - 1); tb == nil {
				return "place", c.Place(levels-1, build())
			}
			return "move down", c.Drop(lvl, tb).Place(lvl+1, tb)
		case op == 3:
			return "re-range in place", c.Drop(lvl, tb).PlaceAs(lvl, tb, widened(tb))
		case op == 4:
			// A merge or a split: one table out, several in, the first
			// with an assigned range wider than its data.
			first := build()
			return "drop with arrivals", c.Drop(lvl, tb).PlaceAs(lvl, first, widened(first)).Place(lvl, build(), build())
		case op == 5:
			// A compaction whose output is empty: tables leave two levels,
			// nothing arrives and the file counter has not moved.
			c.Drop(lvl, tb)
			if lvl2, tb2 := pick(levels); tb2 != tb {
				c.Drop(lvl2, tb2)
			}
			return "empty-output drop", c
		default:
			return "place", c.Place(rng.Intn(levels), build(), build())
		}
	}
	drive := func(steps int) {
		t.Helper()
		for i := 0; i < steps; i++ {
			kind, c := step()
			kinds[kind]++
			if err := apply(s, c); err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			if err := agreesWithReplay(s, fs); err != nil {
				t.Fatalf("step %d, after a %s: %v", i, kind, err)
			}
			if err := checkStructure(s); err != nil {
				t.Fatalf("step %d, after a %s: %v", i, kind, err)
			}
		}
	}
	drive(300)

	// The edit of this drop is lost; memory keeps the change.
	fs.FailAfterPath(vfs.FaultWrite, manifestName, 0)
	lvl, tb := pick(levels)
	if err := drop(s, lvl, tb); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("drop with a failing manifest: %v", err)
	}
	fs.Clear()
	if err := agreesWithReplay(s, fs); err == nil {
		t.Fatal("a drop whose edit was never written left manifest and memory in agreement")
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := agreesWithReplay(s, fs); err != nil {
		t.Fatalf("after Resume: %v", err)
	}
	drive(100)

	for _, kind := range []string{"place", "drop", "move down", "re-range in place", "drop with arrivals", "empty-output drop"} {
		if kinds[kind] < 10 {
			t.Errorf("only %d changes of kind %q in the sequence", kinds[kind], kind)
		}
	}
}

// A table named on both sides of a change moves, or is re-ranged where it
// stands: the successor version names it too, so its handle stays open,
// and it keeps its file.
func TestApplyKeepsTableNamedOnBothSides(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.NewMemFS())
	s := openSet(t, fs, 1, 3)
	defer s.Close()
	_, b, _ := threeTables(t, s)
	name := fmt.Sprintf("db/%06d.mst", b.ID())
	// The armed close fault fires when, and only when, the handle closes.
	fs.FailAfterPath(vfs.FaultClose, name, 0)

	wide := kv.MakeRange([]byte("b"), []byte("d"))
	for _, c := range []struct {
		kind   string
		change func() *Change // Place reads the range the table has then
		level  int
	}{
		{"re-ranged in place", func() *Change { return new(Change).Drop(1, b).PlaceAs(1, b, wide) }, 1},
		{"moved down", func() *Change { return new(Change).Drop(1, b).Place(2, b) }, 2},
	} {
		if err := apply(s, c.change()); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if !fs.Exists(name) {
			t.Fatalf("%s: the file is gone", c.kind)
		}
		if fs.Hits(vfs.FaultClose) != 0 {
			t.Fatalf("%s: the handle was closed", c.kind)
		}
		// A Table is one placement: the level holds the one this change
		// published, of the same file.
		s.Mu.Lock()
		j := slices.IndexFunc(s.Level(c.level), func(tb *Table) bool { return tb.ID() == b.ID() })
		if j >= 0 {
			b = s.Level(c.level)[j]
		}
		s.Mu.Unlock()
		if j < 0 || !b.Range().Equal(wide) {
			t.Fatalf("%s: level %d holds the table: %v, with range %v", c.kind, c.level, j >= 0, b.Range())
		}
		if got := get(t, s, "c2"); got != "c2@1" {
			t.Fatalf("%s: the table serves %q for c2", c.kind, got)
		}
		if err := agreesWithReplay(s, fs); err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
	}
}
