package tableset

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"iamdb/internal/corrupt"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/manifest"
	"iamdb/internal/vfs"
)

const testCap = 1 << 20

func openSet(t *testing.T, fs vfs.FS, minLevel, maxLevels int) *Set {
	t.Helper()
	s, err := Open(Config{FS: fs, Dir: "db", MinLevel: minLevel, MaxLevels: maxLevels})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// run is a sorted run of user keys, all written at sequence seq with
// the value "<key>@<seq>".
func run(seq kv.Seq, ukeys ...string) iterator.Iterator {
	var keys, vals [][]byte
	for _, u := range ukeys {
		keys = append(keys, kv.MakeInternalKey([]byte(u), seq, kv.KindSet))
		vals = append(vals, []byte(fmt.Sprintf("%s@%d", u, seq)))
	}
	return iterator.NewSlice(kv.CompareInternal, keys, vals)
}

// place builds a table from src and publishes it on level lvl the way an
// engine does: Build, Apply.
func place(t *testing.T, s *Set, lvl int, src iterator.Iterator) *Table {
	t.Helper()
	s.Mu.Lock()
	defer s.Mu.Unlock()
	tb, _, err := s.Build(testCap, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(new(Change).Place(lvl, tb)); err != nil {
		t.Fatal(err)
	}
	return tb
}

// drop removes tb from level lvl the way an engine does.
func drop(s *Set, lvl int, tb *Table) error {
	return apply(s, new(Change).Drop(lvl, tb))
}

func checkStructure(s *Set) error {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.CheckStructure()
}

func apply(s *Set, c *Change) error {
	s.Mu.Lock()
	defer s.Mu.Unlock()
	return s.Apply(c)
}

func get(t *testing.T, s *Set, ukey string) string {
	t.Helper()
	v, _, _, found, err := s.Get([]byte(ukey), kv.MaxSeq)
	if err != nil {
		t.Fatalf("get %s: %v", ukey, err)
	}
	if !found {
		return ""
	}
	return string(v)
}

// threeTables is the iterator fixture: level 1 holds a1..a3 | c1 c2 |
// e1..e3, with nothing in the b and d gaps.
func threeTables(t *testing.T, s *Set) (a, b, c *Table) {
	a = place(t, s, 1, run(1, "a1", "a2", "a3"))
	b = place(t, s, 1, run(1, "c1", "c2"))
	c = place(t, s, 1, run(1, "e1", "e2", "e3"))
	return a, b, c
}

// seekKey sorts before every version of u, prevKey after them all.
func seekKey(u string) []byte { return kv.MakeInternalKey([]byte(u), kv.MaxSeq, kv.MaxKind) }
func prevKey(u string) []byte { return kv.MakeInternalKey([]byte(u), 0, 0) }

// walk collects up to n user keys from the iterator's current position.
func walk(it iterator.Iterator, step func(), n int) string {
	var out []string
	for ; it.Valid() && len(out) < n; step() {
		out = append(out, string(kv.UserKey(it.Key())))
	}
	return strings.Join(out, " ")
}

func TestLevelIteratorAcrossTableBoundaries(t *testing.T) {
	s := openSet(t, vfs.NewMemFS(), 1, 0)
	defer s.Close()
	threeTables(t, s)
	const all = "a1 a2 a3 c1 c2 e1 e2 e3"
	const rev = "e3 e2 e1 c2 c1 a3 a2 a1"
	cases := []struct {
		name    string
		pos     func(it iterator.ReverseIterator)
		reverse bool
		want    string
	}{
		{"First", func(it iterator.ReverseIterator) { it.First() }, false, all},
		{"Last", func(it iterator.ReverseIterator) { it.Last() }, true, rev},
		{"Seek crosses to the next table", func(it iterator.ReverseIterator) { it.Seek(seekKey("a3")) }, false, "a3 c1 c2 e1 e2 e3"},
		{"Seek into a gap", func(it iterator.ReverseIterator) { it.Seek(seekKey("b")) }, false, "c1 c2 e1 e2 e3"},
		{"Seek past the end", func(it iterator.ReverseIterator) { it.Seek(seekKey("f")) }, false, ""},
		{"SeekForPrev crosses to the previous table", func(it iterator.ReverseIterator) { it.SeekForPrev(prevKey("c1")) }, true, "c1 a3 a2 a1"},
		{"SeekForPrev into a gap", func(it iterator.ReverseIterator) { it.SeekForPrev(prevKey("d")) }, true, "c2 c1 a3 a2 a1"},
		{"SeekForPrev before the start", func(it iterator.ReverseIterator) { it.SeekForPrev(prevKey("0")) }, true, ""},
		{"forward then back over a boundary", func(it iterator.ReverseIterator) {
			it.Seek(seekKey("c1"))
			it.Prev()
		}, true, "a3 a2 a1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			it := s.NewIter()
			defer it.Close()
			c.pos(it)
			step := it.Next
			if c.reverse {
				step = it.Prev
			}
			if got := walk(it, step, 100); got != c.want {
				t.Fatalf("got %q want %q", got, c.want)
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// An append that widens a table's range after an iterator exists
// (core.deliverToChild does this to live nodes) must not change which
// table the iterator routes a key to: it routes by the ranges it captured
// at creation.
func TestLevelIteratorRoutesByRangesAtCreation(t *testing.T) {
	s := openSet(t, vfs.NewMemFS(), 1, 0)
	defer s.Close()
	a, _, _ := threeTables(t, s)
	it := s.NewIter()
	defer it.Close()

	s.Mu.Lock()
	src := run(2, "b5")
	src.First()
	if _, err := a.AppendFrom(src); err != nil {
		t.Fatal(err)
	}
	err := s.Apply(new(Change).Drop(1, a).PlaceAs(1, a, a.Range().Union(kv.MakeRange([]byte("b5"), []byte("b5")))))
	s.Mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	if got := get(t, s, "b5"); got != "b5@2" {
		t.Fatalf("live read of the appended key: %q", got)
	}
	it.Seek(seekKey("b0"))
	if got := walk(it, it.Next, 2); got != "c1 c2" {
		t.Fatalf("old iterator Seek(b0): %q, want the pre-append view \"c1 c2\"", got)
	}
	fresh := s.NewIter()
	defer fresh.Close()
	fresh.Seek(seekKey("b0"))
	if got := walk(fresh, fresh.Next, 2); got != "b5 c1" {
		t.Fatalf("new iterator Seek(b0): %q", got)
	}
}

// Level 0 tables overlap and shadow each other newest first; deeper
// levels are probed after them.
func TestLevelZeroNewestFirst(t *testing.T) {
	s := openSet(t, vfs.NewMemFS(), 0, 4)
	defer s.Close()
	place(t, s, 1, run(1, "k1", "k2", "k3"))
	place(t, s, 0, run(2, "k1", "k2"))
	place(t, s, 0, run(3, "k2"))
	for ukey, want := range map[string]string{"k1": "k1@2", "k2": "k2@3", "k3": "k3@1", "k4": ""} {
		if got := get(t, s, ukey); got != want {
			t.Errorf("get %s = %q want %q", ukey, got, want)
		}
	}
	it := s.NewIter()
	defer it.Close()
	it.First()
	var got []string
	for ; it.Valid(); it.Next() {
		got = append(got, string(it.Value()))
	}
	if want := "k1@2 k1@1 k2@3 k2@2 k2@1 k3@1"; strings.Join(got, " ") != want {
		t.Fatalf("merged scan %q want %q", got, want)
	}
	if err := checkStructure(s); err != nil {
		t.Fatal(err)
	}
	if n := s.ApproximateSize([]byte("k0"), []byte("k9")); n <= 0 {
		t.Fatalf("ApproximateSize over everything = %d", n)
	}
}

// A dropped table's file disappears with the durable edit, but its handle
// stays open until the last reader lets go.
func TestIteratorOutlivesDroppedTable(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.NewMemFS())
	s := openSet(t, fs, 1, 0)
	defer s.Close()
	_, b, _ := threeTables(t, s)
	name := fmt.Sprintf("db/%06d.mst", b.ID())
	// The armed close fault is the probe: it fires when, and only when,
	// the dropped table's handle is closed.
	fs.FailAfterPath(vfs.FaultClose, name, 0)

	it := s.NewIter()
	if err := drop(s, 1, b); err != nil {
		t.Fatal(err)
	}
	if fs.Exists(name) {
		t.Fatal("file survived a durable drop")
	}
	if fs.Hits(vfs.FaultClose) != 0 {
		t.Fatal("handle closed while an iterator still pins the table")
	}
	if got := get(t, s, "c1"); got != "" {
		t.Fatalf("dropped table still serves Get: %q", got)
	}
	it.First()
	if got := walk(it, it.Next, 100); got != "a1 a2 a3 c1 c2 e1 e2 e3" {
		t.Fatalf("pinned view lost data: %q", got)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Hits(vfs.FaultClose) != 1 {
		t.Fatalf("handle closed %d times after the last unref, want 1", fs.Hits(vfs.FaultClose))
	}
}

// A failed manifest append must keep the dropped table's file (the old
// manifest still names it); Resume then rewrites the manifest from memory
// and the orphan is harmless.
func TestManifestAppendFailureKeepsFileAndResumeHeals(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.NewMemFS())
	s := openSet(t, fs, 1, 0)
	a, b, _ := threeTables(t, s)
	name := fmt.Sprintf("db/%06d.mst", b.ID())

	fs.FailAfterPath(vfs.FaultSync, manifestName, 0)
	if err := drop(s, 1, b); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("drop with a failing manifest: %v", err)
	}
	if !fs.Exists(name) {
		t.Fatal("file removed although the edit dropping it is not durable")
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := drop(s, 1, a); err != nil {
		t.Fatalf("edit after Resume: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openSet(t, fs, 1, 0)
	defer s.Close()
	if got := s.Levels()[0].Nodes; got != 1 {
		t.Fatalf("reopened with %d tables on L1, want 1", got)
	}
	if get(t, s, "a1") != "" || get(t, s, "c1") != "" || get(t, s, "e1") != "e1@1" {
		t.Fatal("reopened state does not match the in-memory state Resume recorded")
	}
}

// Every way Open must refuse or flag a directory, none of which may
// rewrite the manifest first.
func TestLoadFailuresAndFlags(t *testing.T) {
	flipLastByte := func(t *testing.T, fs vfs.FS, name string) {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sz, _ := f.Size()
		var b [1]byte
		if _, err := f.ReadAt(b[:], sz-1); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b[:], sz-1); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// level the fixture's one table is written on, by a set bounded
		// [0, 8).
		level  int
		damage func(t *testing.T, fs vfs.FS, file string)
		// reopen bounds and the expected outcome.
		minLevel, maxLevels int
		check               func(t *testing.T, s *Set, err error)
	}{
		{
			name: "missing table is typed manifest corruption", level: 1,
			damage:    func(t *testing.T, fs vfs.FS, file string) { fs.Remove(file) },
			maxLevels: 8,
			check: func(t *testing.T, s *Set, err error) {
				var ce *corrupt.Error
				if !errors.As(err, &ce) || ce.Layer != corrupt.LayerManifest || !errors.Is(err, manifest.ErrCorrupt) {
					t.Fatalf("got %v, want a manifest-layer corruption error", err)
				}
			},
		},
		{
			name: "suspect footer is quarantined at load", level: 1,
			damage:    flipLastByte,
			maxLevels: 8,
			check: func(t *testing.T, s *Set, err error) {
				if err != nil {
					t.Fatal(err)
				}
				q := s.Quarantined()
				if len(q) != 1 || q[0].Level != 1 || q[0].Reason == "" {
					t.Fatalf("quarantined: %+v", q)
				}
				s.Mu.Lock()
				active := s.ActiveCount(1)
				s.Mu.Unlock()
				if active != 0 || s.Levels()[1].Quarantined != 1 {
					t.Fatalf("active %d, levels %+v", active, s.Levels())
				}
				if s.Quarantine(q[0].FileNum, "again") || s.Quarantine(999, "unknown") {
					t.Fatal("Quarantine reported a mark that is not new")
				}
				if get(t, s, "k1") == "" {
					t.Fatal("quarantined table stopped serving reads")
				}
			},
		},
		{
			name: "level below MinLevel is a layout error", level: 0,
			minLevel: 1,
			check: func(t *testing.T, s *Set, err error) {
				if !errors.Is(err, ErrLayout) {
					t.Fatalf("got %v, want ErrLayout", err)
				}
			},
		},
		{
			name: "level at MaxLevels is a layout error", level: 5,
			maxLevels: 5,
			check: func(t *testing.T, s *Set, err error) {
				if !errors.Is(err, ErrLayout) {
					t.Fatalf("got %v, want ErrLayout", err)
				}
			},
		},
		{
			name: "unbounded set grows to the deepest populated level", level: 5,
			minLevel: 1,
			check: func(t *testing.T, s *Set, err error) {
				if err != nil {
					t.Fatal(err)
				}
				s.Mu.Lock()
				defer s.Mu.Unlock()
				if s.NumLevels() < 6 || len(s.Level(5)) != 1 {
					t.Fatalf("%d level slots, L5 holds %d", s.NumLevels(), len(s.Level(5)))
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := vfs.NewMemFS()
			s := openSet(t, fs, 0, 8)
			tb := place(t, s, c.level, run(1, "k1", "k2"))
			// A second sequence fills the other footer slot, so a damaged
			// slot leaves one to fall back on.
			s.Mu.Lock()
			src := run(2, "k1")
			src.First()
			if _, err := tb.AppendFrom(src); err != nil {
				t.Fatal(err)
			}
			s.Mu.Unlock()
			file := fmt.Sprintf("db/%06d.mst", tb.ID())
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if c.damage != nil {
				c.damage(t, fs, file)
			}
			before := readFile(t, fs, "db/"+manifestName)

			s, err := Open(Config{FS: fs, Dir: "db", MinLevel: c.minLevel, MaxLevels: c.maxLevels})
			if err != nil && before != readFile(t, fs, "db/"+manifestName) {
				t.Error("a refused Open rewrote the manifest")
			}
			c.check(t, s, err)
			if err == nil {
				s.Close()
			}
			// Whatever happened above, the tool path reads every level.
			ro, err := OpenReadOnly(Config{FS: fs, Dir: "db"})
			if fs.Exists(file) {
				if err != nil {
					t.Fatalf("read-only open: %v", err)
				}
				if rep, err := ro.DeepVerify(); err != nil || rep.Tables != 1 || rep.Entries < 2 {
					t.Fatalf("read-only DeepVerify: %v, %v", rep, err)
				}
				ro.Close()
			}
		})
	}
}

func readFile(t *testing.T, fs vfs.FS, name string) string {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sz, _ := f.Size()
	buf := make([]byte, sz)
	if _, err := f.ReadAt(buf, 0); err != nil && sz > 0 {
		t.Fatal(err)
	}
	return string(buf)
}

// OpenReadOnly writes nothing: the manifest keeps its bytes and no
// temporary file appears.
func TestOpenReadOnlyWritesNothing(t *testing.T) {
	fs := vfs.NewMemFS()
	s := openSet(t, fs, 0, 4)
	place(t, s, 0, run(1, "k1"))
	place(t, s, 2, run(1, "k2"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := readFile(t, fs, "db/"+manifestName)
	names, _ := fs.List("db")

	ro, err := OpenReadOnly(Config{FS: fs, Dir: "db"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ro.DeepVerify()
	if err != nil || rep.Tables != 2 {
		t.Fatalf("DeepVerify: %v, %v", rep, err)
	}
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.List("db")
	if before != readFile(t, fs, "db/"+manifestName) || fmt.Sprint(names) != fmt.Sprint(after) {
		t.Fatalf("read-only open changed the directory: %v -> %v", names, after)
	}
	if _, err := OpenReadOnly(Config{FS: fs, Dir: "nowhere"}); !errors.Is(err, vfs.ErrNotFound) {
		t.Fatalf("read-only open of a missing directory: %v", err)
	}
}

func TestTableFileName(t *testing.T) {
	if got := TableFileName("db", 7); got != "db/000007.mst" {
		t.Fatalf("got %q", got)
	}
	for _, num := range []uint64{0, 7, 999999, 1234567} {
		if got, ok := TableFileNum(TableFileName("a/b", num)); !ok || got != num {
			t.Errorf("TableFileNum(TableFileName(%d)) = %d, %v", num, got, ok)
		}
	}
	for _, path := range []string{"db/000007.log", "db/MANIFEST", "db/x7.mst", "", "000007.mst/"} {
		if num, ok := TableFileNum(path); ok {
			t.Errorf("TableFileNum(%q) = %d, want no table", path, num)
		}
	}
	if num, ok := TableFileNum("000042.mst"); !ok || num != 42 {
		t.Errorf("bare name: %d, %v", num, ok)
	}
}

func TestLevelInfoString(t *testing.T) {
	s := LevelInfo{Level: 2, Nodes: 3, Bytes: 2 << 20, Seqs: 5}.String()
	if s == "" {
		t.Fatal("empty string")
	}
}
