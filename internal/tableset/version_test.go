package tableset

import (
	"fmt"
	"sync"
	"testing"

	"iamdb/internal/cache"
	"iamdb/internal/invariants"
	"iamdb/internal/kv"
	"iamdb/internal/vfs"
)

// A dropped table's handle closes exactly when the last version naming it
// is released: not while a reader pins one that does, and not one release
// later because a reader pins one that does not.
func TestHandleClosesWithLastVersionNamingIt(t *testing.T) {
	fs := vfs.NewFaultFS(vfs.NewMemFS())
	s := openSet(t, fs, 1, 0)
	defer s.Close()
	_, b, _ := threeTables(t, s)
	closes := func(tb *Table) int {
		fs.Clear()
		fs.FailAfterPath(vfs.FaultClose, fmt.Sprintf("db/%06d.mst", tb.ID()), 0)
		return fs.Hits(vfs.FaultClose)
	}
	base := closes(b) // armed: a hit is b's handle closing

	first := s.NewIter() // pins a version that names b
	place(t, s, 1, run(1, "g1"))
	second := s.NewIter() // pins the next one, which names b and g
	if err := drop(s, 1, b); err != nil {
		t.Fatal(err)
	}
	third := s.NewIter() // pins one that names neither b nor what comes after
	if fs.Hits(vfs.FaultClose) != base {
		t.Fatal("b's handle closed at the drop, under two versions that name it")
	}
	first.Close()
	if fs.Hits(vfs.FaultClose) != base {
		t.Fatal("b's handle closed with the first of two versions that name it")
	}
	second.Close()
	if fs.Hits(vfs.FaultClose) != base+1 {
		t.Fatalf("b's handle closed %d times at the release of the last version naming it (a later one is still pinned)",
			fs.Hits(vfs.FaultClose)-base)
	}

	// A table no pinned version names is closed by its drop: third is
	// older than h.
	h := place(t, s, 1, run(1, "h1"))
	base = closes(h)
	if err := drop(s, 1, h); err != nil {
		t.Fatal(err)
	}
	if fs.Hits(vfs.FaultClose) != base+1 {
		t.Fatal("a reader that pins an older version kept a table it does not name open")
	}
	third.First()
	if got := walk(third, third.Next, 100); got != "a1 a2 a3 e1 e2 e3 g1" {
		t.Fatalf("the pinned view shows %q", got)
	}
	third.Close()
	s.vmu.Lock()
	live, dead := len(s.live), len(s.dead)
	s.vmu.Unlock()
	if live != 1 || dead != 0 {
		t.Fatalf("with every reader gone the ledger holds %d versions and %d dropped tables", live, dead)
	}
}

// A reader that still pins a dropped table fills the cache with its
// blocks after the drop.  They leave, and the table's residency counter
// with them, when that reader lets go: nothing is left to wait for LRU.
func TestDroppedTableLeavesNoBlocksBehind(t *testing.T) {
	c := cache.New(1 << 20)
	s, err := Open(Config{FS: vfs.NewMemFS(), Dir: "db", MinLevel: 1, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, b, e := threeTables(t, s)
	// Whatever is cached belongs to a table the set still holds.
	onlyLive := func() bool { return c.Used() == c.ResidentBytes(b.ID())+c.ResidentBytes(e.ID()) }

	it := s.NewIter()
	if err := drop(s, 1, a); err != nil {
		t.Fatal(err)
	}
	it.First()
	if got := walk(it, it.Next, 3); got != "a1 a2 a3" || c.ResidentBytes(a.ID()) == 0 {
		t.Fatalf("the scan under the drop read %q and cached %d bytes of the table", got, c.ResidentBytes(a.ID()))
	}
	it.Close()
	if n := c.ResidentBytes(a.ID()); n != 0 || !onlyLive() {
		t.Fatalf("%d bytes of the dropped table stayed cached after its last reader (%d in all)", n, c.Used())
	}

	// The same with Gets racing the drops.
	for round := 0; round < 50; round++ {
		key := fmt.Sprintf("r%03d", round)
		tb := place(t, s, 1, run(1, key))
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if _, _, _, _, err := s.Get([]byte(key), 1); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}
		for c.ResidentBytes(tb.ID()) == 0 {
			get(t, s, key)
		}
		if err := drop(s, 1, tb); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if n := c.ResidentBytes(tb.ID()); n != 0 {
			t.Fatalf("round %d: %d bytes of the dropped table cached once its readers are done", round, n)
		}
	}
	if !onlyLive() {
		t.Fatalf("%d bytes cached, more than the two live tables' blocks", c.Used())
	}
}

// The allocation gate of the read path's bookkeeping: pinning a version
// costs nothing, and an iterator costs a child per level, however many
// tables the levels hold.
func TestPinAndNewIterAllocs(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertions box their arguments")
	}
	s := openSet(t, vfs.NewMemFS(), 1, 4)
	defer s.Close()
	tables := 0
	fill := func(n int) {
		for ; n > 0; n-- {
			place(t, s, 1+tables%3, run(1, fmt.Sprintf("k%05d", tables)))
			tables++
		}
	}
	newIter := func() { s.NewIter().Close() }
	fill(12)
	if n := testing.AllocsPerRun(100, func() { s.unpin(s.pin()) }); n != 0 {
		t.Errorf("pin + unpin allocates %.0f times", n)
	}
	few := testing.AllocsPerRun(100, newIter)
	fill(240)
	many := testing.AllocsPerRun(100, newIter)
	t.Logf("NewIter + Close: %.0f allocations over 12 tables, %.0f over 252", few, many)
	if many != few || many > 12 {
		t.Errorf("NewIter + Close allocates %.0f times over 12 tables and %.0f over 252; want the same, and <= 4 per level", few, many)
	}
}

// The allocation gate of a point read: a Get served from cached blocks,
// through a table of several sequences and past levels whose tables miss,
// allocates nothing (the fence search, the one hash, the probe's readers
// and the version pin all reuse what they have).
func TestSetGetAllocs(t *testing.T) {
	if invariants.Enabled {
		t.Skip("assertions box their arguments")
	}
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops what is put back")
	}
	s, err := Open(Config{FS: vfs.NewMemFS(), Dir: "db", MinLevel: 1, MaxLevels: 4, Cache: cache.New(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		place(t, s, 1+i%3, run(1, fmt.Sprintf("k%05d", 2*i)))
	}
	node := place(t, s, 3, run(2, "m0", "m2", "m4"))
	s.Mu.Lock()
	for seq := kv.Seq(3); seq < 6; seq++ {
		if _, err := node.Append(run(seq, "m1", "m3")); err != nil {
			t.Fatal(err)
		}
		s.Appended(3, node)
	}
	s.Mu.Unlock()
	for _, k := range []string{"m2", "m3", "k00020"} {
		if get(t, s, k) == "" {
			t.Fatalf("%s not found", k)
		}
		key := []byte(k)
		if n := testing.AllocsPerRun(100, func() {
			if _, _, _, found, err := s.Get(key, kv.MaxSeq); !found || err != nil {
				t.Fatal(found, err)
			}
		}); n != 0 {
			t.Errorf("Get(%s) from cached blocks allocates %.0f times", k, n)
		}
	}
	absent := []byte("m25") // inside the node's range, in none of its filters' keys
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, found, err := s.Get(absent, kv.MaxSeq); found || err != nil {
			t.Fatal(found, err)
		}
	}); n != 0 {
		t.Errorf("a Get that misses allocates %.0f times", n)
	}
}
