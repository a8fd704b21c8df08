package iamdb

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"iamdb/internal/vfs"
)

func TestIteratorEdgeSemantics(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i*2)), []byte("v"))
	}

	it := db.NewIterator()
	defer it.Close()

	// Next before positioning is a no-op.
	it.Next()
	if it.Valid() {
		t.Fatal("Next before First should not validate")
	}

	// Seek past the end invalidates; Next afterwards stays invalid.
	it.Seek([]byte("zzz"))
	if it.Valid() {
		t.Fatal("seek past end")
	}
	it.Next()
	if it.Valid() {
		t.Fatal("next after exhaustion")
	}

	// Re-seek backwards revives the iterator.
	it.Seek([]byte("k100"))
	if !it.Valid() || string(it.Key()) != "k100" {
		t.Fatalf("re-seek: %q valid=%v", it.Key(), it.Valid())
	}

	// First after use returns to the start.
	it.First()
	if !it.Valid() || string(it.Key()) != "k000" {
		t.Fatalf("first: %q", it.Key())
	}

	// Key/Value return copies: mutating them must not corrupt iteration.
	k, v := it.Key(), it.Value()
	if len(k) > 0 {
		k[0] = 'X'
	}
	if len(v) > 0 {
		v[0] = 'X'
	}
	it.Next()
	it.First()
	if string(it.Key()) != "k000" {
		t.Fatal("caller mutation corrupted the iterator")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}

	// Walk to exhaustion: exactly 100 keys.
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if n != 100 {
		t.Fatalf("walked %d", n)
	}
}

func TestIteratorSeesConsistentSnapshotDuringWrites(t *testing.T) {
	db := openSmall(t, LSA)
	defer db.Close()
	for i := 0; i < 2000; i++ {
		db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("before"))
	}
	it := db.NewIterator() // pinned at this sequence number
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("after"))
		}
	}()
	// Iterate while the overwrite storm runs: every value must be the
	// pre-iterator one.
	n := 0
	for it.First(); it.Valid(); it.Next() {
		if string(it.Value()) != "before" {
			t.Fatalf("iterator leaked post-snapshot write at %s", it.Key())
		}
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	wg.Wait()
	if n != 2000 {
		t.Fatalf("iterated %d want 2000", n)
	}
	// And fresh reads see the new values.
	if v, _ := db.Get([]byte("k00000")); string(v) != "after" {
		t.Fatalf("current read got %q", v)
	}
}

func TestSyncWritesOption(t *testing.T) {
	fs := vfs.NewMemFS()
	opts := smallOpts(IAM, fs)
	opts.SyncWrites = true
	db, err := Open("db", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := db.Get([]byte("k199")); err != nil || string(v) != "v" {
		t.Fatalf("get: %q %v", v, err)
	}
}

func TestManySnapshotsUnderChurn(t *testing.T) {
	db := openSmall(t, IAM)
	defer db.Close()
	var snaps []*Snapshot
	var views []map[string]string
	cur := map[string]string{}
	for round := 0; round < 8; round++ {
		for i := 0; i < 400; i++ {
			k, v := fmt.Sprintf("k%04d", i), fmt.Sprintf("r%d", round)
			db.Put([]byte(k), []byte(v))
			cur[k] = v
		}
		snaps = append(snaps, db.GetSnapshot())
		view := make(map[string]string, len(cur))
		for k, v := range cur {
			view[k] = v
		}
		views = append(views, view)
	}
	// Every snapshot still sees its own round.
	for i, s := range snaps {
		for _, probe := range []string{"k0000", "k0200", "k0399"} {
			v, err := s.Get([]byte(probe))
			if err != nil || string(v) != views[i][probe] {
				t.Fatalf("snap %d %s = %q (%v) want %q", i, probe, v, err, views[i][probe])
			}
		}
	}
	for _, s := range snaps {
		s.Release()
	}
	// After releasing all snapshots, compaction may reclaim; current
	// reads still give the final round.
	db.CompactAll()
	if v, _ := db.Get([]byte("k0123")); string(v) != "r7" {
		t.Fatalf("final read %q", v)
	}
}

// An iterator is a point-in-time view even though LSA/IAM nodes are
// appended in place: flushes that land after the iterator was created
// add sequences to tables it has pinned but not yet opened, and it must
// read none of them.  One goroutine, inline background work, a fixed
// history (whose tree passes CheckInvariants after every round, so a
// failure here is the iterator's, not a structural defect's).
func TestIteratorIsPointInTimeOverAppends(t *testing.T) {
	type view struct {
		name    string
		open    func(db *DB) (it *Iterator, release func())
		reverse bool
	}
	fromDB := func(db *DB) (*Iterator, func()) { return db.NewIterator(), func() {} }
	fromSnap := func(db *DB) (*Iterator, func()) {
		s := db.GetSnapshot()
		return s.NewIterator(), s.Release
	}
	views := []view{
		{"DB/forward", fromDB, false}, {"DB/reverse", fromDB, true},
		{"Snapshot/forward", fromSnap, false}, {"Snapshot/reverse", fromSnap, true},
	}
	for _, e := range []EngineKind{LSA, IAM} {
		for _, vw := range views {
			t.Run(e.String()+"/"+vw.name, func(t *testing.T) {
				opts := smallOpts(e, vfs.NewMemFS())
				opts.InlineBackground = true
				db, err := Open("db", opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				rng := rand.New(rand.NewSource(1))
				model := map[string]string{}
				version := 0
				put := func(n int) {
					for i := 0; i < n; i++ {
						version++
						k, v := fmt.Sprintf("key%06d", rng.Intn(3000)), fmt.Sprintf("v%d", version)
						if err := db.Put([]byte(k), []byte(v)); err != nil {
							t.Fatal(err)
						}
						model[k] = v
					}
				}
				put(4000)
				for round := 0; round < 20; round++ {
					want := make(map[string]string, len(model))
					keys := make([]string, 0, len(model))
					for k, v := range model {
						want[k] = v
						keys = append(keys, k)
					}
					sort.Strings(keys)
					if vw.reverse {
						sort.Sort(sort.Reverse(sort.StringSlice(keys)))
					}
					it, release := vw.open(db)
					step := it.Next
					if vw.reverse {
						it.Last()
						step = it.Prev
					} else {
						it.First()
					}
					// Flushes now append to tables the iterator pinned
					// but has not opened.
					put(1500)
					n := 0
					for ; it.Valid(); step() {
						if n == len(keys) {
							t.Fatalf("round %d: extra key %q", round, it.Key())
						}
						if k := string(it.Key()); k != keys[n] {
							t.Fatalf("round %d: position %d holds %q, want %q", round, n, k, keys[n])
						}
						if v := string(it.Value()); v != want[keys[n]] {
							t.Fatalf("round %d: %s = %q, want the creation-time %q", round, keys[n], v, want[keys[n]])
						}
						n++
					}
					if err := it.Err(); err != nil {
						t.Fatal(err)
					}
					if n != len(keys) {
						t.Fatalf("round %d: scan ended after %d of %d keys", round, n, len(keys))
					}
					it.Close()
					release()
					if err := db.CheckInvariants(); err != nil {
						t.Fatalf("round %d: the history must keep the tree well-formed: %v", round, err)
					}
				}
			})
		}
	}
}

// TestClosedDBServesNoScan checks that NewIterator and
// Snapshot.NewIterator on a closed DB hand out an iterator that is never
// Valid and reports ErrClosed, over MemFS and a real directory, with one
// store and with two, and that it leaves the open-iterator count at 0.
func TestClosedDBServesNoScan(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, dev := range []string{"MemFS", "OSFS"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, dev), func(t *testing.T) {
				opts, dir := smallOpts(IAM, vfs.NewMemFS()), "db"
				if dev == "OSFS" {
					opts.FS, dir = nil, t.TempDir()
				}
				opts.Shards = shards
				db, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2000; i++ {
					if err := db.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				snap := db.GetSnapshot()
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				for _, it := range []*Iterator{db.NewIterator(), snap.NewIterator()} {
					for name, pos := range map[string]func(){
						"First": it.First, "Last": it.Last, "Seek": func() { it.Seek([]byte("k01000")) },
					} {
						pos()
						if it.Valid() || !errors.Is(it.Err(), ErrClosed) {
							t.Errorf("%s: valid %v, err %v", name, it.Valid(), it.Err())
						}
					}
					if err := it.Close(); err != nil {
						t.Error(err)
					}
				}
				if n := db.iters.Load(); n != 0 {
					t.Errorf("%d iterators counted open", n)
				}
			})
		}
	}
}

// TestReleasedSnapshotServesNoScan checks that a released snapshot's
// NewIterator, like its Get, reports ErrClosed instead of reading at a
// sequence no pin protects any longer, with one store and with two, and
// that the iterator is not counted open.
func TestReleasedSnapshotServesNoScan(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(IAM, vfs.NewMemFS())
			opts.Shards = shards
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < 100; i++ {
				if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			snap := db.GetSnapshot()
			snap.Release()
			if _, err := snap.Get([]byte("k050")); !errors.Is(err, ErrClosed) {
				t.Fatalf("Get after Release: %v", err)
			}
			it := snap.NewIterator()
			for name, pos := range map[string]func(){
				"First": it.First, "Last": it.Last, "Seek": func() { it.Seek([]byte("k050")) },
			} {
				pos()
				if it.Valid() || !errors.Is(it.Err(), ErrClosed) {
					t.Errorf("%s: valid %v, err %v", name, it.Valid(), it.Err())
				}
			}
			if err := it.Close(); err != nil {
				t.Error(err)
			}
			if n := db.iters.Load(); n != 0 {
				t.Errorf("%d iterators counted open", n)
			}
		})
	}
}
