package iamdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"iamdb/internal/invariants"
	"iamdb/internal/table"
	"iamdb/internal/vfs"
)

// A merge reads its inputs once and keeps nothing: it looks blocks up in
// the cache without inserting any, and the read-ahead windows and the
// gather it works in are borrowed from pools user scans borrow from too.
// These tests hold the store to that from the outside.

// TestMergesDoNotEvictUserBlocks: with the cache full of blocks a user
// read (here: blocks of a table id no engine hands out), a write-only
// load whose merges read the cache's capacity several times over inserts
// nothing and pushes nothing out.
func TestMergesDoNotEvictUserBlocks(t *testing.T) {
	const foreign = uint64(1) << 60
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			opts := smallOpts(e, vfs.NewMemFS())
			opts.InlineBackground = true
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			c := db.stores[0].cache
			// Blocks end where their records do, so offsets are odd numbers
			// as often as not, and the cache's shards count on it.
			for off := uint64(0); c.Used() < c.Capacity(); off += 4099 {
				c.Set(foreign, off, make([]byte, 4096))
			}
			resident := c.ResidentBytes(foreign)
			before := db.Metrics()
			if resident != c.Capacity() || before.CacheFills == 0 {
				t.Fatalf("cache of %d bytes holds %d foreign bytes after %d fills", c.Capacity(), resident, before.CacheFills)
			}

			rng := rand.New(rand.NewSource(23))
			var merged int64
			for i := 0; merged < 4*c.Capacity(); i++ {
				if i == 200000 {
					t.Fatalf("merges read only %d bytes after %d puts", merged, i)
				}
				key := fmt.Sprintf("key-%06d", rng.Intn(8000))
				if err := db.Put([]byte(key), []byte(fmt.Sprintf("value-%d-%040d", i, rng.Int63()))); err != nil {
					t.Fatal(err)
				}
				if i%500 == 0 {
					merged = db.Metrics().Engine.TotalReadBytes()
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			m := db.Metrics()
			if m.Engine.Merges == 0 {
				t.Fatal("the load never merged")
			}
			if got := c.ResidentBytes(foreign); got != resident || c.Used() != c.Capacity() {
				t.Errorf("merges that read %d bytes left %d of %d foreign bytes cached (%d bytes used)",
					m.Engine.TotalReadBytes(), got, resident, c.Used())
			}
			if fills, evictions := m.CacheFills-before.CacheFills, m.CacheEvictions-before.CacheEvictions; fills != 0 || evictions != 0 {
				t.Errorf("a write-only load made %d cache fills and %d evictions", fills, evictions)
			}
		})
	}
}

// TestNoWindowLeftOnLoan: every iterator a flush cascade or a compaction
// opens is closed when it publishes, and a user's iterator gives back
// the windows of every table it was moved off, however often it is
// re-positioned.  The count of windows on loan is kept under -tags
// invariants only.
func TestNoWindowLeftOnLoan(t *testing.T) {
	if !invariants.Enabled {
		t.Skip("windows on loan are counted under -tags invariants")
	}
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			opts := smallOpts(e, vfs.NewMemFS())
			opts.InlineBackground = true
			db, err := Open("db", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			loans := table.WindowsOnLoan()
			rng := rand.New(rand.NewSource(41))
			key := func() []byte { return []byte(fmt.Sprintf("key-%06d", rng.Intn(6000))) }
			for i := 0; i < 12000; i++ {
				if err := db.Put(key(), []byte(fmt.Sprintf("value-%d-%040d", i, rng.Int63()))); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := db.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if m := db.Metrics().Engine; m.Merges == 0 {
				t.Fatalf("the load never merged: %+v", m)
			}
			if got := table.WindowsOnLoan() - loans; got != 0 {
				t.Fatalf("%d read-ahead windows on loan after Flush and CompactAll", got)
			}

			it := db.NewIterator()
			held := int64(0)
			for i := 0; i < 100; i++ {
				switch i % 4 {
				case 0:
					it.Seek(key())
				case 1:
					it.SeekForPrev(key())
				case 2:
					it.First()
				case 3:
					it.Last()
				}
				for steps := rng.Intn(60); steps > 0 && it.Valid(); steps-- {
					if i%2 == 0 {
						it.Next()
					} else {
						it.Prev()
					}
				}
				held = max(held, table.WindowsOnLoan()-loans)
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			// One table per level at a time (level 0 aside), a window per
			// sequence: an iterator that kept the windows of tables it
			// left would hold them by the dozen.
			if levels := int64(len(db.Metrics().Levels)); held == 0 || held > 8*levels {
				t.Errorf("the iterator held up to %d windows over %d levels", held, levels)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if got := table.WindowsOnLoan() - loans; got != 0 {
				t.Fatalf("%d read-ahead windows on loan after the iterator closed", got)
			}
		})
	}
}

// scanModel is the sorted-map model of TestScansBesideFlushCascades: a
// fixed universe of keys, each present from a known point of the write
// history on, with a value that is a function of the key.
type scanModel struct {
	universe []string       // every key the history ever writes, sorted
	born     map[string]int // inserts before the key exists: 0 for the preload
}

func scanValue(key string) []byte {
	h := 0
	for _, c := range []byte(key) {
		h = h*31 + int(c)
	}
	return bytes.Repeat([]byte(key), 1+h%17)
}

// cut is what one iterator has shown of the prefix of the history it
// sees: the prefix holds at least lo and at most hi inserts.
type cut struct{ lo, hi int }

// walk checks the keys an iterator yields from start on — an index into
// the universe, moving by dir — against the model: each is a key of the
// universe with its value, in order, and every key passed over was not
// born yet.  It consumes at most steps records (all when steps < 0) and
// narrows c.
func (m *scanModel) walk(it *Iterator, start, dir, steps int, c *cut) error {
	move := it.Next
	if dir < 0 {
		move = it.Prev
	}
	ui := start
	for ; steps != 0 && it.Valid(); steps-- {
		k := string(it.Key())
		for ; ui >= 0 && ui < len(m.universe) && m.universe[ui] != k; ui += dir {
			c.hi = min(c.hi, m.born[m.universe[ui]]-1) // passed over: not born in this view
		}
		if ui < 0 || ui >= len(m.universe) {
			return fmt.Errorf("key %q is out of order or not of the history", k)
		}
		if !bytes.Equal(it.Value(), scanValue(k)) {
			return fmt.Errorf("key %q holds %d bytes that are not its value", k, len(it.Value()))
		}
		c.lo = max(c.lo, m.born[k])
		ui += dir
		move()
	}
	if err := it.Err(); err != nil {
		return err
	}
	if !it.Valid() {
		for ; ui >= 0 && ui < len(m.universe); ui += dir {
			c.hi = min(c.hi, m.born[m.universe[ui]]-1)
		}
	}
	if c.lo > c.hi {
		return fmt.Errorf("no prefix of the history shows this: it holds insert %d and lacks insert %d", c.lo, c.hi+1)
	}
	return nil
}

// handleFS counts the file handles open on the filesystem it wraps.
type handleFS struct {
	vfs.FS
	open atomic.Int64
}

type countedFile struct {
	vfs.File
	fs *handleFS
}

func (h *handleFS) Create(name string) (vfs.File, error) { return h.counted(h.FS.Create(name)) }
func (h *handleFS) Open(name string) (vfs.File, error)   { return h.counted(h.FS.Open(name)) }

func (h *handleFS) counted(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return &countedFile{f, h}, nil
}

func (f *countedFile) Close() error {
	f.fs.open.Add(-1)
	return f.File.Close()
}

// TestScansBesideFlushCascades runs forward, reverse and re-seeking user
// scans, scans through iterators held open across several flushes, and
// Gets of every acknowledged key beside a writer whose memtables the
// store's background worker flushes through the cascade, on all four
// engines, and checks every read against the model: a scan shows exactly
// the keys of one prefix of the write history, in order, each with its
// value, and a Get finds every key acknowledged before it began.  Readers
// see every version the cascade publishes, not only the state between two
// cascades, so there must be no moment at which a record has left its old
// table and is not yet in its new one.  Every table handle a version kept
// open for a reader is closed, and every window handed back, by the time
// the store is closed.  Merges and scans take their
// read-ahead windows from one pool and the merges' tables are dropped
// under the scans, so a window or a gather handed back too early shows
// as a wrong byte here (0xDB under -tags invariants) and as a race under
// the detector.
//
// The history is shaped so the trees' structure does not depend on
// timing (DESIGN.md, "Known defects", is why that matters): the timed
// phase only inserts fresh keys, so no merge's output depends on the
// horizon, and the writer lets each flush finish before it fills the
// next memtable, so each memtable holds the same records in every run;
// the seed is one whose trees keep their ranges disjoint throughout.
func TestScansBesideFlushCascades(t *testing.T) {
	const preload, inserts = 3000, 3000
	for _, e := range allEngines {
		t.Run(e.String(), func(t *testing.T) {
			fs := &handleFS{FS: vfs.NewMemFS()}
			loans := table.WindowsOnLoan()
			db, err := Open("db", smallOpts(e, fs))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			st := db.stores[0]
			// write lets the flush it may have started finish before it
			// returns; val == nil deletes.
			write := func(key string, val []byte) {
				err := db.Put([]byte(key), val)
				if val == nil {
					err = db.Delete([]byte(key))
				}
				if err != nil {
					t.Fatal(err)
				}
				for len(st.state.Load().imm) > 0 {
					runtime.Gosched()
				}
			}

			rng := rand.New(rand.NewSource(32))
			m := &scanModel{born: map[string]int{}}
			order := rng.Perm(preload + inserts)
			for i, n := range order {
				key := fmt.Sprintf("key-%06d", n)
				m.universe = append(m.universe, key)
				m.born[key] = max(0, i-preload+1)
			}
			sort.Strings(m.universe)
			keyOf := func(i int) string { return fmt.Sprintf("key-%06d", order[i]) }
			// Before anyone scans: stale versions and tombstones under
			// every preloaded key, so the merges have records to drop.
			for i := 0; i < preload; i++ {
				write(keyOf(i), []byte("stale"))
				if i%3 == 0 {
					write(keyOf(rng.Intn(i+1)), nil)
				}
			}
			for i := 0; i < preload; i++ {
				write(keyOf(i), scanValue(keyOf(i)))
			}

			var issued, acked atomic.Int64
			var done atomic.Bool
			var wg sync.WaitGroup
			scanner := func(seed int64, scan func(rng *rand.Rand, it *Iterator, c *cut) error) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for last := false; !last; {
					last = done.Load() // one more scan after the last insert
					c := cut{lo: int(acked.Load())}
					it := db.NewIterator()
					c.hi = int(issued.Load())
					err := scan(rng, it, &c)
					it.Close()
					if err != nil {
						t.Errorf("%v (view of between %d and %d inserts)", err, c.lo, c.hi)
						return
					}
				}
			}
			wg.Add(3)
			go scanner(1, func(_ *rand.Rand, it *Iterator, c *cut) error {
				it.First()
				return m.walk(it, 0, +1, -1, c)
			})
			go scanner(2, func(_ *rand.Rand, it *Iterator, c *cut) error {
				it.Last()
				return m.walk(it, len(m.universe)-1, -1, -1, c)
			})
			go scanner(3, func(rng *rand.Rand, it *Iterator, c *cut) error {
				for seeks := 0; seeks < 100; seeks++ {
					ui := rng.Intn(len(m.universe))
					target := m.universe[ui]
					if rng.Intn(4) == 0 {
						target += "+" // between two keys
						ui++
					}
					dir := +1
					if rng.Intn(2) == 0 {
						it.Seek([]byte(target))
					} else {
						it.SeekForPrev([]byte(target))
						dir = -1
						if ui == len(m.universe) || m.universe[ui] != target {
							ui--
						}
					}
					if err := m.walk(it, ui, dir, 1+rng.Intn(50), c); err != nil {
						return fmt.Errorf("seek %d to %q: %w", seeks, target, err)
					}
				}
				return nil
			})
			// An iterator held open while the writer fills and flushes
			// several more memtables still shows the prefix it was made at.
			wg.Add(1)
			go scanner(4, func(_ *rand.Rand, it *Iterator, c *cut) error {
				for until := min(acked.Load()+400, inserts); acked.Load() < until; {
					runtime.Gosched()
				}
				it.First()
				return m.walk(it, 0, +1, -1, c)
			})
			// Gets of every key acknowledged so far, preload included.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for last := false; !last; {
					last = done.Load()
					for i, n := 0, preload+int(acked.Load()); i < n; i++ {
						if v, err := db.Get([]byte(keyOf(i))); err != nil || !bytes.Equal(v, scanValue(keyOf(i))) {
							t.Errorf("Get of %s, acknowledged: %d bytes, %v", keyOf(i), len(v), err)
							return
						}
					}
				}
			}()
			// Scrub passes beside the same flushes: an append it overlaps
			// is writing the standby footer slot of a table the pass is
			// reading, which must not read as a finding.  Two loops:
			// nothing keeps passes from overlapping each other either.
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !done.Load() {
						if rep, err := db.Scrub(); err != nil {
							t.Errorf("scrub beside flushes: %v (%s)", err, rep.String())
							return
						}
					}
				}()
			}
			for i := 0; i < inserts; i++ {
				issued.Store(int64(i + 1))
				write(keyOf(preload+i), scanValue(keyOf(preload+i)))
				acked.Store(int64(i + 1))
			}
			done.Store(true)
			wg.Wait()
			eng := db.Metrics().Engine
			if eng.Merges == 0 || eng.Flushes < 50 || eng.Moves == 0 {
				t.Fatalf("the reads ran beside %d flushes, %d merges and %d moves", eng.Flushes, eng.Merges, eng.Moves)
			}
			if tree := e == IAM || e == LSA; tree && (eng.Splits == 0 || eng.Combines == 0 || eng.Appends == 0) {
				t.Fatalf("the reads ran beside %d appends, %d splits and %d combines", eng.Appends, eng.Splits, eng.Combines)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if n := fs.open.Load(); n != 0 {
				t.Errorf("%d file handles open after Close", n)
			}
			if n := table.WindowsOnLoan() - loans; n != 0 {
				t.Errorf("%d read-ahead windows on loan after Close", n)
			}
		})
	}
}
