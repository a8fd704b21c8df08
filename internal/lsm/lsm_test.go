package lsm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"iamdb/internal/cache"
	"iamdb/internal/engine"
	"iamdb/internal/kv"
	"iamdb/internal/memtable"
	"iamdb/internal/vfs"
)

func testDB(t *testing.T, p Profile) *DB {
	t.Helper()
	d, err := Open(Config{
		FS: vfs.NewMemFS(), Dir: "db", Cache: cache.New(1 << 20),
		FileSize: 8 * 1024, LevelSizeBase: 40 * 1024, Fanout: 10,
		L0CompactTrigger: 4, Profile: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type loader struct {
	t   *testing.T
	d   *DB
	mt  *memtable.MemTable
	seq kv.Seq
}

func newLoader(t *testing.T, d *DB) *loader {
	return &loader{t: t, d: d, mt: memtable.New()}
}

func (l *loader) put(key, val string) {
	l.seq++
	l.mt.Add(l.seq, kv.KindSet, []byte(key), []byte(val))
	if l.mt.ApproximateSize() >= 8*1024 {
		l.flush()
	}
}

func (l *loader) del(key string) {
	l.seq++
	l.mt.Add(l.seq, kv.KindDelete, []byte(key), nil)
	if l.mt.ApproximateSize() >= 8*1024 {
		l.flush()
	}
}

func (l *loader) flush() {
	if l.mt.Count() == 0 {
		return
	}
	if err := l.d.Flush(l.mt.NewIter()); err != nil {
		l.t.Fatal(err)
	}
	l.mt = memtable.New()
	// Emulate the DB layer's background worker: run compactions the
	// engine's own trigger policy asks for (the LevelDB profile defers
	// size compactions until overflow, RocksDB compacts strictly).
	for {
		did, err := l.d.WorkStep()
		if err != nil {
			l.t.Fatal(err)
		}
		if !did {
			break
		}
	}
}

func checkGet(t *testing.T, d *DB, key, want string) {
	t.Helper()
	v, kind, _, found, err := d.Get([]byte(key), kv.MaxSeq)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	if want == "" {
		if found && kind != kv.KindDelete {
			t.Fatalf("get %s: found %q want absent", key, v)
		}
		return
	}
	if !found || kind != kv.KindSet || string(v) != want {
		t.Fatalf("get %s: %q/%v/%v want %q", key, v, kind, found, want)
	}
}

func TestFlushAndGet(t *testing.T) {
	d := testDB(t, ProfileRocksDB)
	defer d.Close()
	l := newLoader(t, d)
	l.put("a", "1")
	l.put("b", "2")
	l.flush()
	checkGet(t, d, "a", "1")
	checkGet(t, d, "b", "2")
	checkGet(t, d, "c", "")
	if lv := d.Levels(); lv[0].Nodes != 1 {
		t.Fatalf("L0: %+v", lv)
	}
}

func TestL0CompactionMergesOverlaps(t *testing.T) {
	d := testDB(t, ProfileRocksDB)
	defer d.Close()
	l := newLoader(t, d)
	// Several overlapping memtables, same keyspace.
	for round := 0; round < 6; round++ {
		for i := 0; i < 100; i++ {
			l.put(fmt.Sprintf("k%04d", i), fmt.Sprintf("r%d", round))
		}
		l.flush()
	}
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	lv := d.Levels()
	if lv[0].Nodes >= 4 {
		t.Fatalf("L0 should have compacted: %+v", lv)
	}
	checkGet(t, d, "k0050", "r5")
	st := d.Stats()
	if st.Merges == 0 {
		t.Error("expected merges")
	}
}

func loadRandom(t *testing.T, d *DB, n int, seed int64) map[string]string {
	t.Helper()
	l := newLoader(t, d)
	rng := rand.New(rand.NewSource(seed))
	ref := make(map[string]string)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%06d", rng.Intn(n*2))
		v := fmt.Sprintf("val%d", i)
		ref[k] = v
		l.put(k, v)
	}
	l.flush()
	return ref
}

func TestRandomLoadBothProfiles(t *testing.T) {
	for _, p := range []Profile{ProfileLevelDB, ProfileRocksDB} {
		t.Run(p.String(), func(t *testing.T) {
			d := testDB(t, p)
			defer d.Close()
			ref := loadRandom(t, d, 4000, 11)
			keys := make([]string, 0, len(ref))
			for k := range ref {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				checkGet(t, d, k, ref[k])
			}
			// Scan agrees with reference.
			it := d.NewIter()
			defer it.Close()
			got := map[string]string{}
			for it.First(); it.Valid(); it.Next() {
				u, _, kind, _ := kv.ParseInternalKey(it.Key())
				if _, seen := got[string(u)]; !seen && kind == kv.KindSet {
					got[string(u)] = string(it.Value())
				}
			}
			for k, v := range ref {
				if got[k] != v {
					t.Fatalf("scan %s: %q want %q", k, got[k], v)
				}
			}
		})
	}
}

func TestLevelDBOverflowsRocksDBDoesNot(t *testing.T) {
	over := func(p Profile) int64 {
		d := testDB(t, p)
		defer d.Close()
		loadRandom(t, d, 12000, 13)
		// Measure overflow without settling.
		var overflow int64
		d.Mu.Lock()
		for i := 1; i < d.NumLevels()-1; i++ {
			if o := d.levelBytes(i) - d.threshold(i); o > 0 {
				overflow += o
			}
		}
		d.Mu.Unlock()
		return overflow
	}
	lOver, rOver := over(ProfileLevelDB), over(ProfileRocksDB)
	if lOver <= rOver {
		t.Errorf("LevelDB profile overflow (%d) should exceed RocksDB's (%d)", lOver, rOver)
	}
}

func TestRocksDBHigherWriteAmp(t *testing.T) {
	amp := func(p Profile) float64 {
		d := testDB(t, p)
		defer d.Close()
		l := newLoader(t, d)
		rng := rand.New(rand.NewSource(17))
		var user int64
		// Large enough to span 3+ levels: the overflow effect pays off
		// in the deep levels (Sec. 6.2), exactly as in Table 4.
		for i := 0; i < 50000; i++ {
			k := fmt.Sprintf("user%08d", rng.Intn(1<<30))
			v := "value-value-value-value-value-value"
			l.put(k, v)
			user += int64(len(k) + len(v))
		}
		l.flush()
		return float64(d.Stats().TotalFlushBytes()) / float64(user)
	}
	lAmp, rAmp := amp(ProfileLevelDB), amp(ProfileRocksDB)
	if rAmp <= lAmp {
		t.Errorf("RocksDB write amp (%.2f) should exceed LevelDB's (%.2f) (overflow effect)", rAmp, lAmp)
	}
}

func TestDeleteThroughCompaction(t *testing.T) {
	d := testDB(t, ProfileRocksDB)
	defer d.Close()
	l := newLoader(t, d)
	for i := 0; i < 500; i++ {
		l.put(fmt.Sprintf("k%04d", i), "v")
	}
	for i := 0; i < 250; i++ {
		l.del(fmt.Sprintf("k%04d", i*2))
	}
	l.flush()
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	checkGet(t, d, "k0000", "")
	checkGet(t, d, "k0001", "v")
	checkGet(t, d, "k0498", "")
	checkGet(t, d, "k0499", "v")
}

func TestSequentialLoadUsesTrivialMoves(t *testing.T) {
	d := testDB(t, ProfileRocksDB)
	defer d.Close()
	l := newLoader(t, d)
	for i := 0; i < 8000; i++ {
		l.put(fmt.Sprintf("seq%08d", i), "valuevaluevalue")
	}
	l.flush()
	if d.Stats().Moves == 0 {
		t.Error("sequential load should use trivial moves")
	}
}

func TestStallLevels(t *testing.T) {
	d := testDB(t, ProfileLevelDB)
	defer d.Close()
	// Flood L0 without running any background work.
	mt := memtable.New()
	seq := kv.Seq(0)
	for f := 0; f < 13; f++ {
		for i := 0; i < 60; i++ {
			seq++
			mt.Add(seq, kv.KindSet, []byte(fmt.Sprintf("k%d-%d", f, i)), []byte("0123456789012345678901234567890123456789"))
		}
		if err := d.Flush(mt.NewIter()); err != nil {
			t.Fatal(err)
		}
		mt = memtable.New()
	}
	if d.StallLevel() != 2 {
		t.Fatalf("13 L0 files should stop writes, got %d", d.StallLevel())
	}
	// Draining clears the stall.
	if err := d.Settle(); err != nil {
		t.Fatal(err)
	}
	if d.StallLevel() != 0 {
		t.Fatalf("stall after drain: %d", d.StallLevel())
	}
}

// TestEngineInterfaceCompliance: Settle, reached through the contract, is
// the drain of the paper's tuning phase.  A LevelDB-profile load stepped
// only by WorkStep leaves a level over its strict threshold (the overflow
// the profile tolerates); Settle works it off, and a second Settle finds
// nothing to do.
func TestEngineInterfaceCompliance(t *testing.T) {
	d := testDB(t, ProfileLevelDB)
	defer d.Close()
	ref := loadRef(newLoader(t, d), 6000, 29)
	var e engine.Engine = d
	strictPick := func() int {
		d.Mu.Lock()
		defer d.Mu.Unlock()
		lvl, _ := d.pickCompaction(true)
		return lvl
	}
	if did, err := e.WorkStep(); did || err != nil {
		t.Fatalf("WorkStep = %v, %v after the loader stepped until idle", did, err)
	}
	if strictPick() < 0 {
		t.Fatal("the load left no overflow for Settle to work off")
	}
	before := e.Stats()
	if err := e.Settle(); err != nil {
		t.Fatal(err)
	}
	if lvl := strictPick(); lvl >= 0 {
		t.Errorf("L%d still over its strict threshold after Settle", lvl)
	}
	settled := e.Stats()
	if settled.Merges+settled.Moves <= before.Merges+before.Moves {
		t.Errorf("Settle moved nothing down: %+v -> %+v", before, settled)
	}
	if err := e.Settle(); err != nil || !reflect.DeepEqual(e.Stats(), settled) {
		t.Errorf("a second Settle did work: %v, %+v -> %+v", err, settled, e.Stats())
	}
	if lvl := e.StallLevel(); lvl != 0 {
		t.Errorf("StallLevel = %d on a settled tree", lvl)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Error(err)
	}
	for k, v := range ref {
		checkGet(t, d, k, v)
	}
}

func TestReopen(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := Config{FS: fs, Dir: "db", FileSize: 8 * 1024, LevelSizeBase: 40 * 1024,
		L0CompactTrigger: 4, Profile: ProfileRocksDB}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newLoader(t, d)
	ref := loadRef(l, 3000, 23)
	d.SetLogMeta(l.seq, 9)
	want := fmt.Sprint(d.Levels())
	d.Close()

	d2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := fmt.Sprint(d2.Levels()); got != want {
		t.Fatalf("levels across reopen:\n%s\n%s", want, got)
	}
	seq, logNum := d2.LogMeta()
	if seq != l.seq || logNum != 9 {
		t.Fatalf("log meta %d/%d", seq, logNum)
	}
	for k, v := range ref {
		checkGet(t, d2, k, v)
	}
}

func loadRef(l *loader, n int, seed int64) map[string]string {
	rng := rand.New(rand.NewSource(seed))
	ref := make(map[string]string)
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("user%06d", rng.Intn(n*2))
		v := fmt.Sprintf("val%d", i)
		ref[k] = v
		l.put(k, v)
	}
	l.flush()
	return ref
}

func TestSnapshotReadAfterCompaction(t *testing.T) {
	d := testDB(t, ProfileRocksDB)
	defer d.Close()
	l := newLoader(t, d)
	l.put("key", "old")
	l.flush()
	snap := l.seq
	d.SetHorizon(snap)
	for i := 0; i < 3000; i++ {
		l.put("key", fmt.Sprintf("new%d", i))
		l.put(fmt.Sprintf("fill%06d", i), "x")
	}
	l.flush()
	d.Settle()
	v, _, _, found, err := d.Get([]byte("key"), snap)
	if err != nil || !found || string(v) != "old" {
		t.Fatalf("snapshot read: %q %v %v", v, found, err)
	}
	checkGet(t, d, "key", "new2999")
}
