package main

import (
	"fmt"
	"math/rand"
	"time"

	"iamdb/internal/block"
	"iamdb/internal/bloom"
	"iamdb/internal/cache"
	"iamdb/internal/core"
	"iamdb/internal/engine"
	"iamdb/internal/iterator"
	"iamdb/internal/kv"
	"iamdb/internal/lsm"
	"iamdb/internal/memtable"
	"iamdb/internal/shard"
	"iamdb/internal/table"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
	"iamdb/internal/wal"
)

// The layer drives call each layer's exported functions directly, on
// the records the workloads store, and report a unit cost.  They say
// what a layer costs alone; the in-workload metrics say how much of it
// a workload uses.

const (
	bitsPerKey = 14
	// fixtureRecords is the size of the sorted run the table, block,
	// bloom and iterator drives work on: 4 MiB of 1 KiB records.
	fixtureRecords = 4096
)

// drives holds the fixtures the drives share, all made from the seed.
type drives struct {
	dur   time.Duration
	sc    scale
	rng   *rand.Rand
	d     *dataset
	ukeys [][]byte // fixtureRecords user keys, ascending
	ikeys [][]byte // the same as internal keys at sequence 1
	vals  [][]byte
	ctN   int // records in one memtable's worth (Ct)
	out   map[string]float64
}

// repeat calls step until the measured parts of the steps add up to
// d.dur, and returns nanoseconds per unit.  A step returns the units
// it did and how long its measured part took, so set-up inside a step
// stays off the clock.
func (d *drives) repeat(step func() (units int, took time.Duration, err error)) (float64, error) {
	var units int
	var total time.Duration
	for total < d.dur {
		n, took, err := step()
		if err != nil {
			return 0, err
		}
		units += n
		total += took
	}
	return float64(total) / float64(units), nil
}

// timed is a step that is measured whole.
func timed(units int, fn func() error) func() (int, time.Duration, error) {
	return func() (int, time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return units, time.Since(t0), err
	}
}

func runDrives(cfg *config, out map[string]float64) error {
	n := min(fixtureRecords, cfg.sc.records)
	rng := rand.New(rand.NewSource(cfg.seed))
	d := &drives{
		dur: time.Duration(cfg.seconds * float64(time.Second) / 20),
		sc:  cfg.sc, rng: rng, out: out,
		d: newDataset(cfg.sc.records, cfg.sc.absentKeys, cfg.sc.valueSize, rng),
	}
	for r := 0; r < n; r++ {
		idx := int(d.d.order[r])
		d.ukeys = append(d.ukeys, d.d.keys[idx])
		d.ikeys = append(d.ikeys, kv.MakeInternalKey(d.d.keys[idx], 1, kv.KindSet))
		d.vals = append(d.vals, d.d.value(make([]byte, d.d.valueSize), idx, 0))
	}
	d.ctN = min(n, int(cfg.sc.memtable)/(len(d.ikeys[0])+d.d.valueSize))
	for _, drive := range []func() error{
		d.wal, d.memtable, d.block, d.bloom, d.table, d.core, d.lsm,
		d.memfs, d.cache, d.merge8, d.vlog, d.shard,
	} {
		if err := drive(); err != nil {
			return err
		}
	}
	return nil
}

func (d *drives) run() iterator.Iterator {
	return iterator.NewSlice(kv.CompareInternal, d.ikeys, d.vals)
}

func (d *drives) ctRun() iterator.Iterator {
	return iterator.NewSlice(kv.CompareInternal, d.ikeys[:d.ctN], d.vals[:d.ctN])
}

// wal: appending one Put-sized record to the log.
func (d *drives) wal() (err error) {
	fs := vfs.NewMemFS()
	rec := append(append([]byte(nil), d.ikeys[0]...), d.vals[0]...)
	const perFile = 4096
	d.out["wal.append_ns_per_rec"], err = d.repeat(func() (int, time.Duration, error) {
		f, err := fs.Create("drive.log")
		if err != nil {
			return 0, 0, err
		}
		w := wal.NewWriter(f)
		t0 := time.Now()
		for i := 0; i < perFile; i++ {
			if err := w.Append(rec); err != nil {
				return 0, 0, err
			}
		}
		took := time.Since(t0)
		return perFile, took, f.Close()
	})
	return err
}

// memtable: inserting one memtable's worth of Puts, walking it as a
// flush does, and point lookups in it.
func (d *drives) memtable() (err error) {
	var mt *memtable.MemTable
	fill := func() error {
		mt = memtable.New()
		for i := 0; i < d.ctN; i++ {
			mt.Add(kv.Seq(i+1), kv.KindSet, d.ukeys[i], d.vals[i])
		}
		return nil
	}
	if d.out["memtable.add_ns"], err = d.repeat(timed(d.ctN, fill)); err != nil {
		return err
	}
	sink := 0
	d.out["memtable.iter_next_ns"], err = d.repeat(timed(d.ctN, func() error {
		it := mt.NewIter()
		for it.First(); it.Valid(); it.Next() {
			sink += len(it.Value())
		}
		return it.Close()
	}))
	if err != nil {
		return err
	}
	const gets = 1024
	d.out["memtable.get_ns"], err = d.repeat(timed(gets, func() error {
		for i := 0; i < gets; i++ {
			if _, _, _, found := mt.Get(d.ukeys[d.rng.Intn(d.ctN)], kv.MaxSeq); !found {
				return fmt.Errorf("memtable.Get lost a key")
			}
		}
		return nil
	}))
	return err
}

// block: building data blocks of the workloads' records, and seeking
// and stepping inside one.
func (d *drives) block() (err error) {
	var data []byte
	entries := 0
	d.out["block.build_ns_per_entry"], err = d.repeat(func() (int, time.Duration, error) {
		t0 := time.Now()
		n := 0
		for n < d.ctN {
			b := block.NewBuilder()
			for !b.Full() && n < d.ctN {
				b.Add(d.ikeys[n], d.vals[n])
				n++
			}
			entries = b.Count()
			data = b.Finish()
		}
		return n, time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	r, err := block.NewReader(data, kv.CompareInternal)
	if err != nil {
		return err
	}
	it := r.Iter()
	last := d.ikeys[d.ctN-entries : d.ctN] // the keys of the block just built
	const seeks = 1024
	d.out["block.seek_ns"], err = d.repeat(timed(seeks, func() error {
		for i := 0; i < seeks; i++ {
			if it.Seek(last[d.rng.Intn(len(last))]); !it.Valid() {
				return fmt.Errorf("block seek lost a key")
			}
		}
		return it.Err()
	}))
	if err != nil {
		return err
	}
	d.out["block.next_ns"], err = d.repeat(timed(64*entries, func() error {
		for i := 0; i < 64; i++ {
			for it.First(); it.Valid(); it.Next() {
			}
		}
		return it.Err()
	}))
	return err
}

// bloom: building one sequence's filter, probing it for keys it does
// not hold, and how often it wrongly says yes.
func (d *drives) bloom() (err error) {
	var f bloom.Filter
	d.out["bloom.build_ns_per_key"], err = d.repeat(timed(len(d.ukeys), func() error {
		f = bloom.Build(d.ukeys, bitsPerKey)
		return nil
	}))
	if err != nil {
		return err
	}
	absent := d.d.keys[d.d.n:]
	var probes, positives int
	d.out["bloom.probe_ns"], err = d.repeat(timed(len(absent), func() error {
		for _, k := range absent {
			if f.MayContain(k) {
				positives++
			}
		}
		probes += len(absent)
		return nil
	}))
	d.out["bloom.fp_ratio"] = ratio(float64(positives), float64(probes))
	return err
}

// table: writing one memtable's worth as a sequence, opening a table,
// point lookups with the block in and out of the cache, and a scan.
func (d *drives) table() (err error) {
	fs := vfs.NewMemFS()
	capacity := int64(4 * len(d.ikeys) * (len(d.ikeys[0]) + d.d.valueSize))
	opts := table.Options{BitsPerKey: bitsPerKey}
	var bytes int64
	perEntry, err := d.repeat(func() (int, time.Duration, error) {
		t0 := time.Now()
		t, err := table.Create(fs, "append.mst", 1, capacity, opts)
		if err != nil {
			return 0, 0, err
		}
		res, err := t.Append(d.ctRun())
		if err != nil {
			_ = t.Close()
			return 0, 0, err
		}
		bytes = res.Bytes
		return d.ctN, time.Since(t0), t.Close()
	})
	if err != nil {
		return err
	}
	d.out["table.append_ns_per_entry"] = perEntry
	d.out["table.append_mb_s"] = float64(bytes) / (1 << 20) / (perEntry * float64(d.ctN) / 1e9)

	build := func(name string, c *cache.Cache) (*table.Table, error) {
		t, err := table.Create(fs, name, 2, capacity, table.Options{BitsPerKey: bitsPerKey, Cache: c})
		if err != nil {
			return nil, err
		}
		if _, err := t.Append(d.run()); err != nil {
			_ = t.Close()
			return nil, err
		}
		return t, nil
	}
	cold, err := build("cold.mst", nil)
	if err != nil {
		return err
	}
	defer cold.Close()
	warm, err := build("warm.mst", cache.New(capacity))
	if err != nil {
		return err
	}
	defer warm.Close()

	d.out["table.open_us"], err = d.repeat(timed(1, func() error {
		t, err := table.Open(fs, "cold.mst", 3, opts)
		if err != nil {
			return err
		}
		return t.Close()
	}))
	d.out["table.open_us"] /= 1e3
	if err != nil {
		return err
	}
	const gets = 256
	get := func(t *table.Table) func() error {
		return func() error {
			for i := 0; i < gets; i++ {
				_, _, _, found, err := t.Get(d.ukeys[d.rng.Intn(len(d.ukeys))], kv.MaxSeq)
				if err != nil || !found {
					return fmt.Errorf("table.Get: found=%v err=%v", found, err)
				}
			}
			return nil
		}
	}
	if d.out["table.get_miss_ns"], err = d.repeat(timed(gets, get(cold))); err != nil {
		return err
	}
	if err := get(warm)(); err != nil { // fill the cache
		return err
	}
	for _, k := range d.ukeys {
		if _, _, _, _, err := warm.Get(k, kv.MaxSeq); err != nil {
			return err
		}
	}
	if d.out["table.get_hit_ns"], err = d.repeat(timed(gets, get(warm))); err != nil {
		return err
	}
	sink := 0
	d.out["table.iter_next_ns"], err = d.repeat(timed(len(d.ikeys), func() error {
		it := warm.NewIter()
		for it.First(); it.Valid(); it.Next() {
			sink += len(it.Value())
		}
		if err := it.Err(); err != nil {
			return err
		}
		return it.Close()
	}))
	return err
}

// memtables yields Ct-sized memtables of uniform overwrites, the flush
// input of the overwrite workloads, with sequence numbers that keep
// rising across calls, and remembers the keys it handed out.
func (d *drives) memtables(flushed *[][]byte) func() (*memtable.MemTable, int64) {
	var seq kv.Seq
	return func() (*memtable.MemTable, int64) {
		mt := memtable.New()
		var bytes int64
		for i := 0; i < d.ctN; i++ {
			seq++
			key := d.d.keys[d.rng.Intn(d.d.n)]
			mt.Add(seq, kv.KindSet, key, d.vals[i])
			*flushed = append(*flushed, key)
			bytes += int64(len(key) + d.d.valueSize)
		}
		return mt, bytes
	}
}

// flushPerMB flushes memtables into eng for d.dur of flush time and
// returns ms per MiB of user data; after runs off the clock after
// every flush.
func (d *drives) flushPerMB(eng engine.Engine, flushed *[][]byte, after func() error) (float64, error) {
	next := d.memtables(flushed)
	var bytes int64
	var total time.Duration
	for total < d.dur {
		mt, n := next()
		t0 := time.Now()
		if err := eng.Flush(mt.NewIter()); err != nil {
			return 0, err
		}
		total += time.Since(t0)
		bytes += n
		if err := after(); err != nil {
			return 0, err
		}
	}
	return ms(total) / (float64(bytes) / (1 << 20)), nil
}

// core: the IAM tree alone, under flushes of overwrite memtables (the
// whole append/merge/split cascade), then point lookups and seeks in
// the tree those flushes built.
func (d *drives) core() (err error) {
	tree, err := core.Open(core.Config{
		FS: vfs.NewMemFS(), Dir: dbDir, Cache: cache.New(d.sc.cache),
		NodeCapacity: d.sc.memtable, Fanout: 10, Policy: core.IAM, K: 3,
		MemBudget: d.sc.cache / 2, BitsPerKey: bitsPerKey,
	})
	if err != nil {
		return err
	}
	defer tree.Close()
	var present [][]byte // the keys the flushes put in the tree
	d.out["core.flush_ms_per_mb"], err = d.flushPerMB(tree, &present, func() error { return nil })
	if err != nil {
		return err
	}
	const gets = 256
	d.out["core.get_ns"], err = d.repeat(timed(gets, func() error {
		for i := 0; i < gets; i++ {
			_, _, _, found, err := tree.Get(present[d.rng.Intn(len(present))], kv.MaxSeq)
			if err != nil || !found {
				return fmt.Errorf("core.Get: found=%v err=%v", found, err)
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	const seeks = 64
	d.out["core.seek_us"], err = d.repeat(timed(seeks, func() error {
		for i := 0; i < seeks; i++ {
			it := tree.NewIter()
			it.Seek(kv.MakeInternalKey(present[d.rng.Intn(len(present))], kv.MaxSeq, kv.MaxKind))
			if !it.Valid() {
				return fmt.Errorf("core seek lost a key: %v", it.Err())
			}
			if err := it.Close(); err != nil {
				return err
			}
		}
		return nil
	}))
	d.out["core.seek_us"] /= 1e3
	return err
}

// lsm: the leveled baseline alone: flushing overwrite memtables to L0,
// and the compactions those flushes make necessary.
func (d *drives) lsm() (err error) {
	db, err := lsm.Open(lsm.Config{
		FS: vfs.NewMemFS(), Dir: dbDir, Cache: cache.New(d.sc.cache),
		FileSize: d.sc.memtable / 2, LevelSizeBase: 5 * d.sc.memtable,
		Fanout: 10, L0CompactTrigger: 4, Profile: lsm.ProfileLevelDB, BitsPerKey: bitsPerKey,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	var compact time.Duration
	d.out["lsm.flush_ms_per_mb"], err = d.flushPerMB(db, new([][]byte), func() error {
		t0 := time.Now()
		for {
			did, err := db.WorkStep()
			if err != nil || !did {
				compact += time.Since(t0)
				return err
			}
		}
	})
	st := db.Stats()
	compacted := st.TotalFlushBytes() - st.FlushBytes[0]
	d.out["lsm.compact_ms_per_mb"] = ratio(ms(compact), float64(compacted)/(1<<20))
	return err
}

// memfs: the in-memory device itself, 4 KiB at a time.
func (d *drives) memfs() (err error) {
	fs := vfs.NewMemFS()
	f, err := fs.Create("drive.dat")
	if err != nil {
		return err
	}
	defer f.Close()
	const pages = 4096
	buf := make([]byte, 4096)
	d.out["vfs.memfs_write_ns_per_4k"], err = d.repeat(timed(pages, func() error {
		for i := 0; i < pages; i++ {
			if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	d.out["vfs.memfs_read_ns_per_4k"], err = d.repeat(timed(pages, func() error {
		for i := 0; i < pages; i++ {
			if _, err := f.ReadAt(buf, int64(d.rng.Intn(pages))*4096); err != nil {
				return err
			}
		}
		return nil
	}))
	return err
}

// cache: block-cache inserts (evicting once full) and hits.
func (d *drives) cache() (err error) {
	const blocks = 4096
	// Block offsets as a table has them: not aligned to the block size,
	// which would put every block in one shard of the cache.
	off := func(i int) uint64 { return uint64(i) * (block.TargetSize + 5) }
	c := cache.New(blocks * block.TargetSize / 2)
	data := make([]byte, block.TargetSize)
	d.out["cache.set_ns"], err = d.repeat(timed(blocks, func() error {
		for i := 0; i < blocks; i++ {
			c.Set(1, off(i), data)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	c = cache.New(2 * blocks * block.TargetSize)
	for i := 0; i < blocks; i++ {
		c.Set(1, off(i), data)
	}
	d.out["cache.get_hit_ns"], err = d.repeat(timed(blocks, func() error {
		for i := 0; i < blocks; i++ {
			if c.Get(1, off(d.rng.Intn(blocks))) == nil {
				return fmt.Errorf("cache lost a block")
			}
		}
		return nil
	}))
	return err
}

// merge8: the merging iterator over eight sorted runs, as a scan over
// multi-sequence nodes builds it.
func (d *drives) merge8() (err error) {
	const ways = 8
	var kids []iterator.Iterator
	for w := 0; w < ways; w++ {
		var ks, vs [][]byte
		for i := w; i < len(d.ikeys); i += ways {
			ks, vs = append(ks, d.ikeys[i]), append(vs, d.vals[i])
		}
		kids = append(kids, iterator.NewSlice(kv.CompareInternal, ks, vs))
	}
	m := iterator.NewMerging(kv.CompareInternal, kids...)
	defer m.Close()
	d.out["iterator.merge8_next_ns"], err = d.repeat(timed(len(d.ikeys), func() error {
		n := 0
		for m.First(); m.Valid(); m.Next() {
			n++
		}
		if n != len(d.ikeys) {
			return fmt.Errorf("merge8 yielded %d of %d", n, len(d.ikeys))
		}
		return m.Err()
	}))
	if err != nil {
		return err
	}
	const seeks = 256
	d.out["iterator.merge8_seek_ns"], err = d.repeat(timed(seeks, func() error {
		for i := 0; i < seeks; i++ {
			if m.Seek(d.ikeys[d.rng.Intn(len(d.ikeys))]); !m.Valid() {
				return fmt.Errorf("merge8 seek lost a key")
			}
		}
		return m.Err()
	}))
	return err
}

// vlog: appending mixed-large's 8 KiB values to the value log and
// resolving pointers to them.
func (d *drives) vlog() (err error) {
	val := make([]byte, d.sc.largeValue)
	d.rng.Read(val)
	const perLog = 512
	var (
		log  *vlog.Log
		ptrs []vlog.Pointer
	)
	defer func() {
		if log != nil {
			_ = log.Close()
		}
	}()
	d.out["vlog.append_ns_per_rec"], err = d.repeat(func() (int, time.Duration, error) {
		if log != nil {
			if err := log.Close(); err != nil {
				return 0, 0, err
			}
		}
		var err error
		if log, _, err = vlog.Open(vfs.NewMemFS(), dbDir, d.sc.vlogSegment); err != nil {
			return 0, 0, err
		}
		ptrs = ptrs[:0]
		t0 := time.Now()
		for i := 0; i < perLog; i++ {
			p, err := log.Append(d.ukeys[i%len(d.ukeys)], val)
			if err != nil {
				return 0, 0, err
			}
			ptrs = append(ptrs, p)
		}
		return perLog, time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	d.out["vlog.read_ns"], err = d.repeat(timed(perLog, func() error {
		for i := 0; i < perLog; i++ {
			j := d.rng.Intn(perLog)
			if _, err := log.Read(ptrs[j], d.ukeys[j%len(d.ukeys)]); err != nil {
				return err
			}
		}
		return nil
	}))
	return err
}

// shard: routing a key to its shard, as every operation on a sharded
// store does.
func (d *drives) shard() (err error) {
	part, err := shard.NewPartition(2, [][]byte{d.ukeys[len(d.ukeys)/2]})
	if err != nil {
		return err
	}
	sink := 0
	d.out["shard.index_of_ns"], err = d.repeat(timed(len(d.ukeys), func() error {
		for _, k := range d.ukeys {
			sink += part.IndexOf(k)
		}
		return nil
	}))
	return err
}
