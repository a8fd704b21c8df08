package harness

import (
	"errors"
	"fmt"

	"iamdb/internal/amp"
	"iamdb/internal/core"
	"iamdb/internal/kv"
	"iamdb/internal/memtable"
	"iamdb/internal/vfs"
	"iamdb/internal/ycsb"
)

// Ablations varies the design choices DESIGN.md calls out, each on a bare
// core.Tree over MemFS at fixed sizes (the scale does not enter): Bloom
// bits per key against the bytes a guaranteed miss reads, the leaf merge
// chunk Ct/f against a hash load's write amplification, the splits and
// combines of a skewed load at two fan-outs, and the footprint of
// compressible values without and with flate.
func (Scale) Ablations() (Table, error) {
	t := Table{
		Title:  "Design ablations: core.Tree on MemFS, a memtable of Ct per flush",
		Header: []string{"ablation", "setting", "measure", "value"},
	}
	row := func(ablation, setting, measure, value string) {
		t.Rows = append(t.Rows, []string{ablation, setting, measure, value})
	}
	val := make([]byte, 256)
	for _, bits := range []int{4, 10, 14, 20} {
		var st vfs.IOStats
		tr, _, err := ablationTree(vfs.NewStatsFS(vfs.NewMemFS(), &st), core.Config{
			NodeCapacity: 32 << 10, Policy: core.LSA, BitsPerKey: bits,
		}, 4000, ycsb.KeyName, val)
		if err != nil {
			return t, err
		}
		const misses = 2000
		before := st.Snapshot()
		for i := 0; i < misses && err == nil; i++ {
			_, _, _, _, err = tr.Get(ycsb.KeyName(uint64(4000+100000+i)), kv.MaxSeq)
		}
		missBytes := st.Snapshot().Sub(before).BytesRead
		if err := checkClose(tr, err); err != nil {
			return t, err
		}
		row("bloom-bits", fmt.Sprint(bits), "miss B/lookup", fmt.Sprintf("%.4g", float64(missBytes)/misses))
	}
	for _, frac := range []int{1, 2, 5, 10} {
		tr, user, err := ablationTree(vfs.NewMemFS(), core.Config{
			NodeCapacity: 32 << 10, Policy: core.LSA, LeafInitFrac: frac,
		}, 8000, ycsb.KeyName, val)
		if err != nil {
			return t, err
		}
		wa := float64(tr.Stats().TotalFlushBytes()) / float64(user)
		if err := checkClose(tr, nil); err != nil {
			return t, err
		}
		row("leaf-chunk", fmt.Sprintf("Ct/%d", frac), "write-amp", fmt.Sprintf("%.4g", wa))
	}
	// A narrow hot range provokes range skew.
	hot := func(i uint64) []byte { return []byte(fmt.Sprintf("hot%06d", i%3000)) }
	for _, fanout := range []int{4, 10} {
		tr, _, err := ablationTree(vfs.NewMemFS(), core.Config{
			NodeCapacity: 16 << 10, Fanout: fanout, Policy: core.LSA,
		}, 20000, hot, make([]byte, 64))
		if err != nil {
			return t, err
		}
		st := tr.Stats()
		if err := checkClose(tr, nil); err != nil {
			return t, err
		}
		row("split-combine", fmt.Sprintf("t=%d", fanout), "splits", fmt.Sprint(st.Splits))
		row("split-combine", fmt.Sprintf("t=%d", fanout), "combines", fmt.Sprint(st.Combines))
	}
	for _, comp := range []bool{false, true} {
		tr, _, err := ablationTree(vfs.NewMemFS(), core.Config{
			NodeCapacity: 32 << 10, Policy: core.IAM, MemBudget: 64 << 10, Compression: comp,
		}, 6000, ycsb.KeyName, []byte(fmt.Sprintf("%0512d", 7))) // highly compressible
		if err != nil {
			return t, err
		}
		mib := float64(tr.SpaceUsed()) / (1 << 20)
		if err := checkClose(tr, nil); err != nil {
			return t, err
		}
		setting := "off"
		if comp {
			setting = "flate"
		}
		row("compression", setting, "space MiB", fmt.Sprintf("%.4g", mib))
	}
	return t, nil
}

// ablationTree opens a tree in "db" on fs and writes n records into it
// the way a store does: fill a memtable up to NodeCapacity, flush it into
// the tree, start a new one, and flush the last one however full.  It
// returns the tree and the user bytes (keys plus values) written.
func ablationTree(fs vfs.FS, cfg core.Config, n uint64, key func(uint64) []byte, val []byte) (*core.Tree, int64, error) {
	cfg.FS, cfg.Dir = fs, "db"
	tr, err := core.Open(cfg)
	if err != nil {
		return nil, 0, err
	}
	mt := memtable.New()
	var user int64
	for i := uint64(0); i < n; i++ {
		k := key(i)
		mt.Add(kv.Seq(i+1), kv.KindSet, k, val)
		user += int64(len(k) + len(val))
		if mt.ApproximateSize() >= cfg.NodeCapacity {
			if err := tr.Flush(mt.NewIter()); err != nil {
				return nil, 0, errors.Join(err, tr.Close())
			}
			mt = memtable.New()
		}
	}
	if err := tr.Flush(mt.NewIter()); err != nil {
		return nil, 0, errors.Join(err, tr.Close())
	}
	return tr, user, nil
}

// checkClose checks the tree's invariants unless err is already set, then
// closes it, and returns every error met.
func checkClose(tr *core.Tree, err error) error {
	if err == nil {
		err = tr.CheckInvariants()
	}
	return errors.Join(err, tr.Close())
}

// Theory evaluates the closed-form write amplification of Eq. (3)–(5)
// at the paper's full-scale parameters, beside the paper's measured
// Table 4 sums.  It measures nothing, so the scale does not enter.
func (Scale) Theory() (Table, error) {
	p := amp.Params{N: 5, T: 10, M: 3, K: 3}
	return Table{
		Title:  "Eq. (3)-(5) at paper scale (n=5, t=10, m=3, k=3)",
		Header: []string{"tree", "predicted", "paper-measured(1T)"},
		Rows: [][]string{
			{"LSA", f2(amp.LSAWrite(p)), "4.10"},
			{"IAM", f2(amp.IAMWrite(p)), "8.71"},
			{"LSM", f2(amp.LSMWrite(p)), "19.00"},
		},
	}, nil
}
