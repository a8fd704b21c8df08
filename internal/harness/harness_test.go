package harness

import (
	"testing"
	"time"

	"iamdb"
	"iamdb/internal/vfs"
	"iamdb/internal/ycsb"
)

// tinyCfg keeps unit tests fast: a few MiB of data.
func tinyCfg(e iamdb.EngineKind) Config {
	return Config{
		Engine: e, Disk: vfs.SSDProfile(),
		Records: 3000, ValueSize: 512, Ct: 32 * 1024,
		CacheBytes: 256 * 1024, Seed: 3,
	}
}

func TestEnvHashLoad(t *testing.T) {
	for _, e := range []iamdb.EngineKind{iamdb.IAM, iamdb.LSA, iamdb.LevelDB, iamdb.RocksDB} {
		t.Run(e.String(), func(t *testing.T) {
			env, err := NewEnv(tinyCfg(e))
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			res, err := env.HashLoad()
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 3000 {
				t.Fatalf("ops %d", res.Ops)
			}
			if res.WriteAmp < 0.5 || res.WriteAmp > 50 {
				t.Fatalf("write amp %.2f implausible", res.WriteAmp)
			}
			if res.OpsPerSec <= 0 {
				t.Fatalf("rate %f", res.OpsPerSec)
			}
			if res.DiskTime <= 0 {
				t.Fatal("no disk time charged")
			}
			if res.SpaceUsed <= 0 {
				t.Fatal("no space used")
			}
			// Every loaded key must be readable.
			for i := uint64(0); i < 3000; i += 131 {
				if _, err := env.DB.Get(ycsb.KeyName(i)); err != nil {
					t.Fatalf("key %d: %v", i, err)
				}
			}
		})
	}
}

func TestEnvWorkloads(t *testing.T) {
	env, err := NewEnv(tinyCfg(iamdb.IAM))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if _, err := env.HashLoad(); err != nil {
		t.Fatal(err)
	}
	for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadF} {
		r, err := env.RunWorkload(w, 500)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if r.Ops != 500 || r.OpsPerSec <= 0 {
			t.Fatalf("%s: %+v", w.Name, r)
		}
		// Loaded keys exist; misses should be rare (only workload D
		// reads racing its own inserts).
		if r.ReadMiss > r.Ops/4 {
			t.Fatalf("%s: %d misses", w.Name, r.ReadMiss)
		}
	}
}

func TestEnvSeqLoadAndReadSeq(t *testing.T) {
	env, err := NewEnv(tinyCfg(iamdb.LSA))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	res, err := env.SeqLoad()
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteAmp > 2.0 {
		t.Fatalf("sequential write amp %.2f should be near 1", res.WriteAmp)
	}
	scan, err := env.ReadSeq()
	if err != nil {
		t.Fatal(err)
	}
	if scan.Ops != 3000 {
		t.Fatalf("readseq saw %d records", scan.Ops)
	}
}

func TestEnvSettleReducesPendingWork(t *testing.T) {
	env, err := NewEnv(tinyCfg(iamdb.LevelDB))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if _, err := env.HashLoad(); err != nil {
		t.Fatal(err)
	}
	d, err := env.Settle()
	if err != nil {
		t.Fatal(err)
	}
	// The overflow-tolerant profile should have deferred work to the
	// tuning phase.
	if d <= 0 {
		t.Fatal("tuning phase should consume disk time")
	}
	// Settling twice is a no-op (nothing left).
	d2, err := env.Settle()
	if err != nil {
		t.Fatal(err)
	}
	if d2 > d/10 {
		t.Fatalf("second settle did real work: %v vs %v", d2, d)
	}
}

func TestDiskProfilesDiffer(t *testing.T) {
	run := func(p vfs.DiskProfile) time.Duration {
		cfg := tinyCfg(iamdb.RocksDB)
		cfg.Disk = p
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		res, err := env.HashLoad()
		if err != nil {
			t.Fatal(err)
		}
		return res.DiskTime
	}
	ssd, hdd := run(vfs.SSDProfile()), run(vfs.HDDProfile())
	if hdd <= ssd {
		t.Fatalf("HDD (%v) should be slower than SSD (%v)", hdd, ssd)
	}
}

func TestConfigForPreservesRatios(t *testing.T) {
	s := SmallScale
	c100 := s.ConfigFor(iamdb.IAM, ClassSSD100G)
	c1t := s.ConfigFor(iamdb.IAM, ClassHDD1T)
	// 100G class: data / cache = 6.25; 1T: 16.
	d100 := int64(c100.Records) * int64(c100.ValueSize)
	if r := float64(d100) / float64(c100.CacheBytes); r < 6 || r > 6.5 {
		t.Fatalf("100G data:cache ratio %.2f want 6.25", r)
	}
	d1t := int64(c1t.Records) * int64(c1t.ValueSize)
	if r := float64(d1t) / float64(c1t.CacheBytes); r < 15.5 || r > 16.5 {
		t.Fatalf("1T data:cache ratio %.2f want 16", r)
	}
	// Dataset:Ct multiplier 800x for the 100G class, as in the paper.
	if m := d100 / c100.Ct; m != 800 {
		t.Fatalf("100G dataset is %dx Ct, want 800x", m)
	}
}

func TestTableFormat(t *testing.T) {
	tbl := Table{
		Title:  "demo",
		Header: []string{"a", "long-column"},
		Rows:   [][]string{{"x", "1"}, {"longer-cell", "2"}},
	}
	out := tbl.Format()
	if out == "" || len(out) < 20 {
		t.Fatal("format too short")
	}
}
