package harness

import (
	"fmt"
	"time"

	"iamdb"
	"iamdb/internal/vfs"
	"iamdb/internal/ycsb"
)

// Scale maps the paper's testbed sizes to laptop-sized datasets with
// the same ratios.  "100G" class preserves the paper's 100 GB : 16 GB
// data-to-RAM ratio (6.25:1); "1T" preserves 1 TB : 64 GB (16:1).
type Scale struct {
	Name        string
	Records100G uint64
	Records1T   uint64
	Ct          int64
	ValueSize   int
	// WorkloadOps is the operation count for YCSB runs.
	WorkloadOps int
}

// The datasets keep the paper's dataset-to-node-capacity multiplier:
// 100 GB over Ct = 128 MiB is 800x, which puts the data's tail in L4
// and (with the scaled cache) the mixed level at L3, exactly the
// regime of Tables 3 and 4.  The 1T class uses 2400x — it deepens the
// leaf level rather than opening L5 (the paper's 8192x would; that
// full ratio is reproducible with cmd/iambench -scale=full).

// SmallScale keeps `go test -bench` runs manageable.
var SmallScale = Scale{
	Name: "small", Records100G: 25600, Records1T: 76800,
	Ct: 32 * 1024, ValueSize: 1024, WorkloadOps: 4000,
}

// MediumScale is the default for cmd/iambench.
var MediumScale = Scale{
	Name: "medium", Records100G: 51200, Records1T: 153600,
	Ct: 64 * 1024, ValueSize: 1024, WorkloadOps: 10000,
}

// Class identifies one of the paper's three test environments.
type Class struct {
	Name string
	Disk vfs.DiskProfile
	// OneT selects the 1 TB-class dataset and RAM ratio.
	OneT bool
}

// The paper's three environments (Sec. 6.1).
var (
	ClassSSD100G = Class{Name: "SSD-100G", Disk: vfs.SSDProfile()}
	ClassHDD100G = Class{Name: "HDD-100G", Disk: vfs.HDDProfile()}
	ClassHDD1T   = Class{Name: "HDD-1T", Disk: vfs.HDDProfile(), OneT: true}
)

// ConfigFor builds the experiment config for an engine in a class.
func (s Scale) ConfigFor(e iamdb.EngineKind, c Class) Config {
	records := s.Records100G
	ratio := int64(25) // 100 GB : 16 GB = 6.25 : 1, times 4 for /4 below
	if c.OneT {
		records = s.Records1T
		ratio = 64 // 1 TB : 64 GB = 16 : 1, times 4
	}
	data := int64(records) * int64(s.ValueSize)
	return Config{
		Engine: e, Disk: c.Disk, Records: records,
		ValueSize: s.ValueSize, Ct: s.Ct,
		CacheBytes: data * 4 / ratio, Seed: 1,
	}
}

// Experiment is one table or figure under the id cmd/iambench runs it by.
type Experiment struct {
	ID, Desc string
	Run      func(Scale) (Table, error)
}

// Experiments lists every harness experiment in presentation order.  All
// repeat to the byte, and testdata/small holds their tables.
var Experiments = []Experiment{
	{"table1", "amplifications of LSM/LSA/IAM", Scale.Table1},
	{"table2", "append-tree traits (seq writes, moves, scans)", Scale.Table2},
	{"table3", "IAM per-level write amp vs k (mixed level pinned)", Scale.Table3},
	{"table4", "per-level write amp after 1T-class hash load", Scale.Table4},
	{"table5", "99% latencies of query-intensive workloads", Scale.Table5},
	{"figure6", "hash-load throughput normalized to LevelDB", Scale.Figure6},
	{"figure7a", "YCSB A-G throughput, SSD-100G",
		func(s Scale) (Table, error) { return s.Figure7(ClassSSD100G) }},
	{"figure7b", "YCSB A-G throughput, HDD-100G",
		func(s Scale) (Table, error) { return s.Figure7(ClassHDD100G) }},
	{"figure7c", "YCSB A-G throughput, HDD-1T",
		func(s Scale) (Table, error) { return s.Figure7(ClassHDD1T) }},
	{"figure8", "stable throughput, query-intensive, SSD-100G", Scale.Figure8},
	{"figure9", "fillseq/readseq throughput", Scale.Figure9},
	{"figure10", "space usage after write tests", Scale.Figure10},
	{"tuning", "tuning phase: compaction debt left after a hash load", Scale.TuningPhase},
	{"openloop", "YCSB-A latency from arrival at 0.5, 0.8 and 0.95 of peak", Scale.OpenLoop},
	{"kvsep", "key-value separation: large-value throughput and write-byte crossover", Scale.KVSep},
	{"ablations", "design ablations: Bloom bits, leaf merge chunk, split/combine, compression", Scale.Ablations},
	{"theory", "closed-form write amplification, Eq. (3)-(5), at paper scale", Scale.Theory},
}

// engines used across experiments, in the paper's presentation order.
var paperEngines = []iamdb.EngineKind{iamdb.LevelDB, iamdb.RocksDB, iamdb.LSA, iamdb.IAM}

// engineTag is the paper's one-letter name for an engine's rows and
// columns.  The paper's -1t / -4t suffix is absent: compaction threads
// overlap nothing on the harness's one device clock (EXPERIMENTS.md,
// "Thread count").
func engineTag(e iamdb.EngineKind) string {
	switch e {
	case iamdb.LevelDB:
		return "L"
	case iamdb.RocksDB:
		return "R"
	case iamdb.LSA:
		return "A"
	default:
		return "I"
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// eachEngine runs fn in a fresh environment of the class for each engine
// in turn, through withEnv, and stops at the first error.
func (s Scale) eachEngine(engines []iamdb.EngineKind, c Class, fn func(*Env) error) error {
	for _, e := range engines {
		if err := withEnv(s.ConfigFor(e, c), fn); err != nil {
			return err
		}
	}
	return nil
}

// runAll runs the workloads in order on env: WorkloadOps operations each,
// a tenth of that for long scans.
func (s Scale) runAll(env *Env, workloads []ycsb.Workload) ([]RunResult, error) {
	var rs []RunResult
	for _, w := range workloads {
		ops := s.WorkloadOps
		if w.MaxScanLen >= 1000 {
			ops = s.WorkloadOps / 10 // long scans: fewer ops
		}
		r, err := env.RunWorkload(w, ops)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// normalized is one row of Figures 6-9: the first rate (L's) raw, in
// thousands as "%.1fk" when kilo is set, and every other as a multiple
// of it.
func normalized(name string, rates []float64, kilo bool) []string {
	first := fmt.Sprintf("%.0f", rates[0])
	if kilo {
		first = fmt.Sprintf("%.1fk", rates[0]/1000)
	}
	row := []string{name, first}
	for _, r := range rates[1:] {
		row = append(row, f2(r/rates[0]))
	}
	return row
}

// levelRow is one row of Tables 3 and 4: the write amp of levels lo..hi
// and the total.  A level the tree lacks reads "-", and so does an empty
// one when dashEmpty is set.
func levelRow(name string, res LoadResult, lo, hi int, dashEmpty bool) []string {
	row := []string{name}
	for lvl := lo; lvl <= hi; lvl++ {
		if lvl < len(res.PerLevel) && (res.PerLevel[lvl] > 0 || !dashEmpty) {
			row = append(row, f2(res.PerLevel[lvl]))
		} else {
			row = append(row, "-")
		}
	}
	return append(row, f2(res.WriteAmp))
}

// Table1 measures the qualitative amplification comparison of Table 1:
// write amplification from a hash load, scan read amplification as
// disk seeks per scanned level, and space amplification after an
// overwrite pass.
func (s Scale) Table1() (Table, error) {
	t := Table{
		Title:  "Table 1: amplifications of LSM (RocksDB profile), LSA and IAM",
		Header: []string{"engine", "write-amp", "seeks/scan", "space-amp"},
	}
	err := s.eachEngine([]iamdb.EngineKind{iamdb.RocksDB, iamdb.LSA, iamdb.IAM}, ClassSSD100G, func(env *Env) error {
		if _, err := env.HashLoad(); err != nil {
			return err
		}
		load, err := env.Overwrite()
		if err != nil {
			return err
		}
		if _, err := env.Settle(); err != nil {
			return err
		}
		// Scan read amplification: seeks per 100-record scan.
		runner := ycsb.NewRunner(ycsb.WorkloadE, env.Cfg.Records, 5)
		before := env.stats.Snapshot()
		const scans = 200
		for i := 0; i < scans; i++ {
			if err := env.scan(runner.Next().Key, 100); err != nil {
				return err
			}
		}
		seeks := float64(env.stats.Snapshot().Sub(before).Seeks) / scans
		logical := int64(env.Cfg.Records) * int64(env.Cfg.ValueSize)
		space := float64(env.SpaceUsed()) / float64(logical)
		t.Rows = append(t.Rows, []string{
			env.Cfg.Engine.String(), f2(load.WriteAmp), f2(seeks), f2(space)})
		return nil
	})
	return t, err
}

// Table2 verifies the append-tree characteristics of Table 2: LSA/IAM
// avoid the worst write case (bounded fan-out via splits), keep
// sequential loads rewrite-free (write amp ~1 via metadata moves), and
// support scans.  The FLSM-style always-rewrite behaviour is shown by
// the same sequential load through the merge-everywhere baseline.
func (s Scale) Table2() (Table, error) {
	t := Table{
		Title:  "Table 2: append-tree traits under sequential load",
		Header: []string{"engine", "seq-write-amp", "moves", "splits", "scan-ok"},
	}
	err := s.eachEngine([]iamdb.EngineKind{iamdb.RocksDB, iamdb.LSA, iamdb.IAM}, ClassSSD100G, func(env *Env) error {
		res, err := env.SeqLoad()
		if err != nil {
			return err
		}
		m := env.DB.Metrics()
		scan, err := env.ReadSeq()
		if err != nil {
			return err
		}
		scanOK := "yes"
		if scan.Ops != int(env.Cfg.Records) {
			scanOK = fmt.Sprintf("BROKEN(%d)", scan.Ops)
		}
		t.Rows = append(t.Rows, []string{
			env.Cfg.Engine.String(), f2(res.WriteAmp),
			fmt.Sprint(m.Engine.Moves), fmt.Sprint(m.Engine.Splits), scanOK})
		return nil
	})
	return t, err
}

// Table3 reproduces Table 3: per-level write amplification of IAM
// after a hash load with the mixed level pinned at L3 and k swept.
func (s Scale) Table3() (Table, error) {
	t := Table{
		Title:  "Table 3: IAM per-level write amp, mixed level L3, k swept",
		Header: []string{"k", "L1", "L2", "L3", "L4", "total"},
	}
	for k := 1; k <= 3; k++ {
		cfg := s.ConfigFor(iamdb.IAM, ClassSSD100G)
		cfg.FixedM = 3
		cfg.K = k
		err := withEnv(cfg, func(env *Env) error {
			res, err := env.HashLoad()
			if err == nil {
				t.Rows = append(t.Rows, levelRow(fmt.Sprint(k), res, 1, 4, false))
			}
			return err
		})
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// Table4 reproduces Table 4: per-level write amplification after the
// 1 TB-class hash load for L, R, A and I.
func (s Scale) Table4() (Table, error) {
	t := Table{
		Title:  "Table 4: per-level write amp, 1T-class hash load",
		Header: []string{"config", "L0", "L1", "L2", "L3", "L4", "L5", "sum"},
	}
	err := s.eachEngine(paperEngines, ClassHDD1T, func(env *Env) error {
		res, err := env.HashLoad()
		if err == nil {
			t.Rows = append(t.Rows, levelRow(engineTag(env.Cfg.Engine), res, 0, 5, true))
		}
		return err
	})
	return t, err
}

// queryWorkloads are the workloads of Table 5 / Figure 8.
var queryWorkloads = []ycsb.Workload{
	ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD, ycsb.WorkloadE, ycsb.WorkloadG,
}

// paperClasses are the classes Table 5 and Figure 6 run in.
var paperClasses = []Class{ClassSSD100G, ClassHDD100G, ClassHDD1T}

// Table5 reproduces Table 5: 99% latencies of the query-intensive
// workloads per environment class.
func (s Scale) Table5() (Table, error) {
	t := Table{
		Title:  "Table 5: 99% latencies (per class: SSD-100G, HDD-100G, HDD-1T)",
		Header: []string{"config", "class", "B", "C", "D", "E", "G"},
	}
	for _, class := range paperClasses {
		err := s.eachEngine(paperEngines, class, func(env *Env) error {
			if _, err := env.HashLoad(); err != nil {
				return err
			}
			rs, err := s.runAll(env, queryWorkloads)
			if err != nil {
				return err
			}
			row := []string{engineTag(env.Cfg.Engine), class.Name}
			for _, r := range rs {
				row = append(row, ms(r.P99))
			}
			t.Rows = append(t.Rows, row)
			return nil
		})
		if err != nil {
			return t, err
		}
	}
	return t, nil
}

// Figure6 reproduces Fig. 6: hash-load throughput per class,
// normalized to the LevelDB profile.
func (s Scale) Figure6() (Table, error) {
	t := Table{
		Title:  "Figure 6: hash-load throughput normalized to L",
		Header: []string{"class", "L(kops)", "R", "A", "I"},
	}
	for _, class := range paperClasses {
		var rates []float64
		err := s.eachEngine(paperEngines, class, func(env *Env) error {
			res, err := env.HashLoad()
			rates = append(rates, res.OpsPerSec)
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, normalized(class.Name, rates, true))
	}
	return t, nil
}

// allWorkloads is Fig. 7's x-axis.
var allWorkloads = []ycsb.Workload{
	ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadD,
	ycsb.WorkloadE, ycsb.WorkloadF, ycsb.WorkloadG,
}

// Figure7 reproduces Fig. 7a/b/c: YCSB workload throughput normalized
// to the LevelDB profile, per class.  Runs begin right after the load,
// so the baselines' tuning phase drags their average as in the paper.
func (s Scale) Figure7(class Class) (Table, error) {
	return s.throughput(fmt.Sprintf("Figure 7 (%s): YCSB throughput normalized to L", class.Name),
		class, allWorkloads, false)
}

// Figure8 reproduces Fig. 8: stable throughput (after the tuning
// phase) of the query-intensive workloads, SSD 100G class.
func (s Scale) Figure8() (Table, error) {
	return s.throughput("Figure 8: stable throughput, query-intensive, SSD-100G",
		ClassSSD100G, queryWorkloads, true)
}

// throughput is the body of Figures 7 and 8: each engine hash-loads,
// settles the tuning phase first when settle is set, and runs the
// workloads; a row per workload gives the rates normalized to L.
func (s Scale) throughput(title string, class Class, workloads []ycsb.Workload, settle bool) (Table, error) {
	t := Table{Title: title, Header: []string{"workload", "L(ops/s)", "R", "A", "I"}}
	per := make([][]float64, len(workloads)) // workload -> by engine
	err := s.eachEngine(paperEngines, class, func(env *Env) error {
		if _, err := env.HashLoad(); err != nil {
			return err
		}
		if settle {
			if _, err := env.Settle(); err != nil {
				return err
			}
		}
		rs, err := s.runAll(env, workloads)
		for i, r := range rs {
			per[i] = append(per[i], r.OpsPerSec)
		}
		return err
	})
	if err != nil {
		return t, err
	}
	for i, w := range workloads {
		t.Rows = append(t.Rows, normalized(w.Name, per[i], false))
	}
	return t, nil
}

// Figure9 reproduces Fig. 9: sequential load (fillseq) and long-range
// scan (readseq) throughput on SSD and HDD, normalized to L.
func (s Scale) Figure9() (Table, error) {
	t := Table{
		Title:  "Figure 9: fillseq / readseq throughput normalized to L",
		Header: []string{"test", "L(kops)", "R", "A", "I"},
	}
	for _, class := range []Class{ClassSSD100G, ClassHDD100G} {
		var fill, read []float64
		err := s.eachEngine(paperEngines, class, func(env *Env) error {
			f, err := env.SeqLoad()
			if err != nil {
				return err
			}
			r, err := env.ReadSeq()
			fill, read = append(fill, f.OpsPerSec), append(read, r.OpsPerSec)
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, normalized("fillseq-"+class.Disk.Name, fill, true),
			normalized("readseq-"+class.Disk.Name, read, true))
	}
	return t, nil
}

// Figure10 reproduces Fig. 10: space usage after fillseq, hash load,
// fillrandom and overwrite (SSD 100G class; the paper notes space is
// impervious to the medium).
func (s Scale) Figure10() (Table, error) {
	t := Table{
		Title:  "Figure 10: space usage (MiB) after write tests",
		Header: []string{"test", "L", "R", "A", "I"},
	}
	tests := []struct {
		name string
		run  func(*Env) error
	}{
		{"fillseq", func(e *Env) error { _, err := e.SeqLoad(); return err }},
		{"hash-load", func(e *Env) error { _, err := e.HashLoad(); return err }},
		// db_bench's fillrandom and overwrite issue the same puts here.
		{"fillrandom", func(e *Env) error { _, err := e.Overwrite(); return err }},
		{"overwrite", func(e *Env) error {
			if _, err := e.HashLoad(); err != nil {
				return err
			}
			_, err := e.Overwrite()
			return err
		}},
	}
	for _, test := range tests {
		row := []string{test.name}
		err := s.eachEngine(paperEngines, ClassSSD100G, func(env *Env) error {
			err := test.run(env)
			row = append(row, fmt.Sprintf("%.1f", float64(env.SpaceUsed())/(1<<20)))
			return err
		})
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// TuningPhase quantifies Sec. 6.2's "tuning phase": the disk time each
// engine still owes after a hash load to move all data overflows down.
// The paper attributes LevelDB's unstable early performance and IamDB's
// quick stabilization to this debt.
func (s Scale) TuningPhase() (Table, error) {
	t := Table{
		Title:  "Tuning phase: leftover compaction debt after hash load",
		Header: []string{"config", "load(disk-s)", "tuning(disk-s)", "debt-ratio"},
	}
	err := s.eachEngine(paperEngines, ClassSSD100G, func(env *Env) error {
		res, err := env.HashLoad()
		if err != nil {
			return err
		}
		tune, err := env.Settle()
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			engineTag(env.Cfg.Engine),
			fmt.Sprintf("%.2f", res.DiskTime.Seconds()),
			fmt.Sprintf("%.2f", tune.Seconds()),
			fmt.Sprintf("%.2f", tune.Seconds()/res.DiskTime.Seconds()),
		})
		return nil
	})
	return t, err
}
