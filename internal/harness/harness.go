// Package harness runs the paper's experiments (Sec. 6) at laptop
// scale: it stacks a DB on a virtual-clock disk model (HDD or SSD
// profile), loads it with YCSB hash loads or db_bench patterns, runs
// the workloads, and reports the quantities the paper's tables and
// figures plot — normalized throughput, per-level write amplification,
// 99%/max latencies, and space usage.
//
// Scale substitution (documented in DESIGN.md): datasets are MiB, not
// TiB, with every ratio preserved — fanout t, data:cache ratio, node
// capacity Ct relative to dataset — so level counts and amplification
// behaviour match the paper's regimes.
package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"iamdb"
	"iamdb/internal/histogram"
	"iamdb/internal/vfs"
	"iamdb/internal/ycsb"
)

// Config describes one experiment environment.
type Config struct {
	Engine iamdb.EngineKind
	Disk   vfs.DiskProfile
	// Records is the number of 1 KiB-value records the load inserts.
	Records uint64
	// ValueSize is the record value size (paper: 1024).
	ValueSize int
	// ValueThreshold enables key-value separation in the store (values
	// at or above it go to the value log); 0 keeps every value inline.
	ValueThreshold int
	// VlogSegmentSize overrides the value-log segment size; 0 uses the
	// store's default.  The kvsep experiment shrinks it so density GC
	// exercises at laptop scale.
	VlogSegmentSize int64
	// Ct is the memtable/node capacity (scaled from 128 MiB).
	Ct int64
	// CacheBytes models available RAM for data blocks.
	CacheBytes int64
	// Seed fixes workload randomness.
	Seed int64
	// FixedM/K pin IAM's mixed level (Table 3); zero = auto.
	FixedM int
	K      int
}

// DefaultValueSize is the value size experiments use unless they
// override it (the paper's 1 KiB records, Sec. 6.1).
const DefaultValueSize = 1024

// cpuPerOp is the fixed non-I/O time charged to every operation, so
// fully cached workloads have finite throughput.
const cpuPerOp = 5 * time.Microsecond

func (c Config) withDefaults() Config {
	if c.ValueSize == 0 {
		c.ValueSize = DefaultValueSize
	}
	if c.Ct == 0 {
		c.Ct = 256 * 1024
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = int64(c.Records) * int64(c.ValueSize) / 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.K == 0 {
		c.K = 3
	}
	return c
}

// Env is a live experiment environment.
type Env struct {
	Cfg   Config
	DB    *iamdb.DB
	clock *vfs.DiskClock
	stats *vfs.IOStats
	rng   *rand.Rand
	value []byte
}

// paperCt is the paper's node capacity (Sec. 6.1): disk seek latency
// scales by Ct/paperCt so the seek:transfer balance of compaction I/O
// survives the dataset scale-down.  A flush reads one appended
// sequence (~Ct/t bytes) per seek; at 128 MiB nodes the seek is ~9% of
// that read on the paper's HDD, and scaling Ct without scaling seeks
// would turn compactions seek-bound, which no full-size deployment is.
// Consequence: absolute latencies are not paper-comparable, only
// ratios between engines (EXPERIMENTS.md discusses this).
const paperCt = 128 << 20

// NewEnv builds the FS stack and opens the DB.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	clock := new(vfs.DiskClock)
	profile := cfg.Disk
	profile.SeekLatency = time.Duration(int64(profile.SeekLatency) * cfg.Ct / paperCt)
	disk := vfs.NewDisk(vfs.NewMemFS(), profile, clock)
	stats := new(vfs.IOStats)
	fs := vfs.NewStatsFS(disk, stats)

	db, err := iamdb.Open("db", &iamdb.Options{
		Engine:       cfg.Engine,
		FS:           fs,
		MemtableSize: cfg.Ct,
		CacheSize:    cfg.CacheBytes,
		MemBudget:    cfg.CacheBytes / 2, // Sec. 5.1.3's M/2 refinement
		K:            cfg.K,
		FixedM:       cfg.FixedM,
		// The disk's virtual clock is the experiment's time base, so
		// event durations and latency histograms report simulated
		// device time, not host time.
		Clock: clock,
		// Background steps run on the writer: every handle charges the one
		// serial clock above, so worker goroutines could overlap nothing
		// on it and only let the scheduler pick the interleaving.  Inline,
		// a run is an exact repeat (testdata/small holds each table).
		InlineBackground: true,
		ValueThreshold:   cfg.ValueThreshold,
		VlogSegmentSize:  cfg.VlogSegmentSize,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Env{
		Cfg: cfg, DB: db, clock: clock, stats: stats,
		rng:   rng,
		value: ycsb.Value(rng, cfg.ValueSize),
	}, nil
}

// closeHook, when set, sees every environment just before it closes:
// TestExperimentRepeatsExactly reads each one's final metrics there.
var closeHook func(*Env)

// Close shuts the environment down.
func (e *Env) Close() error {
	if closeHook != nil {
		closeHook(e)
	}
	return e.DB.Close()
}

// LoadResult reports a load phase.
type LoadResult struct {
	Engine    string
	Ops       uint64
	UserBytes int64
	DiskTime  time.Duration
	OpsPerSec float64
	WriteAmp  float64
	PerLevel  []float64
	SpaceUsed int64
}

// HashLoad inserts Records keys in hash order (YCSB's default load,
// Sec. 6.2), timed on the virtual disk clock.
func (e *Env) HashLoad() (LoadResult, error) {
	return e.load(ycsb.KeyName)
}

// SeqLoad inserts Records keys in ascending order (db_bench fillseq).
func (e *Env) SeqLoad() (LoadResult, error) {
	return e.load(ycsb.OrderedKeyName)
}

// Overwrite puts Records keys drawn at random, with repeats, from the
// key space (db_bench overwrite after a load, fillrandom on an empty
// store).
func (e *Env) Overwrite() (LoadResult, error) {
	n := e.Cfg.Records
	return e.load(func(uint64) []byte {
		return ycsb.KeyName(uint64(e.rng.Int63n(int64(n))))
	})
}

func (e *Env) load(key func(i uint64) []byte) (LoadResult, error) {
	start := e.clock.Elapsed()
	for i := uint64(0); i < e.Cfg.Records; i++ {
		if err := e.DB.Put(key(i), e.value); err != nil {
			return LoadResult{}, err
		}
	}
	elapsed := e.clock.Elapsed() - start +
		time.Duration(e.Cfg.Records)*cpuPerOp
	m := e.DB.Metrics()
	res := LoadResult{
		Engine:    e.Cfg.Engine.String(),
		Ops:       e.Cfg.Records,
		UserBytes: m.UserBytes,
		DiskTime:  elapsed,
		OpsPerSec: rate(e.Cfg.Records, elapsed),
		WriteAmp:  m.WriteAmplification(),
		PerLevel:  perLevelAmp(m),
		SpaceUsed: m.SpaceUsed,
	}
	return res, nil
}

func rate(ops uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}

func perLevelAmp(m iamdb.Metrics) []float64 {
	out := make([]float64, len(m.Engine.FlushBytes))
	for i, b := range m.Engine.FlushBytes {
		if m.UserBytes > 0 {
			out[i] = float64(b) / float64(m.UserBytes)
		}
	}
	return out
}

// Settle runs the tuning phase to completion (flush + drain all
// pending compactions), returning the disk time it consumed.
func (e *Env) Settle() (time.Duration, error) {
	start := e.clock.Elapsed()
	if err := e.DB.CompactAll(); err != nil {
		return 0, err
	}
	return e.clock.Elapsed() - start, nil
}

// RunResult reports one workload run.
type RunResult struct {
	Engine    string
	Workload  string
	Ops       int
	OpsPerSec float64
	P99       time.Duration
	ReadMiss  int
	// Service is each operation's service time, in order: device time
	// plus cpuPerOp.
	Service []time.Duration
}

// RunWorkload executes ops operations of workload w against the store.
func (e *Env) RunWorkload(w ycsb.Workload, ops int) (RunResult, error) {
	runner := ycsb.NewRunner(w, e.Cfg.Records, e.Cfg.Seed+17)
	hist := histogram.New()
	service := make([]time.Duration, ops)
	start := e.clock.Elapsed()
	misses := 0
	for i := 0; i < ops; i++ {
		op := runner.Next()
		t0 := e.clock.Elapsed()
		switch op.Type {
		case ycsb.OpRead:
			if _, err := e.DB.Get(op.Key); err == iamdb.ErrNotFound {
				misses++
			} else if err != nil {
				return RunResult{}, err
			}
		case ycsb.OpUpdate, ycsb.OpInsert:
			if err := e.DB.Put(op.Key, e.value); err != nil {
				return RunResult{}, err
			}
		case ycsb.OpRMW:
			if _, err := e.DB.Get(op.Key); err != nil && err != iamdb.ErrNotFound {
				return RunResult{}, err
			}
			if err := e.DB.Put(op.Key, e.value); err != nil {
				return RunResult{}, err
			}
		case ycsb.OpScan:
			it := e.DB.NewIterator()
			it.Seek(op.Key)
			for n := 0; it.Valid() && n < op.ScanLen; n++ {
				it.Next()
			}
			if err := it.Err(); err != nil {
				it.Close()
				return RunResult{}, err
			}
			it.Close()
		}
		service[i] = e.clock.Elapsed() - t0 + cpuPerOp
		hist.Record(service[i])
	}
	elapsed := e.clock.Elapsed() - start + time.Duration(ops)*cpuPerOp
	return RunResult{
		Engine:    e.Cfg.Engine.String(),
		Workload:  w.Name,
		Ops:       ops,
		OpsPerSec: rate(uint64(ops), elapsed),
		P99:       hist.Percentile(0.99),
		ReadMiss:  misses,
		Service:   service,
	}, nil
}

// ReadSeq scans the whole store once (db_bench readseq), returning the
// record rate.
func (e *Env) ReadSeq() (RunResult, error) {
	start := e.clock.Elapsed()
	it := e.DB.NewIterator()
	defer it.Close()
	n := 0
	for it.First(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		return RunResult{}, err
	}
	elapsed := e.clock.Elapsed() - start + time.Duration(n)*cpuPerOp
	return RunResult{
		Engine: e.Cfg.Engine.String(), Workload: "readseq",
		Ops: n, OpsPerSec: rate(uint64(n), elapsed),
	}, nil
}

// SpaceUsed reports the store's on-disk footprint.
func (e *Env) SpaceUsed() int64 { return e.DB.Metrics().SpaceUsed }

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Format renders the table with aligned columns; the last is not padded,
// so no line ends in blanks (the goldens under testdata are this text).
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(cells)-1 {
				b.WriteString(c)
			} else {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}
