package harness

import (
	"fmt"
	"math/rand"

	"iamdb"
	"iamdb/internal/amp"
	"iamdb/internal/vfs"
	"iamdb/internal/vlog"
	"iamdb/internal/ycsb"
)

// The kvsep experiment measures key-value separation (values in a
// segmented CRC'd log, pointers in the tree) against inline storage:
//
//   - a large-value family (1 KiB – 1 MiB, all four engines, uniform
//     and Zipf-skewed overwrites over a hash-loaded keyspace) showing
//     sustained Put throughput and device write bytes with and without
//     separation, and
//   - a crossover probe (16 – 512 B values on IAM) locating the value
//     size where separation starts writing fewer device bytes per
//     record, checked against the closed-form prediction
//     amp.CrossoverValueSize.
//
// Record counts scale inversely with value size so every cell writes
// roughly the same logical volume.

// kvsepFamily is the large-value size family.
var kvsepFamily = []int{1 << 10, 16 << 10, 64 << 10, 1 << 20}

// kvsepProbes bracket the predicted write-byte crossover (a few tens
// of bytes for typical tree write amps).
var kvsepProbes = []int{16, 32, 64, 128, 256, 512}

// kvsepConfig sizes one cell: same logical data budget at every value
// size, record count capped at the scale's 100G-class count.
func (s Scale) kvsepConfig(e iamdb.EngineKind, valueSize int, separated bool, threshold int) Config {
	budget := int64(s.Records100G) * int64(s.ValueSize)
	records := budget / int64(valueSize)
	if records > int64(s.Records100G) {
		records = int64(s.Records100G)
	}
	if records < 64 {
		records = 64
	}
	cfg := Config{
		Engine: e, Disk: vfs.SSDProfile(), Records: uint64(records),
		ValueSize: valueSize, Ct: s.Ct, Seed: 1,
	}
	if separated {
		cfg.ValueThreshold = threshold
		// Small segments so density GC has reclamation granularity at
		// laptop scale.
		cfg.VlogSegmentSize = 1 << 20
	}
	return cfg
}

// SkewedOverwrite rewrites existing keys drawn from a Zipf
// distribution (hot keys rewritten often — the workload that fills the
// value log with dead records and drives density GC).
func (e *Env) SkewedOverwrite() (LoadResult, error) {
	z := rand.NewZipf(e.rng, 1.1, 1, e.Cfg.Records-1)
	return e.load(func(uint64) []byte { return ycsb.KeyName(z.Uint64()) })
}

// kvsepCell is one measured (engine, size, mode, dist) cell.
type kvsepCell struct {
	ops     float64 // Put throughput of the measured overwrite pass
	treeAmp float64 // tree bytes ÷ user bytes: what the crossover prediction takes
	device  int64   // total device bytes written: WAL, value log and tree
	user    int64   // total user bytes written
	space   int64
	puts    uint64 // total Put operations across both passes
}

func (s Scale) kvsepRun(e iamdb.EngineKind, valueSize int, sep bool, threshold int, skew bool) (kvsepCell, error) {
	env, err := NewEnv(s.kvsepConfig(e, valueSize, sep, threshold))
	if err != nil {
		return kvsepCell{}, err
	}
	defer env.Close()
	if _, err := env.HashLoad(); err != nil {
		return kvsepCell{}, err
	}
	// The overwrite pass is the measured one; the hash load seeds it.
	// Measuring sustained overwrites (rather than a one-shot load) makes
	// every inline engine pay its steady-state merge cost for large
	// values — the regime key-value separation targets — instead of the
	// append-only best case.
	var res LoadResult
	if skew {
		res, err = env.SkewedOverwrite()
	} else {
		res, err = env.Overwrite()
	}
	if err != nil {
		return kvsepCell{}, err
	}
	m := env.DB.Metrics()
	return kvsepCell{
		ops:     res.OpsPerSec,
		treeAmp: m.WriteAmplification(),
		device:  m.IO.BytesWritten,
		user:    m.UserBytes,
		space:   m.SpaceUsed,
		puts:    2 * env.Cfg.Records, // load + overwrite passes
	}, nil
}

func kvsepSize(v int) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%dM", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dK", v>>10)
	default:
		return fmt.Sprint(v)
	}
}

// KVSep runs the experiment and renders one table: a large-value family
// on every engine, a value-size sweep on IAM, and small-value probes
// whose device bytes per record give the measured inline/separated
// crossover, printed beside the one amp.CrossoverValueSize predicts.
func (s Scale) KVSep() (Table, error) {
	t := Table{
		Title: "KV separation: Put throughput and device writes, inline vs separated",
		Header: []string{"config", "dist", "value", "mode",
			"put-ops/s", "device-amp", "device-MB", "space-MB"},
	}
	mode := func(sep bool) string {
		if sep {
			return "sep"
		}
		return "inline"
	}
	addRow := func(tag, dist string, valueSize int, sep bool, c kvsepCell) {
		t.Rows = append(t.Rows, []string{
			tag, dist, kvsepSize(valueSize), mode(sep),
			// Device bytes over user bytes: the tree's own write
			// amplification reads 0.00 once the values bypass the tree.
			fmt.Sprintf("%.0f", c.ops), f2(float64(c.device) / float64(c.user)),
			fmt.Sprintf("%.1f", float64(c.device)/(1<<20)),
			fmt.Sprintf("%.1f", float64(c.space)/(1<<20)),
		})
	}

	// Large-value family at 64 KiB: every engine, uniform and skewed,
	// with and without separation.
	const familyThreshold = 1 << 10
	for _, dist := range []string{"uniform", "zipf"} {
		for _, e := range paperEngines {
			for _, sep := range []bool{false, true} {
				c, err := s.kvsepRun(e, 64<<10, sep, familyThreshold, dist == "zipf")
				if err != nil {
					return t, err
				}
				addRow(engineTag(e), dist, 64<<10, sep, c)
			}
		}
	}

	// Value-size sweep on IAM (uniform), the rest of the family.
	for _, v := range kvsepFamily {
		if v == 64<<10 {
			continue // covered by the engine matrix above
		}
		for _, sep := range []bool{false, true} {
			c, err := s.kvsepRun(iamdb.IAM, v, sep, familyThreshold, false)
			if err != nil {
				return t, err
			}
			addRow(engineTag(iamdb.IAM), "uniform", v, sep, c)
		}
	}

	// Crossover probe: small values on IAM, everything separated in the
	// sep runs (threshold 1), device bytes per record compared.
	var probes []kvsepProbe
	var ampSum float64
	for _, v := range kvsepProbes {
		ci, err := s.kvsepRun(iamdb.IAM, v, false, 0, false)
		if err != nil {
			return t, err
		}
		cs, err := s.kvsepRun(iamdb.IAM, v, true, 1, false)
		if err != nil {
			return t, err
		}
		addRow("I-probe", "uniform", v, false, ci)
		addRow("I-probe", "uniform", v, true, cs)
		probes = append(probes, kvsepProbe{
			size:   v,
			inline: float64(ci.device) / float64(ci.puts),
			sep:    float64(cs.device) / float64(cs.puts),
		})
		ampSum += ci.treeAmp
	}
	wAvg := ampSum / float64(len(kvsepProbes))

	key := ycsb.KeyName(0)
	rep := make([]byte, 64)
	overhead := vlog.RecordLen(key, rep) - len(key) - len(rep)
	predicted := amp.CrossoverValueSize(amp.KVSepParams{
		KeySize:        len(key),
		PointerSize:    vlog.PointerLen,
		RecordOverhead: overhead,
		TreeWriteAmp:   wAvg,
	})
	measured := kvsepMeasuredCrossover(probes)

	t.Rows = append(t.Rows,
		[]string{"crossover", "uniform", fmt.Sprintf("%.0f", predicted),
			"predicted", "-", f2(wAvg), "-", "-"},
		[]string{"crossover", "uniform", fmt.Sprintf("%.0f", measured),
			"measured", "-", "-", "-", "-"},
	)
	return t, nil
}

// kvsepProbe is one crossover probe point: device bytes per record for
// the inline and separated runs at one value size.
type kvsepProbe struct {
	size        int
	inline, sep float64
}

// kvsepMeasuredCrossover finds the value size where separated device
// bytes per record drop below inline, interpolating linearly between
// the bracketing probes.  Below the first probe it reports the first
// probe size; above the last, the last.
func kvsepMeasuredCrossover(probes []kvsepProbe) float64 {
	// diff(v) = sep - inline: positive while inline wins, negative once
	// separation does.
	prevSize, prevDiff := 0, 0.0
	for i, p := range probes {
		d := p.sep - p.inline
		if d <= 0 {
			if i == 0 {
				return float64(p.size)
			}
			// Linear zero crossing between the bracketing probes.
			frac := prevDiff / (prevDiff - d)
			return float64(prevSize) + frac*float64(p.size-prevSize)
		}
		prevSize, prevDiff = p.size, d
	}
	return float64(probes[len(probes)-1].size)
}
