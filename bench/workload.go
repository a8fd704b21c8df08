package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"iamdb"
	"iamdb/internal/ycsb"
)

// scale fixes every size of a run.  Factor 1 is the benchmark; the
// package test runs the same code at factor 0.01, where the mis-sizing
// guards do not apply.
type scale struct {
	factor          float64
	records         int   // N, records loaded by every 1 KiB workload
	valueSize       int   // bytes, 16-byte header included
	memtable        int64 // Ct
	cache           int64 // block cache, 16 % of the data
	imageOverwrites int   // overwrites on top of the load in the standard image
	// hotKeys is read-hot's working set.  It fits the block cache ten
	// times over, and is small enough (about 1.6 MiB of blocks) to sit in
	// a core's own L2: at 2 000 keys the workload lived in the shared L3
	// and its latencies moved with the neighbours' load.
	hotKeys      int
	absentKeys   int // never-written keys read-uniform looks up
	scanLen      int
	largeRecords int // mixed-large
	largeValue   int
	vlogSegment  int64
	guards       bool
}

func newScale(factor float64) scale {
	scaled := func(full, floor int) int {
		if n := int(float64(full) * factor); n > floor {
			return n
		}
		return floor
	}
	s := scale{
		factor:       factor,
		records:      scaled(100_000, 500),
		valueSize:    1024,
		memtable:     int64(scaled(256<<10, 16<<10)),
		hotKeys:      scaled(400, 20),
		scanLen:      50,
		largeRecords: scaled(12_500, 100),
		largeValue:   8 << 10,
		vlogSegment:  int64(scaled(4<<20, 64<<10)),
		guards:       factor >= 1,
	}
	// The mixed workloads split the keys between two writers by parity.
	s.records &^= 1
	s.largeRecords &^= 1
	s.cache = int64(s.records) * int64(s.valueSize) * 16 / 100
	s.imageOverwrites = s.records / 2
	s.absentKeys = s.records / 8
	return s
}

type imageKind int

const (
	// imageLoaded is the hash load followed by a Flush.
	imageLoaded imageKind = iota
	// imageStandard adds N/2 uniform overwrites and a second Flush, and
	// deliberately no CompactAll: nodes keep several sequences, which
	// is the state the paper's read-cost argument is about.
	imageStandard
)

type opKind int

const (
	kindWrite opKind = iota
	kindRead
	kindScan
	kindMixed
)

// workload is one named set of inputs.  The names, and why each
// exists, are declared in BENCHMARK.json; the fields here are what the
// run needs to build it.
type workload struct {
	name        string
	kind        opKind
	engine      iamdb.EngineKind
	image       imageKind
	clients     int  // closed loop: each client waits for its reply
	large       bool // 8 KiB values through the value log and two shards
	warm        bool // read the whole hot set once before the clock starts
	sampleEvery int64
	listLen     int // generated ops per client; the timed loop cycles the list
}

var workloads = []workload{
	{name: "overwrite", kind: kindWrite, engine: iamdb.IAM, image: imageLoaded, clients: 1, sampleEvery: 8, listLen: 1 << 18},
	{name: "overwrite-lsm", kind: kindWrite, engine: iamdb.LevelDB, image: imageLoaded, clients: 1, sampleEvery: 8, listLen: 1 << 18},
	{name: "read-uniform", kind: kindRead, engine: iamdb.IAM, image: imageStandard, clients: 1, sampleEvery: 8, listLen: 1 << 20},
	{name: "read-hot", kind: kindRead, engine: iamdb.IAM, image: imageStandard, clients: 1, warm: true, sampleEvery: 8, listLen: 1 << 20},
	{name: "scan-short", kind: kindScan, engine: iamdb.IAM, image: imageStandard, clients: 1, sampleEvery: 1, listLen: 1 << 16},
	{name: "mixed-a", kind: kindMixed, engine: iamdb.IAM, image: imageLoaded, clients: 2, sampleEvery: 8, listLen: 1 << 19},
	{name: "mixed-large", kind: kindMixed, engine: iamdb.IAM, image: imageLoaded, clients: 2, large: true, sampleEvery: 8, listLen: 1 << 19},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) writes() bool { return w.kind == kindWrite || w.kind == kindMixed }

func (w *workload) inline() bool { return w.clients == 1 }

func (w *workload) records(sc scale) int {
	if w.large {
		return sc.largeRecords
	}
	return sc.records
}

func (w *workload) valueSize(sc scale) int {
	if w.large {
		return sc.largeValue
	}
	return sc.valueSize
}

// op is one generated operation: a record index, plus a flag for
// writes.  Indices at or above the record count name planned-absent
// keys; a scan's index is its start key.
type op uint32

const opWrite op = 1 << 31

func (o op) index() int  { return int(o &^ opWrite) }
func (o op) write() bool { return o&opWrite != 0 }

const (
	headerLen   = 16
	fillerSlack = 4096
)

// dataset is the records a workload stores and the model every read is
// checked against: key i is ycsb.KeyName(i), its value a 16-byte header
// (record index, version) followed by seeded incompressible filler, and
// version[i] the latest version written.
type dataset struct {
	n         int
	valueSize int
	keys      [][]byte // n stored keys, then the planned-absent ones
	filler    []byte
	version   []uint32
	order     []uint32 // key rank -> record index
	rank      []uint32 // record index -> key rank
}

func newDataset(n, absent, valueSize int, rng *rand.Rand) *dataset {
	d := &dataset{
		n:         n,
		valueSize: valueSize,
		keys:      make([][]byte, n+absent),
		filler:    make([]byte, valueSize+fillerSlack),
		version:   make([]uint32, n),
		order:     make([]uint32, n),
		rank:      make([]uint32, n),
	}
	for i := range d.keys {
		d.keys[i] = ycsb.KeyName(uint64(i))
	}
	rng.Read(d.filler)
	for i := range d.order {
		d.order[i] = uint32(i)
	}
	sort.Slice(d.order, func(a, b int) bool {
		return bytes.Compare(d.keys[d.order[a]], d.keys[d.order[b]]) < 0
	})
	for r, idx := range d.order {
		d.rank[idx] = uint32(r)
	}
	return d
}

func (d *dataset) fillerFor(idx int, ver uint32) []byte {
	off := (idx*131 + int(ver)*31) % fillerSlack
	return d.filler[off : off+d.valueSize-headerLen]
}

// value writes record idx at version ver into dst, which must hold
// valueSize bytes.
func (d *dataset) value(dst []byte, idx int, ver uint32) []byte {
	dst = dst[:d.valueSize]
	binary.LittleEndian.PutUint64(dst, uint64(idx))
	binary.LittleEndian.PutUint64(dst[8:], uint64(ver))
	copy(dst[headerLen:], d.fillerFor(idx, ver))
	return dst
}

// check reports whether val is record idx at version want, or at any
// version when want is negative (a key another client may be writing).
func (d *dataset) check(idx int, val []byte, want int64) bool {
	if len(val) != d.valueSize || binary.LittleEndian.Uint64(val) != uint64(idx) {
		return false
	}
	ver := binary.LittleEndian.Uint64(val[8:])
	if want >= 0 && ver != uint64(want) {
		return false
	}
	return bytes.Equal(val[headerLen:], d.fillerFor(idx, uint32(ver)))
}

func (d *dataset) liveBytes() int64 {
	return int64(d.n) * int64(len(d.keys[0])+d.valueSize)
}

// genOps materialises one client's whole operation list from the seed,
// before the clock starts.
func (w *workload) genOps(sc scale, d *dataset, client int, rng *rand.Rand) []op {
	ops := make([]op, max(1024, int(float64(w.listLen)*min(sc.factor, 1))))
	switch w.name {
	case "overwrite", "overwrite-lsm":
		for i := range ops {
			ops[i] = op(rng.Intn(d.n)) | opWrite
		}
	case "read-uniform":
		for i := range ops {
			if i%10 == 9 {
				ops[i] = op(d.n + rng.Intn(len(d.keys)-d.n))
			} else {
				ops[i] = op(rng.Intn(d.n))
			}
		}
	case "read-hot":
		hot := rng.Perm(d.n)[:sc.hotKeys]
		for i := range ops {
			ops[i] = op(hot[rng.Intn(len(hot))])
		}
	case "scan-short":
		for i := range ops {
			ops[i] = op(d.order[rng.Intn(d.n-sc.scanLen+1)])
		}
	case "mixed-a", "mixed-large":
		// YCSB-A from the repo's generator: 50 % reads of any key,
		// 50 % updates, scrambled zipfian.  An update is moved to the
		// neighbouring key of this client's parity, so every key has one
		// writer and its latest version is known exactly.
		index := make(map[string]uint32, d.n)
		for i, k := range d.keys[:d.n] {
			index[string(k)] = uint32(i)
		}
		gen := ycsb.NewRunner(ycsb.WorkloadA, uint64(d.n), rng.Int63())
		for i := range ops {
			o := gen.Next()
			idx := int(index[string(o.Key)])
			if o.Type == ycsb.OpUpdate {
				ops[i] = op(idx-idx%w.clients+client) | opWrite
			} else {
				ops[i] = op(idx)
			}
		}
	}
	return ops
}

// hotSet lists the distinct records of a read-hot op list, for the
// warm-up pass.
func hotSet(ops []op) []int {
	seen := make(map[int]bool)
	var out []int
	for _, o := range ops {
		if !seen[o.index()] {
			seen[o.index()] = true
			out = append(out, o.index())
		}
	}
	sort.Ints(out)
	return out
}
