// Package ycsb generates the paper's benchmark workloads: the YCSB
// core workloads A–F, the paper's added long-scan workload G
// (Sec. 6.5), and the hash load used to populate the stores (Sec. 6.2).
//
// Request distributions follow the YCSB reference implementation:
// scrambled-zipfian (theta 0.99) for A/B/C/E/F/G, latest for D,
// ordered-by-hash keys for the load phase.
package ycsb

import (
	"math"
	"math/rand"
)

// OpType classifies one generated operation.
type OpType int

const (
	// OpRead is a point lookup of an existing key.
	OpRead OpType = iota
	// OpUpdate overwrites an existing key.
	OpUpdate
	// OpInsert writes a brand-new key.
	OpInsert
	// OpScan is a range scan of ScanLen records from Key.
	OpScan
	// OpRMW reads a key then writes it back (workload F).
	OpRMW
)

func (o OpType) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	default:
		return "?"
	}
}

// Op is one generated operation.
type Op struct {
	Type    OpType
	Key     []byte
	ScanLen int
}

// KeyName renders record number i as a YCSB key: "user" plus the
// FNV-64a hash of i, zero-padded.  Hash ordering is what makes the
// load phase a "hash load" — inserts arrive in key-scattered order
// with no collisions.
func KeyName(i uint64) []byte {
	return keyName(fnv64(i))
}

// OrderedKeyName renders record i in key order (for fillseq).
func OrderedKeyName(i uint64) []byte {
	return keyName(i)
}

// keyName formats "user" and v zero-padded to 19 digits; a 20-digit
// number prints all 20, as the format "user%019d" does.
func keyName(v uint64) []byte {
	n := 19
	if v >= 1e19 {
		n = 20
	}
	b := make([]byte, 4+n)
	copy(b, "user")
	for i := len(b) - 1; i >= 4; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return b
}

func fnv64(v uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 0x100000001b3
		v >>= 8
	}
	return h
}

// zipfian implements the Gray et al. bounded zipfian generator used by
// YCSB, with incremental zeta growth for expanding key spaces.
type zipfian struct {
	items        uint64
	theta        float64
	alpha        float64
	zetan        float64
	eta          float64
	zeta2theta   float64
	countForZeta uint64
	// rank1 is 1 + 0.5^theta, the draw below which rank 1 is chosen.
	rank1 float64
}

const zipfTheta = 0.99

func newZipfian(items uint64) *zipfian {
	z := &zipfian{items: items, theta: zipfTheta}
	z.zeta2theta = zetaStatic(2, zipfTheta)
	z.alpha = 1.0 / (1.0 - zipfTheta)
	z.zetan = zetaStatic(items, zipfTheta)
	z.countForZeta = items
	z.eta = z.etaOf()
	z.rank1 = 1.0 + math.Pow(0.5, zipfTheta)
	return z
}

func (z *zipfian) etaOf() float64 {
	return (1 - math.Pow(2.0/float64(z.items), 1-z.theta)) / (1 - z.zeta2theta/z.zetan)
}

func zetaStatic(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// grow extends the item count, updating zeta incrementally.
func (z *zipfian) grow(items uint64) {
	if items <= z.countForZeta {
		z.items = z.countForZeta
		return
	}
	for i := z.countForZeta + 1; i <= items; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	z.countForZeta = items
	z.items = items
	z.eta = z.etaOf()
}

// next draws a rank in [0, items).
func (z *zipfian) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	return uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Workload is a named operation mix.
type Workload struct {
	Name                                            string
	ReadProp, UpdateProp, InsertProp, ScanProp, RMW float64
	MaxScanLen                                      int
	// Latest selects the YCSB "latest" distribution (workload D);
	// otherwise requests are scrambled-zipfian.
	Latest bool
}

// Standard workloads: A–F per the YCSB core definitions quoted in
// Sec. 6.3–6.5, plus the paper's G (95/5 scans up to 10,000 records).
var (
	WorkloadA = Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5}
	WorkloadB = Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05}
	WorkloadC = Workload{Name: "C", ReadProp: 1.0}
	WorkloadD = Workload{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Latest: true}
	WorkloadE = Workload{Name: "E", ScanProp: 0.95, InsertProp: 0.05, MaxScanLen: 100}
	WorkloadF = Workload{Name: "F", ReadProp: 0.5, RMW: 0.5}
	WorkloadG = Workload{Name: "G", ScanProp: 0.95, InsertProp: 0.05, MaxScanLen: 10000}
)

// ByName returns the named workload (A–G).
func ByName(name string) (Workload, bool) {
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC,
		WorkloadD, WorkloadE, WorkloadF, WorkloadG} {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Runner draws operations for one workload over a keyspace of
// recordCount pre-loaded records (inserts extend it).
type Runner struct {
	w           Workload
	rng         *rand.Rand
	zipf        *zipfian
	recordCount uint64
	insertSeq   uint64
}

// NewRunner builds a generator; seed fixes the op stream.
func NewRunner(w Workload, recordCount uint64, seed int64) *Runner {
	return &Runner{
		w: w, rng: rand.New(rand.NewSource(seed)),
		zipf:        newZipfian(recordCount),
		recordCount: recordCount,
		insertSeq:   recordCount,
	}
}

// chooseKey picks an existing record per the workload's distribution.
func (r *Runner) chooseKey() []byte {
	if r.w.Latest {
		// Most recent records are hottest.
		rank := r.zipf.next(r.rng)
		idx := r.insertSeq - 1 - rank%r.insertSeq
		return KeyName(idx)
	}
	// Scrambled zipfian: hash the rank to scatter hot keys.
	rank := r.zipf.next(r.rng)
	return KeyName(fnv64(rank) % r.recordCount)
}

// Next draws one operation.
func (r *Runner) Next() Op {
	p := r.rng.Float64()
	w := &r.w
	switch {
	case p < w.ReadProp:
		return Op{Type: OpRead, Key: r.chooseKey()}
	case p < w.ReadProp+w.UpdateProp:
		return Op{Type: OpUpdate, Key: r.chooseKey()}
	case p < w.ReadProp+w.UpdateProp+w.RMW:
		return Op{Type: OpRMW, Key: r.chooseKey()}
	case p < w.ReadProp+w.UpdateProp+w.RMW+w.ScanProp:
		return Op{Type: OpScan, Key: r.chooseKey(),
			ScanLen: 1 + r.rng.Intn(w.MaxScanLen)}
	default:
		key := KeyName(r.insertSeq)
		r.insertSeq++
		r.zipf.grow(r.insertSeq)
		return Op{Type: OpInsert, Key: key}
	}
}

// Value produces a deterministic pseudo-random value of n bytes for
// record key material; the paper uses 1024-byte values (Sec. 6.1).
func Value(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte('a' + rng.Intn(26))
	}
	return v
}
