package core

import (
	"fmt"
	"math/rand"
	"testing"

	"iamdb/internal/kv"
	"iamdb/internal/tableset"
)

func TestKeyDistance(t *testing.T) {
	cases := []struct {
		a, b    string
		smaller string // key whose distance to a should be smaller than b's
	}{
		{"apple", "apricot", ""},
	}
	_ = cases
	// Symmetry.
	if keyDistance([]byte("abc"), []byte("abd")) != keyDistance([]byte("abd"), []byte("abc")) {
		t.Error("distance not symmetric")
	}
	// Identity.
	if keyDistance([]byte("same"), []byte("same")) != 0 {
		t.Error("distance to self nonzero")
	}
	// Monotone: within a gap, moving the probe right shrinks distance
	// to the right bound and grows distance to the left bound.
	left, right := []byte("key100"), []byte("key900")
	var prevToLeft, prevToRight uint64
	for i := 200; i <= 800; i += 100 {
		probe := []byte(fmt.Sprintf("key%03d", i))
		dl, dr := keyDistance(left, probe), keyDistance(probe, right)
		if i > 200 {
			if dl < prevToLeft {
				t.Errorf("distance to left shrank at %d", i)
			}
			if dr > prevToRight {
				t.Errorf("distance to right grew at %d", i)
			}
		}
		prevToLeft, prevToRight = dl, dr
	}
	// Closest-assignment example from the paper (Fig. 3): key 10 is
	// closer to the child ending at 12 than the one ending at 31.
	if keyDistance([]byte("10"), []byte("12")) >= keyDistance([]byte("10"), []byte("31")) {
		t.Error("paper example: 10 should be closer to 12 than 31")
	}
}

func TestClampRange(t *testing.T) {
	bound := kv.MakeRange([]byte("c"), []byte("m"))
	// Fully inside.
	r := clampRange(kv.MakeRange([]byte("e"), []byte("g")), bound)
	if string(r.Lo) != "e" || string(r.Hi) != "g" {
		t.Fatalf("inside: %v", r)
	}
	// Overhanging both sides.
	r = clampRange(kv.MakeRange([]byte("a"), []byte("z")), bound)
	if string(r.Lo) != "c" || string(r.Hi) != "m" {
		t.Fatalf("clamped: %v", r)
	}
	// Disjoint: empty.
	r = clampRange(kv.MakeRange([]byte("x"), []byte("z")), bound)
	if !r.Empty() {
		t.Fatalf("disjoint should clamp to empty: %v", r)
	}
	// Empty inputs.
	if !clampRange(kv.Range{}, bound).Empty() || !clampRange(bound, kv.Range{}).Empty() {
		t.Fatal("empty in, empty out")
	}
}

func TestChildSpanBinarySearch(t *testing.T) {
	tr, _ := testTree(t, LSA, 0)
	defer tr.Close()
	tr.Mu.Lock()
	defer tr.Mu.Unlock()
	// Build an artificial two-level structure.
	if err := tr.Grow(); err != nil { // n=2
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lo := []byte(fmt.Sprintf("k%02d0", i))
		hi := []byte(fmt.Sprintf("k%02d9", i))
		nd, _, err := tr.Build(tr.cfg.fileCapacity(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Apply(new(tableset.Change).PlaceAs(2, nd, kv.MakeRange(lo, hi))); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		lo, hi string
		want   int
	}{
		{"k000", "k009", 1}, // exactly one child
		{"k000", "k019", 2}, // two
		{"k035", "k071", 5}, // middle span (k03..k07)
		{"a", "z", 10},      // all
		{"k095", "k100", 1}, // last only
		{"zz", "zzz", 0},    // past the end
		{"a", "b", 0},       // before the start
		{"k00a", "k00z", 0}, // gap between children
	}
	for _, c := range cases {
		got := tr.childCount(1, kv.MakeRange([]byte(c.lo), []byte(c.hi)))
		if got != c.want {
			t.Errorf("childCount(%s,%s) = %d want %d", c.lo, c.hi, got, c.want)
		}
		if n := len(tr.children(1, kv.MakeRange([]byte(c.lo), []byte(c.hi)))); n != c.want {
			t.Errorf("children(%s,%s) len %d want %d", c.lo, c.hi, n, c.want)
		}
	}
}

func TestDeepVerifyCleanTree(t *testing.T) {
	for _, p := range []Policy{LSA, IAM} {
		budget := int64(0)
		if p == IAM {
			budget = 24 * 1024
		}
		tr, _ := testTree(t, p, budget)
		loadRandom(t, tr, 5000, 77)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		rep, err := tr.Set.DeepVerify()
		if err != nil {
			t.Fatalf("%v: %v (%v)", p, err, rep)
		}
		if rep.Entries == 0 || rep.Tables == 0 {
			t.Fatalf("%v: empty report %v", p, rep)
		}
		if rep.String() == "" {
			t.Fatal("report string")
		}
		tr.Close()
	}
}

func TestDeepVerifyCatchesRangeViolation(t *testing.T) {
	tr, _ := testTree(t, LSA, 0)
	defer tr.Close()
	loadRandom(t, tr, 1000, 3)
	// Corrupt an assigned range in memory: shrink a node's range so
	// its data falls outside.
	tr.Mu.Lock()
	var victim *tableset.Table
	var level int
	for i := 1; i <= tr.n() && victim == nil; i++ {
		for _, nd := range tr.Level(i) {
			if nd.Entries() > 10 {
				victim, level = nd, i
				break
			}
		}
	}
	if victim == nil {
		tr.Mu.Unlock()
		t.Skip("no node with enough data")
	}
	lo := victim.Range().Lo
	err := tr.Apply(new(tableset.Change).Drop(level, victim).PlaceAs(level, victim, kv.MakeRange(lo, lo)))
	tr.Mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants missed the corrupted range")
	}
	if _, err := tr.Set.DeepVerify(); err == nil {
		t.Fatal("DeepVerify missed the corrupted range")
	}
}

func TestMixedLevelTuningMatchesBudget(t *testing.T) {
	tr, _ := testTree(t, IAM, 20*1024)
	defer tr.Close()
	loadRandom(t, tr, 5000, 13)
	m, k := tr.MixedLevel()
	// Eq. (2): levels above m must fit in the budget.
	tr.Mu.Lock()
	sizes := tr.levelDataSizesLocked()
	tr.Mu.Unlock()
	var sum int64
	for j := 1; j < m && j < len(sizes); j++ {
		sum += sizes[j]
	}
	budget := tr.cfg.MemBudget
	if sum > budget {
		t.Fatalf("levels above m=%d hold %d > budget %d", m, sum, budget)
	}
	// m maximal: adding level m would overflow (unless m > n).
	if m < len(sizes) && sum+sizes[m] <= budget && k == tr.cfg.K {
		t.Fatalf("m=%d not maximal: next level fits (%d+%d <= %d)",
			m, sum, sizes[m], budget)
	}
}

func TestCombineOnePicksCandidateWithSiblings(t *testing.T) {
	tr, _ := testTree(t, LSA, 0)
	defer tr.Close()
	rng := rand.New(rand.NewSource(55))
	l := newLoader(t, tr)
	for i := 0; i < 12000; i++ {
		l.put(fmt.Sprintf("u%06d", rng.Intn(20000)), "value-value")
	}
	l.flush()
	if tr.Stats().Combines == 0 {
		t.Skip("load did not trigger combines at this scale")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMixedLevelPinned pins the (m, k) Eq. (2) yields on six trees, as
// the tuner written out in this package chose them before it became a
// call to amp.TuneMK.  Each budget is stated against the tree's own
// level sizes D_1..D_n, so a row keeps its meaning if table sizes move.
func TestMixedLevelPinned(t *testing.T) {
	sum := func(d []int64, upto int) (s int64) {
		for j := 1; j <= upto; j++ {
			s += d[j]
		}
		return s
	}
	for _, tc := range []struct {
		name    string
		records int
		seed    int64
		maxK    int
		budget  func(d []int64) int64
		m, k    int
	}{
		{"below L1", 3000, 21, 3, func(d []int64) int64 { return d[1] - 1 }, 1, 3},
		{"exactly L1", 4000, 22, 3, func(d []int64) int64 { return d[1] }, 2, 1},
		{"between levels", 5000, 23, 3, func(d []int64) int64 { return sum(d, 2) + d[3]/8 }, 3, 1},
		{"every level fits", 2500, 24, 3, func(d []int64) int64 { return sum(d, len(d)-1) }, 0, 3},
		{"k limited to 1", 6000, 25, 5, func(d []int64) int64 { return d[1] + d[2]/4 - 1 }, 2, 1},
		{"k limited to 2", 3500, 26, 5, func(d []int64) int64 { return d[1] + d[2]/2 - 1 }, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := testTree(t, IAM, 20*1024)
			defer tr.Close()
			loadRandom(t, tr, tc.records, tc.seed)
			tr.Mu.Lock()
			defer tr.Mu.Unlock()
			d := tr.levelDataSizesLocked()
			tr.cfg.MemBudget, tr.cfg.K = tc.budget(d), tc.maxK
			wantM := tc.m
			if wantM == 0 {
				wantM = tr.n() + 1 // appending everywhere
			}
			if m, k := tr.mixedLevelLocked(); m != wantM || k != tc.k {
				t.Fatalf("sizes %v budget %d: m=%d k=%d, want m=%d k=%d",
					d[1:], tr.cfg.MemBudget, m, k, wantM, tc.k)
			}
		})
	}
}
