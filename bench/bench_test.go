package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const specFile = "../BENCHMARK.json"

// testScale is the benchmark at 1/100: the same code on a store small
// enough for go test, also under -race.
const testScale = 0.01

func testConfig(t *testing.T, name string) *config {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &config{w: w, sc: newScale(testScale), seed: 7, seconds: 0.1}
}

// lastLine runs the command as the benchmark contract does and decodes
// the result object it prints last.
func lastLine(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-spec", specFile, "-scale", "0.01", "-seconds", "0.1"}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(keys) != 4 {
		t.Fatalf("result has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// Every declared workload runs, untraced and traced, emits exactly the
// metric names BENCHMARK.json declares for that pass, each with its
// unit and a finite value, and verifies everything it read back.
func TestEveryWorkloadEmitsTheDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec(specFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wd := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			t.Run(wd.Name+"/trace="+traced, func(t *testing.T) {
				res := lastLine(t, "--workload", wd.Name, "--seed", "3", "--trace", traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				decls := spec.decls(traced == "1")
				if len(res.Metrics) != len(decls) {
					t.Fatalf("emitted %d metrics, declared %d", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit == "" || m.Unit != d.Unit {
						t.Errorf("%s: emitted %+v (present=%v), declared unit %q", d.Name, m, ok, d.Unit)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", d.Name, m.Value)
					}
					if traced == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// Two runs of an inline workload over the same operations move exactly
// the same bytes in exactly the same modeled device time.
func TestInlineCountsRepeatExactly(t *testing.T) {
	for _, name := range []string{"overwrite", "overwrite-lsm", "read-uniform", "scan-short"} {
		t.Run(name, func(t *testing.T) {
			var phases [2]*phase
			for i := range phases {
				cfg := testConfig(t, name)
				cfg.seconds, cfg.maxOps = 60, 1024
				p, err := prepare(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				phases[i] = p.measure()
				if _, err := p.finish(); err != nil {
					t.Fatal(err)
				}
			}
			a, b := phases[0], phases[1]
			if a.ops != 1024 || a.failed != 0 {
				t.Fatalf("ops=%d failed=%d: %v", a.ops, a.failed, a.firstErr)
			}
			if a.io != b.io || a.ioEnd != b.ioEnd || a.dev != b.dev || a.userWritten != b.userWritten || a.userRead != b.userRead {
				t.Fatalf("counts differ between identical runs:\n%+v %v\n%+v %v", a.io, a.dev, b.io, b.dev)
			}
			if a.io.BytesWritten+a.io.BytesRead == 0 {
				t.Fatal("the phase moved no device bytes")
			}
		})
	}
}

// A model that disagrees with the store must fail verification, during
// the timed phase and in the scan after reopening.
func TestCorruptedExpectationFailsVerification(t *testing.T) {
	cfg := testConfig(t, "read-uniform")
	p, err := prepare(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.data.version {
		p.data.version[i]++ // no record is at the version the model now expects
	}
	if ph := p.measure(); ph.failed == 0 || ph.firstErr == nil {
		t.Fatalf("timed reads passed against a corrupted model (%d ops)", ph.ops)
	}
	f, err := p.finish()
	if err != nil {
		t.Fatal(err)
	}
	if f.failed != f.checked || f.firstErr == nil {
		t.Fatalf("reopen scan failed %d of %d records against a corrupted model", f.failed, f.checked)
	}
}

// The hash load of seed 1002 leaves internal/core with two L2 nodes
// whose ranges overlap, which hides a node's records from reads (see
// README.md).  The set-up must notice and move on to the seed's next
// inputs.  When the store is fixed this test fails: delete it together
// with imageDefect.
func TestSetupRebuildsWhenStoreHidesRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full-scale images")
	}
	cfg := testConfig(t, "mixed-a")
	cfg.sc, cfg.seed = newScale(1), 1002
	p, err := prepare(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.db.Close()
	if p.rebuilds != 1 {
		t.Fatalf("abandoned %d builds of seed 1002, want 1", p.rebuilds)
	}
}

func TestMisSizedWorkloadFailsHard(t *testing.T) {
	cfg := testConfig(t, "read-hot")
	cfg.sc.guards = true
	ph := &phase{lat: make([]int64, 5000)} // no cache lookups at all: hit ratio 0
	if err := checkSizing(cfg, ph, &final{}); err == nil || !strings.Contains(err.Error(), "cache hit ratio") {
		t.Fatalf("read-hot with a cold cache passed the guard: %v", err)
	}
	ph.lat = ph.lat[:500]
	if err := checkSizing(cfg, ph, &final{}); err == nil || !strings.Contains(err.Error(), "beyond p99") {
		t.Fatalf("500 samples passed the percentile guard: %v", err)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := spread([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("spread = %v, want (4-1)/2 = 1.5", got)
	}
}

func TestCompareAppliesDirectionAndBound(t *testing.T) {
	set := func(spreadOf float64, values ...float64) *workloadReport {
		r := &workloadReport{Name: "w", Median: map[string]float64{"m": median(values)}, Spread: map[string]float64{"m": spreadOf}}
		for _, v := range values {
			r.Runs = append(r.Runs, runReport{Metrics: map[string]metricValue{"m": {Value: v}}})
		}
		return r
	}
	higher := metricDecl{Name: "m", Better: "higher", Bound: 0.10}
	lower := metricDecl{Name: "m", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		d    metricDecl
		a, b *workloadReport
		want string
	}{
		{higher, set(0.01, 100), set(0.01, 95), "same"},
		{higher, set(0.01, 100), set(0.01, 85), "worse"},
		{higher, set(0.01, 100), set(0.01, 120), "better"},
		{lower, set(0.01, 100), set(0.01, 120), "worse"},
		{lower, set(0.01, 100), set(0.01, 85), "better"},
		{lower, set(0.30, 90, 110), set(0.01, 100, 120), "unresolved"},
		{lower, set(0.30, 90, 110), set(0.01, 50, 60), "better"},
	} {
		if got := judge(c.d, c.a, c.b); got.Word != c.want {
			t.Errorf("%s is better, a=%v b=%v spread=%v: %s, want %s", c.d.Better, got.A, got.B, got.Spread, got.Word, c.want)
		}
	}
}
