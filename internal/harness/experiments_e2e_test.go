package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iamdb"
)

// golden reads an experiment's table at SmallScale as cmd/iambench
// prints it.
func golden(t *testing.T, id string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "small", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestAllExperimentsEndToEnd regenerates every table and figure at
// small scale and compares it with its golden, cell for cell.  A
// golden is Table.Format() and nothing else, so after an intended change
// the table a failing subtest prints is the new file.  Skipped under
// -short (several minutes of simulated workloads).
func TestAllExperimentsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(SmallScale)
			if err != nil {
				t.Fatal(err)
			}
			got, want := tbl.Format(), golden(t, e.ID)
			if got == want {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for i := 0; i < len(gl) || i < len(wl); i++ {
				var g, w string
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				if g != w {
					t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
				}
			}
			t.Errorf("%s differs from testdata/small/%s.txt; the table it got is printed flush left", e.ID, e.ID)
			fmt.Print(got) // not through t: the file is this text, unindented
		})
	}
}

// TestExperimentRepeatsExactly runs two experiments and one separated
// kvsep cell, whose writers collect the value log, twice in one process:
// the tables and the full metrics of every environment at Close must be
// equal, which is what lets a golden stand for a run.
func TestExperimentRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two experiments and a kvsep cell, twice each")
	}
	defer func() { closeHook = nil }()
	sepZipf := func(s Scale) (Table, error) {
		c, err := s.kvsepRun(iamdb.IAM, 64<<10, true, 1<<10, true)
		return Table{Rows: [][]string{{fmt.Sprintf("%+v", c)}}}, err
	}
	for _, run := range []func(Scale) (Table, error){Scale.Table3, Scale.OpenLoop, sepZipf} {
		var out [2]string
		for i := range out {
			var b strings.Builder
			closeHook = func(e *Env) {
				fmt.Fprintf(&b, "%s %s %+v\n", e.Cfg.Engine, e.Cfg.Disk.Name, e.DB.Metrics())
			}
			tbl, err := run(SmallScale)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = tbl.Format() + b.String()
		}
		if out[0] != out[1] {
			t.Errorf("two runs differ:\n%s\n%s", out[0], out[1])
		}
	}
}

// TestExperimentsDocQuotesGoldens keeps EXPERIMENTS.md from going stale:
// every line of every golden must stand in it verbatim.
func TestExperimentsDocQuotesGoldens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		doc[line] = true
	}
	for _, e := range Experiments {
		for _, line := range strings.Split(strings.TrimSuffix(golden(t, e.ID), "\n"), "\n") {
			if !doc[line] {
				t.Errorf("EXPERIMENTS.md lacks this line of testdata/small/%s.txt:\n%s", e.ID, line)
			}
		}
	}
}
