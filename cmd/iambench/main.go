// Command iambench regenerates the paper's tables and figures on the
// virtual-disk harness.
//
// Usage:
//
//	iambench                         # run everything at medium scale
//	iambench -experiment table4      # one experiment
//	iambench -scale small            # quicker, smaller datasets
//	iambench -json ./results         # also write BENCH_<id>.json blobs
//	iambench -list                   # list experiment ids
//
// Experiment ids: table1 table2 table3 table4 table5 figure6
// figure7a figure7b figure7c figure8 figure9 figure10 tuning
// stability kvsep concurrency shards
//
// All experiments except two run their background work inline on the
// virtual-disk harness and repeat to the byte: `go test
// ./internal/harness` compares each table with its golden under
// testdata/small.  The two, `concurrency` and `shards`, measure the
// commit pipeline(s) in wall-clock time, so their numbers vary with the
// host.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"iamdb"
	"iamdb/internal/harness"
)

// experiments is the harness's list plus the two that read the wall
// clock and so cannot live in it.
func experiments() []harness.Experiment {
	return slices.Concat(harness.Experiments, []harness.Experiment{
		{ID: "concurrency", Desc: "group-commit throughput vs writer count (wall clock)", Run: runConcurrency},
		{ID: "shards", Desc: "sharded front-end throughput vs shard count (wall clock)", Run: runShards},
	})
}

func main() {
	var (
		expID   = flag.String("experiment", "", "experiment id (default: all)")
		scale   = flag.String("scale", "medium", "small | medium | full")
		list    = flag.Bool("list", false, "list experiments and exit")
		jsonDir = flag.String("json", "", "directory for BENCH_<id>.json metrics blobs")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments() {
			fmt.Printf("%-9s  %s\n", e.ID, e.Desc)
		}
		return
	}

	var s harness.Scale
	switch *scale {
	case "small":
		s = harness.SmallScale
	case "medium":
		s = harness.MediumScale
	case "full":
		// The paper's full 8192x dataset:Ct ratio for the 1T class;
		// expect long runtimes and gigabytes of memory.
		s = harness.MediumScale
		s.Name = "full"
		s.Records1T = 8192 * uint64(s.Ct) / uint64(s.ValueSize)
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	exps := experiments()
	if *expID != "" {
		// The id list is in presentation order, not sorted: scan.
		idx := -1
		for i, e := range exps {
			if e.ID == *expID {
				idx = i
				break
			}
		}
		if idx < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		exps = exps[idx : idx+1]
	}

	// When -json is set, each environment reports its final metrics
	// snapshot through the harness sink; one BENCH_<id>.json per
	// experiment captures per-level amplification alongside the table.
	var records []harness.MetricsRecord
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mkdir %s: %v\n", *jsonDir, err)
			os.Exit(1)
		}
		harness.SetMetricsSink(func(r harness.MetricsRecord) {
			records = append(records, r)
		})
	}

	fmt.Printf("iambench: scale=%s (100G-class=%d records, 1T-class=%d records, Ct=%dKiB)\n\n",
		s.Name, s.Records100G, s.Records1T, s.Ct/1024)
	for _, e := range exps {
		start := time.Now()
		records = records[:0]
		tbl, err := e.Run(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if *jsonDir != "" {
			if err := writeBench(*jsonDir, newRunMeta(e.ID, s), tbl, records); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
	}
}

// benchSchema versions the BENCH_*.json layout; bump on breaking
// changes so trajectory tooling can branch on it.
const benchSchema = 2

// runMeta stamps every emitted blob with where and how it was made, so
// result trajectories stay attributable after the repo moves on.
type runMeta struct {
	Schema      int
	Experiment  string
	Scale       string
	GitRevision string
	GoVersion   string
	GOMAXPROCS  int
	Config      string
}

func newRunMeta(id string, s harness.Scale) runMeta {
	return runMeta{
		Schema:      benchSchema,
		Experiment:  id,
		Scale:       s.Name,
		GitRevision: gitRevision(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Config: fmt.Sprintf("records100G=%d records1T=%d Ct=%d valueSize=%d workloadOps=%d",
			s.Records100G, s.Records1T, s.Ct, s.ValueSize, s.WorkloadOps),
	}
}

// gitRevision best-efforts the working tree's short commit hash;
// "unknown" outside a git checkout or without git on PATH.
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// benchBlob is the BENCH_<id>.json schema: run metadata, the rendered
// table, and the full metrics snapshot of every environment the
// experiment ran.  Timelines are split into BENCH_<id>.timeline.json so
// the main blob stays skimmable.
type benchBlob struct {
	Meta       runMeta
	Experiment string
	Scale      string
	Title      string
	Header     []string
	Rows       [][]string
	Runs       []harness.MetricsRecord
}

// timelineBlob is the BENCH_<id>.timeline.json schema: one windowed
// time-series per environment the experiment ran.
type timelineBlob struct {
	Meta runMeta
	Runs []timelineRun
}

type timelineRun struct {
	Engine   string
	Disk     string
	Timeline []iamdb.TimelinePoint
}

func writeBench(dir string, meta runMeta, tbl harness.Table, runs []harness.MetricsRecord) error {
	var tl timelineBlob
	for i := range runs {
		if len(runs[i].Timeline) > 0 {
			tl.Runs = append(tl.Runs, timelineRun{
				Engine: runs[i].Engine, Disk: runs[i].Disk, Timeline: runs[i].Timeline,
			})
			runs[i].Timeline = nil
		}
	}
	blob := benchBlob{
		Meta:       meta,
		Experiment: meta.Experiment, Scale: meta.Scale,
		Title: tbl.Title, Header: tbl.Header, Rows: tbl.Rows,
		Runs: runs,
	}
	data, err := json.MarshalIndent(blob, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+meta.Experiment+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(tl.Runs) == 0 {
		return nil
	}
	tl.Meta = meta
	data, err = json.MarshalIndent(tl, "", "  ")
	if err != nil {
		return err
	}
	path = filepath.Join(dir, "BENCH_"+meta.Experiment+".timeline.json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
