// Command bench is the repository's benchmark: seven named workloads
// over the whole store, the end-to-end metrics BENCHMARK.json bounds,
// and a traced pass that says, layer by layer, where a workload's time
// and bytes went.  See README.md in this directory.
//
//	go run ./bench -workload overwrite -seed 1 -seconds 5 -trace 0
//	go run ./bench -workload overwrite -seed 1 -seconds 5 -trace 1
//	go run ./bench -runs 10 -repeat 2 -out /tmp/sets
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// provenance says what produced a result.
type provenance struct {
	Seed        int64   `json:"seed"`
	GitRevision string  `json:"git_revision"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	GOGC        string  `json:"gogc"`
	Scale       float64 `json:"scale"`
	Seconds     float64 `json:"seconds"`
	MaxOps      int64   `json:"max_ops"`
}

func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run this one workload and print its result as the last line (default: a set of every workload)")
		seed     = fs.Int64("seed", 1, "workload seed; run i of a set uses seed+i")
		seconds  = fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of the spec)")
		traced   = fs.Int("trace", 0, "1: traced pass, reporting the per-layer metrics instead of the end-to-end ones")
		maxOps   = fs.Int64("ops", 0, "end the timed phase after this many operations per client, so counts repeat exactly")
		factor   = fs.Float64("scale", 1, "size factor; the mis-sizing guards apply at 1 only")
		runs     = fs.Int("runs", 1, "runs per workload in a set, each with the next seed")
		repeat   = fs.Int("repeat", 1, "sets to run back to back; each is compared with the one before")
		compare  = fs.Bool("compare", false, "compare two set files: bench -compare a.json b.json")
		out      = fs.String("out", "", "directory for set files and span dumps (nothing is written when empty)")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark declaration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two set files"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return fail(fmt.Errorf("GOMAXPROCS=%d: the two-client workloads and the store's background workers need at least 2", runtime.GOMAXPROCS(0)))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	prov := provenance{
		Seed: *seed, GitRevision: gitRevision(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GOGC: gogc(),
		Scale: *factor, Seconds: *seconds, MaxOps: *maxOps,
	}
	base := config{sc: newScale(*factor), seed: *seed, seconds: *seconds, maxOps: *maxOps, traced: *traced == 1, out: *out}

	if *name != "" {
		return runSingle(spec, base, *name, prov, stdout, stderr)
	}
	var prev *setReport
	worse := false
	for s := 0; s < *repeat; s++ {
		set, err := runSet(spec, base, *runs, prov, stdout)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := writeJSON(filepath.Join(*out, fmt.Sprintf("set-%d.json", s+1)), set); err != nil {
				return fail(err)
			}
		}
		if prev != nil && printComparison(stdout, compareSets(spec, prev, set)) {
			worse = true
		}
		prev = set
	}
	if *out == "" {
		if err := json.NewEncoder(stdout).Encode(prev); err != nil {
			return fail(err)
		}
	}
	if worse {
		return 1
	}
	return 0
}

// runSingle is the form the benchmark contract drives: one workload,
// one seed, and the result object as the last line of standard output.
func runSingle(spec *benchSpec, cfg config, name string, prov provenance, stdout, stderr io.Writer) int {
	w, err := workloadByName(name)
	if err == nil {
		cfg.w = w
		err = declared(spec, name)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov, "workload": name, "trace": cfg.traced})
	fmt.Fprintf(stdout, "%s\n", line)
	o, err := runOne(&cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	metrics, err := bind(spec.decls(cfg.traced), o.values)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d timed operations, %d latency samples, %d Gets retried, %d set-up builds abandoned\n",
		name, o.ops, o.samples, o.retries, o.rebuilds)
	printMetrics(stdout, spec.decls(cfg.traced), metrics)
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	line, _ = json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed verification; first: %v\n", name, o.failed, o.attempted, o.firstErr)
		return 1
	}
	return 0
}

func declared(spec *benchSpec, name string) error {
	for _, w := range spec.Workloads {
		if w.Name == name {
			return nil
		}
	}
	return fmt.Errorf("workload %q is not declared in the spec", name)
}

func printMetrics(w io.Writer, decls []metricDecl, m map[string]metricValue) {
	for _, d := range decls {
		fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
}

// runReport is one run of one workload inside a set.
type runReport struct {
	Seed      int64                  `json:"seed"`
	Ops       int64                  `json:"ops"`
	Samples   int                    `json:"latency_samples"`
	Retries   int64                  `json:"get_retries"`
	Rebuilds  int                    `json:"setup_rebuilds"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadReport is every run of one workload in a set, with the
// median of each end-to-end metric and its spread: the distance
// between the first and third quartile as a share of the median.
type workloadReport struct {
	Name     string                 `json:"name"`
	Runs     []runReport            `json:"runs"`
	Median   map[string]float64     `json:"median"`
	Spread   map[string]float64     `json:"spread,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
}

type setReport struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadReport `json:"workloads"`
}

// runSet runs every declared workload runs times, each time with the
// next seed, and with -trace 1 adds one traced pass per workload.
func runSet(spec *benchSpec, base config, runs int, prov provenance, stdout io.Writer) (*setReport, error) {
	set := &setReport{Provenance: prov}
	for _, wd := range spec.Workloads {
		w, err := workloadByName(wd.Name)
		if err != nil {
			return nil, err
		}
		rep := workloadReport{Name: w.name, Median: map[string]float64{}}
		samples := map[string][]float64{}
		for i := 0; i < runs; i++ {
			cfg := base
			cfg.w, cfg.seed, cfg.traced = w, base.seed+int64(i), false
			o, err := runOne(&cfg)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, cfg.seed, err)
			}
			if o.failed > 0 {
				return nil, fmt.Errorf("%s seed %d: %d of %d operations failed verification; first: %v",
					w.name, cfg.seed, o.failed, o.attempted, o.firstErr)
			}
			metrics, err := bind(spec.EndToEnd, o.values)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rep.Runs = append(rep.Runs, runReport{Seed: cfg.seed, Ops: o.ops, Samples: o.samples, Retries: o.retries, Rebuilds: o.rebuilds,
				Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
			for name, v := range o.values {
				samples[name] = append(samples[name], v)
			}
		}
		for name, vs := range samples {
			rep.Median[name] = median(vs)
			if len(vs) >= 2 {
				if rep.Spread == nil {
					rep.Spread = map[string]float64{}
				}
				rep.Spread[name] = spread(vs)
			}
		}
		fmt.Fprintf(stdout, "%s: median of %d runs (spread)\n", w.name, runs)
		for _, d := range spec.EndToEnd {
			fmt.Fprintf(stdout, "  %-32s %16.4f %-6s (%.2f%%)\n", d.Name, rep.Median[d.Name], d.Unit, 100*rep.Spread[d.Name])
		}
		if base.traced {
			cfg := base
			cfg.w = w
			o, err := runOne(&cfg)
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", w.name, err)
			}
			if o.failed > 0 {
				return nil, fmt.Errorf("%s traced: %d operations failed verification; first: %v", w.name, o.failed, o.firstErr)
			}
			if rep.PerLayer, err = bind(spec.PerLayer, o.values); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			printMetrics(stdout, spec.PerLayer, rep.PerLayer)
		}
		set.Workloads = append(set.Workloads, rep)
	}
	return set, nil
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return ratio(quartile(3)-quartile(1), median(s))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
