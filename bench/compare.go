package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is one row of a comparison: one end-to-end metric on one
// workload, set b against set a.
type verdict struct {
	Workload string
	Metric   string
	Unit     string
	A, B     float64
	// Change is how much worse b's median is than a's, as a share of
	// a's, in the metric's own direction: negative means better.
	Change float64
	Spread float64 // the wider of the two sets' spreads
	Bound  float64
	Word   string // same, better, worse or unresolved
}

// judge applies a metric's direction and bound.  A change past the
// bound is worse or better; within it, same.  Where the runs of a set
// spread wider than the bound the medians cannot settle it: the row is
// unresolved unless every run of b is better than every run of a.
func judge(d metricDecl, a, b *workloadReport) verdict {
	v := verdict{
		Workload: a.Name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
		A: a.Median[d.Name], B: b.Median[d.Name],
		Spread: max(a.Spread[d.Name], b.Spread[d.Name]),
	}
	v.Change = ratio(v.B-v.A, v.A)
	if d.Better == "higher" {
		v.Change = -v.Change
	}
	switch {
	case v.Spread > d.Bound:
		v.Word = "unresolved"
		if allBetter(d, a, b) {
			v.Word = "better"
		}
	case v.Change > d.Bound:
		v.Word = "worse"
	case v.Change < -d.Bound:
		v.Word = "better"
	default:
		v.Word = "same"
	}
	return v
}

func allBetter(d metricDecl, a, b *workloadReport) bool {
	for _, rb := range b.Runs {
		for _, ra := range a.Runs {
			x, y := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			if (d.Better == "higher" && y <= x) || (d.Better != "higher" && y >= x) {
				return false
			}
		}
	}
	return true
}

// compareSets judges every end-to-end metric on every workload the two
// sets share.
func compareSets(spec *benchSpec, a, b *setReport) []verdict {
	var rows []verdict
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		for j := range b.Workloads {
			if wb := &b.Workloads[j]; wb.Name == wa.Name {
				for _, d := range spec.EndToEnd {
					rows = append(rows, judge(d, wa, wb))
				}
			}
		}
	}
	return rows
}

// printComparison prints the rows and reports whether any is worse.
func printComparison(w io.Writer, rows []verdict) (worse bool) {
	fmt.Fprintf(w, "%-14s %-10s %14s %14s %-6s %8s %8s %7s  %s\n",
		"workload", "metric", "a", "b", "unit", "change", "spread", "bound", "verdict")
	for _, v := range rows {
		fmt.Fprintf(w, "%-14s %-10s %14.4f %14.4f %-6s %+7.2f%% %7.2f%% %6.1f%%  %s\n",
			v.Workload, v.Metric, v.A, v.B, v.Unit, 100*v.Change, 100*v.Spread, 100*v.Bound, v.Word)
		worse = worse || v.Word == "worse"
	}
	return worse
}

func readSet(path string) (*setReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s setReport
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err == nil {
		var b *setReport
		if b, err = readSet(pathB); err == nil {
			fmt.Fprintf(stdout, "a: %s at %s\nb: %s at %s\n", pathA, a.Provenance.GitRevision, pathB, b.Provenance.GitRevision)
			if printComparison(stdout, compareSets(spec, a, b)) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 1
}
