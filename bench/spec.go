package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDecl is one metric as BENCHMARK.json declares it.  Bound is
// the share of the parent's median by which the metric may get worse;
// per-layer metrics carry none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchSpec is what the benchmark reads of BENCHMARK.json.  That file
// is the single declaration of metric names, units, directions and
// bounds: the run looks units up here and refuses to emit a result
// whose names differ from the declared ones, and -compare applies the
// declared direction and bound.
type benchSpec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read spec: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must be non-empty", path)
	}
	return &s, nil
}

// decls returns the metric list a run with the given trace flag emits.
func (s *benchSpec) decls(traced bool) []metricDecl {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of a single run, with
// exactly the keys the benchmark contract names.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bind attaches units to measured values and checks that the measured
// names are exactly the declared ones, so a renamed or forgotten metric
// fails the run instead of silently changing the benchmark.
func bind(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("declared metric %q was not measured", d.Name)
		}
		if d.Unit == "" {
			return nil, fmt.Errorf("declared metric %q has no unit", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q measured %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured metric %q is not declared", name)
		}
	}
	return out, nil
}
