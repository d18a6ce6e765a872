package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest mirrors BENCHMARK.json. The file is the one place metric names,
// units and bounds are written down: the bench reads it at start-up and
// emits exactly the names it lists, so the two cannot drift apart.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

func (m *manifest) workloadNames() []string {
	out := make([]string, len(m.Workloads))
	for i, w := range m.Workloads {
		out[i] = w.Name
	}
	return out
}

// result is what one run of one workload produces.
type result struct {
	Attempted int64
	Failed    int64
	// Problems lists failed correctness checks; any entry makes the run
	// incorrect and the command exit non-zero.
	Problems []string
	// Notes are remarks that do not fail the run: a probe that could not
	// run, a shape the seed commit is known to have.
	Notes   []string
	Metrics map[string]float64
	// Setup is the run's own set-up sample; a -setup-only run reports
	// nothing else.
	Setup setupSample
	// BuildSeconds is the time spent building unischedd, kept out of setup_s.
	BuildSeconds float64
}

func newResult() *result { return &result{Metrics: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outputLine is the contract's result object, printed as the last line of
// standard output.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// output selects the manifest's metric list for the run kind and fills it
// from the result. Every end-to-end metric must have been measured. A
// per-layer metric the workload never produced reads 0: the workload did not
// enter that layer. A name the code set but the manifest lacks is a bug in
// one of the two and fails the run.
func (m *manifest) output(r *result, traced bool) outputLine {
	specs := m.EndToEnd
	if traced {
		specs = m.PerLayer
	}
	known := make(map[string]bool)
	for _, s := range m.EndToEnd {
		known[s.Name] = true
	}
	for _, s := range m.PerLayer {
		known[s.Name] = true
	}
	var strays []string
	for name := range r.Metrics {
		if !known[name] {
			strays = append(strays, name)
		}
	}
	sort.Strings(strays)
	for _, name := range strays {
		r.problem("metric %q is measured but not listed in BENCHMARK.json", name)
	}
	out := outputLine{Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := r.Metrics[s.Name]
		if !ok && !traced {
			r.problem("end-to-end metric %q was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.problem("metric %q is not a finite number", s.Name)
			v = 0
		}
		out.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	out.Attempted = r.Attempted
	if out.Attempted < 1 {
		out.Attempted = 1
		r.problem("no operation was attempted")
	}
	out.Failed = r.Failed
	out.Correct = len(r.Problems) == 0
	return out
}
