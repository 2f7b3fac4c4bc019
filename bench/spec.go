package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Spec is the part of the benchmark declaration in BENCHMARK.json at
// the checkout root that eptbench reads: the workloads, and every
// metric with its unit, direction and (for end-to-end metrics)
// regression bound, so the metrics it prints are exactly the declared
// ones.
type Spec struct {
	Workloads []Workload `json:"workloads"`
	EndToEnd  []Metric   `json:"end_to_end"`
	PerLayer  []Metric   `json:"per_layer"`
}

// Workload names one declared workload.
type Workload struct {
	Name string `json:"name"`
}

// Metric is one declared metric. Bound is the share of the baseline
// median by which an end-to-end metric may worsen; per-layer metrics
// have none.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json from the checkout root.
func LoadSpec(root string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// HasWorkload reports whether name is a declared workload.
func (s *Spec) HasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// Value is one reported metric value with its unit, the form the
// result line carries.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Select picks the declared metrics out of measured values, failing if
// any declared metric was not measured.
func Select(declared []Metric, measured map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(declared))
	for _, m := range declared {
		v, ok := measured[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return out, nil
}
