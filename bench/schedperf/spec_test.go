package main

import (
	"testing"
)

// TestBenchmarkSpec keeps BENCHMARK.json, the description the benchmark's
// users and tools read, in step with the code: the same workloads, and the
// same metrics with the same units and directions.
func TestBenchmarkSpec(t *testing.T) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := readJSON("../../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s", kind, i,
					m.Name, m.Unit, m.Better, want[i].name, want[i].unit, want[i].better)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics, true)
	check("per_layer", spec.PerLayer, layerMetrics, false)
}
