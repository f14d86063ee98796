package main

import (
	"slices"
	"testing"
)

// TestTracingKeepsResults runs every workload's traced computation — the
// decomposed cells with timed scheduler, recorder and ReaderAt, the
// decorated RunGrid over the Fig. 8/9 cells, the black-box full grid —
// and requires the goldens, which TestSmoke pins as the untraced runs'
// digests. It also checks that the trace reports only metrics the
// benchmark declares, and what the benchmark promises about them.
func TestTracingKeepsResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			tr := newTracer()
			digests, err := tr.run(func() ([]string, error) { return w.traced(defaultSeed, t.TempDir(), tr) })
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(digests, goldens[w.name]) {
				t.Errorf("traced digests %v, want the goldens %v", digests, goldens[w.name])
			}
			for name := range tr.metrics {
				if !known[name] {
					t.Errorf("trace reports %q, which is not a declared layer metric", name)
				}
			}
			if c := tr.metrics["span_coverage"]; c < 0.9 {
				t.Errorf("named spans cover %.3f of the traced run, want at least 0.9", c)
			}
			if d := tr.metrics["exp.fullgrid.degraded_cells"]; d != 0 {
				t.Errorf("%v cells ran degraded; the grid budget no longer fits the workload", d)
			}
		})
	}
}
