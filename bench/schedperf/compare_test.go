package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(xs, n=4) and statistics.median(xs).
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// around returns n samples alternating around v by ±spread.
func around(v, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v + spread*float64(i%5-2)/2
	}
	return xs
}

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name        string
		parent, chg []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"faster", around(10, 0.1, 10), around(9, 0.1, 10), 0.05, true, improved},
		{"same", around(10, 0.1, 10), around(10, 0.1, 10), 0.05, true, unchanged},
		{"slightly slower, within bound", around(10, 0.1, 10), around(10.2, 0.1, 10), 0.05, true, unchanged},
		{"slower", around(10, 0.1, 10), around(11, 0.1, 10), 0.05, true, worse},
		{"noisier than the bound", around(10, 2, 10), around(10.3, 2, 10), 0.05, true, unresolved},
		{"noisy but every run better", around(10, 2, 10), around(4, 1, 10), 0.05, true, improved},
		{"higher is better", around(10, 0.1, 10), around(11, 0.1, 10), 0.05, false, improved},
		{"higher is better, dropped", around(10, 0.1, 10), around(9, 0.1, 10), 0.05, false, worse},
	} {
		if got := judge(c.parent, c.chg, c.bound, c.lowerBetter).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestJudgeNeedsNineInTen checks that a median gain alone is not enough:
// the change must also win at least nine pairs in ten.
func TestJudgeNeedsNineInTen(t *testing.T) {
	parent := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	change := []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11}
	j := judge(parent, change, 0.05, true)
	if j.wins != 8 || j.pairs != 10 {
		t.Fatalf("wins %d/%d, want 8/10", j.wins, j.pairs)
	}
	if j.verdict == improved {
		t.Errorf("8/10 wins judged improved")
	}
}

func TestCompareFlagsWorse(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundedMetric{{"wall_s", "lower", 0.05}}}
	set := func(v float64) sampleSet {
		return sampleSet{Seed: 1, Workloads: map[string]map[string][]float64{
			"cell_rrm_quick": {"wall_s": around(v, 0.01, 10)},
		}}
	}
	var out bytes.Buffer
	if !compare(&out, spec, set(1), set(1.2)) {
		t.Errorf("a 20%% slower wall time was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cell_rrm_quick  wall_s") {
		t.Errorf("table lacks the workload row:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, spec, set(1), set(1)) {
		t.Errorf("identical sets flagged as worse:\n%s", out.String())
	}
}
