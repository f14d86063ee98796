package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Verdicts of one workload × metric comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judgement compares a parent's and a change's samples of one metric.
type judgement struct {
	parentQ1, parentMed, parentQ3 float64
	changeQ1, changeMed, changeQ3 float64
	wins, pairs                   int
	verdict                       string
}

// judge applies the benchmark's acceptance rule. Samples pair up by run
// order (the sets interleave their workloads the same way); the change
// wins a pair when it reads better, and ties count for neither side.
//   - improved: the change wins at least 9 in 10 pairs and its median is
//     better than the parent's by more than the parent's interquartile
//     range;
//   - unresolved: otherwise, when the parent's interquartile range exceeds
//     the bound (as a share of its median), unless every change run reads
//     better than every parent run;
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - unchanged: everything else.
func judge(parent, change []float64, bound float64, lowerBetter bool) judgement {
	var j judgement
	j.parentQ1, j.parentMed, j.parentQ3 = quartiles(parent)
	j.changeQ1, j.changeMed, j.changeQ3 = quartiles(change)
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	j.pairs = min(len(parent), len(change))
	for i := 0; i < j.pairs; i++ {
		if better(change[i], parent[i]) {
			j.wins++
		}
	}
	gap := j.changeMed - j.parentMed
	if lowerBetter {
		gap = -gap
	}
	iqr := j.parentQ3 - j.parentQ1
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case j.pairs > 0 && 10*j.wins >= 9*j.pairs && gap > iqr:
		j.verdict = improved
	case iqr > bound*j.parentMed && !allBetter:
		j.verdict = unresolved
	case -gap > bound*j.parentMed:
		j.verdict = worse
	default:
		j.verdict = unchanged
	}
	return j
}

// compareMain reports, for each workload × end-to-end metric, the two
// sets' medians and quartiles, the change's win fraction and a verdict.
// It exits 1 when any metric got worse.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("schedperf compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description holding each metric's bound")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: schedperf compare [-bench BENCHMARK.json] parent.json change.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var spec benchSpec
	var parent, change sampleSet
	for _, f := range []struct {
		path string
		v    any
	}{{*specPath, &spec}, {fs.Arg(0), &parent}, {fs.Arg(1), &change}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintf(os.Stderr, "schedperf compare: %v\n", err)
			return 2
		}
	}
	if compare(os.Stdout, spec, parent, change) {
		return 1
	}
	return 0
}

// compare prints the comparison table and reports whether any metric got
// worse.
func compare(w io.Writer, spec benchSpec, parent, change sampleSet) (anyWorse bool) {
	if parent.Seed != change.Seed {
		fmt.Fprintf(w, "# note: the sets ran different seeds (%d, %d)\n", parent.Seed, change.Seed)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tdelta\twins\tverdict")
	for _, wl := range workloads {
		p, c := parent.Workloads[wl.name], change.Workloads[wl.name]
		if p == nil || c == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			j := judge(p[m.Name], c[m.Name], m.Bound, m.Better != "higher")
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%d/%d\t%s\n",
				wl.name, m.Name, j.parentMed, j.parentQ1, j.parentQ3,
				j.changeMed, j.changeQ1, j.changeQ3,
				100*ratio(j.changeMed-j.parentMed, j.parentMed), j.wins, j.pairs, j.verdict)
			anyWorse = anyWorse || j.verdict == worse
		}
	}
	tw.Flush()
	return anyWorse
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
