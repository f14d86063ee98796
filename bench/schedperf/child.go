package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// readyLine is what a child prints once its set-up is done, just before
// its first timed call; the harness times set-up up to it.
const readyLine = "ready"

// outcome is the JSON line a child prints last.
type outcome struct {
	Digests []string           `json:"digests"`
	Layers  map[string]float64 `json:"layers"`
	Spans   []span             `json:"spans,omitempty"`
}

// childMain runs one workload once and prints its outcome. It is the
// process whose time and memory the harness measures.
func childMain(name string, args []string) int {
	fs := flag.NewFlagSet("schedperf child", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	traced := fs.Bool("traced", false, "attach the layer decorators")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if name == referenceName {
		fmt.Println(readyLine)
		return printOutcome(outcome{Digests: []string{reference()}})
	}
	w, ok := lookupWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "schedperf: unknown workload %q\n", name)
		return 2
	}
	dir, err := os.MkdirTemp("", "schedperf-run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var t *tracer
	if *traced {
		t = newTracer()
	}
	fmt.Println(readyLine)
	var digests []string
	if t == nil {
		digests, err = w.run(*seed, dir)
	} else {
		digests, err = t.run(func() ([]string, error) { return w.traced(*seed, dir, t) })
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedperf: %s: %v\n", name, err)
		return 1
	}

	out := outcome{Digests: digests, Layers: map[string]float64{}}
	if t != nil {
		out.Layers, out.Spans = t.metrics, t.spans
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	out.Layers["host.allocs"] = float64(ms.Mallocs)
	out.Layers["host.gc_pause_s"] = float64(ms.PauseTotalNs) / 1e9
	return printOutcome(out)
}

func printOutcome(out outcome) int {
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "schedperf: %v\n", err)
		return 1
	}
	return 0
}
