package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// e2eMetrics are the end-to-end metrics of every run, measured from the
// harness: wall time from the child's ready line to its exit, user+system
// CPU time and peak RSS from its rusage, and set-up time from exec to the
// ready line. The three times are reference-scaled (see reference.go).
var e2eMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// childProcs is the GOMAXPROCS of every child: the two host cores the
// benchmark is sized for, or fewer when the machine has fewer.
var childProcs = min(runtime.NumCPU(), 2)

// childRun is one child process measured from outside, in raw host time.
type childRun struct {
	wall, cpu, rss, setup float64
	out                   outcome
}

// sample is one measured run of a workload: its end-to-end metrics
// reference-scaled and raw (plus the reference's own wall time), and what
// its child reported.
type sample struct {
	e2e, raw map[string]float64
	layers   map[string]float64
	spans    []span
}

// result gathers one workload's runs.
type result struct {
	w                 *workload
	plain, traced     []*sample
	attempted, failed int
}

type harness struct {
	exe  string
	seed uint64
	tmp  string // TMPDIR of the children
	// first holds the first digests seen per workload; with a seed that has
	// no goldens, every later run must reproduce them.
	first map[string][]string
}

func harnessMain(args []string) int {
	fs := flag.NewFlagSet("schedperf", flag.ContinueOnError)
	names := fs.String("workload", "all", "workload to run: all, or a comma-separated list of "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the goldens are pinned for the default, other seeds are checked for determinism")
	seconds := fs.Int("seconds", 0, "keep starting rounds until this many seconds have passed (0: run -rounds rounds)")
	rounds := fs.Int("rounds", 5, "rounds to run when -seconds is 0")
	trace := fs.Int("trace", 0, "1: pair every run with a traced run and report the per-layer metrics")
	smoke := fs.Bool("smoke", false, "run every workload once with the default seed and check the goldens")
	out := fs.String("out", "", "write every run's end-to-end samples to this JSON file, the input of schedperf compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "schedperf: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if *smoke {
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "smoke" && f.Name != "out" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return usage("-smoke runs every workload once with the default seed; drop -%s", conflict)
		}
		*rounds = 1
	}
	if *trace != 0 && *trace != 1 {
		return usage("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 0 || *rounds < 1 {
		return usage("-seconds must be >= 0 and -rounds >= 1")
	}
	ws, err := selectWorkloads(*names)
	if err != nil {
		return usage("%v", err)
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedperf: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "schedperf-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	h := &harness{exe: exe, seed: *seed, tmp: tmp, first: map[string][]string{}}

	// An interrupt kills the running child and waits for it before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results := h.runRounds(ctx, ws, *rounds, time.Duration(*seconds)*time.Second, *trace == 1)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "schedperf: interrupted")
		return 1
	}
	printTable(os.Stdout, results, *trace == 1)
	if *out != "" {
		if err := writeSamples(*out, *seed, results); err != nil {
			fmt.Fprintf(os.Stderr, "schedperf: -out: %v\n", err)
			return 1
		}
	}
	if *trace == 1 {
		path := filepath.Join(os.TempDir(), "schedperf-spans.json")
		if err := writeSpans(path, results); err != nil {
			fmt.Fprintf(os.Stderr, "schedperf: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("# spans: %s\n", path)
	}
	rep := summarize(results, *trace == 1)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedperf: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func selectWorkloads(list string) ([]*workload, error) {
	if list == "all" {
		ws := make([]*workload, len(workloads))
		for i := range workloads {
			ws[i] = &workloads[i]
		}
		return ws, nil
	}
	var ws []*workload
	for _, name := range strings.Split(list, ",") {
		w, ok := lookupWorkload(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have all, %s)", name, strings.Join(workloadNames(), ", "))
		}
		ws = append(ws, w)
	}
	return ws, nil
}

// runRounds runs every workload once per round, alternating forward and
// reverse order between rounds so no workload always follows the same
// neighbour; a traced run pairs with each run, alternating which goes
// first. It runs the given number of rounds, or, when budget is set,
// starts rounds until budget has passed.
func (h *harness) runRounds(ctx context.Context, ws []*workload, rounds int, budget time.Duration, traced bool) []*result {
	results := make([]*result, len(ws))
	for i, w := range ws {
		results[i] = &result{w: w}
	}
	start := time.Now()
	for round := 0; ctx.Err() == nil; round++ {
		if budget > 0 && round > 0 && time.Since(start) >= budget {
			break
		}
		if budget == 0 && round >= rounds {
			break
		}
		for i := range results {
			r := results[i]
			if round%2 == 1 {
				r = results[len(results)-1-i]
			}
			kinds := []bool{false}
			if traced {
				kinds = []bool{round%2 == 1, round%2 == 0}
			}
			for _, k := range kinds {
				h.measure(ctx, r, k)
			}
		}
	}
	return results
}

// measure runs the reference and then one child of the workload, and
// records the workload's sample and its cells' outcome.
func (h *harness) measure(ctx context.Context, r *result, traced bool) {
	if ctx.Err() != nil {
		return
	}
	r.attempted += r.w.cells
	ref, err := h.runChild(ctx, referenceName, false)
	var run *childRun
	if err == nil {
		run, err = h.runChild(ctx, r.w.name, traced)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedperf: %s: %v\n", r.w.name, err)
		r.failed += r.w.cells
		return
	}
	if bad := h.check(r.w, run.out.Digests); bad > 0 {
		r.failed += bad
		return
	}
	scale := referenceSeconds / ref.wall
	s := &sample{
		e2e: map[string]float64{
			"wall_s":      run.wall * scale,
			"cpu_s":       run.cpu * scale,
			"peak_rss_mb": run.rss,
			"setup_s":     run.setup * scale,
		},
		raw: map[string]float64{
			"wall_s":      run.wall,
			"cpu_s":       run.cpu,
			"peak_rss_mb": run.rss,
			"setup_s":     run.setup,
			"reference_s": ref.wall,
		},
		layers: run.out.Layers,
		spans:  run.out.Spans,
	}
	if traced {
		r.traced = append(r.traced, s)
	} else {
		r.plain = append(r.plain, s)
	}
}

// runChild starts one child process and measures it from outside.
func (h *harness) runChild(ctx context.Context, name string, traced bool) (*childRun, error) {
	args := []string{"-seed", strconv.FormatUint(h.seed, 10)}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, h.exe, args...)
	cmd.Env = append(os.Environ(),
		childEnv+"="+name,
		"GOMAXPROCS="+strconv.Itoa(childProcs),
		"TMPDIR="+h.tmp,
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var ready time.Time
	var last []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		if ready.IsZero() && sc.Text() == readyLine {
			ready = time.Now()
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if scanErr != nil {
		// Drain so the child never blocks on a full pipe before Wait.
		io.Copy(io.Discard, stdout)
	}
	waitErr := cmd.Wait()
	end := time.Now()
	switch {
	case waitErr != nil:
		return nil, fmt.Errorf("%s child: %w", name, waitErr)
	case scanErr != nil:
		return nil, fmt.Errorf("reading %s child output: %w", name, scanErr)
	case ready.IsZero():
		return nil, fmt.Errorf("%s child exited without reporting ready", name)
	}
	run := &childRun{
		wall:  end.Sub(ready).Seconds(),
		setup: ready.Sub(start).Seconds(),
	}
	if err := json.Unmarshal(last, &run.out); err != nil {
		return nil, fmt.Errorf("%s child outcome: %w", name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, errors.New("no rusage for the child")
	}
	run.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	run.rss = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return run, nil
}

// check compares a run's digests with the goldens (default seed) or with
// the first run of the same workload (any other seed), and returns the
// number of cells that differ.
func (h *harness) check(w *workload, digests []string) int {
	if len(digests) != w.cells {
		fmt.Fprintf(os.Stderr, "schedperf: %s: %d digests, want %d\n", w.name, len(digests), w.cells)
		return w.cells
	}
	want, source := goldens[w.name], "golden"
	if h.seed != defaultSeed {
		if h.first[w.name] == nil {
			h.first[w.name] = digests
			return 0
		}
		want, source = h.first[w.name], "first run"
	}
	bad := 0
	for i, got := range digests {
		if i >= len(want) || got != want[i] {
			wantI := "none"
			if i < len(want) {
				wantI = want[i]
			}
			fmt.Fprintf(os.Stderr, "schedperf: %s: cell %d digest %s, %s %s\n", w.name, i, got, source, wantI)
			bad++
		}
	}
	return bad
}

func (r *result) e2eValues(name string) []float64 {
	return values(r.plain, func(s *sample) float64 { return s.e2e[name] })
}

// layerValue is one per-layer metric: the median over the traced runs,
// except for the Go runtime counters, which describe the untraced runs.
func (r *result) layerValue(name string) float64 {
	switch name {
	case "trace_overhead":
		return ratio(median(values(r.traced, func(s *sample) float64 { return s.e2e["wall_s"] })), median(r.e2eValues("wall_s")))
	case "host.allocs", "host.gc_pause_s":
		return median(values(r.plain, func(s *sample) float64 { return s.layers[name] }))
	}
	return median(values(r.traced, func(s *sample) float64 { return s.layers[name] }))
}

func values(ss []*sample, f func(*sample) float64) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return xs
}

// printTable prints every end-to-end metric's median, quartiles and sample
// count, with the raw (unscaled) median beside it, and with tracing the
// per-layer metrics of every workload.
func printTable(w io.Writer, results []*result, traced bool) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tn\traw median")
	for _, r := range results {
		for _, m := range e2eMetrics {
			xs := r.e2eValues(m.name)
			q1, med, q3 := quartiles(xs)
			raw := median(values(r.plain, func(s *sample) float64 { return s.raw[m.name] }))
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%d\t%.4g\n", r.w.name, m.name, m.unit, med, q1, q3, len(xs), raw)
		}
		fmt.Fprintf(tw, "%s\treference\ts\t\t\t\t\t%.4g\n", r.w.name,
			median(values(r.plain, func(s *sample) float64 { return s.raw["reference_s"] })))
		fmt.Fprintf(tw, "%s\terror_rate\tfraction\t%.4g\t\t\t%d cells, %d failed\n",
			r.w.name, ratio(float64(r.failed), float64(r.attempted)), r.attempted, r.failed)
	}
	tw.Flush()
	if !traced {
		return
	}
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tunit")
	for _, r := range results {
		fmt.Fprintf(tw, "\t%s", r.w.name)
	}
	fmt.Fprintln(tw)
	for _, m := range layerMetrics {
		fmt.Fprintf(tw, "%s\t%s", m.name, m.unit)
		for _, r := range results {
			fmt.Fprintf(tw, "\t%.6g", r.layerValue(m.name))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the final JSON line: the end-to-end metrics, or with
// tracing the per-layer ones; with several workloads each name is
// prefixed by its workload's.
func summarize(results []*result, traced bool) report {
	rep := report{Metrics: map[string]metricValue{}}
	for _, r := range results {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.w.name + "."
		}
		if traced {
			for _, m := range layerMetrics {
				rep.Metrics[prefix+m.name] = metricValue{r.layerValue(m.name), m.unit}
			}
			continue
		}
		for _, m := range e2eMetrics {
			rep.Metrics[prefix+m.name] = metricValue{median(r.e2eValues(m.name)), m.unit}
		}
	}
	rep.Correct = rep.Attempted > 0 && rep.Failed == 0
	return rep
}

// sampleSet is the file -out writes and compare reads: every untraced
// run's end-to-end values, per workload and metric, in run order.
type sampleSet struct {
	Seed      uint64                          `json:"seed"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

func writeSamples(path string, seed uint64, results []*result) error {
	set := sampleSet{Seed: seed, Workloads: map[string]map[string][]float64{}}
	for _, r := range results {
		ms := map[string][]float64{}
		for _, m := range e2eMetrics {
			ms[m.name] = r.e2eValues(m.name)
		}
		set.Workloads[r.w.name] = ms
	}
	return writeJSON(path, set)
}

// writeSpans writes every traced run's spans, per workload.
func writeSpans(path string, results []*result) error {
	all := map[string][][]span{}
	for _, r := range results {
		for _, s := range r.traced {
			all[r.w.name] = append(all[r.w.name], s.spans)
		}
	}
	return writeJSON(path, all)
}

func writeJSON(path string, v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
