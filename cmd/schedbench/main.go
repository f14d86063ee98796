// Command schedbench regenerates the tables and figures of "Experimental
// Analysis of Space-Bounded Schedulers" (SPAA 2014) on the simulated
// Xeon 7560.
//
// Usage:
//
//	schedbench -experiment all                 # everything (paper profile)
//	schedbench -experiment fig5 -profile quick # one figure, small inputs
//	schedbench -experiment machine             # print the Fig. 4 machine
//
// Experiments: machine, fig5, fig6, fig7, fig8, fig9, fig10, validate,
// model, ablation, resilience, cluster, cell, fullgrid, all.
//
// The cell experiment runs one full-scale grid cell through the streamed
// record/partition/sharded-replay pipeline:
//
//	schedbench -experiment cell -profile x1 -kernel RRM -sched sb -shards 4
//
// The fullgrid experiment runs the whole kernel × scheduler × bandwidth
// grid off shared recordings (one per kernel) with cells replayed
// concurrently under one decoder-memory budget:
//
//	schedbench -experiment fullgrid -profile x4 -shards 4 -gridworkers 4
//
// Long grids run supervised: -rundir journals every cell crash-safely,
// SIGINT/SIGTERM drain the running cells and flush a PARTIAL report
// (exit code 3 = resumable), and -resume continues the journal, skipping
// completed cells bit-identically:
//
//	schedbench -experiment fullgrid -profile x1 -rundir runs/x1
//	schedbench -experiment fullgrid -profile x1 -rundir runs/x1 -resume
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/exp"
	"repro/internal/machine"
)

// exitResumable is the exit code of a grid that stopped early but left a
// journal (or partial state) a -resume run can continue: interrupted by
// a signal, or completed with failed cells.
const exitResumable = 3

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run: machine|fig5|fig6|fig7|fig8|fig9|fig10|validate|model|ablation|resilience|cluster|cell|fullgrid|all")
		profile    = flag.String("profile", "paper", "experiment scale: paper|quick|x1|x2|x4|x8|x16|x32|x64")
		reps       = flag.Int("reps", 0, "override repetitions per cell (0 = profile default)")
		seed       = flag.Uint64("seed", 0, "override base seed (0 = profile default)")
		verbose    = flag.Bool("v", false, "print each cell as it completes")
		csvDir     = flag.String("csv", "", "also write each figure's rows as CSV into this directory")
		benchJSON  = flag.String("benchjson", "", "run the perf harness instead of experiments and write the report to this file (e.g. BENCH_sim.json)")
		traceDir   = flag.String("tracecache", "", "keep recorded DAG traces in this directory and reuse them across runs: one framed-trace format for every experiment, so cell and fullgrid reuse recordings from it too (empty = keep recordings in memory for this run only)")
		minHit     = flag.Float64("mintracehit", -1, "exit 1 if the trace-cache hit rate ends below this percentage (negative = no check)")
		kernel     = flag.String("kernel", "Quicksort", "cell experiment: kernel name (RRM|RRG|Quicksort|Samplesort|AwareSamplesort|Quad-Tree|MatMul)")
		schedName  = flag.String("sched", "sb", "cell experiment: scheduler name")
		shards     = flag.Int("shards", 1, "cell/fullgrid: host goroutines for each sharded replay (never changes results)")
		window     = flag.Int64("replaywindow", 0, "cell/fullgrid: streamed-replay frame window in bytes (0 = default 16MB)")
		kernelsCSV = flag.String("kernels", "Quicksort,Samplesort,AwareSamplesort,Quad-Tree,MatMul", "fullgrid: comma-separated kernel names")
		schedsCSV  = flag.String("scheds", "ws,pws,sb,sbd", "fullgrid: comma-separated scheduler names")
		bandsCSV   = flag.String("bands", "4,1", "fullgrid: comma-separated DRAM link counts (Fig. 8 = all links, Fig. 9 = 1)")
		gridWork   = flag.Int("gridworkers", 0, "fullgrid: concurrent cells (0 = GOMAXPROCS; never changes results)")
		gridBudget = flag.Int64("gridbudget", 0, "fullgrid: shared decoder-memory budget in bytes across concurrent cells (0 = max(replaywindow, 16MB))")
		runDir     = flag.String("rundir", "", "fullgrid: journal every cell outcome to this directory (crash-safe; recordings land in rundir/traces unless -tracecache is set)")
		resume     = flag.Bool("resume", false, "fullgrid: continue the journal in -rundir, skipping completed cells bit-identically")
		cellDL     = flag.Duration("celldeadline", 0, "fullgrid: host wall-clock watchdog per cell attempt, doubling per retry (0 = none)")
		cellRetry  = flag.Int("cellretries", 0, "fullgrid: re-attempts per failing cell, quarantining its shared recording in between")
		retryWait  = flag.Duration("retrybackoff", 0, "fullgrid: wait before a cell's first retry, doubling per attempt (0 = 1s)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Reject contradictory flag combinations up front, before any work
	// runs, so a typo'd invocation fails in milliseconds instead of after
	// a long grid. Exit code 2 matches flag-parse failures.
	fatalUsage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "schedbench: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalUsage("unexpected positional arguments %q", flag.Args())
	}
	if *benchJSON != "" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "experiment", "csv", "tracecache", "mintracehit":
				fatalUsage("-benchjson runs the perf harness and ignores -%s; drop one of the two", f.Name)
			}
		})
	}
	if *reps < 0 {
		fatalUsage("-reps must be >= 0, got %d", *reps)
	}
	if *shards < 1 {
		fatalUsage("-shards must be >= 1, got %d", *shards)
	}
	if *window < 0 {
		fatalUsage("-replaywindow must be >= 0, got %d", *window)
	}
	if *gridWork < 0 {
		fatalUsage("-gridworkers must be >= 0, got %d", *gridWork)
	}
	if *gridBudget < 0 {
		fatalUsage("-gridbudget must be >= 0, got %d", *gridBudget)
	}
	if *experiment != "cell" && *experiment != "fullgrid" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shards", "replaywindow":
				fatalUsage("-%s applies only to -experiment cell or fullgrid", f.Name)
			}
		})
	}
	if *experiment != "cell" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "kernel", "sched":
				fatalUsage("-%s applies only to -experiment cell", f.Name)
			}
		})
	}
	if *cellRetry < 0 {
		fatalUsage("-cellretries must be >= 0, got %d", *cellRetry)
	}
	if *cellDL < 0 || *retryWait < 0 {
		fatalUsage("-celldeadline and -retrybackoff must be >= 0")
	}
	if *resume && *runDir == "" {
		fatalUsage("-resume requires -rundir (the journal to continue)")
	}
	if *experiment != "fullgrid" {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "kernels", "scheds", "bands", "gridworkers", "gridbudget",
				"rundir", "resume", "celldeadline", "cellretries", "retrybackoff":
				fatalUsage("-%s applies only to -experiment fullgrid", f.Name)
			}
		})
	} else if *minHit >= 0 {
		fatalUsage("-mintracehit does not apply to -experiment fullgrid (its summary line reports the grid's own cache counters)")
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "schedbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "schedbench: -memprofile: %v\n", err)
			}
		}()
	}

	if *benchJSON != "" {
		start := time.Now() //schedlint:ignore nondeterminism harness wall-clock progress stamp; never reaches simulation state
		fmt.Printf("schedbench: running perf harness -> %s\n", *benchJSON)
		if err := exp.WriteBenchJSON(*benchJSON); err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: -benchjson: %v\n", err)
			os.Exit(1)
		}
		//schedlint:ignore nondeterminism harness wall-clock progress stamp; never reaches simulation state
		fmt.Printf("# bench harness completed in %.1fs\n", time.Since(start).Seconds())
		return
	}

	var p exp.Profile
	switch *profile {
	case "paper":
		p = exp.Paper()
	case "quick":
		p = exp.Quick()
	case "x1", "x2", "x4", "x8", "x16", "x32", "x64":
		var div int64
		fmt.Sscanf(*profile, "x%d", &div)
		p = exp.FullScale(div)
	default:
		fmt.Fprintf(os.Stderr, "schedbench: unknown profile %q (have paper, quick, x1..x64)\n", *profile)
		os.Exit(2)
	}
	if *reps > 0 {
		p.Reps = *reps
	}
	if *seed > 0 {
		p.Seed = *seed
	}

	r := exp.NewRunner(p, os.Stdout)
	r.Verbose = *verbose
	r.Shards = *shards
	r.ReplayWindow = *window
	if *traceDir != "" {
		tc, err := dagtrace.NewStreamCache(*traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: -tracecache: %v\n", err)
			os.Exit(1)
		}
		r.Traces = tc
	}
	reportTraces := func() {
		s := r.Traces.Stats()
		rate := 100 * s.HitRate()
		if s.Hits+s.Misses+s.Failed > 0 {
			fmt.Printf("# trace cache: %d replayed (%d from disk), %d recorded, %d failed — hit rate %.1f%%\n",
				s.Hits, s.DiskHits, s.Misses, s.Failed, rate)
		}
		if *minHit >= 0 && rate < *minHit {
			fmt.Fprintf(os.Stderr, "schedbench: trace-cache hit rate %.1f%% is below -mintracehit %.1f\n", rate, *minHit)
			os.Exit(1)
		}
	}

	fmt.Printf("schedbench: profile=%s machine-scale=1/%d reps=%d\n", p.Name, p.MachineScale, p.Reps)
	fmt.Printf("machine: %s\n", p.MachineHT())

	run := func(name string, f func() error) {
		start := time.Now() //schedlint:ignore nondeterminism harness wall-clock progress stamp; never reaches simulation state
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "schedbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		//schedlint:ignore nondeterminism harness wall-clock progress stamp; never reaches simulation state
		fmt.Printf("# %s completed in %.1fs\n", name, time.Since(start).Seconds())
	}

	export := func(name string, rows []exp.FigRow, err error) error {
		if err != nil || *csvDir == "" {
			return err
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
		return exp.WriteCSV(fmt.Sprintf("%s/%s.csv", *csvDir, name), rows)
	}
	experiments := map[string]func() error{
		"machine": func() error { return printMachine() },
		"fig5":    func() error { rows, err := r.Fig5(); return export("fig5", rows, err) },
		"fig6":    func() error { rows, err := r.Fig6(); return export("fig6", rows, err) },
		"fig7": func() error {
			out, err := r.Fig7()
			if err != nil {
				return err
			}
			for name, rows := range out {
				if err := export("fig7_"+strings.ToLower(name), rows, nil); err != nil {
					return err
				}
			}
			return nil
		},
		"fig8":     func() error { rows, err := r.Fig8(); return export("fig8", rows, err) },
		"fig9":     func() error { rows, err := r.Fig9(); return export("fig9", rows, err) },
		"fig10":    func() error { rows, err := r.Fig10(); return export("fig10", rows, err) },
		"validate": func() error { _, err := r.Validate(); return err },
		"model":    func() error { _, err := r.Model(); return err },
		"ablation": func() error { return r.Ablations() },
		"resilience": func() error {
			points, err := r.Resilience()
			if err != nil || *csvDir == "" {
				return err
			}
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			return exp.WriteResilienceCSV(fmt.Sprintf("%s/resilience.csv", *csvDir), points)
		},
		"cell": func() error {
			rep, err := r.FullCell(*kernel, *schedName)
			if err != nil {
				return err
			}
			rep.Print(os.Stdout)
			return nil
		},
		"fullgrid": func() error {
			r.Workers = *gridWork
			r.GridBudget = *gridBudget
			bands, err := parseBands(*bandsCSV)
			if err != nil {
				return err
			}
			// SIGINT/SIGTERM drain the grid gracefully: running cells
			// finish, pending cells stay journaled, and the partial
			// report + CSV flush before the resumable exit.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			rep, err := r.FullGridRun(ctx, splitCSV(*kernelsCSV), splitCSV(*schedsCSV), bands, exp.GridRunOpts{
				RunDir: *runDir, Resume: *resume,
				CellDeadline: *cellDL, CellRetries: *cellRetry, RetryBackoff: *retryWait,
			})
			resumable := rep != nil &&
				(errors.Is(err, exp.ErrGridInterrupted) || errors.Is(err, exp.ErrGridCellsFailed))
			if err != nil && !resumable {
				return err
			}
			stop() // a second signal past this point kills the process normally
			rep.Print(os.Stdout)
			if *csvDir != "" {
				if cerr := os.MkdirAll(*csvDir, 0o755); cerr == nil {
					cerr = exp.WriteFullGridCSV(fmt.Sprintf("%s/fullgrid.csv", *csvDir), rep)
					if cerr != nil && err == nil {
						return cerr
					} else if cerr != nil {
						fmt.Fprintf(os.Stderr, "schedbench: fullgrid csv: %v\n", cerr)
					}
				} else if err == nil {
					return cerr
				}
			}
			if resumable {
				fmt.Fprintf(os.Stderr, "schedbench: fullgrid: %v\n", err)
				if *runDir != "" {
					fmt.Fprintf(os.Stderr, "schedbench: resume with: schedbench -experiment fullgrid -rundir %s -resume (plus your other flags)\n", *runDir)
				}
				os.Exit(exitResumable)
			}
			return nil
		},
		"cluster": func() error {
			points, err := r.Cluster()
			if err != nil || *csvDir == "" {
				return err
			}
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				return err
			}
			return exp.WriteClusterCSV(fmt.Sprintf("%s/cluster.csv", *csvDir), p.MachineHT(), points)
		},
	}
	// "cell" and "fullgrid" are deliberately absent from the -experiment
	// all order: they exist for the x1..x64 scales and are run explicitly.
	order := []string{"machine", "validate", "model", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "ablation", "resilience", "cluster"}

	switch *experiment {
	case "all":
		for _, name := range order {
			run(name, experiments[name])
		}
	default:
		f, ok := experiments[*experiment]
		if !ok {
			fmt.Fprintf(os.Stderr, "schedbench: unknown experiment %q (have %s, cell, fullgrid, all)\n",
				*experiment, strings.Join(order, ", "))
			os.Exit(2)
		}
		run(*experiment, f)
	}
	reportTraces()
}

// splitCSV splits a comma-separated flag value, trimming blanks.
func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseBands parses the -bands flag into link counts.
func parseBands(s string) ([]int, error) {
	var out []int
	for _, f := range splitCSV(s) {
		b, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("-bands: %q is not a link count", f)
		}
		out = append(out, b)
	}
	return out, nil
}

// printMachine prints the Fig. 4 specification entry of the simulated
// machine in the paper's own format.
func printMachine() error {
	d := machine.Xeon7560()
	fmt.Printf("\nFigure 4: specification entry for the 32-core Xeon 7560\n")
	fmt.Printf("int num_procs=%d;\n", d.NumCores())
	fmt.Printf("int num_levels = %d;\n", d.NumLevels())
	fmt.Printf("int fan_outs[%d] = {", d.NumLevels())
	for i, lv := range d.Levels {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(lv.Fanout)
	}
	fmt.Println("};")
	fmt.Printf("long long int sizes[%d] = {", d.NumLevels())
	for i, lv := range d.Levels {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Print(lv.Size)
	}
	fmt.Println("};")
	fmt.Printf("int block_sizes[%d] = {", d.NumLevels())
	for i, lv := range d.Levels {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(lv.BlockSize)
	}
	fmt.Println("};")
	fmt.Printf("int map[%d] = {", d.NumCores())
	for i := 0; i < d.NumCores(); i++ {
		if i > 0 {
			fmt.Print(",")
		}
		fmt.Print(d.LeafOf(i))
	}
	fmt.Println("};")
	return nil
}
