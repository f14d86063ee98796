// Command schedserve runs the online serving simulation: jobs arrive over
// simulated time (open-loop Poisson, closed-loop, or from a trace file),
// pass an admission policy, and execute concurrently on the PMH under the
// chosen scheduler. It prints per-scheduler tail-latency summaries and can
// export a full rate sweep as CSV.
//
// Examples:
//
//	schedserve -sched ws -rate 2000 -duration 0.02
//	schedserve -sched ws,sb -workload rrm:2000,quicksort:3000 -rate 5000 -admission queue:8:32
//	schedserve -sched sb -closed 4 -jobs 40 -think 100000
//	schedserve -sched ws -tracefile arrivals.txt
//	schedserve -sched ws,pws,sb,sbd -sweep 100,1000,10000,100000 -csv sat.csv
//	schedserve -sched sb -fault coreloss:50 -deadline 150000 -retries 2 -backoff 50000 -admission shed:100000:queue:3:-1
//	schedserve -sched sb -cluster 4 -routing affinity -tenants 'gold:3;free:1:token:150000:2' -autoscale 400000:2:1:1
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/serve"
)

func main() {
	var (
		machineName = flag.String("machine", "4x2", "machine preset (xeon7560, xeon7560ht, 4x<n>[ht], flat<n>) or JSON file")
		scale       = flag.Int64("scale", 64, "divide cache sizes by this factor (1 = full size)")
		schedList   = flag.String("sched", "ws,sb", "comma-separated schedulers: ws|pws|cilk|sb|sbd")
		workload    = flag.String("workload", "rrm:20000,quicksort:30000", "job mix: kernel:n[:weight],...")
		rate        = flag.Float64("rate", 1000, "open-loop arrival rate, jobs per simulated second")
		duration    = flag.Float64("duration", 0.05, "simulated horizon in seconds for open-loop arrivals")
		maxJobs     = flag.Int("maxjobs", 0, "cap on generated arrivals (0 = horizon only)")
		closed      = flag.Int("closed", 0, "closed-loop concurrency (overrides -rate/-duration when > 0)")
		jobs        = flag.Int("jobs", 32, "total jobs for closed-loop mode")
		think       = flag.Int64("think", 0, "closed-loop think time in cycles between completion and next request")
		traceFile   = flag.String("tracefile", "", "replay arrivals from a trace file: lines of '<cycle> <kernel> <n> [seed]'")
		admission   = flag.String("admission", "always", "admission policy: always | queue:<inflight>:<cap> | token:<interval>:<burst> | shed:<threshold>:<inner>")
		faultSpec   = flag.String("fault", "", "inject a machine perturbation: <scenario>:<intensity> (scenarios: "+strings.Join(fault.ScenarioNames(), ", ")+")")
		deadline    = flag.Int64("deadline", 0, "abort jobs still queued this many cycles after (re)submission (0 = never)")
		retries     = flag.Int("retries", 0, "re-submit timed-out jobs up to this many times (needs -deadline)")
		backoff     = flag.Int64("backoff", 0, "base retry backoff in cycles, doubled per attempt")
		links       = flag.Int("links", 0, "DRAM links to use (bandwidth; 0 = all)")
		seed        = flag.Uint64("seed", 1, "random seed")
		sample      = flag.Int64("sample", 0, "record queue depth and cache occupancy every this many cycles (0 = off)")
		sweep       = flag.String("sweep", "", "comma-separated rates for a saturation sweep (overrides single-run mode)")
		csvPath     = flag.String("csv", "", "write results to this CSV file (sweep mode)")
		verbose     = flag.Bool("v", false, "also print per-job lifecycle records")

		clusterN  = flag.Int("cluster", 0, "simulate a fleet of this many machines (0 = single-machine serving)")
		routing   = flag.String("routing", "rr", "cluster routing policy: "+strings.Join(cluster.RoutingPolicies(), "|"))
		tenants   = flag.String("tenants", "", "cluster tenant mix: name:weight[:admission];... (admission gates at the front door)")
		autoscale = flag.String("autoscale", "", "cluster autoscaler: epoch:up:down[:min[:lathigh]] (cycles, outstanding/machine)")
	)
	flag.Parse()

	// Validate flag combinations before building anything, so a bad
	// invocation fails instantly with usage. Exit code 2 matches
	// flag-parse failures.
	fatalUsage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "schedserve: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() > 0 {
		fatalUsage("unexpected positional arguments %q", flag.Args())
	}
	if *deadline < 0 || *backoff < 0 || *retries < 0 {
		fatalUsage("-deadline, -retries and -backoff must be >= 0")
	}
	if *retries > 0 && *deadline == 0 {
		fatalUsage("-retries needs -deadline (a job only retries after timing out)")
	}
	if *backoff > 0 && *retries == 0 {
		fatalUsage("-backoff needs -retries")
	}
	if err := validateSweep(*sweep, *faultSpec, *deadline, *retries, *backoff); err != nil {
		fatalUsage("%v", err)
	}
	if *faultSpec != "" && *duration <= 0 {
		fatalUsage("-fault needs -duration > 0 to size the perturbation horizon")
	}
	// Cluster-mode flag validation, all up front: a bad combination exits
	// 2 with usage before any simulation state is built.
	cf := clusterFlags{
		N: *clusterN, Routing: *routing, Tenants: *tenants, Autoscale: *autoscale,
		Closed: *closed, Sweep: *sweep, Fault: *faultSpec,
		Deadline: *deadline, Retries: *retries, Backoff: *backoff, Sample: *sample,
	}
	tenantSpecs, scalePolicy, err := cf.validate()
	if err != nil {
		fatalUsage("%v", err)
	}

	m, err := core.MachineByName(*machineName, *scale)
	if err != nil {
		fail(err)
	}
	mix, err := serve.ParseMix(*workload)
	if err != nil {
		fail(err)
	}
	scheds := splitList(*schedList)
	if len(scheds) == 0 {
		fail(fmt.Errorf("no schedulers given"))
	}
	if *sweep == "" && *traceFile == "" && *closed <= 0 {
		if *rate <= 0 {
			fail(fmt.Errorf("-rate must be > 0 (got %g)", *rate))
		}
		if *duration <= 0 && *maxJobs <= 0 {
			fail(fmt.Errorf("open-loop arrivals need -duration > 0 or -maxjobs > 0"))
		}
	}

	if *sweep != "" {
		rates, err := parseRates(*sweep)
		if err != nil {
			fail(err)
		}
		points, err := exp.SaturationSweep(exp.SaturationConfig{
			Machine:     m,
			Schedulers:  scheds,
			RatesPerSec: rates,
			DurationSec: *duration,
			MaxJobs:     *maxJobs,
			Mix:         mix,
			Admission:   *admission,
			Seed:        *seed,
			SampleEvery: *sample,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("machine: %s\nworkload: %s\n", m, mix)
		for _, p := range points {
			r := p.Report
			fmt.Printf("%-5s rate=%-9g p50=%.6fs p99=%.6fs drops=%d queued=%d tput=%.4g/s\n",
				p.Scheduler, p.RatePerSec, r.Seconds(r.Latency.P50), r.Seconds(r.Latency.P99),
				r.Dropped, r.StillQueued, r.ThroughputPerSec)
		}
		if *csvPath != "" {
			if err := exp.WriteSaturationCSV(*csvPath, points); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %s\n", *csvPath)
		}
		return
	}

	if *clusterN > 0 {
		fmt.Printf("machine: %s × %d\n", m, *clusterN)
		if *traceFile == "" {
			fmt.Printf("workload: %s\n", mix)
		} else {
			fmt.Printf("workload: trace %s\n", *traceFile)
		}
		for _, sc := range scheds {
			// Arrival processes are stateful and single-use: build a fresh
			// stream per scheduler so every fleet sees the same arrivals.
			var arr serve.ArrivalProcess
			if *traceFile != "" {
				tr, err := serve.LoadTrace(*traceFile, *seed)
				if err != nil {
					fail(err)
				}
				arr = tr
			} else {
				arr = serve.NewPoisson(serve.PoissonConfig{
					MeanGap: exp.MeanGapFor(m, *rate),
					Horizon: int64(*duration * m.ClockGHz * 1e9),
					MaxJobs: *maxJobs,
					Mix:     mix,
					Seed:    *seed,
				})
			}
			rep, err := cluster.Run(cluster.Config{
				Machine:   m,
				Machines:  *clusterN,
				Scheduler: sc,
				Arrivals:  arr,
				Routing:   *routing,
				Admission: *admission,
				Tenants:   tenantSpecs,
				Scale:     scalePolicy,
				Seed:      *seed,
				LinksUsed: *links,
			})
			if err != nil {
				fail(err)
			}
			fmt.Println(rep)
			if *verbose {
				for mi, mrep := range rep.PerMachine {
					for _, j := range mrep.Jobs {
						fmt.Printf("  m%d job %-4d %-28s arr=%-12d adm=%-12d start=%-12d end=%-12d drop=%v\n",
							mi, j.Tag, j.Spec, j.Arrival, j.Admitted, j.Start, j.End, j.Dropped)
					}
				}
			}
		}
		return
	}

	var plan *fault.Plan
	if *faultSpec != "" {
		// Scenario generators place their phases at fractions of the
		// horizon, so it must track the span the run will actually cover:
		// when -maxjobs caps an open-loop stream short of -duration,
		// shrink the horizon to the expected arrival span, or every fault
		// event would land after the last job finishes.
		horizon := int64(*duration * m.ClockGHz * 1e9)
		if *closed <= 0 && *traceFile == "" && *maxJobs > 0 {
			if est := int64(exp.MeanGapFor(m, *rate) * float64(*maxJobs)); est < horizon {
				horizon = est
			}
		}
		plan, err = fault.ParseSpec(*faultSpec, m, horizon, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("fault: %s over %d cycles\n", *faultSpec, horizon)
	}

	fmt.Printf("machine: %s\n", m)
	if *traceFile == "" {
		fmt.Printf("workload: %s\n", mix)
	} else {
		fmt.Printf("workload: trace %s\n", *traceFile)
	}
	for _, sc := range scheds {
		// Arrival processes and admission policies are stateful: build
		// fresh ones per scheduler so every run sees the same stream.
		var arr serve.ArrivalProcess
		switch {
		case *traceFile != "":
			tr, err := serve.LoadTrace(*traceFile, *seed)
			if err != nil {
				fail(err)
			}
			arr = tr
		case *closed > 0:
			arr = serve.NewClosedLoop(serve.ClosedLoopConfig{
				Concurrency: *closed, TotalJobs: *jobs, Think: *think, Mix: mix, Seed: *seed,
			})
		default:
			arr = serve.NewPoisson(serve.PoissonConfig{
				MeanGap: exp.MeanGapFor(m, *rate),
				Horizon: int64(*duration * m.ClockGHz * 1e9),
				MaxJobs: *maxJobs,
				Mix:     mix,
				Seed:    *seed,
			})
		}
		adm, err := serve.ParseAdmission(*admission)
		if err != nil {
			fail(err)
		}
		rep, err := serve.Run(serve.Config{
			Machine:      m,
			Scheduler:    sc,
			Arrivals:     arr,
			Admission:    adm,
			Seed:         *seed,
			LinksUsed:    *links,
			SampleEvery:  *sample,
			Deadline:     *deadline,
			MaxRetries:   *retries,
			RetryBackoff: *backoff,
			Faults:       plan,
		})
		if err != nil {
			fail(err)
		}
		fmt.Println(rep)
		if *verbose {
			for _, j := range rep.Jobs {
				fmt.Printf("  job %-4d %-28s arr=%-12d adm=%-12d start=%-12d end=%-12d drop=%v",
					j.Tag, j.Spec, j.Arrival, j.Admitted, j.Start, j.End, j.Dropped)
				if j.Retries > 0 || j.TimedOut || j.Shed {
					fmt.Printf(" retries=%d timeout=%v shed=%v", j.Retries, j.TimedOut, j.Shed)
				}
				fmt.Println()
			}
		}
	}
}

// clusterFlags bundles every flag that interacts with -cluster so the
// exit-2 rules live in one testable place. Checks run in a fixed order,
// so a given bad invocation always reports the same error.
type clusterFlags struct {
	N                           int
	Routing, Tenants, Autoscale string
	Closed                      int
	Sweep, Fault                string
	Deadline                    int64
	Retries                     int
	Backoff, Sample             int64
}

// validate enforces the cluster-mode flag rules and parses the tenant
// and autoscaler specs. A nil error means the combination is runnable;
// any error is a usage failure the caller should report with exit 2.
func (f clusterFlags) validate() ([]cluster.TenantSpec, *cluster.ScalePolicy, error) {
	if f.N < 0 {
		return nil, nil, fmt.Errorf("-cluster must be >= 0 (got %d)", f.N)
	}
	if f.N == 0 {
		if name := firstSet(
			flagUse{"-routing", f.Routing != "rr"},
			flagUse{"-tenants", f.Tenants != ""},
			flagUse{"-autoscale", f.Autoscale != ""},
		); name != "" {
			return nil, nil, fmt.Errorf("%s needs -cluster >= 1 (a fleet to route over)", name)
		}
		return nil, nil, nil
	}
	if f.Closed > 0 {
		return nil, nil, fmt.Errorf("-cluster is open-loop only and conflicts with -closed (the cluster front door never feeds completions back)")
	}
	if f.Sweep != "" {
		return nil, nil, fmt.Errorf("-cluster conflicts with -sweep; use schedbench -experiment cluster for the grid")
	}
	if name := firstSet(
		flagUse{"-fault", f.Fault != ""},
		flagUse{"-deadline", f.Deadline != 0},
		flagUse{"-retries", f.Retries != 0},
		flagUse{"-backoff", f.Backoff != 0},
		flagUse{"-sample", f.Sample != 0},
	); name != "" {
		return nil, nil, fmt.Errorf("%s is not supported in -cluster mode", name)
	}
	if _, err := cluster.ParseRouting(f.Routing); err != nil {
		return nil, nil, err
	}
	tenantSpecs, err := cluster.ParseTenants(f.Tenants)
	if err != nil {
		return nil, nil, err
	}
	scalePolicy, err := cluster.ParseScale(f.Autoscale)
	if err != nil {
		return nil, nil, err
	}
	if scalePolicy != nil && scalePolicy.Min > f.N {
		return nil, nil, fmt.Errorf("-autoscale min %d exceeds -cluster %d", scalePolicy.Min, f.N)
	}
	return tenantSpecs, scalePolicy, nil
}

// validateSweep rejects the flags -sweep mode cannot take. With several
// set, the error names the first of -fault, -deadline, -retries and
// -backoff, the same one every run.
func validateSweep(sweep, fault string, deadline int64, retries int, backoff int64) error {
	if sweep == "" {
		return nil
	}
	if name := firstSet(
		flagUse{"-fault", fault != ""},
		flagUse{"-deadline", deadline != 0},
		flagUse{"-retries", retries != 0},
		flagUse{"-backoff", backoff != 0},
	); name != "" {
		return fmt.Errorf("%s is not supported in -sweep mode; run single-rate experiments instead", name)
	}
	return nil
}

// flagUse names a flag and whether the command line set it.
type flagUse struct {
	name string
	set  bool
}

// firstSet returns the name of the first set flag of fs, or "" when none
// is set.
func firstSet(fs ...flagUse) string {
	for _, f := range fs {
		if f.set {
			return f.name
		}
	}
	return ""
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		r, err := strconv.ParseFloat(f, 64)
		if err != nil || r <= 0 {
			return nil, fmt.Errorf("bad rate %q in sweep", f)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty sweep")
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "schedserve: %v\n", err)
	os.Exit(1)
}
