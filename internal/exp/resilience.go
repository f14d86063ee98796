package exp

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/dagtrace"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ResilienceConfig parameterizes the scheduler-resilience sweep: a
// (scheduler × fault-scenario × intensity) grid over one kernel, where
// every cell replays the identical program under a seeded fault plan and
// is compared against its scheduler's unperturbed baseline. It extends
// the paper's static bandwidth-degradation experiment (Figs. 5–8's
// {100..25}% knob) to arbitrary deterministic perturbations. The kernel
// runs at the runner's profile scale on its machine (MachineHT), at its
// seed, like every other Runner experiment.
type ResilienceConfig struct {
	// Kernel names the workload, one of the profile's kernels (see
	// FullKernelFactory). Required.
	Kernel string
	// Schedulers to sweep (names for sched.New). Required.
	Schedulers []string
	// Scenarios are fault.Scenario names; nil means all built-ins.
	Scenarios []string
	// Intensities are scenario intensities in (0,100]; nil means
	// {25, 50, 100}. (Intensity 0 is implicitly the baseline column.)
	Intensities []int
}

// ResiliencePoint is one cell of the resilience grid, with its
// degradation metrics relative to the same scheduler's unperturbed run.
type ResiliencePoint struct {
	Scheduler string
	Scenario  string
	Intensity int

	WallCycles     int64
	BaseWallCycles int64
	Slowdown       float64 // Wall / BaseWall

	P99StrandCycles     int64 // p99 of strand end-to-end (End - Spawn) latency
	BaseP99StrandCycles int64

	L3Misses      int64
	BaseL3Misses  int64
	MissInflation float64 // L3Misses / BaseL3Misses

	Migrations  int64 // strands re-homed by CoreDown callbacks
	FaultEvents int
}

// strandLatencies records every strand's end-to-end latency. It retains
// no job pointers, so engine pooling stays enabled.
type strandLatencies struct {
	durs []float64
}

func (l *strandLatencies) StrandSpawned(*job.Strand) {}
func (l *strandLatencies) StrandStarted(*job.Strand) {}
func (l *strandLatencies) StrandEnded(s *job.Strand) {
	l.durs = append(l.durs, float64(s.End-s.Spawn))
}
func (l *strandLatencies) TaskEnded(*job.Task, int64) {}
func (l *strandLatencies) PoolSafeListener()          {}

func (l *strandLatencies) p99() int64 {
	return int64(stats.Percentile(l.durs, 99))
}

// ResilienceSweep runs the grid off one recording of the kernel: like
// RunGrid it first evicts every other recording from memory, then
// resolves the kernel's recording through r.Traces under the key its
// Fig. 5 or Fig. 8 cells use (recording it only when no cell has), and
// replays it on r.Workers host goroutines in two phases. First each
// scheduler's unperturbed baseline runs; the longest baseline wall across
// schedulers is the horizon on which fault plans are laid out, so every
// (scenario, intensity) pair yields ONE plan shared by all schedulers —
// fault timing is identical across the schedulers being compared. Then
// every (scenario, intensity, scheduler) point runs under its plan.
// Everything is seeded and every point lands at a fixed index, so the
// sweep is deterministic run to run.
func (r *Runner) ResilienceSweep(cfg ResilienceConfig) ([]ResiliencePoint, error) {
	mk, err := r.P.FullKernelFactory(cfg.Kernel)
	if err != nil {
		return nil, err
	}
	if len(cfg.Schedulers) == 0 {
		return nil, fmt.Errorf("exp: resilience sweep requires schedulers")
	}
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = fault.ScenarioNames()
	}
	intensities := cfg.Intensities
	if len(intensities) == 0 {
		intensities = []int{25, 50, 100}
	}
	m, seed := r.P.MachineHT(), r.P.Seed
	c := Cell{Label: cfg.Kernel, Machine: m, MakeK: mk}
	key := r.traceKey(c, seed)
	r.Traces.Retain([]string{key})
	rec, err := r.record(r.Traces, key, c, seed)
	if err != nil {
		return nil, fmt.Errorf("exp: resilience %s: %w", cfg.Kernel, err)
	}
	type outcome struct {
		res *sim.Result
		p99 int64
		err error
	}
	// replayAll replays the recording n times on r.dispatch's workers, the
	// i-th under the scheduler and fault plan (nil: unperturbed) point(i)
	// names, and returns the outcomes in input order.
	replayAll := func(n int, point func(i int) (string, *fault.Plan)) []outcome {
		out := make([]outcome, n)
		items := make([]int, n)
		for i := range items {
			items[i] = i
		}
		r.dispatch(context.Background(), items, func(int) string { return key },
			func(i int) string {
				sc, plan := point(i)
				out[i].res, out[i].p99, out[i].err = r.replayFaulted(rec.Recording, sc, plan)
				return ""
			},
			func(int) {})
		return out
	}

	bases := replayAll(len(cfg.Schedulers), func(i int) (string, *fault.Plan) { return cfg.Schedulers[i], nil })
	horizon := int64(0)
	for i, b := range bases {
		if b.err != nil {
			return nil, fmt.Errorf("exp: resilience baseline %s: %w", cfg.Schedulers[i], b.err)
		}
		horizon = max(horizon, b.res.WallCycles)
	}

	var out []ResiliencePoint
	var plans []*fault.Plan
	for fi, scen := range scenarios {
		for ii, intensity := range intensities {
			planSeed := seed + uint64(1000*fi+ii) + 1
			plan, err := fault.Scenario(scen, m, intensity, horizon, planSeed)
			if err != nil {
				return nil, fmt.Errorf("exp: resilience %s@%d: %w", scen, intensity, err)
			}
			for _, sc := range cfg.Schedulers {
				out = append(out, ResiliencePoint{Scheduler: sc, Scenario: scen, Intensity: intensity})
				plans = append(plans, plan)
			}
		}
	}
	runs := replayAll(len(out), func(i int) (string, *fault.Plan) { return out[i].Scheduler, plans[i] })
	for i, run := range runs {
		pt := &out[i]
		if run.err != nil {
			return nil, fmt.Errorf("exp: resilience %s/%s@%d: %w", pt.Scheduler, pt.Scenario, pt.Intensity, run.err)
		}
		b := bases[i%len(cfg.Schedulers)]
		pt.WallCycles, pt.BaseWallCycles = run.res.WallCycles, b.res.WallCycles
		pt.P99StrandCycles, pt.BaseP99StrandCycles = run.p99, b.p99
		pt.L3Misses, pt.BaseL3Misses = run.res.L3Misses(), b.res.L3Misses()
		pt.Migrations, pt.FaultEvents = run.res.Migrations, run.res.FaultEvents
		if pt.BaseWallCycles > 0 {
			pt.Slowdown = float64(pt.WallCycles) / float64(pt.BaseWallCycles)
		}
		if pt.BaseL3Misses > 0 {
			pt.MissInflation = float64(pt.L3Misses) / float64(pt.BaseL3Misses)
		}
	}
	return out, nil
}

// replayFaulted replays rec once on the profile's machine under scheduler
// sc and fault plan (nil: unperturbed), and returns the result with the
// p99 of its strand latencies. It replays through a view of its own: a
// file's view holds one replay's window and script leases.
func (r *Runner) replayFaulted(rec dagtrace.Recording, sc string, plan *fault.Plan) (*sim.Result, int64, error) {
	st, err := rec.Open(0, nil)
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	m := r.P.MachineHT()
	lat := &strandLatencies{}
	res, err := sim.Run(sim.Config{
		Machine:   m,
		Space:     mem.NewSpacePaged(m.Links, m.Links, r.P.PageSize()),
		Scheduler: sched.New(sc),
		Seed:      r.P.Seed,
		Listener:  lat,
		Faults:    plan,
	}, st.Root())
	if err == nil {
		err = st.CheckResult(res)
	}
	if err != nil {
		return nil, 0, err
	}
	return res, lat.p99(), nil
}

// WriteResilienceCSV exports the grid for external plotting.
func WriteResilienceCSV(path string, points []ResiliencePoint) error {
	records := [][]string{{
		"scheduler", "scenario", "intensity",
		"wall_cycles", "base_wall_cycles", "slowdown",
		"p99_strand_cycles", "base_p99_strand_cycles",
		"l3_misses", "base_l3_misses", "miss_inflation",
		"migrations", "fault_events",
	}}
	for _, p := range points {
		records = append(records, []string{
			p.Scheduler, p.Scenario, strconv.Itoa(p.Intensity),
			strconv.FormatInt(p.WallCycles, 10),
			strconv.FormatInt(p.BaseWallCycles, 10),
			fmtF(p.Slowdown),
			strconv.FormatInt(p.P99StrandCycles, 10),
			strconv.FormatInt(p.BaseP99StrandCycles, 10),
			strconv.FormatInt(p.L3Misses, 10),
			strconv.FormatInt(p.BaseL3Misses, 10),
			fmtF(p.MissInflation),
			strconv.FormatInt(p.Migrations, 10),
			strconv.Itoa(p.FaultEvents),
		})
	}
	return writeCSV(path, records)
}

// Resilience runs the resilience sweep on the runner's profile — RRM, the
// paper's most bandwidth-bound kernel and therefore the one whose
// degradation separates the schedulers most — printing a table of
// slowdowns and degradation metrics per (scheduler, scenario, intensity).
func (r *Runner) Resilience() ([]ResiliencePoint, error) {
	cfg := ResilienceConfig{Kernel: "RRM", Schedulers: []string{"ws", "pws", "sb", "sbd"}}
	points, err := r.ResilienceSweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.Out, "\nResilience: %s under seeded fault scenarios (slowdown vs unperturbed)\n", cfg.Kernel)
	fmt.Fprintf(r.Out, "%-10s %-12s %9s %10s %12s %10s %11s %6s\n",
		"scheduler", "scenario", "intensity", "slowdown", "p99(Mcyc)", "miss x", "migrations", "events")
	for _, pt := range points {
		fmt.Fprintf(r.Out, "%-10s %-12s %9d %10.3f %12.3f %10.3f %11d %6d\n",
			pt.Scheduler, pt.Scenario, pt.Intensity, pt.Slowdown,
			float64(pt.P99StrandCycles)/1e6, pt.MissInflation, pt.Migrations, pt.FaultEvents)
	}
	return points, nil
}
