package exp

import (
	"fmt"
	"strconv"

	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ResilienceConfig parameterizes the scheduler-resilience sweep: a
// (scheduler × fault-scenario × intensity) grid over one kernel, where
// every cell runs the identical program under a seeded fault plan and is
// compared against its scheduler's unperturbed baseline. It extends the
// paper's static bandwidth-degradation experiment (Figs. 5–8's {100..25}%
// knob) to arbitrary deterministic perturbations.
type ResilienceConfig struct {
	// Machine is the PMH to perturb. Required.
	Machine *machine.Desc
	// Schedulers to sweep (names for sched.New). Required.
	Schedulers []string
	// Scenarios are fault.Scenario names; nil means all built-ins.
	Scenarios []string
	// Intensities are scenario intensities in (0,100]; nil means
	// {25, 50, 100}. (Intensity 0 is implicitly the baseline column.)
	Intensities []int
	// Kernel labels the workload; MakeK builds it. Required. It runs in
	// an address space paged at Machine.PageSize().
	Kernel string
	MakeK  KernelFactory
	// Seed drives the kernel, the scheduler and the fault-plan generators.
	Seed uint64
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

// ResilienceSweep runs the grid. For each scheduler it first runs the
// unperturbed baseline; the longest baseline wall across schedulers is
// the horizon on which fault plans are laid out, so every (scenario,
// intensity) pair yields ONE plan shared by all schedulers — fault timing
// is identical across the schedulers being compared. Everything is seeded,
// so the sweep is deterministic run to run.
func ResilienceSweep(cfg ResilienceConfig) ([]ResiliencePoint, error) {
	if cfg.Machine == nil || cfg.MakeK == nil {
		return nil, fmt.Errorf("exp: resilience sweep requires a Machine and a kernel factory")
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
	runOne := func(sc string, plan *fault.Plan) (*sim.Result, *strandLatencies, error) {
		sp := mem.NewSpacePaged(cfg.Machine.Links, cfg.Machine.Links, cfg.Machine.PageSize())
		kern := cfg.MakeK(sp, cfg.Machine, cfg.Seed)
		lat := &strandLatencies{}
		res, err := sim.Run(sim.Config{
			Machine:   cfg.Machine,
			Space:     sp,
			Scheduler: sched.New(sc),
			Seed:      cfg.Seed,
			Listener:  lat,
			Faults:    plan,
		}, kern.Root())
		if err != nil {
			return nil, nil, err
		}
		if err := kern.Verify(); err != nil {
			return nil, nil, fmt.Errorf("verify: %w", err)
		}
		return res, lat, nil
	}

	type baseline struct {
		wall   int64
		p99    int64
		misses int64
	}
	bases := make(map[string]baseline, len(cfg.Schedulers))
	horizon := int64(0)
	for _, sc := range cfg.Schedulers {
		res, lat, err := runOne(sc, nil)
		if err != nil {
			return nil, fmt.Errorf("exp: resilience baseline %s: %w", sc, err)
		}
		bases[sc] = baseline{wall: res.WallCycles, p99: lat.p99(), misses: res.L3Misses()}
		if res.WallCycles > horizon {
			horizon = res.WallCycles
		}
	}

	var out []ResiliencePoint
	for fi, scen := range scenarios {
		for ii, intensity := range intensities {
			planSeed := cfg.Seed + uint64(1000*fi+ii) + 1
			plan, err := fault.Scenario(scen, cfg.Machine, intensity, horizon, planSeed)
			if err != nil {
				return nil, fmt.Errorf("exp: resilience %s@%d: %w", scen, intensity, err)
			}
			for _, sc := range cfg.Schedulers {
				res, lat, err := runOne(sc, plan)
				if err != nil {
					return nil, fmt.Errorf("exp: resilience %s/%s@%d: %w", sc, scen, intensity, err)
				}
				b := bases[sc]
				pt := ResiliencePoint{
					Scheduler:           sc,
					Scenario:            scen,
					Intensity:           intensity,
					WallCycles:          res.WallCycles,
					BaseWallCycles:      b.wall,
					P99StrandCycles:     lat.p99(),
					BaseP99StrandCycles: b.p99,
					L3Misses:            res.L3Misses(),
					BaseL3Misses:        b.misses,
					Migrations:          res.Migrations,
					FaultEvents:         res.FaultEvents,
				}
				if b.wall > 0 {
					pt.Slowdown = float64(res.WallCycles) / float64(b.wall)
				}
				if b.misses > 0 {
					pt.MissInflation = float64(pt.L3Misses) / float64(b.misses)
				}
				out = append(out, pt)
			}
		}
	}
	return out, nil
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
	p := r.P
	cfg := ResilienceConfig{
		Machine:    p.MachineHT(),
		Schedulers: []string{"ws", "pws", "sb", "sbd"},
		Kernel:     "rrm",
		MakeK:      p.RRMFactory(),
		Seed:       p.Seed,
	}
	points, err := ResilienceSweep(cfg)
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
