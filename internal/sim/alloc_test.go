package sim

import (
	"runtime"
	"testing"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// steadyAllocs runs a single long strand performing `chunks` Work calls and
// returns the total heap allocations of the run.
func steadyAllocs(t *testing.T, chunks int) uint64 {
	t.Helper()
	m := machine.Flat(1, 1<<16)
	sp := mem.NewSpace(m.Links, m.Links)
	root := job.FuncJob(func(ctx job.Ctx) {
		for i := 0; i < chunks; i++ {
			ctx.Work(1000)
		}
	})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestEngineSteadyStateAllocFree asserts the per-chunk engine step — the
// interpreter's chunk loop, scheduler poll — is allocation-free, and the
// strand's op capture grows its reused buffer only by doubling:
// quadrupling the simulated work (thousands more chunk boundaries) must
// not change the run's allocation count beyond noise.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	small := steadyAllocs(t, 2_000)
	large := steadyAllocs(t, 8_000)
	// ~1,500 extra chunk boundaries between the two runs; allow a little
	// slack for runtime-internal allocations (GC metadata, timers).
	if large > small+50 {
		t.Errorf("allocations scale with simulated work: 2000 chunks -> %d allocs, 8000 chunks -> %d allocs", small, large)
	}
}
