package sim

import (
	"testing"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// parforAllocs returns the average heap allocations of one engine run of a
// parallel for over `leaves` unit ranges. With fork-pair pooling the split
// path recycles its fork contexts as subtrees complete, so allocations are
// bounded by the peak number of live splits (O(depth) under LIFO
// work-stealing), not by the total split count.
func parforAllocs(t *testing.T, leaves int, annotated bool) float64 {
	t.Helper()
	m := machine.Flat(1, 1<<16)
	var size job.RangeSize
	if annotated {
		size = func(lo, hi int) int64 { return int64(hi-lo) * 8 }
	}
	return testing.AllocsPerRun(3, func() {
		sp := mem.NewSpace(m.Links, m.Links)
		root := job.For(0, leaves, 1, size, func(ctx job.Ctx, i int) { ctx.Work(10) })
		if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParallelForAllocFloor ratchets the absolute per-run allocation count
// of the bench-harness engine_parallel_for configuration (TwoSocket(4),
// 64K elements, grain 256, WS). History: 1094 before fork-pair pooling,
// 383 after, then 83 with slab-refilled pools, merged cache backing arrays
// and preallocated dequeues; 66 since strands run on the engine goroutine,
// with no per-core goroutine or channel and one slab for the workers' op
// buffers. If this fails AFTER a deliberate engine change, re-measure with
// `go test -bench BenchmarkHarnessEngine -benchmem ./internal/exp` and
// justify the new floor; it must never drift upward silently.
func TestParallelForAllocFloor(t *testing.T) {
	m := machine.TwoSocket(4, 1<<18, 1<<13)
	allocs := testing.AllocsPerRun(5, func() {
		sp := mem.NewSpace(m.Links, m.Links)
		arr := sp.NewF64("xs", 1<<16)
		root := job.For(0, arr.Len(), 256,
			func(lo, hi int) int64 { return int64(hi-lo) * 8 },
			func(ctx job.Ctx, i int) { arr.Write(ctx, i, 1) })
		if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root); err != nil {
			t.Fatal(err)
		}
	})
	const floor = 66
	if allocs > floor {
		t.Errorf("engine_parallel_for run costs %.0f allocs, ratchet is %d", allocs, floor)
	}
}

// TestParallelForAllocFree pins the fork-pair pool: quadrupling the leaf
// count multiplies the number of splits by ~4 (1,999 -> 7,999 splits), and
// before pooling each split cost three heap allocations. Pooled splits must
// not scale with split count — only with peak tree depth — so the large run
// may exceed the small one by at most a small constant.
func TestParallelForAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name      string
		annotated bool
	}{
		{"plain", false},
		{"annotated", true},
	} {
		small := parforAllocs(t, 2_000, tc.annotated)
		large := parforAllocs(t, 8_000, tc.annotated)
		// ~6,000 extra splits between the runs (≈18,000 allocations before
		// pooling); allow slack for two extra levels of tree depth plus
		// runtime-internal noise.
		if large > small+60 {
			t.Errorf("%s: parallel-for allocations scale with splits: 2000 leaves -> %.0f allocs, 8000 leaves -> %.0f allocs", tc.name, small, large)
		}
	}
}
