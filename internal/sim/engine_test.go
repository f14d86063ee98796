package sim

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// runMap executes a parallel map over an n-element array on the given
// machine and scheduler and returns the result plus the array.
func runMap(t *testing.T, m *machine.Desc, s sched.Scheduler, n int, seed uint64) (*Result, mem.F64) {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	arr := sp.NewF64("xs", n)
	size := func(lo, hi int) int64 { return int64(hi-lo) * 8 }
	root := job.For(0, n, 64, size, func(ctx job.Ctx, i int) {
		arr.Write(ctx, i, float64(i)*2)
	})
	res, err := Run(Config{Machine: m, Space: sp, Scheduler: s, Seed: seed}, root)
	if err != nil {
		t.Fatal(err)
	}
	return res, arr
}

func allSchedulers() []string { return []string{"ws", "pws", "cilk", "sb", "sbd", "pdf"} }

func TestParallelForCorrectUnderAllSchedulers(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	for _, name := range allSchedulers() {
		res, arr := runMap(t, m, sched.New(name), 4096, 7)
		for i, v := range arr.Data {
			if v != float64(i)*2 {
				t.Fatalf("%s: element %d = %v, want %v", name, i, v, float64(i)*2)
			}
		}
		if res.Strands == 0 || res.Tasks == 0 {
			t.Errorf("%s: no work recorded", name)
		}
		if res.WallCycles <= 0 {
			t.Errorf("%s: non-positive wall time", name)
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	for _, name := range allSchedulers() {
		a, _ := runMap(t, m, sched.New(name), 2048, 42)
		b, _ := runMap(t, m, sched.New(name), 2048, 42)
		if a.WallCycles != b.WallCycles {
			t.Errorf("%s: wall %d vs %d for identical seeds", name, a.WallCycles, b.WallCycles)
		}
		if a.L3Misses() != b.L3Misses() {
			t.Errorf("%s: misses %d vs %d for identical seeds", name, a.L3Misses(), b.L3Misses())
		}
		for i := range a.Workers {
			if a.Workers[i] != b.Workers[i] {
				t.Errorf("%s: worker %d timers differ across identical runs", name, i)
			}
		}
	}
}

func TestSpeedupWithMoreCores(t *testing.T) {
	// The same (compute-heavy) program on 1 vs 8 cores must get
	// substantially faster: the scheduler actually parallelizes.
	n := 2048
	prog := func() (job.Job, *mem.Space, *machine.Desc, int) { return nil, nil, nil, 0 }
	_ = prog
	run := func(cores int) int64 {
		m := machine.Flat(cores, 1<<16)
		sp := mem.NewSpace(m.Links, m.Links)
		arr := sp.NewF64("xs", n)
		root := job.For(0, n, 32, func(lo, hi int) int64 { return int64(hi-lo) * 8 }, func(ctx job.Ctx, i int) {
			ctx.Work(200)
			arr.Write(ctx, i, 1)
		})
		res, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root)
		if err != nil {
			t.Fatal(err)
		}
		return res.WallCycles
	}
	t1, t8 := run(1), run(8)
	if sp := float64(t1) / float64(t8); sp < 4 {
		t.Errorf("8-core speedup = %.2f, want >= 4 (t1=%d, t8=%d)", sp, t1, t8)
	}
}

func TestForkJoinContinuationRuns(t *testing.T) {
	// A task with two strands: fork two children, then a continuation that
	// observes both children's effects.
	m := machine.Flat(2, 1<<14)
	sp := mem.NewSpace(1, 1)
	var log []string
	child := func(name string) job.Job {
		return job.FuncJob(func(ctx job.Ctx) {
			ctx.Work(10)
			log = append(log, name)
		})
	}
	root := job.FuncJob(func(ctx job.Ctx) {
		ctx.Fork(job.FuncJob(func(job.Ctx) { log = append(log, "cont") }),
			child("a"), child("b"))
	})
	if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 3}, root); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[2] != "cont" {
		t.Fatalf("log = %v, want children then cont", log)
	}
	seen := strings.Join(log[:2], "")
	if seen != "ab" && seen != "ba" {
		t.Fatalf("children = %v", log[:2])
	}
}

func TestNestedForkJoin(t *testing.T) {
	// Fibonacci-style nested fork/join with result combination through
	// continuations exercises deep task trees and join cascades.
	m := machine.TwoSocket(2, 1<<16, 1<<12)
	sp := mem.NewSpace(m.Links, m.Links)
	results := make(map[int]int) // filled single-threaded via sim determinism
	var fib func(n int, out *int) job.Job
	fib = func(n int, out *int) job.Job {
		return job.FuncJob(func(ctx job.Ctx) {
			ctx.Work(5)
			if n < 2 {
				*out = n
				return
			}
			a, b := new(int), new(int)
			ctx.Fork(job.FuncJob(func(job.Ctx) { *out = *a + *b }),
				fib(n-1, a), fib(n-2, b))
		})
	}
	var got int
	if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 5}, fib(12, &got)); err != nil {
		t.Fatal(err)
	}
	if got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
	_ = results
}

func TestTimerBucketsAccounted(t *testing.T) {
	m := machine.Flat(4, 1<<14)
	sp := mem.NewSpace(1, 1)
	arr := sp.NewF64("xs", 1024)
	root := job.For(0, 1024, 64, func(lo, hi int) int64 { return int64(hi-lo) * 8 }, func(ctx job.Ctx, i int) {
		arr.Write(ctx, i, 1)
	})
	res, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveAvg() <= 0 {
		t.Error("no active time recorded")
	}
	if res.BucketAvg(BucketAdd) <= 0 || res.BucketAvg(BucketGet) <= 0 || res.BucketAvg(BucketDone) <= 0 {
		t.Error("scheduler call-back overheads not recorded")
	}
	// Every worker's buckets must sum to (at most) the wall time, and the
	// padded empty bucket makes them sum to exactly the wall time.
	for i, w := range res.Workers {
		var sum int64
		for _, b := range w.Buckets {
			sum += b
		}
		if sum != res.WallCycles {
			t.Errorf("worker %d bucket sum %d != wall %d", i, sum, res.WallCycles)
		}
	}
}

func TestCacheMissesRecorded(t *testing.T) {
	m := machine.Flat(2, 1<<12) // 4KB cache, array is 32KB
	sp := mem.NewSpace(1, 1)
	arr := sp.NewF64("xs", 4096)
	root := job.For(0, 4096, 256, func(lo, hi int) int64 { return int64(hi-lo) * 8 }, func(ctx job.Ctx, i int) {
		arr.Write(ctx, i, 1)
	})
	res, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root)
	if err != nil {
		t.Fatal(err)
	}
	// A streaming write of 32KB with 64B lines must miss ~512 times.
	if got := res.L3Misses(); got < 512 || got > 560 {
		t.Errorf("misses = %d, want ~512", got)
	}
	if res.DRAMAccesses != res.L3Misses() {
		t.Errorf("DRAM accesses %d != outermost misses %d", res.DRAMAccesses, res.L3Misses())
	}
}

func TestStrandPanicPropagates(t *testing.T) {
	m := machine.Flat(2, 1<<12)
	sp := mem.NewSpace(1, 1)
	root := job.FuncJob(func(ctx job.Ctx) { panic("kernel bug") })
	if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root); err == nil {
		t.Fatal("strand panic did not surface as an error")
	} else if !strings.Contains(err.Error(), "kernel bug") {
		t.Errorf("error %q does not mention the panic", err)
	}
}

func TestDoubleForkRejected(t *testing.T) {
	m := machine.Flat(1, 1<<12)
	sp := mem.NewSpace(1, 1)
	child := job.FuncJob(func(job.Ctx) {})
	root := job.FuncJob(func(ctx job.Ctx) {
		ctx.Fork(nil, child)
		ctx.Fork(nil, child)
	})
	if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root); err == nil {
		t.Fatal("double fork not rejected")
	}
}

func TestEmptyForkRejected(t *testing.T) {
	m := machine.Flat(1, 1<<12)
	sp := mem.NewSpace(1, 1)
	root := job.FuncJob(func(ctx job.Ctx) { ctx.Fork(nil) })
	if _, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root); err == nil {
		t.Fatal("empty fork not rejected")
	}
}

func TestMaxStrandsBudget(t *testing.T) {
	m := machine.Flat(1, 1<<12)
	sp := mem.NewSpace(1, 1)
	var forever func() job.Job
	forever = func() job.Job {
		return job.FuncJob(func(ctx job.Ctx) { ctx.Fork(nil, forever()) })
	}
	_, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1, MaxStrands: 1000}, forever())
	if err == nil {
		t.Fatal("runaway program not aborted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, job.FuncJob(func(job.Ctx) {})); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestResultString(t *testing.T) {
	m := machine.Flat(2, 1<<12)
	res, _ := runMap(t, m, sched.NewWS(), 512, 1)
	s := res.String()
	for _, sub := range []string{"WS", "tasks=", "active", "dram"} {
		if !strings.Contains(s, sub) {
			t.Errorf("Result.String() missing %q:\n%s", sub, s)
		}
	}
}

func TestWorkOnlyProgram(t *testing.T) {
	// Pure compute (no memory accesses) still terminates and charges time.
	m := machine.Flat(2, 1<<12)
	sp := mem.NewSpace(1, 1)
	root := job.FuncJob(func(ctx job.Ctx) { ctx.Work(100000) })
	res, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveAvg()*float64(len(res.Workers)) < 100000 {
		t.Errorf("active time lost: avg %.0f on %d cores", res.ActiveAvg(), len(res.Workers))
	}
}

func TestListenerSeesLifecycle(t *testing.T) {
	m := machine.Flat(2, 1<<12)
	sp := mem.NewSpace(1, 1)
	l := &countListener{}
	root := job.FuncJob(func(ctx job.Ctx) {
		ctx.Fork(job.FuncJob(func(job.Ctx) {}), job.FuncJob(func(job.Ctx) {}))
	})
	res, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1, Listener: l}, root)
	if err != nil {
		t.Fatal(err)
	}
	if l.spawned != int(res.Strands) {
		t.Errorf("listener saw %d spawns, result says %d strands", l.spawned, res.Strands)
	}
	if l.started != l.spawned || l.ended != l.spawned {
		t.Errorf("lifecycle mismatch: spawned=%d started=%d ended=%d", l.spawned, l.started, l.ended)
	}
	if l.tasksEnded != int(res.Tasks) {
		t.Errorf("listener saw %d task ends, result says %d tasks", l.tasksEnded, res.Tasks)
	}
}

type countListener struct {
	spawned, started, ended, tasksEnded int
}

func (c *countListener) StrandSpawned(*job.Strand)  { c.spawned++ }
func (c *countListener) StrandStarted(*job.Strand)  { c.started++ }
func (c *countListener) StrandEnded(*job.Strand)    { c.ended++ }
func (c *countListener) TaskEnded(*job.Task, int64) { c.tasksEnded++ }

func TestPartialCostModelClamped(t *testing.T) {
	// A cost model with zero IdleBackoff must not livelock the engine.
	m := machine.Flat(4, 1<<12)
	sp := mem.NewSpace(1, 1)
	cost := sched.DefaultCosts()
	cost.IdleBackoff = 0
	cost.ChunkCycles = 0
	root := job.For(0, 256, 16, func(lo, hi int) int64 { return int64(hi-lo) * 8 },
		func(ctx job.Ctx, i int) { ctx.Work(10) })
	res, err := Run(Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Cost: cost, Seed: 1}, root)
	if err != nil {
		t.Fatal(err)
	}
	if res.WallCycles <= 0 {
		t.Error("no progress")
	}
}

func TestNonInclusiveMachineEndToEnd(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	m.NonInclusive = true
	for _, sn := range []string{"ws", "sb"} {
		res, arr := runMap(t, m, sched.New(sn), 4096, 13)
		for i, v := range arr.Data {
			if v != float64(i)*2 {
				t.Fatalf("%s: wrong output at %d", sn, i)
			}
		}
		if res.L3Misses() <= 0 {
			t.Errorf("%s: no misses on exclusive hierarchy", sn)
		}
	}
}

// TestRunStartsNoGoroutines pins the engine's one strand path: every
// worker advances on the calling goroutine, so while a live program runs,
// under Run and RunStream alike, no goroutine created by this package is
// alive at any Sampler reading. (The readings inspect goroutine creators
// rather than runtime.NumGoroutine, which also counts the runtime's
// finalizer goroutine while it runs a finalizer: under the race detector a
// run read 3 goroutines before and 2 during.)
func TestRunStartsNoGoroutines(t *testing.T) {
	m := machine.TwoSocket(4, 1<<18, 1<<13)
	buf := make([]byte, 1<<16)
	created := func() int {
		for {
			n := runtime.Stack(buf, true)
			if n < len(buf) {
				return bytes.Count(buf[:n], []byte("\ncreated by repro/internal/sim."))
			}
			buf = make([]byte, 2*len(buf))
		}
	}
	for _, tc := range []struct {
		name string
		run  func(Config, job.Job) (*Result, error)
	}{
		{"Run", Run},
		{"RunStream", func(cfg Config, root job.Job) (*Result, error) {
			return RunStream(cfg, &listSource{at: []int64{0}, jobs: []job.Job{root}})
		}},
	} {
		sp := mem.NewSpace(m.Links, m.Links)
		arr := sp.NewF64("xs", 1<<12)
		var readings, alive int
		cfg := Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1,
			SampleEvery: 1000, Sampler: func(int64) {
				readings++
				alive = max(alive, created())
			}}
		if _, err := tc.run(cfg, mapJob(arr, 2)); err != nil {
			t.Fatal(err)
		}
		if readings == 0 {
			t.Fatalf("%s: the sampler never fired", tc.name)
		}
		if alive > 0 {
			t.Errorf("%s: up to %d goroutines created by package sim were alive during the run", tc.name, alive)
		}
	}
}
