// Package schedsim is the public API of the space-bounded-scheduler
// experimental framework — a Go reproduction of "Experimental Analysis of
// Space-Bounded Schedulers" (Simhadri, Blelloch, Fineman, Gibbons, Kyrola;
// SPAA 2014).
//
// The framework separates three components, exactly as the paper's §3:
//
//   - Programs: nested-parallel computations built from Jobs with a
//     terminal Fork (see Job, Ctx, For). Space-bounded schedulers need
//     size annotations, supplied by implementing SBJob or wrapping with
//     Sized.
//   - Schedulers: WS (work stealing), PWS (priority work stealing), SB
//     and SB-D (space-bounded), plus the CilkPlus validation profile —
//     all behind the three call-backs add/get/done (see Scheduler).
//   - Machines: trees of caches in the PMH model (see Machine,
//     Xeon7560, Scaled, or JSON machine files).
//
// A Session runs a program (or one of the paper's seven built-in
// benchmarks) on a machine under a scheduler and reports the paper's
// metrics: the five-way per-core time breakdown (active / add / done /
// get / empty-queue) and exact cache misses at every level.
//
// Quickstart:
//
//	m := schedsim.ScaledXeon7560HT(64)
//	s := &schedsim.Session{Machine: m, Seed: 1}
//	for _, sch := range []string{"ws", "sb"} {
//	    res, err := s.RunKernel(sch, "rrm", schedsim.BenchOpts{N: 100000})
//	    if err != nil { log.Fatal(err) }
//	    fmt.Printf("%-4s  L3 misses %d  time %.3fs\n", sch, res.L3Misses(), res.WallSeconds())
//	}
//
// The experiment drivers regenerating every figure of the paper live in
// cmd/schedbench; single runs with full metric dumps in cmd/pmhsim.
package schedsim

import (
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Program model (§2, §3.1).
type (
	// Job is one task body: sequential code with a terminal Fork.
	Job = job.Job
	// SBJob is a Job annotated with task and strand footprints.
	SBJob = job.SBJob
	// Ctx is the per-strand execution context.
	Ctx = job.Ctx
	// FuncJob adapts a function to Job.
	FuncJob = job.FuncJob
	// Sized wraps a Job with explicit size annotations.
	Sized = job.Sized
	// RangeSize annotates a parallel-for's footprint over a range.
	RangeSize = job.RangeSize
	// Future is a handle for non-nested parallelism (Ctx.ForkFuture /
	// Ctx.ForkAwait), the extension the paper sketches in §3.1.
	Future = job.Future
)

// NewFuture returns an unresolved future handle.
func NewFuture() *Future { return job.NewFuture() }

// For builds a parallel loop from fork/join (grain-sized leaves).
func For(lo, hi, grain int, size RangeSize, body func(Ctx, int)) Job {
	return job.For(lo, hi, grain, size, body)
}

// Machine model (PMH, §2).
type (
	// Machine describes a tree-of-caches machine.
	Machine = machine.Desc
	// Level is one layer of the hierarchy.
	Level = machine.Level
)

// Xeon7560 returns the paper's 4-socket 32-core machine (Fig. 1(a)/Fig. 4).
func Xeon7560() *Machine { return machine.Xeon7560() }

// Xeon7560HT returns the 64-hyperthread configuration used in Figs. 5-10.
func Xeon7560HT() *Machine { return machine.Xeon7560HT() }

// ScaledXeon7560HT returns the HT machine with caches divided by factor —
// the laptop-scale configuration used throughout the tests and examples.
func ScaledXeon7560HT(factor int64) *Machine {
	return machine.Scaled(machine.Xeon7560HT(), factor)
}

// Scaled divides all cache sizes of a machine by factor.
func Scaled(d *Machine, factor int64) *Machine { return machine.Scaled(d, factor) }

// LoadMachine reads a machine description from a JSON file.
func LoadMachine(path string) (*Machine, error) { return machine.Load(path) }

// MachineByName resolves "xeon7560", "xeon7560ht", "4x<n>[ht]", "flat<n>"
// or a JSON file path, optionally scaling caches down by scale.
func MachineByName(name string, scale int64) (*Machine, error) {
	return core.MachineByName(name, scale)
}

// Memory.
type (
	// Space is the simulated address space programs allocate in.
	Space = mem.Space
	// F64 is a simulated float64 array view.
	F64 = mem.F64
	// I64 is a simulated int64 array view.
	I64 = mem.I64
	// Addr is a simulated address.
	Addr = mem.Addr
)

// NewSpace creates an address space for a machine, using linksUsed of its
// DRAM links (the bandwidth knob; 0 or m.Links for full bandwidth), paged
// at the machine's placement page size (Machine.PageSize) as a Session's
// runs are.
func NewSpace(m *Machine, linksUsed int) *Space {
	return core.SpaceFor(m, linksUsed, 0)
}

// Schedulers (§4).
type (
	// Scheduler is the add/get/done scheduler interface.
	Scheduler = sched.Scheduler
	// CostModel prices scheduler bookkeeping in cycles.
	CostModel = sched.CostModel
)

// Scheduler parameters of the paper (§5.3 defaults σ=0.5, µ=0.2).
const (
	DefaultSigma = sched.DefaultSigma
	DefaultMu    = sched.DefaultMu
)

// NewScheduler returns a scheduler by name: "ws", "pws", "cilk", "sb",
// "sbd", "pdf"; nil for unknown names.
func NewScheduler(name string) Scheduler { return sched.New(name) }

// NewSB returns a space-bounded scheduler with explicit σ and µ.
func NewSB(sigma, mu float64) Scheduler { return sched.NewSB(sigma, mu) }

// NewSBD returns the distributed-queue space-bounded variant.
func NewSBD(sigma, mu float64) Scheduler { return sched.NewSBD(sigma, mu) }

// SchedulerNames lists the built-in scheduler names.
func SchedulerNames() []string { return sched.Names() }

// Sessions and results.
type (
	// Session binds a machine and settings for runs.
	Session = core.Session
	// BenchOpts sizes a built-in benchmark.
	BenchOpts = core.BenchOpts
	// RunResult is a run's metrics (plus optional validated trace).
	RunResult = core.RunResult
	// Result is the simulator's raw measurement record.
	Result = sim.Result
	// Recorder captures a schedule for validation.
	Recorder = trace.Recorder
)

// Benchmarks lists the built-in benchmark names (the paper's seven).
func Benchmarks() []string { return core.Benchmarks() }

// Run executes root on machine m under the named scheduler with data in
// sp, without the Session conveniences.
func Run(m *Machine, sp *Space, schedName string, seed uint64, root Job) (*RunResult, error) {
	s := &Session{Machine: m, Seed: seed}
	return s.RunJob(schedName, sp, root)
}
