// Package core composes the framework's pieces — machine model, simulated
// memory, cache hierarchy, schedulers, runtime engine, benchmarks and
// schedule validation — behind one session API. It is the layer the
// command-line tools, the examples and the public schedsim facade build
// on: pick a machine, pick a scheduler, run a benchmark, get the paper's
// metrics (time breakdown and cache misses at every level).
package core

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/job"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Session fixes the machine-side configuration for one or more runs.
type Session struct {
	// Machine is the PMH to simulate. Required.
	Machine *machine.Desc
	// LinksUsed restricts DRAM links (bandwidth); 0 means all links.
	LinksUsed int
	// Seed drives scheduler randomness and input generation.
	Seed uint64
	// Cost overrides the default cost model when non-zero.
	Cost sched.CostModel
	// Trace records the schedule and validates it after the run.
	Trace bool
	// PageSize sets the DRAM-link placement granularity; 0 picks the
	// machine's own (machine.Desc.PageSize: 2MB hugepages on the full-size
	// Xeon, smaller on scaled machines).
	PageSize int64
}

// RunResult bundles the simulator result with the optional trace.
type RunResult struct {
	*sim.Result
	Kernel kernels.Kernel
	Trace  *trace.Recorder
}

// RunJob executes an arbitrary job on the session's machine. The space sp
// must be the one the job's data was allocated in.
func (s *Session) RunJob(schedName string, sp *mem.Space, root job.Job) (*RunResult, error) {
	sc := sched.New(schedName)
	if sc == nil {
		return nil, fmt.Errorf("core: unknown scheduler %q (have %s)", schedName, strings.Join(sched.Names(), ", "))
	}
	var rec *trace.Recorder
	var listener sim.Listener
	if s.Trace {
		rec = trace.New()
		listener = rec
	}
	res, err := sim.Run(sim.Config{
		Machine:   s.Machine,
		Space:     sp,
		Scheduler: sc,
		Cost:      s.Cost,
		Seed:      s.Seed,
		Listener:  listener,
	}, root)
	if err != nil {
		return nil, err
	}
	out := &RunResult{Result: res, Trace: rec}
	if rec != nil {
		if err := rec.ValidateSchedule(s.Machine); err != nil {
			return nil, fmt.Errorf("core: invalid schedule: %w", err)
		}
		if sb, ok := sc.(*sched.SB); ok {
			if err := rec.ValidateSpaceBounded(s.Machine, sb.Sigma); err != nil {
				return nil, fmt.Errorf("core: space-bounded properties violated: %w", err)
			}
		}
	}
	return out, nil
}

// space builds the session's address space.
func (s *Session) space() *mem.Space {
	return SpaceFor(s.Machine, s.LinksUsed, s.PageSize)
}

// SpaceFor builds an address space for machine m using linksUsed DRAM
// links (0 = all) at the given placement page size (0 = m.PageSize()).
func SpaceFor(m *machine.Desc, linksUsed int, pageSize int64) *mem.Space {
	if linksUsed <= 0 {
		linksUsed = m.Links
	}
	if pageSize == 0 {
		pageSize = m.PageSize()
	}
	return mem.NewSpacePaged(m.Links, linksUsed, pageSize)
}

// BenchOpts sizes a named benchmark; zero fields take benchmark defaults.
type BenchOpts struct {
	// N is the input size (elements; matrix dimension for matmul).
	N int
	// Cutoff is the serial/base-case threshold where applicable.
	Cutoff int
	// Seed drives input generation; 0 uses the session seed.
	Seed uint64
}

// Benchmarks lists the names accepted by NewKernel, in the paper's order.
func Benchmarks() []string {
	return []string{"rrm", "rrg", "quicksort", "samplesort", "awaresamplesort", "quadtree", "matmul", "wset"}
}

// bench is one named benchmark: its input size when BenchOpts.N is 0, an
// optional check of a size that is not just non-negative, and its
// constructor, which gets the effective size and seed in o.
type bench struct {
	defaultN int
	check    func(n int) error
	build    func(sp *mem.Space, m *machine.Desc, o BenchOpts) kernels.Kernel
}

// benches holds every benchmark NewKernel builds, keyed by canonical name.
var benches = map[string]bench{
	"rrm": {defaultN: 160_000, build: func(sp *mem.Space, _ *machine.Desc, o BenchOpts) kernels.Kernel {
		return kernels.NewRRM(sp, kernels.RRMConfig{N: o.N, Base: o.Cutoff, Seed: o.Seed})
	}},
	"rrg": {defaultN: 160_000, build: func(sp *mem.Space, _ *machine.Desc, o BenchOpts) kernels.Kernel {
		return kernels.NewRRG(sp, kernels.RRGConfig{N: o.N, Base: o.Cutoff, Seed: o.Seed})
	}},
	"quicksort": {defaultN: 600_000, build: func(sp *mem.Space, _ *machine.Desc, o BenchOpts) kernels.Kernel {
		return kernels.NewQuicksort(sp, kernels.QuicksortConfig{N: o.N, SerialCutoff: o.Cutoff, Seed: o.Seed})
	}},
	"samplesort": {defaultN: 600_000, build: func(sp *mem.Space, _ *machine.Desc, o BenchOpts) kernels.Kernel {
		return kernels.NewSamplesort(sp, kernels.SamplesortConfig{N: o.N, Cutoff: o.Cutoff, Seed: o.Seed})
	}},
	"awaresamplesort": {defaultN: 600_000, build: func(sp *mem.Space, m *machine.Desc, o BenchOpts) kernels.Kernel {
		return kernels.NewAwareSamplesort(sp, kernels.AwareSamplesortConfig{
			N: o.N, L3Bytes: m.Levels[1].Size, SerialCutoff: o.Cutoff, Seed: o.Seed,
		})
	}},
	"quadtree": {defaultN: 400_000, build: func(sp *mem.Space, _ *machine.Desc, o BenchOpts) kernels.Kernel {
		return kernels.NewQuadtree(sp, kernels.QuadtreeConfig{N: o.N, Cutoff: o.Cutoff, Seed: o.Seed})
	}},
	"matmul": {
		defaultN: 256,
		check:    func(n int) error { return kernels.MatMulConfig{N: n}.Check() },
		build: func(sp *mem.Space, _ *machine.Desc, o BenchOpts) kernels.Kernel {
			return kernels.NewMatMul(sp, kernels.MatMulConfig{N: o.N, Seed: o.Seed})
		},
	},
	"wset": {defaultN: 100_000, build: func(sp *mem.Space, _ *machine.Desc, o BenchOpts) kernels.Kernel {
		return kernels.NewWSet(sp, kernels.WSetConfig{N: o.N, Grain: o.Cutoff, Seed: o.Seed})
	}},
}

// aliases maps the short benchmark names NewKernel also accepts.
var aliases = map[string]string{"qsort": "quicksort", "ssort": "samplesort", "awsort": "awaresamplesort", "quad-tree": "quadtree"}

// CheckBench reports whether NewKernel accepts the named benchmark at input
// size n (0 = the benchmark's default) without building it: the name must
// be known (case-insensitive, aliases included), n must be non-negative,
// and a MatMul dimension must be a power of two its base case divides.
func CheckBench(name string, n int) error {
	_, _, err := resolve(name, n)
	return err
}

// resolve validates a benchmark name and size and returns the benchmark
// and the effective size.
func resolve(name string, n int) (bench, int, error) {
	b := strings.ToLower(name)
	if a, ok := aliases[b]; ok {
		b = a
	}
	bm, ok := benches[b]
	if !ok {
		return bench{}, 0, fmt.Errorf("core: unknown benchmark %q (have %s)", name, strings.Join(Benchmarks(), ", "))
	}
	if n < 0 {
		return bench{}, 0, fmt.Errorf("core: benchmark %s size %d is negative", b, n)
	}
	if n == 0 {
		n = bm.defaultN
	}
	if bm.check != nil {
		if err := bm.check(n); err != nil {
			return bench{}, 0, fmt.Errorf("core: %w", err)
		}
	}
	return bm, n, nil
}

// NewKernel constructs a named benchmark in sp, sized by o, for machine m
// (the aware samplesort reads its L3 size from m). A name or size that
// CheckBench rejects is an error.
func NewKernel(name string, sp *mem.Space, m *machine.Desc, o BenchOpts) (kernels.Kernel, error) {
	bm, n, err := resolve(name, o.N)
	if err != nil {
		return nil, err
	}
	o.N = n
	if o.Seed == 0 {
		o.Seed = 1
	}
	return bm.build(sp, m, o), nil
}

// RunKernel builds the named benchmark, runs it under the named scheduler,
// verifies its output, and returns the metrics.
func (s *Session) RunKernel(schedName, benchName string, o BenchOpts) (*RunResult, error) {
	if s.Machine == nil {
		return nil, fmt.Errorf("core: session has no machine")
	}
	if err := s.Machine.Validate(); err != nil {
		return nil, err
	}
	if o.Seed == 0 {
		o.Seed = s.Seed + 1
	}
	sp := s.space()
	k, err := NewKernel(benchName, sp, s.Machine, o)
	if err != nil {
		return nil, err
	}
	res, err := s.RunJob(schedName, sp, k.Root())
	if err != nil {
		return nil, err
	}
	if err := k.Verify(); err != nil {
		return nil, fmt.Errorf("core: %s under %s produced wrong output: %w", k.Name(), schedName, err)
	}
	res.Kernel = k
	return res, nil
}

// MachineByName resolves a machine preset: "xeon7560", "xeon7560ht",
// "4x<n>" (1 <= n <= 8 cores per socket), "4x<n>ht", or "flat<n>" (n >= 1
// cores). scale divides all cache sizes (1 = full size).
func MachineByName(name string, scale int64) (*machine.Desc, error) {
	var d *machine.Desc
	switch n := strings.ToLower(name); {
	case n == "xeon7560" || n == "xeon":
		d = machine.Xeon7560()
	case n == "xeon7560ht" || n == "xeonht" || n == "ht":
		d = machine.Xeon7560HT()
	case strings.HasPrefix(n, "4x"):
		rest := strings.TrimPrefix(n, "4x")
		ht := strings.HasSuffix(rest, "ht")
		rest = strings.TrimSuffix(rest, "ht")
		cps, err := strconv.Atoi(rest)
		if err != nil || cps < 1 || cps > 8 {
			return nil, fmt.Errorf("core: bad topology %q (want 4x<n>[ht], 1 <= n <= 8 cores per socket)", name)
		}
		d = machine.XeonVariant(cps, ht)
	case strings.HasPrefix(n, "flat"):
		cores, err := strconv.Atoi(strings.TrimPrefix(n, "flat"))
		if err != nil || cores < 1 {
			return nil, fmt.Errorf("core: bad flat machine %q (want flat<n>, n >= 1 cores)", name)
		}
		d = machine.Flat(cores, 24<<20)
	default:
		// Fall back to a machine file: JSON, or the paper's Fig. 4
		// C-style configuration-entry format.
		var err error
		d, err = machine.Load(name)
		if err != nil {
			if b, rerr := os.ReadFile(name); rerr == nil {
				if fd, ferr := machine.ParseFigConfig(string(b)); ferr == nil {
					d = fd
					break
				}
			}
			return nil, fmt.Errorf("core: unknown machine %q and not a loadable file: %w", name, err)
		}
	}
	if scale > 1 {
		d = machine.Scaled(d, scale)
	}
	return d, nil
}
