package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/dagtrace"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/stats"
)

// KernelFactory builds a fresh benchmark instance for one run. Instances
// are single-use (runs mutate their arrays), so every repetition
// constructs its own.
type KernelFactory func(sp *mem.Space, m *machine.Desc, seed uint64) kernels.Kernel

// SchedFactory builds a fresh scheduler for one run.
type SchedFactory func() sched.Scheduler

// Cell identifies one grid point of an experiment.
type Cell struct {
	Label     string // e.g. benchmark name
	Scheduler string
	Machine   *machine.Desc
	LinksUsed int // 1..Machine.Links: the bandwidth knob
	MakeK     KernelFactory
	// MakeS builds the cell's scheduler; nil means sched.New(Scheduler).
	// Sweeps over a scheduler parameter (Fig. 10's σ, the µ ablation) set
	// it.
	MakeS SchedFactory
	// Cost overrides the default cost model (zero value = defaults);
	// used by the ablation experiments.
	Cost sched.CostModel
	// TraceID overrides Label as the trace-cache identity of the cell's
	// computation. Sweeps that vary only a scheduler or cost parameter
	// (Fig. 10's σ, the µ and chunk ablations) bake the varied value into
	// Label for display; setting TraceID to the kernel's name — the Label
	// its Fig. 5 or Fig. 8 cells carry — lets them share one recording
	// with those figures. Empty means Label identifies the kernel.
	TraceID string
}

// scheduler builds the cell's scheduler: MakeS, or sched.New(Scheduler)
// when MakeS is nil.
func (c Cell) scheduler() sched.Scheduler {
	if c.MakeS != nil {
		return c.MakeS()
	}
	return sched.New(c.Scheduler)
}

// Metrics aggregates one cell's repetitions. Times are in seconds at the
// simulated machine's clock; misses are absolute counts.
type Metrics struct {
	Cell      Cell
	ActiveSec stats.Summary
	OverSec   stats.Summary // add+done+get+empty overhead (§3.3 ii-v)
	EmptySec  stats.Summary // empty-queue component alone (Fig. 10)
	WallSec   stats.Summary
	L3Misses  stats.Summary
	DRAMStall stats.Summary // cycles stalled on memory links
}

// TimeSec returns mean active + mean overhead, the paper's stacked bars.
func (m Metrics) TimeSec() float64 { return m.ActiveSec.Mean + m.OverSec.Mean }

// Runner executes experiment grids.
type Runner struct {
	P   Profile
	Out io.Writer
	// Workers bounds concurrent cells (each simulation is internally
	// sequential); 0 means GOMAXPROCS.
	Workers int
	// Verbose prints each run as it completes.
	Verbose bool
	// Traces is the trace cache, and it is required: NewRunner sets an
	// in-memory one. Each distinct computation (kernel × seed) is recorded
	// once into it and replayed in every cell sharing it, the recording
	// cell included — scheduler, bandwidth, cost and fault sweeps
	// re-simulate the identical DAG without re-running kernel closures.
	// The full-scale paths (FullCell, FullGridRun) share recordings
	// through it only when it has a directory, because their recordings
	// must be files; otherwise they use a cache of their own (fileTraces).
	// Every path keys a recording with traceKey, so a directory cache
	// serves figure grids and full-scale cells alike.
	Traces *dagtrace.StreamCache
	// Shards is the host-goroutine count for sharded full-scale replays
	// (FullCell); it never changes results, only how many cores the fixed
	// per-socket simulations are spread over. <1 means 1.
	Shards int
	// ReplayWindow bounds the decoder-resident bytes of streamed replays
	// (FullCell); 0 means dagtrace.DefaultWindowBytes.
	ReplayWindow int64
	// GridBudget is the FullGridRun token bucket over decoder-resident window
	// bytes, shared by every concurrent cell's stream; 0 means
	// max(ReplayWindow, dagtrace.DefaultWindowBytes) — concurrent cells
	// share one cell's memory high-water mark instead of multiplying it.
	GridBudget int64
}

// NewRunner returns a Runner writing tables to out, with a resident
// (directory-less) trace cache enabled.
func NewRunner(p Profile, out io.Writer) *Runner {
	traces, _ := dagtrace.NewStreamCache("") // only creating a directory can fail
	return &Runner{P: p, Out: out, Traces: traces}
}

// RunCell executes one cell: Reps repetitions with distinct seeds.
func (r *Runner) RunCell(c Cell) (Metrics, error) {
	reps := max(r.P.Reps, 1)
	// Per-rep metric samples, sized up front: reps is known, so the append
	// path never regrows.
	active := make([]float64, 0, reps)
	over := make([]float64, 0, reps)
	empty := make([]float64, 0, reps)
	wall := make([]float64, 0, reps)
	misses := make([]float64, 0, reps)
	stall := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		seed := r.P.Seed + uint64(rep)
		res, err := r.runRep(c, seed)
		if err != nil {
			return Metrics{}, fmt.Errorf("exp: %s/%s rep %d: %w", c.Label, c.Scheduler, rep, err)
		}
		active = append(active, res.ActiveSeconds())
		over = append(over, res.OverheadSeconds())
		empty = append(empty, c.Machine.Seconds(int64(res.EmptyAvg())))
		wall = append(wall, res.WallSeconds())
		misses = append(misses, float64(res.L3Misses()))
		stall = append(stall, float64(res.StallCycles))
	}
	return Metrics{
		Cell:      c,
		ActiveSec: stats.Summarize(active),
		OverSec:   stats.Summarize(over),
		EmptySec:  stats.Summarize(empty),
		WallSec:   stats.Summarize(wall),
		L3Misses:  stats.Summarize(misses),
		DRAMStall: stats.Summarize(stall),
	}, nil
}

// RunGrid executes cells with bounded host parallelism and returns metrics
// in input order. It first evicts from memory every recording in the
// trace cache that none of its cells uses, keeping those it shares with
// earlier grids, and then dispatches the first cell of every trace group
// ahead of the rest, so recordings start immediately and replays never
// queue behind them. A grid's recordings therefore stay resident until a
// grid that does not use them starts; recordFirst already has them all
// resident together early in the grid, so keeping them longer does not
// raise the high-water mark.
func (r *Runner) RunGrid(cells []Cell) ([]Metrics, error) {
	reps := max(r.P.Reps, 1)
	keys := make([]string, 0, len(cells)*reps)
	for _, c := range cells {
		for rep := range reps {
			keys = append(keys, r.traceKey(c, r.P.Seed+uint64(rep)))
		}
	}
	r.Traces.Retain(keys)
	out := make([]Metrics, len(cells))
	errs := make([]error, len(cells))
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	r.dispatch(context.Background(), all,
		func(i int) string { return r.traceKey(cells[i], r.P.Seed) },
		func(i int) string {
			if out[i], errs[i] = r.RunCell(cells[i]); errs[i] != nil {
				return ""
			}
			return fmt.Sprintf("# done %-16s %-8s bw=%d/%d: time=%.4gs L3=%.4g\n",
				cells[i].Label, cells[i].Scheduler, cells[i].LinksUsed, cells[i].Machine.Links,
				out[i].TimeSec(), out[i].L3Misses.Mean)
		},
		func(int) {})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dispatch is the grid engine's one worker pool, shared by RunGrid and
// FullGridRun. It runs run(i) for every item on r.workers(len(items)) host
// goroutines, sending the first item of every key ahead of the rest
// (recordFirst), and returns once every item has finished or been
// skipped: once ctx is canceled, items not yet started are left
// untouched. After each item, one item at a time, dispatch prints the
// progress line run returned (when r.Verbose and the line is not empty),
// then calls done(i). done runs under the output lock, so its calls are
// serialized; it must not block.
func (r *Runner) dispatch(ctx context.Context, items []int, key func(int) string, run func(int) string, done func(i int)) {
	var wg sync.WaitGroup
	// mu serializes progress lines and done calls: items finish
	// concurrently and io.Writer implementations are not safe for
	// concurrent use.
	var mu sync.Mutex
	idx := make(chan int)
	for w := r.workers(len(items)); w > 0; w-- {
		wg.Add(1)
		//schedlint:ignore nondeterminism cell fan-out parallelism; each cell is a pure function of its inputs and results land at fixed indices
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					// Canceled: drain the rest untouched (a journaled grid
					// keeps them pending).
					continue
				}
				line := run(i)
				mu.Lock()
				if r.Verbose && line != "" {
					fmt.Fprint(r.Out, line)
				}
				done(i)
				mu.Unlock()
			}
		}()
	}
	for _, i := range recordFirst(items, key) {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// workers returns how many cell workers a grid of n cells runs on:
// r.Workers, or GOMAXPROCS when that is 0, and never more than n.
func (r *Runner) workers(n int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, n)
}

// recordFirst orders the items so the first item of every recording key
// is dispatched ahead of the rest, each part in input order: recordings
// start immediately, and cells that replay them never occupy workers only
// to block on the cache behind unrelated record work.
func recordFirst(items []int, key func(int) string) []int {
	seen := make(map[string]bool, len(items))
	order := make([]int, 0, len(items))
	var rest []int
	for _, i := range items {
		if k := key(i); seen[k] {
			rest = append(rest, i)
		} else {
			seen[k] = true
			order = append(order, i)
		}
	}
	return append(order, rest...)
}

// --- benchmark factories at the profile's scale ------------------------------

// kernelTable builds the seven benchmarks at a profile's scale, in the
// paper's order: the micro-benchmarks RRM and RRG (Figs. 5–7), then the
// Fig. 8/9 lineup of algorithmic kernels.
var kernelTable = []struct {
	name  string
	build func(p Profile, sp *mem.Space, m *machine.Desc, seed uint64) kernels.Kernel
}{
	{"RRM", func(p Profile, sp *mem.Space, _ *machine.Desc, seed uint64) kernels.Kernel {
		return kernels.NewRRM(sp, kernels.RRMConfig{N: p.RRMN, Base: p.RRBase, Grain: p.RRGrain, Seed: seed})
	}},
	{"RRG", func(p Profile, sp *mem.Space, _ *machine.Desc, seed uint64) kernels.Kernel {
		return kernels.NewRRG(sp, kernels.RRGConfig{N: p.RRGN, Base: p.RRBase, Grain: p.RRGrain, Seed: seed})
	}},
	{"Quicksort", func(p Profile, sp *mem.Space, _ *machine.Desc, seed uint64) kernels.Kernel {
		return kernels.NewQuicksort(sp, kernels.QuicksortConfig{
			N: p.SortN, SerialCutoff: p.SerialCutoff, PartCutoff: p.PartCutoff, Chunk: p.Chunk, Seed: seed,
		})
	}},
	{"Samplesort", func(p Profile, sp *mem.Space, _ *machine.Desc, seed uint64) kernels.Kernel {
		return kernels.NewSamplesort(sp, kernels.SamplesortConfig{N: p.SortN, Cutoff: p.SerialCutoff, Seed: seed})
	}},
	// The cache-aware algorithm reads the L3 size off the machine.
	{"AwareSamplesort", func(p Profile, sp *mem.Space, m *machine.Desc, seed uint64) kernels.Kernel {
		return kernels.NewAwareSamplesort(sp, kernels.AwareSamplesortConfig{
			N: p.SortN, L3Bytes: m.Levels[1].Size, Chunk: p.Chunk,
			SerialCutoff: p.SerialCutoff, PartCutoff: p.PartCutoff, Seed: seed,
		})
	}},
	{"Quad-Tree", func(p Profile, sp *mem.Space, _ *machine.Desc, seed uint64) kernels.Kernel {
		return kernels.NewQuadtree(sp, kernels.QuadtreeConfig{N: p.QuadN, Cutoff: p.QuadCutoff, Chunk: p.Chunk, Seed: seed})
	}},
	{"MatMul", func(p Profile, sp *mem.Space, _ *machine.Desc, seed uint64) kernels.Kernel {
		return kernels.NewMatMul(sp, kernels.MatMulConfig{N: p.MatmulN, Base: p.MatmulBase, Seed: seed})
	}},
}

// microKernels (Figs. 5–7) and algorithmicKernels (Figs. 8/9) split
// kernelTable.
var microKernels, algorithmicKernels = kernelTable[:2], kernelTable[2:]

// FullKernelFactory resolves a kernel name (the Fig. 8 lineup plus RRM
// and RRG) to its factory at the profile's scale.
func (p Profile) FullKernelFactory(name string) (KernelFactory, error) {
	for _, k := range kernelTable {
		if k.name == name {
			build := k.build
			return func(sp *mem.Space, m *machine.Desc, seed uint64) kernels.Kernel { return build(p, sp, m, seed) }, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown kernel %q (want RRM, RRG, Quicksort, Samplesort, AwareSamplesort, Quad-Tree or MatMul)", name)
}

// factory is FullKernelFactory for a name kernelTable holds.
func (p Profile) factory(name string) KernelFactory {
	mk, err := p.FullKernelFactory(name)
	if err != nil {
		panic(err)
	}
	return mk
}

// RRMFactory builds the Fig. 5 RRM instance.
func (p Profile) RRMFactory() KernelFactory { return p.factory("RRM") }

// RRGFactory builds the Fig. 6 RRG instance.
func (p Profile) RRGFactory() KernelFactory { return p.factory("RRG") }

// QuicksortFactory builds the Fig. 8/9 quicksort instance.
func (p Profile) QuicksortFactory() KernelFactory { return p.factory("Quicksort") }

// SamplesortFactory builds the Fig. 8/9 samplesort instance.
func (p Profile) SamplesortFactory() KernelFactory { return p.factory("Samplesort") }

// AwareSamplesortFactory builds the Fig. 8/9 aware samplesort.
func (p Profile) AwareSamplesortFactory() KernelFactory { return p.factory("AwareSamplesort") }

// QuadtreeFactory builds the Fig. 8/9/10 quad-tree instance.
func (p Profile) QuadtreeFactory() KernelFactory { return p.factory("Quad-Tree") }

// MatMulFactory builds the Fig. 8/9 matrix multiplication instance.
func (p Profile) MatMulFactory() KernelFactory { return p.factory("MatMul") }
