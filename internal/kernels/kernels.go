// Package kernels implements the seven benchmarks of the paper's
// experimental study (§5.1): the synthetic divide-and-conquer
// micro-benchmarks RRM and RRG, and the algorithmic kernels quicksort,
// samplesort, (cache-)aware samplesort, quad-tree and matrix
// multiplication.
//
// Every kernel is a nested-parallel program in the framework's Job model,
// fully annotated with task and strand sizes so it runs under all
// schedulers (work-stealing variants ignore the annotations). Kernels do
// real computation on simulated arrays — outputs are verified after every
// run — while each element access is reported to the cache simulator.
package kernels

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// Kernel is a runnable, verifiable benchmark instance. A Kernel is
// single-use: construct, run its Root job once, then Verify.
type Kernel interface {
	// Name identifies the benchmark in reports.
	Name() string
	// Root returns the top-level job of the computation.
	Root() job.Job
	// Verify checks the output for correctness after the run.
	Verify() error
	// InputBytes returns the benchmark's primary input size in bytes.
	InputBytes() int64
}

// workPerElem is the compute charge (cycles) per element operation in
// streaming kernels, modeling the arithmetic between memory accesses.
const workPerElem = 1

// fillRandom populates data with deterministic pseudo-random doubles.
func fillRandom(data []float64, seed uint64) {
	r := xrand.New(seed)
	for i := range data {
		data[i] = r.Float64()
	}
}

// phase is a later strand of a kernel's task: the continuation it forks to
// run once a parallel block joins. The strand only computes offsets and
// forks, so it touches a constant number of lines and StrandSize is one
// cache line. A continuation never starts a task — job.Task.Init reads
// Size only from a task's first job — so Size is never read; phase has it
// only to be a job.SBJob, without which the strand would be sized as its
// whole task.
type phase func(job.Ctx)

// Run implements job.Job.
func (p phase) Run(ctx job.Ctx) { p(ctx) }

// Size implements job.SBJob; it is never read (see phase).
func (phase) Size(block int64) int64 { return block }

// StrandSize implements job.SBJob.
func (phase) StrandSize(block int64) int64 { return block }

// forkThen ends the strand with the parallel block first and, once it
// joins, continues with the parallel block then (none if it is empty). An
// empty first block is skipped: then runs at once, and must not be empty.
func forkThen(ctx job.Ctx, first, then []job.Job) {
	if len(first) == 0 {
		ctx.Fork(nil, then...)
		return
	}
	ctx.Fork(phase(func(ctx job.Ctx) {
		if len(then) > 0 {
			ctx.Fork(nil, then...)
		}
	}), first...)
}

// distribution is a parallel bucket distribution of n elements, the pass
// quicksort's partition, quad-tree's split and aware samplesort share: it
// moves every element that read returns to its bucket's region of the
// output through write, keeping each bucket's elements in input order.
// Each element costs elemWork cycles in each of its two passes, and the
// serial prefix pass between them costs chunkWork per chunk.
type distribution[T any] struct {
	n, chunk, buckets int
	// elemBytes is one element's size: a pass over a chunk is sized
	// chunk × elemBytes for the count and twice that for the scatter,
	// which also writes the output.
	elemBytes, elemWork, chunkWork int64
	read                           func(mem.Accessor, int) T
	bucket                         func(T) int
	write                          func(mem.Accessor, int, T)
}

// fork ends the strand with the distribution. A parallel pass counts each
// chunk's elements per bucket; a serial prefix pass turns the counts into
// per-chunk write cursors; a second parallel pass scatters every chunk.
// Then the task continues with then, given the bucket offsets: bucket b
// fills [off[b], off[b+1]) and off[buckets] = n. The counts are host-side
// control state; the element traffic is simulated.
func (d distribution[T]) fork(ctx job.Ctx, then func(ctx job.Ctx, off []int)) {
	chunks := (d.n + d.chunk - 1) / d.chunk
	bounds := func(c int) (int, int) { return c * d.chunk, min((c+1)*d.chunk, d.n) }
	size := func(lo, hi int) int64 { return int64(hi-lo) * int64(d.chunk) * d.elemBytes }
	counts := make([][]int, chunks)
	count := job.For(0, chunks, 1, size, func(ctx job.Ctx, c int) {
		lo, hi := bounds(c)
		cnt := make([]int, d.buckets)
		for i := lo; i < hi; i++ {
			cnt[d.bucket(d.read(ctx, i))]++
			ctx.Work(d.elemWork)
		}
		counts[c] = cnt
	})
	ctx.Fork(phase(func(ctx job.Ctx) {
		off := make([]int, d.buckets+1)
		for _, cnt := range counts {
			for b, v := range cnt {
				off[b+1] += v
			}
		}
		for b := 0; b < d.buckets; b++ {
			off[b+1] += off[b]
		}
		// Each chunk's counts become its write cursors, in place.
		cur := append([]int(nil), off[:d.buckets]...)
		for _, cnt := range counts {
			for b, v := range cnt {
				cnt[b], cur[b] = cur[b], cur[b]+v
			}
		}
		ctx.Work(int64(chunks) * d.chunkWork)
		scatterSize := func(lo, hi int) int64 { return 2 * size(lo, hi) }
		scatter := job.For(0, chunks, 1, scatterSize, func(ctx job.Ctx, c int) {
			lo, hi := bounds(c)
			cur := counts[c]
			for i := lo; i < hi; i++ {
				v := d.read(ctx, i)
				b := d.bucket(v)
				d.write(ctx, cur[b], v)
				cur[b]++
				ctx.Work(d.elemWork)
			}
		})
		ctx.Fork(phase(func(ctx job.Ctx) { then(ctx, off) }), scatter)
	}), count)
}

// passes is the recursion RRM and RRG share (§5.1). A task over a range
// runs r passes of elem over it — above the base one parallel block per
// pass, at or below it all r serially in one strand — then splits the
// range at the cut ratio and recurses on both parts.
type passes struct {
	r, base, grain int
	cut            float64
	// elemBytes is what one element's pass touches across the arrays.
	elemBytes int64
	// elem runs one pass's body for element i of the range [lo, lo+n).
	elem func(ctx job.Ctx, lo, n, i int)
}

// splitAt returns where a range of n > 1 elements splits at ratio cut:
// cut·n rounded down, kept inside [1, n-1].
func splitAt(n int, cut float64) int {
	return min(max(int(float64(n)*cut), 1), n-1)
}

// passTask is one task of the recursion: the range [lo, lo+n), its next
// pass to run.
type passTask struct {
	p           *passes
	lo, n, pass int
}

// Run implements job.Job.
func (t *passTask) Run(ctx job.Ctx) {
	p, lo, n := t.p, t.lo, t.n
	if n <= p.base {
		for range p.r {
			for i := lo; i < lo+n; i++ {
				p.elem(ctx, lo, n, i)
			}
		}
		return
	}
	if t.pass < p.r {
		size := func(lo, hi int) int64 { return int64(hi-lo) * p.elemBytes }
		next := &passTask{p: p, lo: lo, n: n, pass: t.pass + 1}
		ctx.Fork(next, job.For(lo, lo+n, p.grain, size, func(ctx job.Ctx, i int) { p.elem(ctx, lo, n, i) }))
		return
	}
	cut := splitAt(n, p.cut)
	ctx.Fork(nil, &passTask{p: p, lo: lo, n: cut}, &passTask{p: p, lo: lo + cut, n: n - cut})
}

// Size implements job.SBJob: the task touches its range of every array.
func (t *passTask) Size(int64) int64 { return int64(t.n) * t.p.elemBytes }

// StrandSize implements job.SBJob: a base strand runs every pass over its
// range; a strand above the base only forks.
func (t *passTask) StrandSize(block int64) int64 {
	if t.n <= t.p.base {
		return int64(t.n) * t.p.elemBytes
	}
	return block
}

// copyJob returns a parallel job copying src to dst (same length).
func copyJob(src, dst mem.F64, grain int) job.Job {
	if src.Len() != dst.Len() {
		panic("kernels: copyJob length mismatch")
	}
	size := func(lo, hi int) int64 { return int64(hi-lo) * 16 }
	return job.For(0, src.Len(), grain, size, func(ctx job.Ctx, i int) {
		dst.Write(ctx, i, src.Read(ctx, i))
		ctx.Work(workPerElem)
	})
}

// isSorted reports the first out-of-order index, or -1.
func isSorted(xs []float64) int {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return i
		}
	}
	return -1
}

// checksum is an order-independent multiset fingerprint used to verify
// that sorting kernels permute rather than corrupt their input.
func checksum(xs []float64) (sum, sumSq float64) {
	for _, v := range xs {
		sum += v
		sumSq += v * v
	}
	return sum, sumSq
}

// near compares two checksum components with a relative tolerance that
// absorbs floating-point reassociation across permutations.
func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	return d <= 1e-6*scale
}

func verifySorted(name string, out []float64, wantSum, wantSq float64) error {
	if i := isSorted(out); i >= 0 {
		return fmt.Errorf("%s: output not sorted at index %d (%v > %v)", name, i, out[i-1], out[i])
	}
	sum, sq := checksum(out)
	if !near(sum, wantSum) || !near(sq, wantSq) {
		return fmt.Errorf("%s: output is not a permutation of the input (Σ %v vs %v, Σ² %v vs %v)",
			name, sum, wantSum, sq, wantSq)
	}
	return nil
}
