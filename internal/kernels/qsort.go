package kernels

import (
	"repro/internal/job"
	"repro/internal/mem"
)

// Quicksort is the parallel quicksort of §5.1: it parallelizes both the
// partition and the recursive calls, using a median-of-3 pivot. Below
// PartCutoff it parallelizes only the recursion (sequential in-place
// partition); below SerialCutoff it runs serially. The paper's thresholds
// are 128K and 16K for 100M-element inputs; scaled instances scale them.
type Quicksort struct {
	A, Buf mem.F64
	qsParams

	wantSum, wantSq float64
}

// qsParams holds the quicksort thresholds, shared with the aware
// samplesort's per-bucket sorts.
type qsParams struct {
	// SerialCutoff is the serial-sort threshold (paper: 16K).
	SerialCutoff int
	// PartCutoff is the parallel-partition threshold (paper: 128K).
	PartCutoff int
	// Chunk is the per-strand block size of the parallel partition.
	Chunk int
}

// QuicksortConfig parameterizes NewQuicksort; zero fields take defaults
// proportional to the paper's (relative to N).
type QuicksortConfig struct {
	N            int
	SerialCutoff int
	PartCutoff   int
	Chunk        int
	Seed         uint64
}

// NewQuicksort allocates and fills a Quicksort instance in sp.
func NewQuicksort(sp *mem.Space, cfg QuicksortConfig) *Quicksort {
	if cfg.N <= 0 {
		panic("kernels: Quicksort requires N > 0")
	}
	if cfg.SerialCutoff == 0 {
		cfg.SerialCutoff = 2048
	}
	if cfg.PartCutoff == 0 {
		cfg.PartCutoff = 8 * cfg.SerialCutoff
	}
	if cfg.Chunk == 0 {
		cfg.Chunk = 1024
	}
	k := &Quicksort{
		A:        sp.NewF64("qsort.A", cfg.N),
		Buf:      sp.NewF64("qsort.buf", cfg.N),
		qsParams: qsParams{SerialCutoff: cfg.SerialCutoff, PartCutoff: cfg.PartCutoff, Chunk: cfg.Chunk},
	}
	fillRandom(k.A.Data, cfg.Seed)
	k.wantSum, k.wantSq = checksum(k.A.Data)
	return k
}

// Name implements Kernel.
func (k *Quicksort) Name() string { return "Quicksort" }

// InputBytes implements Kernel.
func (k *Quicksort) InputBytes() int64 { return k.A.Bytes() }

// Root implements Kernel.
func (k *Quicksort) Root() job.Job {
	return &qsJob{p: &k.qsParams, a: k.A, b: k.Buf}
}

// Verify implements Kernel.
func (k *Quicksort) Verify() error {
	return verifySorted("Quicksort", k.A.Data, k.wantSum, k.wantSq)
}

// --- shared serial pieces ---------------------------------------------------

// medianOf3 reads three candidate pivots and returns their median.
func medianOf3(ctx job.Ctx, a mem.F64) float64 {
	n := a.Len()
	x, y, z := a.Read(ctx, 0), a.Read(ctx, n/2), a.Read(ctx, n-1)
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
		if x > y {
			y = x
		}
	}
	return y
}

// insertionSort sorts a[lo:hi) in place with simulated accesses.
func insertionSort(ctx job.Ctx, a mem.F64, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		v := a.Read(ctx, i)
		j := i - 1
		for j >= lo && a.Read(ctx, j) > v {
			a.Write(ctx, j+1, a.Read(ctx, j))
			j--
			ctx.Work(workPerElem)
		}
		a.Write(ctx, j+1, v)
	}
}

// hoarePartition partitions a[lo:hi) around pivot value p, returning the
// split index m such that a[lo:m) <= p <= a[m:hi) element-wise.
func hoarePartition(ctx job.Ctx, a mem.F64, lo, hi int, p float64) int {
	i, j := lo-1, hi
	for {
		for {
			i++
			if a.Read(ctx, i) >= p {
				break
			}
		}
		for {
			j--
			if a.Read(ctx, j) <= p {
				break
			}
		}
		if i >= j {
			return j + 1
		}
		vi, vj := a.Data[i], a.Data[j] // values already read above
		a.Write(ctx, i, vj)
		a.Write(ctx, j, vi)
		ctx.Work(workPerElem)
	}
}

// serialQuickSort sorts a in place within the current strand.
func serialQuickSort(ctx job.Ctx, a mem.F64) {
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		for hi-lo > 24 {
			mid := a.Sub(lo, hi)
			p := medianOf3(ctx, mid)
			m := hoarePartition(ctx, a, lo, hi, p)
			if m <= lo || m >= hi {
				// Degenerate split (all-equal range): fall back to
				// insertion sort to guarantee progress.
				break
			}
			if m-lo < hi-m {
				rec(lo, m)
				lo = m
			} else {
				rec(m, hi)
				hi = m
			}
		}
		insertionSort(ctx, a, lo, hi)
	}
	rec(0, a.Len())
}

// --- parallel quicksort job -------------------------------------------------

// qsJob sorts a in place, using the same-length scratch b.
type qsJob struct {
	p    *qsParams
	a, b mem.F64
}

func (q *qsJob) Run(ctx job.Ctx) {
	n := q.a.Len()
	switch {
	case n <= q.p.SerialCutoff:
		serialQuickSort(ctx, q.a)
	case n <= q.p.PartCutoff:
		// Sequential partition, parallel recursion.
		p := medianOf3(ctx, q.a)
		m := hoarePartition(ctx, q.a, 0, n, p)
		if m <= 0 || m >= n {
			serialQuickSort(ctx, q.a)
			return
		}
		ctx.Fork(nil,
			&qsJob{p: q.p, a: q.a.Sub(0, m), b: q.b.Sub(0, m)},
			&qsJob{p: q.p, a: q.a.Sub(m, n), b: q.b.Sub(m, n)})
	default:
		// Parallel three-way partition into b, then copy back, then
		// recurse on the less/greater regions.
		p := medianOf3(ctx, q.a)
		distribution[float64]{
			n: n, chunk: q.p.Chunk, buckets: 3,
			elemBytes: 8, elemWork: workPerElem, chunkWork: 1,
			read: q.a.Read, write: q.b.Write,
			bucket: func(v float64) int {
				switch {
				case v < p:
					return 0
				case v == p:
					return 1
				}
				return 2
			},
		}.fork(ctx, func(ctx job.Ctx, off []int) {
			lt, gt := off[1], off[2]
			var children []job.Job
			if lt > 1 {
				children = append(children, &qsJob{p: q.p, a: q.a.Sub(0, lt), b: q.b.Sub(0, lt)})
			}
			if n-gt > 1 {
				children = append(children, &qsJob{p: q.p, a: q.a.Sub(gt, n), b: q.b.Sub(gt, n)})
			}
			forkThen(ctx, []job.Job{copyJob(q.b, q.a, q.p.Chunk)}, children)
		})
	}
}

// Size implements job.SBJob: above PartCutoff the sort streams both a and
// its scratch b (parallel partition + copy back); below it the partition
// is sequential and in place, touching only a.
func (q *qsJob) Size(int64) int64 {
	if q.a.Len() <= q.p.PartCutoff {
		return int64(q.a.Len()) * 8
	}
	return int64(q.a.Len()) * 16
}

// StrandSize implements job.SBJob: the top strand of a parallel-partition
// node reads only a few pivot candidates, but a sequential-partition or
// serial node streams its whole range.
func (q *qsJob) StrandSize(block int64) int64 {
	if q.a.Len() <= q.p.PartCutoff {
		return int64(q.a.Len()) * 8
	}
	return block
}
