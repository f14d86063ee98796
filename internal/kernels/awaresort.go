package kernels

import (
	"sort"

	"repro/internal/job"
	"repro/internal/mem"
)

// AwareSamplesort is the cache-aware samplesort of §5.1: a single
// bucket-distribution level that "moves elements into buckets that fit
// into the L3 cache and then runs quicksort on the buckets" — the paper's
// fastest sort. Unlike Samplesort it takes the cache size as an explicit
// parameter (it is not cache-oblivious).
type AwareSamplesort struct {
	A, Buf mem.F64
	// L3Bytes is the cache size the buckets are sized for.
	L3Bytes int64
	// Chunk is the distribution block size.
	Chunk int
	qsParams

	buckets         int
	wantSum, wantSq float64
}

// AwareSamplesortConfig parameterizes NewAwareSamplesort.
type AwareSamplesortConfig struct {
	N       int
	L3Bytes int64 // required: the machine's L3 size
	Chunk   int
	// Quicksort thresholds for the per-bucket sorts.
	SerialCutoff, PartCutoff int
	Seed                     uint64
}

// NewAwareSamplesort allocates and fills an instance in sp.
func NewAwareSamplesort(sp *mem.Space, cfg AwareSamplesortConfig) *AwareSamplesort {
	if cfg.N <= 0 || cfg.L3Bytes <= 0 {
		panic("kernels: AwareSamplesort requires N > 0 and L3Bytes > 0")
	}
	if cfg.Chunk == 0 {
		cfg.Chunk = 1024
	}
	if cfg.SerialCutoff == 0 {
		cfg.SerialCutoff = 2048
	}
	if cfg.PartCutoff == 0 {
		cfg.PartCutoff = 8 * cfg.SerialCutoff
	}
	k := &AwareSamplesort{
		A:        sp.NewF64("awsort.A", cfg.N),
		Buf:      sp.NewF64("awsort.buf", cfg.N),
		L3Bytes:  cfg.L3Bytes,
		Chunk:    cfg.Chunk,
		qsParams: qsParams{SerialCutoff: cfg.SerialCutoff, PartCutoff: cfg.PartCutoff, Chunk: cfg.Chunk},
	}
	target := int(awFill * float64(cfg.L3Bytes) / 8)
	if target < 1 {
		target = 1
	}
	k.buckets = (cfg.N + target - 1) / target
	if k.buckets < 1 {
		k.buckets = 1
	}
	fillRandom(k.A.Data, cfg.Seed)
	k.wantSum, k.wantSq = checksum(k.A.Data)
	return k
}

// Name implements Kernel.
func (k *AwareSamplesort) Name() string { return "AwareSamplesort" }

// InputBytes implements Kernel.
func (k *AwareSamplesort) InputBytes() int64 { return k.A.Bytes() }

// Buckets returns the number of L3-sized buckets chosen.
func (k *AwareSamplesort) Buckets() int { return k.buckets }

// Root implements Kernel.
func (k *AwareSamplesort) Root() job.Job {
	if k.buckets <= 1 {
		// Input already fits the cache target: plain parallel quicksort.
		return &qsJob{p: &k.qsParams, a: k.A, b: k.Buf}
	}
	return &awJob{k: k}
}

// Verify implements Kernel.
func (k *AwareSamplesort) Verify() error {
	return verifySorted("AwareSamplesort", k.A.Data, k.wantSum, k.wantSq)
}

// awJob is the top-level distribution job.
type awJob struct {
	k *AwareSamplesort
}

func (a *awJob) Size(int64) int64             { return a.k.A.Bytes() * 2 }
func (a *awJob) StrandSize(block int64) int64 { return block }

const awOversample = 8

// awFill is the fraction of L3 a bucket is sized to fill.
const awFill = 0.5

func (a *awJob) Run(ctx job.Ctx) {
	k := a.k
	n := k.A.Len()
	// Sample 8 per bucket, sort the sample, pick k-1 splitters. The sample
	// reads are simulated; the sample itself is small control state.
	s := k.buckets * awOversample
	sample := make([]float64, s)
	for i := 0; i < s; i++ {
		sample[i] = k.A.Read(ctx, (2*i+1)*n/(2*s))
	}
	sort.Float64s(sample)
	ctx.Work(int64(s) * 4)
	splitters := make([]float64, k.buckets-1)
	for j := 1; j < k.buckets; j++ {
		splitters[j-1] = sample[j*s/k.buckets]
	}
	chunks := (n + k.Chunk - 1) / k.Chunk
	st := &awState{splitters: splitters, counts: make([][]int64, chunks)}
	ctx.Fork(&awScatterPhase{k: k, st: st}, a.countJob(st))
}

// awState is the distribution bookkeeping (host-side control state).
type awState struct {
	splitters []float64
	counts    [][]int64 // per chunk, per bucket
	bucketOff []int
}

// bucketOf locates v's bucket by binary search over the splitters.
func bucketOf(v float64, splitters []float64) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if v >= splitters[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (a *awJob) countJob(st *awState) job.Job {
	k := a.k
	n := k.A.Len()
	chunks := len(st.counts)
	size := func(lo, hi int) int64 { return int64(hi-lo) * int64(k.Chunk) * 8 }
	return job.For(0, chunks, 1, size, func(ctx job.Ctx, c int) {
		lo := c * k.Chunk
		hi := lo + k.Chunk
		if hi > n {
			hi = n
		}
		cnt := make([]int64, k.buckets)
		for i := lo; i < hi; i++ {
			v := k.A.Read(ctx, i)
			cnt[bucketOf(v, st.splitters)]++
			ctx.Work(4) // binary search over resident splitters
		}
		st.counts[c] = cnt
	})
}

// awScatterPhase computes cursors and forks the distribution pass.
type awScatterPhase struct {
	k  *AwareSamplesort
	st *awState
}

func (ph *awScatterPhase) Size(int64) int64             { return ph.k.A.Bytes() * 2 }
func (ph *awScatterPhase) StrandSize(block int64) int64 { return block }

func (ph *awScatterPhase) Run(ctx job.Ctx) {
	k, st := ph.k, ph.st
	n := k.A.Len()
	chunks := len(st.counts)
	// Bucket totals and offsets.
	totals := make([]int64, k.buckets)
	for _, row := range st.counts {
		for b, c := range row {
			totals[b] += c
		}
	}
	st.bucketOff = make([]int, k.buckets+1)
	for b := 0; b < k.buckets; b++ {
		st.bucketOff[b+1] = st.bucketOff[b] + int(totals[b])
	}
	// Per-chunk cursors.
	cursors := make([][]int64, chunks)
	run := make([]int64, k.buckets)
	for b := range run {
		run[b] = int64(st.bucketOff[b])
	}
	for c := 0; c < chunks; c++ {
		cur := make([]int64, k.buckets)
		copy(cur, run)
		cursors[c] = cur
		for b, v := range st.counts[c] {
			run[b] += v
		}
	}
	ctx.Work(int64(chunks * k.buckets))
	size := func(lo, hi int) int64 { return int64(hi-lo) * int64(k.Chunk) * 16 }
	scatter := job.For(0, chunks, 1, size, func(c2 job.Ctx, c int) {
		lo := c * k.Chunk
		hi := lo + k.Chunk
		if hi > n {
			hi = n
		}
		cur := cursors[c]
		for i := lo; i < hi; i++ {
			v := k.A.Read(c2, i)
			b := bucketOf(v, st.splitters)
			k.Buf.Write(c2, int(cur[b]), v)
			cur[b]++
			c2.Work(4)
		}
	})
	ctx.Fork(&awBucketPhase{k: k, st: st}, scatter)
}

// awBucketPhase sorts each bucket with parallel quicksort, then copies the
// result back.
type awBucketPhase struct {
	k  *AwareSamplesort
	st *awState
}

func (ph *awBucketPhase) Size(int64) int64             { return ph.k.A.Bytes() * 2 }
func (ph *awBucketPhase) StrandSize(block int64) int64 { return block }

func (ph *awBucketPhase) Run(ctx job.Ctx) {
	k, st := ph.k, ph.st
	children := make([]job.Job, 0, k.buckets)
	for b := 0; b < k.buckets; b++ {
		lo, hi := st.bucketOff[b], st.bucketOff[b+1]
		if hi-lo < 2 {
			continue
		}
		children = append(children, &qsJob{p: &k.qsParams, a: k.Buf.Sub(lo, hi), b: k.A.Sub(lo, hi)})
	}
	copyBack := copyJob(k.Buf, k.A, k.Chunk)
	if len(children) == 0 {
		ctx.Fork(nil, copyBack)
		return
	}
	ctx.Fork(&awCopyPhase{k: k, copy: copyBack}, children...)
}

// awCopyPhase runs the final copy back to A.
type awCopyPhase struct {
	k    *AwareSamplesort
	copy job.Job
}

func (ph *awCopyPhase) Size(int64) int64             { return ph.k.A.Bytes() * 2 }
func (ph *awCopyPhase) StrandSize(block int64) int64 { return block }

func (ph *awCopyPhase) Run(ctx job.Ctx) { ctx.Fork(nil, ph.copy) }
