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
	distribution[float64]{
		n: n, chunk: k.Chunk, buckets: k.buckets,
		// Work 4 per element is the binary search over the resident
		// splitters; the prefix pass walks every chunk's bucket row.
		elemBytes: 8, elemWork: 4, chunkWork: int64(k.buckets),
		read: k.A.Read, write: k.Buf.Write,
		bucket: func(v float64) int { return bucketOf(v, splitters) },
	}.fork(ctx, func(ctx job.Ctx, off []int) {
		// Sort each bucket with parallel quicksort, then copy back.
		children := make([]job.Job, 0, k.buckets)
		for b := 0; b < k.buckets; b++ {
			lo, hi := off[b], off[b+1]
			if hi-lo < 2 {
				continue
			}
			children = append(children, &qsJob{p: &k.qsParams, a: k.Buf.Sub(lo, hi), b: k.A.Sub(lo, hi)})
		}
		forkThen(ctx, children, []job.Job{copyJob(k.Buf, k.A, k.Chunk)})
	})
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
