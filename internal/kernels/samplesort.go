package kernels

import (
	"sort"

	"repro/internal/job"
	"repro/internal/mem"
)

// Samplesort is the cache-oblivious parallel sample sort of Blelloch,
// Gibbons and Simhadri (SPAA 2010) used in §5.1: split the input of size m
// into √m subarrays, recursively sort each, pick √m−1 splitters from
// regular samples of the sorted subarrays, bucket-transpose the subarrays
// into √m buckets, and recursively sort the buckets. Its cache complexity
// O(⌈m/B⌉ log_{2+M/B} m/B) makes it cache-friendly under any scheduler —
// the paper's one benchmark where space-bounded scheduling does not reduce
// misses.
type Samplesort struct {
	A, Buf mem.F64
	// Counts is the per-(subarray, bucket) count matrix pool: the matrix
	// of a recursive call over [lo,hi) lives at Counts[lo:hi), so all
	// count traffic is simulated without dynamic allocation.
	Counts mem.I64
	// Cutoff is the size below which a serial sort is used.
	Cutoff int

	wantSum, wantSq float64
}

// ssOversample is the number of regular samples taken per subarray.
const ssOversample = 4

// SamplesortConfig parameterizes NewSamplesort.
type SamplesortConfig struct {
	N      int
	Cutoff int // default 2048
	Seed   uint64
}

// NewSamplesort allocates and fills a Samplesort instance in sp.
func NewSamplesort(sp *mem.Space, cfg SamplesortConfig) *Samplesort {
	if cfg.N <= 0 {
		panic("kernels: Samplesort requires N > 0")
	}
	if cfg.Cutoff == 0 {
		cfg.Cutoff = 2048
	}
	k := &Samplesort{
		A:      sp.NewF64("ssort.A", cfg.N),
		Buf:    sp.NewF64("ssort.buf", cfg.N),
		Counts: sp.NewI64("ssort.counts", cfg.N),
		Cutoff: cfg.Cutoff,
	}
	fillRandom(k.A.Data, cfg.Seed)
	k.wantSum, k.wantSq = checksum(k.A.Data)
	return k
}

// Name implements Kernel.
func (k *Samplesort) Name() string { return "Samplesort" }

// InputBytes implements Kernel.
func (k *Samplesort) InputBytes() int64 { return k.A.Bytes() }

// Root implements Kernel.
func (k *Samplesort) Root() job.Job {
	return &ssJob{k: k, a: k.A, b: k.Buf, cnt: k.Counts}
}

// Verify implements Kernel.
func (k *Samplesort) Verify() error {
	return verifySorted("Samplesort", k.A.Data, k.wantSum, k.wantSq)
}

// isqrt returns ⌊√n⌋.
func isqrt(n int) int {
	if n < 2 {
		return n
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// ssJob sorts a in place; b and cnt are same-length scratch views.
type ssJob struct {
	k      *Samplesort
	a, b   mem.F64
	cnt    mem.I64
	nosubs bool // degenerate-split guard: force serial sort
}

// Size implements job.SBJob: below the cutoff the serial sort touches only
// the elements; above it the call streams elements, scratch and its count
// matrix.
func (s *ssJob) Size(int64) int64 {
	if s.a.Len() <= s.k.Cutoff || s.nosubs {
		return int64(s.a.Len()) * 8
	}
	return int64(s.a.Len()) * 24
}

// StrandSize implements job.SBJob.
func (s *ssJob) StrandSize(block int64) int64 {
	if s.a.Len() <= s.k.Cutoff || s.nosubs {
		return int64(s.a.Len()) * 8
	}
	return block
}

// layout computes the subarray decomposition of a call over m elements:
// p subarrays, each of width w (the last possibly shorter).
func ssLayout(m int) (p, w int) {
	p = isqrt(m)
	w = (m + p - 1) / p
	// Recompute p so that p*w covers exactly ceil(m/w) subarrays.
	p = (m + w - 1) / w
	return p, w
}

func (s *ssJob) Run(ctx job.Ctx) {
	m := s.a.Len()
	if m <= s.k.Cutoff || s.nosubs {
		serialQuickSort(ctx, s.a)
		return
	}
	p, w := ssLayout(m)
	st := &ssState{p: p, w: w}
	// Phase 1: recursively sort the √m subarrays.
	children := make([]job.Job, p)
	for i := 0; i < p; i++ {
		lo, hi := i*w, (i+1)*w
		if hi > m {
			hi = m
		}
		children[i] = &ssJob{k: s.k, a: s.a.Sub(lo, hi), b: s.b.Sub(lo, hi), cnt: s.cnt.Sub(lo, hi)}
	}
	ctx.Fork(&ssSamplePhase{s: s, st: st}, children...)
}

// ssState carries the splitters and bucket offsets between phases.
type ssState struct {
	p, w      int
	splitters []float64 // p-1 splitter values (host-side control state)
	bucketOff []int     // p+1 bucket start offsets
}

// subBounds returns subarray i's range.
func (st *ssState) subBounds(i, m int) (int, int) {
	lo, hi := i*st.w, (i+1)*st.w
	if hi > m {
		hi = m
	}
	return lo, hi
}

// ssSamplePhase draws regular samples from the sorted subarrays, sorts
// them, and picks the p-1 splitters; then forks the per-subarray bucket
// counting.
type ssSamplePhase struct {
	s  *ssJob
	st *ssState
}

func (ph *ssSamplePhase) Run(ctx job.Ctx) {
	s, st := ph.s, ph.st
	m := s.a.Len()
	over := ssOversample
	sample := make([]float64, 0, st.p*over)
	for i := 0; i < st.p; i++ {
		lo, hi := st.subBounds(i, m)
		n := hi - lo
		for j := 0; j < over; j++ {
			pos := lo + (2*j+1)*n/(2*over)
			sample = append(sample, s.a.Read(ctx, pos))
		}
	}
	// The sample is small (O(√m)); sorting it is charged as compute on
	// this strand (control state, like the paper's pivot arrays that stay
	// cache-resident).
	sort.Float64s(sample)
	ctx.Work(int64(len(sample)) * 4)
	st.splitters = make([]float64, st.p-1)
	for j := 1; j < st.p; j++ {
		st.splitters[j-1] = sample[j*len(sample)/st.p]
	}
	// Phase 2: count, per subarray, how many elements fall in each bucket.
	// Subarray i's counts occupy cnt[i*p : i*p+p] (p buckets each).
	count := job.For(0, st.p, 1, func(lo, hi int) int64 { return int64(hi-lo) * int64(st.w) * 8 },
		func(c2 job.Ctx, i int) {
			lo, hi := st.subBounds(i, m)
			row := i * st.p
			// Merge-scan the sorted subarray against the sorted splitters.
			b := 0
			cnt := int64(0)
			for x := lo; x < hi; x++ {
				v := s.a.Read(c2, x)
				for b < len(st.splitters) && v >= st.splitters[b] {
					s.cnt.Write(c2, row+b, cnt)
					cnt = 0
					b++
				}
				cnt++
				c2.Work(workPerElem)
			}
			s.cnt.Write(c2, row+b, cnt)
			for b++; b < st.p; b++ {
				s.cnt.Write(c2, row+b, 0)
			}
		})
	ctx.Fork(&ssOffsetPhase{s: s, st: st}, count)
}

func (ph *ssSamplePhase) Size(int64) int64             { return int64(ph.s.a.Len()) * 24 }
func (ph *ssSamplePhase) StrandSize(block int64) int64 { return block }

// ssOffsetPhase turns the count matrix into per-(subarray, bucket) write
// cursors: exclusive prefix sums down every bucket column, plus bucket
// totals. Column entries are a full row apart, so a naive column walk has
// a p-line working set; like practical block-transpose implementations
// (and the cache-oblivious algorithm the paper uses) we tile the matrix —
// a parallel pass of small row-block tiles computes per-tile column sums,
// a short serial pass combines them, and a second parallel tile pass
// writes the final prefixes. Every strand's working set is a few KB, so
// the phase is cache-friendly under any scheduler.
type ssOffsetPhase struct {
	s  *ssJob
	st *ssState
}

// Offset-phase tile geometry: tileRows rows × one cache line of columns.
const (
	ssTileRows = 64
	ssTileCols = 8 // 8 int64 entries = one 64B line
)

func (ph *ssOffsetPhase) Run(ctx job.Ctx) {
	s, st := ph.s, ph.st
	p := st.p
	tilesI := (p + ssTileRows - 1) / ssTileRows
	tilesB := (p + ssTileCols - 1) / ssTileCols
	// tileSum[tI*tilesB+tB] holds the per-column sums of one tile
	// (host-side control state, p²/tileRows entries).
	tileSum := make([][]int64, tilesI*tilesB)
	tileSize := func(lo, hi int) int64 { return int64(hi-lo) * ssTileRows * ssTileCols * 8 }
	sum := job.For(0, tilesI*tilesB, 4, tileSize, func(c2 job.Ctx, t int) {
		tI, tB := t/tilesB, t%tilesB
		i0, i1 := tI*ssTileRows, min((tI+1)*ssTileRows, p)
		b0, b1 := tB*ssTileCols, min((tB+1)*ssTileCols, p)
		sums := make([]int64, b1-b0)
		for i := i0; i < i1; i++ {
			for b := b0; b < b1; b++ {
				sums[b-b0] += s.cnt.Read(c2, i*p+b)
			}
			c2.Work(int64(b1 - b0))
		}
		tileSum[t] = sums
	})
	ctx.Fork(&ssCombinePhase{s: s, st: st, tileSum: tileSum, tilesI: tilesI, tilesB: tilesB}, sum)
}

func (ph *ssOffsetPhase) Size(int64) int64             { return int64(ph.s.a.Len()) * 24 }
func (ph *ssOffsetPhase) StrandSize(block int64) int64 { return block }

// ssCombinePhase serially turns tile sums into per-tile column bases and
// bucket totals (O(p²/tileRows) work on small control state), then forks
// the second tile pass that writes the exclusive prefixes into the matrix.
type ssCombinePhase struct {
	s              *ssJob
	st             *ssState
	tileSum        [][]int64
	tilesI, tilesB int
}

func (ph *ssCombinePhase) Run(ctx job.Ctx) {
	s, st := ph.s, ph.st
	p := st.p
	tilesI, tilesB := ph.tilesI, ph.tilesB
	// colBase[tI][b] = sum over tiles above tI in column b.
	colBase := make([][]int64, tilesI)
	run := make([]int64, p)
	for tI := 0; tI < tilesI; tI++ {
		base := make([]int64, p)
		copy(base, run)
		colBase[tI] = base
		for tB := 0; tB < tilesB; tB++ {
			sums := ph.tileSum[tI*tilesB+tB]
			for j, v := range sums {
				run[tB*ssTileCols+j] += v
			}
		}
	}
	totals := run
	ctx.Work(int64(tilesI * p))
	tileSize := func(lo, hi int) int64 { return int64(hi-lo) * ssTileRows * ssTileCols * 8 }
	write := job.For(0, tilesI*tilesB, 4, tileSize, func(c2 job.Ctx, t int) {
		tI, tB := t/tilesB, t%tilesB
		i0, i1 := tI*ssTileRows, min((tI+1)*ssTileRows, p)
		b0, b1 := tB*ssTileCols, min((tB+1)*ssTileCols, p)
		cur := make([]int64, b1-b0)
		copy(cur, colBase[tI][b0:b1])
		for i := i0; i < i1; i++ {
			for b := b0; b < b1; b++ {
				c := s.cnt.Read(c2, i*p+b)
				s.cnt.Write(c2, i*p+b, cur[b-b0]) // exclusive prefix
				cur[b-b0] += c
			}
			c2.Work(int64(b1 - b0))
		}
	})
	ctx.Fork(&ssScatterPhase{s: s, st: st, totals: totals}, write)
}

func (ph *ssCombinePhase) Size(int64) int64             { return int64(ph.s.a.Len()) * 24 }
func (ph *ssCombinePhase) StrandSize(block int64) int64 { return block }

// ssScatterPhase computes bucket offsets and forks the bucket transpose:
// each subarray streams its elements into their buckets in b.
type ssScatterPhase struct {
	s      *ssJob
	st     *ssState
	totals []int64
}

func (ph *ssScatterPhase) Run(ctx job.Ctx) {
	s, st := ph.s, ph.st
	m := s.a.Len()
	st.bucketOff = make([]int, st.p+1)
	for b := 0; b < st.p; b++ {
		st.bucketOff[b+1] = st.bucketOff[b] + int(ph.totals[b])
	}
	ctx.Work(int64(st.p))
	scatter := job.For(0, st.p, 1, func(lo, hi int) int64 { return int64(hi-lo) * int64(st.w) * 24 },
		func(c2 job.Ctx, i int) {
			lo, hi := st.subBounds(i, m)
			b := 0
			// Cursor = bucket base + this subarray's prefix within bucket.
			cursor := st.bucketOff[0] + int(s.cnt.Read(c2, i*st.p))
			for x := lo; x < hi; x++ {
				v := s.a.Read(c2, x)
				for b < len(st.splitters) && v >= st.splitters[b] {
					b++
					cursor = st.bucketOff[b] + int(s.cnt.Read(c2, i*st.p+b))
				}
				s.b.Write(c2, cursor, v)
				cursor++
				c2.Work(workPerElem)
			}
		})
	ctx.Fork(&ssBucketPhase{s: s, st: st}, scatter)
}

func (ph *ssScatterPhase) Size(int64) int64             { return int64(ph.s.a.Len()) * 24 }
func (ph *ssScatterPhase) StrandSize(block int64) int64 { return block }

// ssBucketPhase recursively sorts each bucket of b in place, then copies
// the result back to a.
type ssBucketPhase struct {
	s  *ssJob
	st *ssState
}

func (ph *ssBucketPhase) Run(ctx job.Ctx) {
	s, st := ph.s, ph.st
	m := s.a.Len()
	children := make([]job.Job, 0, st.p)
	for b := 0; b < st.p; b++ {
		lo, hi := st.bucketOff[b], st.bucketOff[b+1]
		if hi-lo < 2 {
			continue
		}
		child := &ssJob{k: s.k, a: s.b.Sub(lo, hi), b: s.a.Sub(lo, hi), cnt: s.cnt.Sub(lo, hi)}
		// Degenerate-split guard: a bucket that did not shrink (duplicate-
		// heavy input) would recurse forever; sort it serially instead.
		if hi-lo >= m {
			child.nosubs = true
		}
		children = append(children, child)
	}
	copyBack := copyJob(s.b, s.a, 1024)
	if len(children) == 0 {
		ctx.Fork(nil, copyBack)
		return
	}
	ctx.Fork(&ssCopyPhase{s: s, copy: copyBack}, children...)
}

func (ph *ssBucketPhase) Size(int64) int64             { return int64(ph.s.a.Len()) * 24 }
func (ph *ssBucketPhase) StrandSize(block int64) int64 { return block }

// ssCopyPhase runs the final copy of the sorted buckets back into a.
type ssCopyPhase struct {
	s    *ssJob
	copy job.Job
}

func (ph *ssCopyPhase) Run(ctx job.Ctx) { ctx.Fork(nil, ph.copy) }

func (ph *ssCopyPhase) Size(int64) int64             { return int64(ph.s.a.Len()) * 16 }
func (ph *ssCopyPhase) StrandSize(block int64) int64 { return block }
