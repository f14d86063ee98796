package kernels

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/mem"
)

// inlineCtx executes jobs depth-first on the calling goroutine — a
// sequential semantics oracle for kernel correctness, independent of the
// simulator.
type inlineCtx struct{}

func (c *inlineCtx) Access(a mem.Addr, write bool) {}
func (c *inlineCtx) Work(cycles int64)             {}
func (c *inlineCtx) Fork(cont job.Job, children ...job.Job) {
	for _, ch := range children {
		ch.Run(c)
	}
	if cont != nil {
		cont.Run(c)
	}
}
func (c *inlineCtx) ForkFuture(cont job.Job, f *job.Future, body job.Job) {
	body.Run(c)
	if cont != nil {
		cont.Run(c)
	}
}
func (c *inlineCtx) ForkAwait(cont job.Job, futures []*job.Future, children ...job.Job) {
	for _, ch := range children {
		ch.Run(c)
	}
	cont.Run(c)
}

func runInline(j job.Job) { j.Run(&inlineCtx{}) }

func TestIsqrt(t *testing.T) {
	for _, c := range []struct{ n, want int }{{0, 0}, {1, 1}, {2, 1}, {3, 1}, {4, 2}, {15, 3}, {16, 4}, {1 << 20, 1 << 10}, {(1<<10)*(1<<10) - 1, 1023}} {
		if got := isqrt(c.n); got != c.want {
			t.Errorf("isqrt(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestIsqrtProperty(t *testing.T) {
	f := func(x uint32) bool {
		n := int(x % (1 << 26))
		r := isqrt(n)
		return r*r <= n && (r+1)*(r+1) > n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketOf(t *testing.T) {
	sp := []float64{10, 20, 30}
	cases := []struct {
		v    float64
		want int
	}{{5, 0}, {10, 1}, {15, 1}, {20, 2}, {29, 2}, {30, 3}, {99, 3}}
	for _, c := range cases {
		if got := bucketOf(c.v, sp); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if got := bucketOf(1, nil); got != 0 {
		t.Errorf("bucketOf with no splitters = %d", got)
	}
}

func TestQuadrantOf(t *testing.T) {
	if quadrantOf(0.1, 0.1, 0.5, 0.5) != 0 ||
		quadrantOf(0.9, 0.1, 0.5, 0.5) != 1 ||
		quadrantOf(0.1, 0.9, 0.5, 0.5) != 2 ||
		quadrantOf(0.9, 0.9, 0.5, 0.5) != 3 {
		t.Error("quadrantOf misclassifies")
	}
	// Boundary points go to the high side.
	if quadrantOf(0.5, 0.5, 0.5, 0.5) != 3 {
		t.Error("boundary point not in quadrant 3")
	}
}

func TestSerialQuickSortProperty(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := int(n16%2000) + 1
		sp := mem.NewSpace(1, 1)
		a := sp.NewF64("x", n)
		fillRandom(a.Data, seed)
		want := append([]float64(nil), a.Data...)
		sort.Float64s(want)
		serialQuickSort(&inlineCtx{}, a)
		for i := range want {
			if a.Data[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSerialQuickSortDuplicates(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	a := sp.NewF64("x", 500)
	for i := range a.Data {
		a.Data[i] = float64(i % 3)
	}
	serialQuickSort(&inlineCtx{}, a)
	if i := isSorted(a.Data); i >= 0 {
		t.Fatalf("duplicate-heavy array not sorted at %d", i)
	}
}

func TestHoarePartition(t *testing.T) {
	f := func(seed uint64) bool {
		sp := mem.NewSpace(1, 1)
		a := sp.NewF64("x", 200)
		fillRandom(a.Data, seed)
		ctx := &inlineCtx{}
		p := medianOf3(ctx, a)
		m := hoarePartition(ctx, a, 0, a.Len(), p)
		if m < 0 || m > a.Len() {
			return false
		}
		for i := 0; i < m; i++ {
			if a.Data[i] > p {
				return false
			}
		}
		for i := m; i < a.Len(); i++ {
			if a.Data[i] < p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// inlineKernel runs a kernel's whole job tree sequentially and verifies.
func inlineKernel(t *testing.T, k Kernel) {
	t.Helper()
	runInline(k.Root())
	if err := k.Verify(); err != nil {
		t.Fatalf("%s (inline): %v", k.Name(), err)
	}
}

func TestRRMInline(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	inlineKernel(t, NewRRM(sp, RRMConfig{N: 10000, Base: 256, Grain: 64, Seed: 1}))
}

func TestRRMUnevenCut(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	inlineKernel(t, NewRRM(sp, RRMConfig{N: 5000, Base: 100, Grain: 64, Cut: 0.3, Seed: 2}))
}

func TestRRGInline(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	inlineKernel(t, NewRRG(sp, RRGConfig{N: 10000, Base: 256, Grain: 64, Seed: 3}))
}

func TestQuicksortInline(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	inlineKernel(t, NewQuicksort(sp, QuicksortConfig{N: 50000, SerialCutoff: 512, PartCutoff: 4096, Chunk: 512, Seed: 4}))
}

func TestQuicksortTinyAndDefaults(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	inlineKernel(t, NewQuicksort(sp, QuicksortConfig{N: 10, Seed: 5}))
	sp2 := mem.NewSpace(1, 1)
	inlineKernel(t, NewQuicksort(sp2, QuicksortConfig{N: 30000, Seed: 6}))
}

func TestSamplesortInline(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	inlineKernel(t, NewSamplesort(sp, SamplesortConfig{N: 50000, Cutoff: 512, Seed: 7}))
}

func TestSamplesortSmall(t *testing.T) {
	for _, n := range []int{1, 2, 100, 513, 5000} {
		sp := mem.NewSpace(1, 1)
		inlineKernel(t, NewSamplesort(sp, SamplesortConfig{N: n, Cutoff: 512, Seed: uint64(n)}))
	}
}

func TestSamplesortDuplicateHeavy(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewSamplesort(sp, SamplesortConfig{N: 20000, Cutoff: 256, Seed: 8})
	for i := range k.A.Data {
		k.A.Data[i] = float64(i % 5)
	}
	k.wantSum, k.wantSq = checksum(k.A.Data)
	runInline(k.Root())
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestAwareSamplesortInline(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewAwareSamplesort(sp, AwareSamplesortConfig{
		N: 60000, L3Bytes: 128 << 10, SerialCutoff: 512, PartCutoff: 4096, Seed: 9,
	})
	if k.Buckets() < 2 {
		t.Fatalf("expected multiple buckets, got %d", k.Buckets())
	}
	inlineKernel(t, k)
}

func TestAwareSamplesortSingleBucket(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewAwareSamplesort(sp, AwareSamplesortConfig{
		N: 1000, L3Bytes: 1 << 20, SerialCutoff: 128, Seed: 10,
	})
	if k.Buckets() != 1 {
		t.Fatalf("expected 1 bucket, got %d", k.Buckets())
	}
	inlineKernel(t, k)
}

func TestQuadtreeInline(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewQuadtree(sp, QuadtreeConfig{N: 30000, Cutoff: 512, Chunk: 512, Seed: 11})
	inlineKernel(t, k)
	if k.RootNode.Leaf {
		t.Error("tree did not split at all")
	}
}

func TestQuadtreeDegenerateAllSamePoint(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewQuadtree(sp, QuadtreeConfig{N: 5000, Cutoff: 64, Chunk: 256, MaxDepth: 8, Seed: 12})
	for i := range k.P.X {
		k.P.X[i], k.P.Y[i] = 0.25, 0.75
	}
	runInline(k.Root())
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulInline(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewMatMul(sp, MatMulConfig{N: 64, Base: 16, Seed: 13})
	inlineKernel(t, k)
}

func TestMatMulBaseEqualsN(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	inlineKernel(t, NewMatMul(sp, MatMulConfig{N: 16, Base: 16, Seed: 14}))
}

func TestMatMulValidation(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	for _, bad := range []MatMulConfig{{N: 0}, {N: 48}, {N: 64, Base: 48}} {
		func() {
			defer func() { recover() }()
			NewMatMul(sp, bad)
			t.Errorf("MatMulConfig %+v accepted", bad)
		}()
	}
}

func TestMatViews(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	m := NewMat(sp, "m", 8)
	m.Set(3, 5, 42)
	if m.At(3, 5) != 42 {
		t.Error("Set/At round trip failed")
	}
	blk := m.Block(0, 1) // rows 0-3, cols 4-7
	if blk.At(3, 1) != 42 {
		t.Errorf("block view At = %v, want 42", blk.At(3, 1))
	}
	if blk.AddrOf(3, 1) != m.AddrOf(3, 5) {
		t.Error("block view address mismatch")
	}
	if blk.Dim() != 4 {
		t.Errorf("block dim = %d", blk.Dim())
	}
}

func TestChecksumNear(t *testing.T) {
	xs := []float64{1, 2, 3}
	s, q := checksum(xs)
	if s != 6 || q != 14 {
		t.Errorf("checksum = %v,%v", s, q)
	}
	if !near(1e12, 1e12+1) {
		t.Error("near too strict for large values")
	}
	if near(1, 2) {
		t.Error("near too lax")
	}
	if math.IsNaN(s) {
		t.Error("NaN checksum")
	}
}

func TestVerifySortedDetectsCorruption(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	s, q := checksum(xs)
	if err := verifySorted("t", xs, s, q); err != nil {
		t.Errorf("valid output rejected: %v", err)
	}
	if err := verifySorted("t", []float64{2, 1, 3, 4}, s, q); err == nil {
		t.Error("unsorted output accepted")
	}
	if err := verifySorted("t", []float64{1, 2, 3, 5}, s, q); err == nil {
		t.Error("corrupted output accepted")
	}
}

func TestRRGVerifyDetectsCorruption(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewRRG(sp, RRGConfig{N: 2000, Base: 128, Seed: 15})
	runInline(k.Root())
	k.B.Data[17]++
	if err := k.Verify(); err == nil {
		t.Error("RRG.Verify missed corruption")
	}
}

func TestRRMVerifyDetectsCorruption(t *testing.T) {
	sp := mem.NewSpace(1, 1)
	k := NewRRM(sp, RRMConfig{N: 2000, Base: 128, Seed: 16})
	runInline(k.Root())
	k.B.Data[17] = -1
	if err := k.Verify(); err == nil {
		t.Error("RRM.Verify missed corruption")
	}
}
