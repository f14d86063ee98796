package kernels

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// RRG is the recursive repeated gather micro-benchmark (§5.1): like RRM
// but each pass sets B[i] = A[I[i] mod n'] with random indices I, making
// the accesses random rather than linear — even more memory-intensive.
// As with RRM, once a recursive call fits in a cache all remaining accesses
// are hits because the gather stays within the current subrange.
type RRG struct {
	A, B mem.F64
	I    mem.I64
	R    int
	Cut  float64
	Base int
	// Grain is the parallel-for leaf size of each gather pass.
	Grain int
}

// RRGConfig parameterizes NewRRG; zero fields take paper defaults.
type RRGConfig struct {
	N     int
	R     int     // default 3
	Cut   float64 // default 0.5
	Base  int     // default 2048
	Grain int     // default 512
	Seed  uint64
}

// NewRRG allocates and initializes an RRG instance in sp.
func NewRRG(sp *mem.Space, cfg RRGConfig) *RRG {
	if cfg.N <= 0 {
		panic("kernels: RRG requires N > 0")
	}
	if cfg.R == 0 {
		cfg.R = 3
	}
	if cfg.Cut == 0 {
		cfg.Cut = 0.5
	}
	if cfg.Base == 0 {
		cfg.Base = 2048
	}
	if cfg.Grain == 0 {
		cfg.Grain = 512
	}
	k := &RRG{
		A:     sp.NewF64("rrg.A", cfg.N),
		B:     sp.NewF64("rrg.B", cfg.N),
		I:     sp.NewI64("rrg.I", cfg.N),
		R:     cfg.R,
		Cut:   cfg.Cut,
		Base:  cfg.Base,
		Grain: cfg.Grain,
	}
	fillRandom(k.A.Data, cfg.Seed)
	r := xrand.New(cfg.Seed + 0x5bd1e995)
	for i := range k.I.Data {
		k.I.Data[i] = r.Int63()
	}
	return k
}

// Name implements Kernel.
func (k *RRG) Name() string { return "RRG" }

// InputBytes implements Kernel.
func (k *RRG) InputBytes() int64 { return k.A.Bytes() + k.B.Bytes() + k.I.Bytes() }

// Root implements Kernel: each pass gathers B[i] = A[lo + I[i] mod n]
// over the range [lo, lo+n) — one index read, one random read within the
// range, one write, touching A, B and I.
func (k *RRG) Root() job.Job {
	p := &passes{r: k.R, base: k.Base, grain: k.Grain, cut: k.Cut, elemBytes: 24,
		elem: func(ctx job.Ctx, lo, n, i int) {
			j := lo + int(k.I.Read(ctx, i)%int64(n))
			k.B.Write(ctx, i, k.A.Read(ctx, j))
			ctx.Work(workPerElem)
		}}
	return &passTask{p: p, n: k.A.Len()}
}

// Verify implements Kernel: replay the recursion's final gathers
// sequentially and compare. The last pass over each base-case range gathers
// within that range, so B[i] = A[lo + I[i] mod (hi-lo)] for i's base range.
func (k *RRG) Verify() error {
	n := k.A.Len()
	var check func(lo, hi int) error
	check = func(lo, hi int) error {
		m := hi - lo
		if m <= k.Base {
			for i := lo; i < hi; i++ {
				j := lo + int(k.I.Data[i]%int64(m))
				if k.B.Data[i] != k.A.Data[j] {
					return fmt.Errorf("RRG: B[%d] = %v, want A[%d] = %v", i, k.B.Data[i], j, k.A.Data[j])
				}
			}
			return nil
		}
		cut := splitAt(m, k.Cut)
		if err := check(lo, lo+cut); err != nil {
			return err
		}
		return check(lo+cut, hi)
	}
	return check(0, n)
}
