package kernels

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
)

// RRM is the recursive repeated map micro-benchmark (§5.1): r point-wise
// map passes from A to B over the current range, then a recursive split of
// both arrays by the cut ratio f. It is memory-intensive — almost no work
// per access — but once a recursive call fits in a cache all remaining
// accesses are hits, which is exactly the locality structure space-bounded
// schedulers exploit.
type RRM struct {
	A, B mem.F64
	// R is the number of repeated passes per level (paper default 3).
	R int
	// Cut is the split ratio f (paper default 0.5).
	Cut float64
	// Base is the range length at which recursion stops.
	Base int
	// Grain is the parallel-for leaf size of each map pass.
	Grain int
}

// RRMConfig parameterizes NewRRM; zero fields take paper defaults.
type RRMConfig struct {
	N     int     // number of elements (required)
	R     int     // repeats, default 3
	Cut   float64 // cut ratio, default 0.5
	Base  int     // recursion base, default 2048
	Grain int     // map-pass grain, default 512
	Seed  uint64
}

// NewRRM allocates and initializes an RRM instance in sp.
func NewRRM(sp *mem.Space, cfg RRMConfig) *RRM {
	if cfg.N <= 0 {
		panic("kernels: RRM requires N > 0")
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
	k := &RRM{
		A:     sp.NewF64("rrm.A", cfg.N),
		B:     sp.NewF64("rrm.B", cfg.N),
		R:     cfg.R,
		Cut:   cfg.Cut,
		Base:  cfg.Base,
		Grain: cfg.Grain,
	}
	fillRandom(k.A.Data, cfg.Seed)
	return k
}

// Name implements Kernel.
func (k *RRM) Name() string { return "RRM" }

// InputBytes implements Kernel.
func (k *RRM) InputBytes() int64 { return k.A.Bytes() + k.B.Bytes() }

// Root implements Kernel: each pass maps B[i] = A[i]+1 over the range,
// touching A and B.
func (k *RRM) Root() job.Job {
	p := &passes{r: k.R, base: k.Base, grain: k.Grain, cut: k.Cut, elemBytes: 16,
		elem: func(ctx job.Ctx, _, _, i int) {
			k.B.Write(ctx, i, k.A.Read(ctx, i)+1)
			ctx.Work(workPerElem)
		}}
	return &passTask{p: p, n: k.A.Len()}
}

// Verify implements Kernel: B must equal A+1 everywhere (the final pass at
// every recursion level rewrites B from A).
func (k *RRM) Verify() error {
	for i := range k.A.Data {
		if k.B.Data[i] != k.A.Data[i]+1 {
			return fmt.Errorf("RRM: B[%d] = %v, want A[%d]+1 = %v", i, k.B.Data[i], i, k.A.Data[i]+1)
		}
	}
	return nil
}
