package kernels

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
)

// Mat is a view of a (sub-block of a) simulated row-major n×n float64
// matrix. Sub-blocks share backing storage with the parent, so the 8-way
// recursive multiply works in place.
type Mat struct {
	base   mem.Addr
	data   []float64 // full matrix backing, stride×stride
	stride int
	r0, c0 int
	dim    int
}

// NewMat allocates an n×n matrix in sp.
func NewMat(sp *mem.Space, name string, n int) Mat {
	return Mat{
		base:   sp.Alloc(name, int64(n)*int64(n)*8),
		data:   make([]float64, n*n),
		stride: n,
		dim:    n,
	}
}

// Dim returns the view's dimension.
func (m Mat) Dim() int { return m.dim }

// Bytes returns the view's footprint in bytes.
func (m Mat) Bytes() int64 { return int64(m.dim) * int64(m.dim) * 8 }

func (m Mat) idx(i, j int) int { return (m.r0+i)*m.stride + (m.c0 + j) }

// AddrOf returns the simulated address of element (i, j).
func (m Mat) AddrOf(i, j int) mem.Addr { return m.base + mem.Addr(m.idx(i, j))*8 }

// At returns element (i, j) without simulating an access (host-side use:
// initialization and verification).
func (m Mat) At(i, j int) float64 { return m.data[m.idx(i, j)] }

// Set writes element (i, j) without simulating an access.
func (m Mat) Set(i, j int, v float64) { m.data[m.idx(i, j)] = v }

// Read returns element (i, j), reporting the access.
func (m Mat) Read(ctx job.Ctx, i, j int) float64 {
	ctx.Access(m.AddrOf(i, j), false)
	return m.data[m.idx(i, j)]
}

// Write sets element (i, j), reporting the access.
func (m Mat) Write(ctx job.Ctx, i, j int, v float64) {
	ctx.Access(m.AddrOf(i, j), true)
	m.data[m.idx(i, j)] = v
}

// Block returns the quadrant view (qi, qj) of a 2×2 split.
func (m Mat) Block(qi, qj int) Mat {
	h := m.dim / 2
	return Mat{base: m.base, data: m.data, stride: m.stride, r0: m.r0 + qi*h, c0: m.c0 + qj*h, dim: h}
}

// MatMul is the 8-way recursive in-place matrix multiplication of §5.1:
// C += A·B with four recursive block multiplies invoked in parallel
// followed by the other four (two parallel blocks, allowing the in-place
// update). The base case models a serial SIMD kernel (the paper switches
// to MKL's dgemm at 128×128): real arithmetic at line-granularity access
// reporting, with a high compute-to-miss ratio of about B·√M instructions
// per miss — the paper's compute-intensive extreme.
type MatMul struct {
	A, B, C Mat
	// Base is the serial base-case dimension.
	Base int

	n   int
	ref []float64 // reference product for verification (host-side)
}

// MatMulConfig parameterizes NewMatMul.
type MatMulConfig struct {
	N    int // matrix dimension; must be a power of two
	Base int // default 32; must divide N
	Seed uint64
}

// Check reports whether NewMatMul accepts cfg: N must be a positive power
// of two that the base case divides, the base being 32 when Base is 0.
func (cfg MatMulConfig) Check() error { return cfg.normalize() }

// normalize fills cfg's defaults and validates it.
func (cfg *MatMulConfig) normalize() error {
	if cfg.N <= 0 || cfg.N&(cfg.N-1) != 0 {
		return fmt.Errorf("kernels: MatMul dimension %d must be a positive power of two", cfg.N)
	}
	if cfg.Base == 0 {
		cfg.Base = 32
	}
	if cfg.N%cfg.Base != 0 {
		return fmt.Errorf("kernels: MatMul base %d must divide N=%d", cfg.Base, cfg.N)
	}
	return nil
}

// NewMatMul allocates and fills A and B with random values and zeroes C.
// It panics on a cfg that Check rejects.
func NewMatMul(sp *mem.Space, cfg MatMulConfig) *MatMul {
	if err := cfg.normalize(); err != nil {
		panic(err.Error())
	}
	k := &MatMul{
		A:    NewMat(sp, "matmul.A", cfg.N),
		B:    NewMat(sp, "matmul.B", cfg.N),
		C:    NewMat(sp, "matmul.C", cfg.N),
		Base: cfg.Base,
		n:    cfg.N,
	}
	fillRandom(k.A.data, cfg.Seed)
	fillRandom(k.B.data, cfg.Seed+1)
	k.ref = hostMultiply(k.A, k.B)
	return k
}

// hostMultiply computes A·B on the host for verification.
func hostMultiply(a, b Mat) []float64 {
	n := a.dim
	ref := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for kk := 0; kk < n; kk++ {
			av := a.At(i, kk)
			if av == 0 {
				continue
			}
			row := ref[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				row[j] += av * b.At(kk, j)
			}
		}
	}
	return ref
}

// Name implements Kernel.
func (k *MatMul) Name() string { return "MatMul" }

// InputBytes implements Kernel.
func (k *MatMul) InputBytes() int64 { return 3 * k.A.Bytes() }

// Root implements Kernel.
func (k *MatMul) Root() job.Job {
	return &mmJob{k: k, a: k.A, b: k.B, c: k.C}
}

// Verify implements Kernel.
func (k *MatMul) Verify() error {
	for i := 0; i < k.n; i++ {
		for j := 0; j < k.n; j++ {
			got, want := k.C.At(i, j), k.ref[i*k.n+j]
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			if diff > 1e-6*(1+want) {
				return fmt.Errorf("MatMul: C[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
	return nil
}

// mmJob computes c += a·b for equally sized square blocks.
type mmJob struct {
	k       *MatMul
	a, b, c Mat
}

// Size implements job.SBJob: the task touches three dim×dim blocks.
func (m *mmJob) Size(int64) int64 { return 3 * m.a.Bytes() }

// StrandSize implements job.SBJob.
func (m *mmJob) StrandSize(block int64) int64 {
	if m.a.Dim() <= m.k.Base {
		return 3 * m.a.Bytes()
	}
	return block
}

// lineElems is the access-reporting granularity of the base-case inner
// loop: one simulated access per 64-byte line (8 float64s), matching the
// spatial locality of a streaming SIMD kernel exactly while keeping the
// simulation fast.
const lineElems = 8

func (m *mmJob) Run(ctx job.Ctx) {
	dim := m.a.Dim()
	if dim <= m.k.Base {
		m.baseMultiply(ctx)
		return
	}
	// First parallel block: the four products that touch disjoint C
	// quadrants with A's left column and B's top row.
	first := []job.Job{
		&mmJob{k: m.k, a: m.a.Block(0, 0), b: m.b.Block(0, 0), c: m.c.Block(0, 0)},
		&mmJob{k: m.k, a: m.a.Block(0, 0), b: m.b.Block(0, 1), c: m.c.Block(0, 1)},
		&mmJob{k: m.k, a: m.a.Block(1, 0), b: m.b.Block(0, 0), c: m.c.Block(1, 0)},
		&mmJob{k: m.k, a: m.a.Block(1, 0), b: m.b.Block(0, 1), c: m.c.Block(1, 1)},
	}
	ctx.Fork(&mmSecondHalf{m: m}, first...)
}

// mmSecondHalf runs the other four block products after the first four
// have joined (they update the same C quadrants, hence the barrier).
type mmSecondHalf struct {
	m *mmJob
}

func (s *mmSecondHalf) Size(int64) int64             { return 3 * s.m.a.Bytes() }
func (s *mmSecondHalf) StrandSize(block int64) int64 { return block }

func (s *mmSecondHalf) Run(ctx job.Ctx) {
	m := s.m
	second := []job.Job{
		&mmJob{k: m.k, a: m.a.Block(0, 1), b: m.b.Block(1, 0), c: m.c.Block(0, 0)},
		&mmJob{k: m.k, a: m.a.Block(0, 1), b: m.b.Block(1, 1), c: m.c.Block(0, 1)},
		&mmJob{k: m.k, a: m.a.Block(1, 1), b: m.b.Block(1, 0), c: m.c.Block(1, 0)},
		&mmJob{k: m.k, a: m.a.Block(1, 1), b: m.b.Block(1, 1), c: m.c.Block(1, 1)},
	}
	ctx.Fork(nil, second...)
}

// baseMultiply is the serial ikj kernel with real arithmetic. Access
// reporting: one read per A element; one read per B line and one write per
// C line per (i, k, line) step; two flops per cycle of Work.
func (m *mmJob) baseMultiply(ctx job.Ctx) {
	dim := m.a.Dim()
	for i := 0; i < dim; i++ {
		for kk := 0; kk < dim; kk++ {
			av := m.a.Read(ctx, i, kk)
			for j0 := 0; j0 < dim; j0 += lineElems {
				ctx.Access(m.b.AddrOf(kk, j0), false)
				ctx.Access(m.c.AddrOf(i, j0), true)
				jmax := j0 + lineElems
				if jmax > dim {
					jmax = dim
				}
				for j := j0; j < jmax; j++ {
					m.c.Set(i, j, m.c.At(i, j)+av*m.b.At(kk, j))
				}
			}
			ctx.Work(int64(dim) / 2)
		}
	}
}
