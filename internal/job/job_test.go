package job

import (
	"testing"

	"repro/internal/mem"
)

// stubCtx runs jobs inline on the calling goroutine, executing forks
// eagerly (children then continuation) — enough to unit-test job
// composition without the simulator.
type stubCtx struct {
	accesses int
	work     int64
}

func (c *stubCtx) Access(a mem.Addr, write bool) { c.accesses++ }
func (c *stubCtx) Work(cycles int64)             { c.work += cycles }
func (c *stubCtx) Fork(cont Job, children ...Job) {
	for _, ch := range children {
		ch.Run(c)
	}
	if cont != nil {
		cont.Run(c)
	}
}
func (c *stubCtx) ForkFuture(cont Job, f *Future, body Job) {
	body.Run(c)
	if cont != nil {
		cont.Run(c)
	}
}
func (c *stubCtx) ForkAwait(cont Job, futures []*Future, children ...Job) {
	for _, ch := range children {
		ch.Run(c)
	}
	cont.Run(c)
}

func TestFuncJob(t *testing.T) {
	ran := false
	FuncJob(func(Ctx) { ran = true }).Run(&stubCtx{})
	if !ran {
		t.Fatal("FuncJob did not run")
	}
}

func TestSizedAnnotations(t *testing.T) {
	j := Sized{J: FuncJob(func(Ctx) {}), Bytes: 1024}
	if got := SizeOf(j, 64); got != 1024 {
		t.Errorf("SizeOf = %d, want 1024", got)
	}
	// StrandBytes defaults to the task size (the paper's rule).
	if got := StrandSizeOf(j, 64); got != 1024 {
		t.Errorf("StrandSizeOf default = %d, want 1024", got)
	}
	j2 := Sized{J: FuncJob(func(Ctx) {}), Bytes: 1024, StrandBytes: 64}
	if got := StrandSizeOf(j2, 64); got != 64 {
		t.Errorf("StrandSizeOf explicit = %d, want 64", got)
	}
}

func TestSizeOfUnannotated(t *testing.T) {
	if got := SizeOf(FuncJob(func(Ctx) {}), 64); got != -1 {
		t.Errorf("SizeOf unannotated = %d, want -1", got)
	}
	if got := StrandSizeOf(FuncJob(func(Ctx) {}), 64); got != -1 {
		t.Errorf("StrandSizeOf unannotated = %d, want -1", got)
	}
}

func TestForCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 1000} {
		for _, grain := range []int{1, 3, 16} {
			counts := make([]int, n)
			j := For(0, n, grain, nil, func(_ Ctx, i int) { counts[i]++ })
			j.Run(&stubCtx{})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("n=%d grain=%d: index %d ran %d times", n, grain, i, c)
				}
			}
		}
	}
}

func TestForAnnotated(t *testing.T) {
	size := func(lo, hi int) int64 { return int64(hi-lo) * 8 }
	j := For(0, 100, 10, size, func(Ctx, int) {})
	sb, ok := j.(SBJob)
	if !ok {
		t.Fatal("sized For is not an SBJob")
	}
	if got := sb.Size(64); got != 800 {
		t.Errorf("For Size = %d, want 800", got)
	}
	// Internal node strand: constant footprint.
	if got := sb.StrandSize(64); got != 64 {
		t.Errorf("internal strand size = %d, want 64", got)
	}
	// Leaf job: strand size is the range footprint.
	leaf := For(0, 5, 10, size, func(Ctx, int) {}).(SBJob)
	if got := leaf.StrandSize(64); got != 40 {
		t.Errorf("leaf strand size = %d, want 40", got)
	}
	// Unannotated For must not satisfy SBJob.
	if _, ok := For(0, 10, 2, nil, func(Ctx, int) {}).(SBJob); ok {
		t.Error("unannotated For claims SBJob")
	}
}

func TestForGrainClamped(t *testing.T) {
	n := 0
	For(0, 7, 0, nil, func(Ctx, int) { n++ }).Run(&stubCtx{})
	if n != 7 {
		t.Errorf("For with grain 0 ran %d iterations, want 7", n)
	}
}

func TestSeqOrder(t *testing.T) {
	var order []int
	step := func(k int) Job { return FuncJob(func(Ctx) { order = append(order, k) }) }
	Seq(step(1), step(2), step(3)).Run(&stubCtx{})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("Seq order = %v, want [1 2 3]", order)
	}
	// Empty and single-element cases.
	Seq().Run(&stubCtx{})
	order = order[:0]
	Seq(step(9)).Run(&stubCtx{})
	if len(order) != 1 || order[0] != 9 {
		t.Errorf("Seq(single) = %v", order)
	}
}

func TestKindString(t *testing.T) {
	if TaskStart.String() != "task" || Continuation.String() != "cont" {
		t.Error("Kind.String mismatch")
	}
}
