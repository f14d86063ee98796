package cachesim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/opcode"
)

// Allocation regression tests: Hierarchy.Access is the simulator's hottest
// function and must not allocate on either the innermost-hit path or the
// full probe/fill walk, and neither may the RunScript replay loop.

func TestAccessHitPathZeroAllocs(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	clock := int64(1)
	if n := testing.AllocsPerRun(200, func() {
		h.Access(0, clock, a, false)
		clock++
	}); n != 0 {
		t.Errorf("L1 hit path allocates %.1f per access, want 0", n)
	}
}

func TestAccessMissPathZeroAllocs(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		// Fresh line every call: misses every level, fills down the path.
		h.Access(i%32, int64(i), mem.Addr(mem.PageSize)+mem.Addr(i*64), false)
		i++
	}); n != 0 {
		t.Errorf("miss/fill path allocates %.1f per access, want 0", n)
	}
}

func TestRunScriptZeroAllocs(t *testing.T) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := New(d, sp)
	// Two same-offset streams of hugepage-aligned arrays, read and write,
	// interleaved with work: every access hits L1 after the first pass.
	var ops []byte
	prev := int64(0)
	for i := int64(0); i < 64; i++ {
		for _, a := range []int64{mem.PageSize + i*8, 2*mem.PageSize + i*8} {
			ops = opcode.AppendUvarint(ops, opcode.Zigzag(a-prev)<<opcode.TagBits|opcode.Write)
			prev = a
		}
		ops = opcode.AppendUvarint(ops, 3<<opcode.TagBits|opcode.Work)
	}
	runScripted(h, 0, ops, 1<<40)
	if n := testing.AllocsPerRun(50, func() {
		h.RunScript(0, ops, 0, int64(len(ops)), 0, 0, 1<<40)
	}); n != 0 {
		t.Errorf("RunScript allocates %.1f per run, want 0", n)
	}

	// Sixteen writes to lines that share one set at every level (L3 has
	// 49152 sets: a 3 MB stride): an 8-way set cycled through 16 lines
	// misses every time, so every run takes the outer walk to DRAM and
	// writes back dirty victims.
	ops, prev = ops[:0], 0
	for i := int64(0); i < 16; i++ {
		a := mem.PageSize + i*49152*64
		ops = opcode.AppendUvarint(ops, opcode.Zigzag(a-prev)<<opcode.TagBits|opcode.Write)
		prev = a
	}
	runScripted(h, 0, ops, 1<<40)
	misses := h.MissesAt(1)
	clock := int64(0)
	if n := testing.AllocsPerRun(50, func() {
		_, _, spent := h.RunScript(0, ops, 0, int64(len(ops)), 0, clock, 1<<40)
		clock += spent
	}); n != 0 {
		t.Errorf("RunScript with misses allocates %.1f per run, want 0", n)
	}
	if got := h.MissesAt(1) - misses; got != 51*16 {
		t.Errorf("%d L3 misses over 51 runs, want every access to miss (%d)", got, 51*16)
	}
}
