package cachesim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/opcode"
	"repro/internal/xrand"
)

// buildScript encodes a random mix of work charges and delta-encoded
// accesses the way dagtrace's recorder does, and returns the raw ops plus
// the decoded (addr, write, work) sequence for the reference walk.
type refOp struct {
	work  int64 // > 0: work charge; else access
	addr  mem.Addr
	write bool
}

func buildScript(rng *xrand.Source, n int, span int64) ([]byte, []refOp) {
	var ops []byte
	ref := make([]refOp, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			w := int64(rng.Intn(30) + 1)
			ops = opcode.AppendUvarint(ops, uint64(w)<<opcode.TagBits|opcode.Work)
			ref = append(ref, refOp{work: w})
		default:
			// Mix short strides (same-line runs) with far jumps.
			var a int64
			if rng.Intn(3) == 0 {
				a = int64(rng.Intn(int(span)))
			} else {
				a = prev + int64(rng.Intn(16))
				if a >= span {
					a = 0
				}
			}
			write := rng.Intn(3) == 0
			tag := uint64(opcode.Read)
			if write {
				tag = opcode.Write
			}
			ops = opcode.AppendUvarint(ops, opcode.Zigzag(a-prev)<<opcode.TagBits|tag)
			prev = a
			ref = append(ref, refOp{work: 0, addr: mem.Addr(a), write: write})
		}
	}
	return ops, ref
}

// TestRunScriptMatchesAccess drives the same op stream through (a) the
// plain per-op walk — Access for accesses, nothing for work — and (b) the
// RunScript fast path with Access fallback, on two identical hierarchies,
// and requires identical costs, counters and LRU state, across several
// chunk budgets including ones that split runs mid-stream. The recency-
// ordered tags and dirty bits are the whole replacement state, so equal
// arrays mean equal LRU order.
func TestRunScriptMatchesAccess(t *testing.T) {
	for _, budget := range []int64{1, 7, 64, 1 << 20} {
		for seed := uint64(1); seed <= 5; seed++ {
			m := machine.TwoSocket(4, 1<<14, 1<<10)
			spA := mem.NewSpace(m.Links, m.Links)
			spB := mem.NewSpace(m.Links, m.Links)
			ha := New(m, spA)
			hb := New(m, spB)
			rng := xrand.New(seed)
			ops, ref := buildScript(rng, 4000, 1<<13)
			leaf := int(seed) % m.NumCores()

			// Reference: every access through the general walk.
			var costA int64
			now := int64(0)
			for _, op := range ref {
				if op.work > 0 {
					now += op.work
					continue
				}
				c, _ := ha.Access(leaf, now, op.addr, op.write)
				costA += c
				now += c
			}

			// Fast path: RunScript runs, Access on innermost misses.
			costB := runScripted(hb, leaf, ops, budget)

			// Work charges contribute no Access cost in the reference, but
			// RunScript spends them; subtract for comparison.
			var workTotal int64
			for _, op := range ref {
				workTotal += op.work
			}
			if costB-workTotal != costA {
				t.Fatalf("budget %d seed %d: cost %d (fast, minus work) != %d (reference)", budget, seed, costB-workTotal, costA)
			}
			for lvl := 1; lvl < m.NumLevels(); lvl++ {
				for id, ca := range ha.Caches(lvl) {
					cb := hb.Caches(lvl)[id]
					if ca.Stats != cb.Stats {
						t.Fatalf("budget %d seed %d: L%d[%d] stats %+v != %+v", budget, seed, lvl, id, cb.Stats, ca.Stats)
					}
					for i := range ca.tags {
						if ca.tags[i] != cb.tags[i] || ca.dirty[i] != cb.dirty[i] {
							t.Fatalf("budget %d seed %d: L%d[%d] way %d state diverged", budget, seed, lvl, id, i)
						}
					}
				}
			}
		}
	}
}
