package cachesim

import (
	"fmt"
	"slices"
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

// sameState compares two hierarchies of one machine: DRAM counters and
// link occupancy, every cache's counters, and every way's tag and dirty
// bit. The recency-ordered ways are the whole replacement state, so equal
// arrays mean equal LRU order.
func sameState(a, b *Hierarchy) error {
	if a.DRAMAccesses != b.DRAMAccesses || a.StallCycles != b.StallCycles ||
		a.Writebacks != b.Writebacks || a.RemoteHits != b.RemoteHits || !slices.Equal(a.linkFree, b.linkFree) {
		return fmt.Errorf("DRAM state (dram, stall, wb, remote, links) = (%d, %d, %d, %d, %v), want (%d, %d, %d, %d, %v)",
			b.DRAMAccesses, b.StallCycles, b.Writebacks, b.RemoteHits, b.linkFree,
			a.DRAMAccesses, a.StallCycles, a.Writebacks, a.RemoteHits, a.linkFree)
	}
	for lvl := 1; lvl < a.nl; lvl++ {
		for id, ca := range a.levels[lvl] {
			cb := b.levels[lvl][id]
			if ca.Stats != cb.Stats {
				return fmt.Errorf("L%d[%d] stats %+v, want %+v", lvl, id, cb.Stats, ca.Stats)
			}
			for i := range ca.ways {
				ta, da := ca.way(i)
				tb, db := cb.way(i)
				if ta != tb || da != db {
					return fmt.Errorf("L%d[%d] way %d holds (%d, %v), want (%d, %v)", lvl, id, i, tb, db, ta, da)
				}
			}
		}
	}
	return nil
}

// TestRunScriptMatchesAccess drives the same op stream through (a) the
// plain per-op walk — Access for accesses, nothing for work — and (b) the
// RunScript fast path, misses included, on two identical hierarchies, and
// requires identical costs, counters and LRU state, across several chunk
// budgets including ones that split runs mid-stream.
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

			// Fast path: RunScript runs.
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
			if err := sameState(ha, hb); err != nil {
				t.Fatalf("budget %d seed %d: %v", budget, seed, err)
			}
		}
	}
}

// FuzzRunScriptMatchesAccess feeds a fuzzed op stream and chunk budget
// through RunScript, misses included, and op by op through Access on a
// twin hierarchy, and requires equal cost, equal counters and equal set
// state. The first byte picks the machine (a two-socket machine,
// inclusive or exclusive, or one with a wide outermost or innermost line)
// and the leaf, the second the chunk budget; each following 2-byte op is
// a work charge or a read or write within an 8 KiB span, twice the
// outermost cache.
func FuzzRunScriptMatchesAccess(f *testing.F) {
	f.Add([]byte{0, 7, 0x41, 0x10, 0x82, 0x11, 0x03, 0x40, 0xc1, 0x10, 0x85, 0x30})
	f.Add([]byte{5, 1, 0x80, 0, 0x80, 0x40, 0x80, 0x80, 0x80, 0xc0, 0x80, 0, 0x41, 0x40})
	f.Add([]byte{2, 64, 0xbf, 0xff, 0x80, 0x01, 0x40, 0x02, 0xff, 0x03, 0x80, 0x01})
	// A 128 B innermost line over 64 B outer lines: read its second half
	// (a miss), then write the first half and the second (two hits).
	f.Add([]byte{3, 200, 0x40, 2, 0x80, 0, 0x80, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := machine.TwoSocket(2, 1<<12, 1<<9)
		switch data[0] & 3 {
		case 1:
			d.NonInclusive = true
		case 2:
			d.Levels[1].BlockSize = 128
		case 3:
			d.Levels[len(d.Levels)-1].BlockSize = 128
		}
		const page = 1 << 12
		ha := New(d, mem.NewSpacePaged(d.Links, d.Links, page))
		hb := New(d, mem.NewSpacePaged(d.Links, d.Links, page))
		leaf := int(data[0]>>2) % d.NumCores()
		budget := int64(data[1]) + 1
		var ops []byte
		var want int64
		prev := int64(0)
		for data = data[2:]; len(data) >= 2; data = data[2:] {
			if data[0]>>6 == 0 {
				w := int64(data[0]&0x3f) + 1
				ops = opcode.AppendUvarint(ops, uint64(w)<<opcode.TagBits|opcode.Work)
				want += w
				continue
			}
			write := data[0]>>6 == 2
			a := page + int64(data[1])*32 + int64(data[0]&0x1f)
			tag := uint64(opcode.Read)
			if write {
				tag = opcode.Write
			}
			ops = opcode.AppendUvarint(ops, opcode.Zigzag(a-prev)<<opcode.TagBits|tag)
			prev = a
			c, _ := ha.Access(leaf, want, mem.Addr(a), write)
			want += c
		}
		if got := runScripted(hb, leaf, ops, budget); got != want {
			t.Fatalf("budget %d: RunScript cost %d, Access %d", budget, got, want)
		}
		if err := sameState(ha, hb); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	})
}
