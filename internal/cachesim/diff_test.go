package cachesim

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/opcode"
	"repro/internal/xrand"
)

// Differential tests: the recency-ordered Hierarchy against the stamp-LRU
// reference model of ref_test.go. Both must agree on every access's cost
// and serving level, on every counter, and on each set's contents in LRU
// order.

type diffMachine struct {
	name string
	d    *machine.Desc
	page int64 // simulated page size, as the experiment profiles scale it
}

func diffMachines() []diffMachine {
	quick := machine.Scaled(machine.Xeon7560HT(), 256)
	paper := machine.Scaled(machine.Xeon7560HT(), 64)
	excl := machine.Scaled(machine.Xeon7560HT(), 256)
	excl.NonInclusive = true
	exclTwo := machine.TwoSocket(2, 1<<14, 1<<12)
	exclTwo.NonInclusive = true
	// Levels with different block sizes: an outermost line spanning two
	// inner lines, and an innermost line spanning two outer lines.
	wideL3 := machine.Scaled(machine.Xeon7560HT(), 256)
	wideL3.Levels[1].BlockSize = 128
	wideL1 := machine.Scaled(machine.Xeon7560HT(), 256)
	wideL1.Levels[3].Size, wideL1.Levels[3].BlockSize = 1<<10, 128
	return []diffMachine{
		{"quick-xeon-ht", quick, mem.PageSize / 256},
		{"paper-xeon-ht", paper, mem.PageSize / 64},
		{"twosocket", machine.TwoSocket(4, 1<<14, 1<<10), 1 << 13},
		{"flat", machine.Flat(4, 3<<12), 1 << 13},
		{"exclusive-quick-xeon-ht", excl, mem.PageSize / 256},
		{"exclusive-twosocket", exclTwo, 1 << 13},
		{"quick-xeon-ht-128B-L3", wideL3, mem.PageSize / 256},
		{"quick-xeon-ht-128B-L1", wideL1, mem.PageSize / 256},
	}
}

// way decodes way i of c into the reference model's form: the tag is
// line+1 (0 for an invalid way) and the dirty bit is bit 0 of the word.
func (c *Cache) way(i int) (tag uint64, dirty bool) {
	w := c.ways[i]
	return w >> 1, w&1 != 0
}

// accessGen produces a seeded access stream that switches every few
// hundred accesses between four patterns: random gathers over a span
// several times the outermost caches, two streams at the same offset of
// hugepage-aligned arrays (RRM's b[i] = a[i]+1), a small hot set revisited
// in random order (hits deep in the LRU order), and a sequential scan.
type accessGen struct {
	rng        *xrand.Source
	cores      int
	span, page int64
	pattern    int
	left       int
	leaf       int
	pos        int64
	second     bool
}

func newAccessGen(seed uint64, m diffMachine) *accessGen {
	outer := m.d.Levels[1].Size * int64(m.d.NodesAt(1))
	return &accessGen{rng: xrand.New(seed), cores: m.d.NumCores(), span: 4 * outer, page: m.page}
}

func (g *accessGen) next() (leaf int, a mem.Addr, write bool) {
	if g.left == 0 {
		g.pattern, g.left = g.rng.Intn(4), 100+g.rng.Intn(900)
		g.leaf = g.rng.Intn(g.cores)
		g.pos = int64(g.rng.Intn(int(g.span)))
	}
	g.left--
	write = g.rng.Intn(3) == 0
	switch g.pattern {
	case 0:
		return g.rng.Intn(g.cores), mem.Addr(g.page + int64(g.rng.Intn(int(g.span)))), write
	case 1:
		// Read a[i], then write b[i]: b sits a whole number of pages above a.
		off := g.page + g.pos%(g.span/2)
		if g.second = !g.second; g.second {
			return g.leaf, mem.Addr(off), false
		}
		g.pos += 8
		return g.leaf, mem.Addr(off + 8*g.page), true
	case 2:
		return g.leaf, mem.Addr(g.page + g.pos%g.span + int64(g.rng.Intn(16))*64), write
	default:
		g.pos += 8
		return g.leaf, mem.Addr(g.page + g.pos%g.span), write
	}
}

// flush invalidates one random cache in both models, as fault.Flush does.
func flush(rng *xrand.Source, h *Hierarchy, r *refHierarchy) {
	lvl := 1 + rng.Intn(h.nl-1)
	id := rng.Intn(len(h.levels[lvl]))
	h.levels[lvl][id].Invalidate()
	r.levels[lvl][id].flush()
}

// diffState compares every counter and every set's contents, in LRU order,
// of the two models.
func diffState(h *Hierarchy, r *refHierarchy) error {
	if h.DRAMAccesses != r.DRAMAccesses || h.StallCycles != r.StallCycles ||
		h.Writebacks != r.Writebacks || h.RemoteHits != r.RemoteHits {
		return fmt.Errorf("DRAM counters (dram, stall, wb, remote) = (%d, %d, %d, %d), reference (%d, %d, %d, %d)",
			h.DRAMAccesses, h.StallCycles, h.Writebacks, h.RemoteHits,
			r.DRAMAccesses, r.StallCycles, r.Writebacks, r.RemoteHits)
	}
	for lvl := 1; lvl < h.nl; lvl++ {
		for id, c := range h.levels[lvl] {
			rc := r.levels[lvl][id]
			if c.Stats != rc.Stats {
				return fmt.Errorf("L%d[%d] stats %+v, reference %+v", lvl, id, c.Stats, rc.Stats)
			}
			for s := 0; s < c.sets; s++ {
				tags, dirty := rc.lruOrder(s)
				for w := 0; w < c.assoc; w++ {
					var tag uint64
					var d bool
					if w < len(tags) {
						tag, d = tags[w], dirty[w]
					}
					if got, gotDirty := c.way(s*c.assoc + w); got != tag || gotDirty != d {
						return fmt.Errorf("L%d[%d] set %d way %d holds (%d, %v), reference LRU order has (%d, %v)",
							lvl, id, s, w, got, gotDirty, tag, d)
					}
				}
			}
		}
	}
	return nil
}

func newPair(m diffMachine) (*Hierarchy, *refHierarchy) {
	return New(m.d, mem.NewSpacePaged(m.d.Links, m.d.Links, m.page)),
		newRefHierarchy(m.d, mem.NewSpacePaged(m.d.Links, m.d.Links, m.page))
}

// TestAccessMatchesReference drives 200k seeded accesses per machine, with
// random cache flushes, through both models on every diffMachines entry.
func TestAccessMatchesReference(t *testing.T) {
	const accesses, checkEvery = 200_000, 25_000
	for i, m := range diffMachines() {
		t.Run(m.name, func(t *testing.T) {
			h, r := newPair(m)
			g := newAccessGen(uint64(i+1), m)
			now := int64(0)
			for n := 1; n <= accesses; n++ {
				if g.rng.Intn(5000) == 0 {
					flush(g.rng, h, r)
				}
				leaf, a, write := g.next()
				cost, lvl := h.Access(leaf, now, a, write)
				rcost, rlvl := r.Access(leaf, now, a, write)
				if cost != rcost || lvl != rlvl {
					t.Fatalf("access %d (leaf %d, addr %#x, write %v): cost %d at level %d, reference %d at level %d",
						n, leaf, a, write, cost, lvl, rcost, rlvl)
				}
				now += cost / 4
				if n%checkEvery == 0 {
					if err := diffState(h, r); err != nil {
						t.Fatalf("after %d accesses: %v", n, err)
					}
				}
			}
		})
	}
}

// runScripted advances ops on h for leaf the way the engine's inline
// interpreter does — RunScript runs, a fresh budget at every exhaustion,
// the clock advanced by every run's cycles — and returns the summed cost
// of work and accesses.
func runScripted(h *Hierarchy, leaf int, ops []byte, budget int64) (total int64) {
	ip, end, prev := int64(0), int64(len(ops)), int64(0)
	for ip < end {
		nip, nprev, spent := h.RunScript(leaf, ops, ip, end, prev, total, budget)
		ip, prev = nip, nprev
		total += spent
	}
	return total
}

// TestRunScriptMatchesReference replays one leaf's generated op stream
// through RunScript at several chunk budgets and the same stream access by
// access through the reference model, on every diffMachines entry.
func TestRunScriptMatchesReference(t *testing.T) {
	for _, m := range diffMachines() {
		t.Run(m.name, func(t *testing.T) { runScriptMatchesReference(t, m) })
	}
}

func runScriptMatchesReference(t *testing.T, m diffMachine) {
	leaf := 5 % m.d.NumCores()
	for _, budget := range []int64{1, 7, 64, 1 << 20} {
		h, r := newPair(m)
		g := newAccessGen(uint64(budget), m)
		var ops []byte
		prev, want := int64(0), int64(0)
		for n := 0; n < 50_000; n++ {
			if g.rng.Intn(4) == 0 {
				w := int64(g.rng.Intn(30) + 1)
				ops = opcode.AppendUvarint(ops, uint64(w)<<opcode.TagBits|opcode.Work)
				want += w
				continue
			}
			_, a, write := g.next()
			tag := uint64(opcode.Read)
			if write {
				tag = opcode.Write
			}
			ops = opcode.AppendUvarint(ops, opcode.Zigzag(int64(a)-prev)<<opcode.TagBits|tag)
			prev = int64(a)
			c, _ := r.Access(leaf, want, a, write)
			want += c
		}
		if got := runScripted(h, leaf, ops, budget); got != want {
			t.Fatalf("budget %d: scripted cost %d, reference %d", budget, got, want)
		}
		if err := diffState(h, r); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
	}
}

// TestExclusiveSetsHoldNoDuplicates pins the exclusive-fill merge: victims
// cascading into a shared cache that already holds their line must merge
// into that copy, never install a second one in the same set.
func TestExclusiveSetsHoldNoDuplicates(t *testing.T) {
	for _, m := range diffMachines() {
		if !m.d.NonInclusive {
			continue
		}
		h, _ := newPair(m)
		g := newAccessGen(7, m)
		for n := 0; n < 50_000; n++ {
			leaf, a, write := g.next()
			h.Access(leaf, int64(n), a, write)
		}
		for lvl := 1; lvl < h.nl; lvl++ {
			for id, c := range h.levels[lvl] {
				for s := 0; s < c.sets; s++ {
					seen := map[uint64]bool{}
					for w := s * c.assoc; w < (s+1)*c.assoc; w++ {
						tag, dirty := c.way(w)
						if tag == 0 && dirty {
							t.Fatalf("%s: L%d[%d] set %d way %d is invalid but dirty", m.name, lvl, id, s, w-s*c.assoc)
						}
						if tag != 0 && seen[tag] {
							t.Fatalf("%s: L%d[%d] set %d holds line %d twice", m.name, lvl, id, s, tag-1)
						}
						seen[tag] = true
					}
				}
			}
		}
	}
}

// FuzzAccessMatchesReference compares both models on fuzzed op streams:
// each 3-byte op picks a leaf, a read/write/flush kind and a line within a
// small conflict-heavy span of a two-socket machine (inclusive or
// exclusive, chosen by the first byte).
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 0x10, 0, 0, 0x14, 0, 0x20, 0x11, 0, 0x03, 0xff, 0x40, 0x21, 0, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := machine.TwoSocket(2, 1<<12, 1<<9)
		d.NonInclusive = data[0]&1 == 1
		m := diffMachine{"fuzz", d, 1 << 12}
		h, r := newPair(m)
		data = data[1:]
		for now := int64(0); len(data) >= 3; data = data[3:] {
			leaf := int(data[0]) % d.NumCores()
			kind := data[0] >> 6
			line := int64(data[1]) | int64(data[2]&0x0f)<<8
			if kind == 3 {
				lvl := 1 + int(data[1])%(h.nl-1)
				id := int(data[2]) % len(h.levels[lvl])
				h.levels[lvl][id].Invalidate()
				r.levels[lvl][id].flush()
				continue
			}
			a := mem.Addr(m.page + line*64 + int64(data[2]>>4))
			cost, lvl := h.Access(leaf, now, a, kind == 1)
			rcost, rlvl := r.Access(leaf, now, a, kind == 1)
			if cost != rcost || lvl != rlvl {
				t.Fatalf("addr %#x: cost %d at level %d, reference %d at level %d", a, cost, lvl, rcost, rlvl)
			}
			now += cost / 2
		}
		if err := diffState(h, r); err != nil {
			t.Fatal(err)
		}
	})
}
