package cachesim

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/mem"
)

// The reference model: the timestamp-LRU cache the recency-ordered sets
// replaced, kept as the oracle of the differential tests. Every way carries
// the value of a per-cache clock at its last touch; a fill takes the first
// invalid way, else the way with the smallest stamp. Its exclusive fill
// merges a victim into an existing copy exactly as Hierarchy.exclusiveFill
// does, so both models can also be compared on non-inclusive machines.

type refCache struct {
	sets       int
	assoc      int
	blockShift uint
	tags       []uint64 // line+1 per way, 0 = invalid
	stamps     []uint64
	dirty      []bool
	clock      uint64
	Stats      Stats
}

func newRefCache(size, block int64) *refCache {
	sets, assoc := cacheGeom(size, block)
	ways := sets * assoc
	return &refCache{
		sets: sets, assoc: assoc, blockShift: log2u(block),
		tags: make([]uint64, ways), stamps: make([]uint64, ways), dirty: make([]bool, ways),
	}
}

func (c *refCache) base(a mem.Addr) int {
	return int((uint64(a)>>c.blockShift)%uint64(c.sets)) * c.assoc
}

// find returns the way holding a's line, or -1.
func (c *refCache) find(a mem.Addr) int {
	tag := uint64(a)>>c.blockShift + 1
	base := c.base(a)
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == tag {
			return w
		}
	}
	return -1
}

// touch refreshes way w's stamp and ORs dirty into its dirty bit.
func (c *refCache) touch(w int, dirty bool) {
	c.clock++
	c.stamps[w] = c.clock
	c.dirty[w] = c.dirty[w] || dirty
}

// probe looks up a's line, touching it and counting a hit or a miss.
func (c *refCache) probe(a mem.Addr, write bool) bool {
	if w := c.find(a); w >= 0 {
		c.touch(w, write)
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	return false
}

// fill installs a's line in the first invalid way, else the way with the
// smallest stamp, returning the evicted line's address, validity and dirty
// bit.
func (c *refCache) fill(a mem.Addr, dirty bool) (ev mem.Addr, evValid, evDirty bool) {
	base := c.base(a)
	victim, oldest := base, c.stamps[base]
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == 0 {
			victim = w
			break
		}
		if c.stamps[w] < oldest {
			victim, oldest = w, c.stamps[w]
		}
	}
	if c.tags[victim] != 0 {
		c.Stats.Evictions++
		ev, evValid, evDirty = mem.Addr(c.tags[victim]-1)<<c.blockShift, true, c.dirty[victim]
	}
	c.clock++
	c.tags[victim] = uint64(a)>>c.blockShift + 1
	c.stamps[victim] = c.clock
	c.dirty[victim] = dirty
	return ev, evValid, evDirty
}

func (c *refCache) invalidate(a mem.Addr) (wasDirty bool) {
	if w := c.find(a); w >= 0 {
		wasDirty = c.dirty[w]
		c.tags[w], c.stamps[w], c.dirty[w] = 0, 0, false
	}
	return wasDirty
}

func (c *refCache) flush() {
	clear(c.tags)
	clear(c.stamps)
	clear(c.dirty)
}

// lruOrder returns set s's valid lines from MRU to LRU as (tag, dirty)
// pairs — the order the recency-ordered sets store them in.
func (c *refCache) lruOrder(s int) (tags []uint64, dirty []bool) {
	base := s * c.assoc
	ways := make([]int, 0, c.assoc)
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] != 0 {
			ways = append(ways, w)
		}
	}
	sort.Slice(ways, func(i, j int) bool { return c.stamps[ways[i]] > c.stamps[ways[j]] })
	for _, w := range ways {
		tags = append(tags, c.tags[w])
		dirty = append(dirty, c.dirty[w])
	}
	return tags, dirty
}

type refHierarchy struct {
	desc     *machine.Desc
	space    *mem.Space
	levels   [][]*refCache
	linkFree []int64

	DRAMAccesses, StallCycles, Writebacks, RemoteHits int64
}

func newRefHierarchy(d *machine.Desc, space *mem.Space) *refHierarchy {
	h := &refHierarchy{desc: d, space: space, levels: make([][]*refCache, d.NumLevels()), linkFree: make([]int64, d.Links)}
	for lvl := 1; lvl < d.NumLevels(); lvl++ {
		for id := 0; id < d.NodesAt(lvl); id++ {
			h.levels[lvl] = append(h.levels[lvl], newRefCache(d.Levels[lvl].Size, d.Levels[lvl].BlockSize))
		}
	}
	return h
}

func (h *refHierarchy) at(lvl, leaf int) *refCache { return h.levels[lvl][h.desc.NodeOf(lvl, leaf)] }

func (h *refHierarchy) reserve(now int64, a mem.Addr) (wait int64, link int) {
	link = h.space.LinkOf(a)
	start := now
	if h.linkFree[link] > start {
		start = h.linkFree[link]
	}
	h.linkFree[link] = start + h.desc.LineService
	return start - now, link
}

func (h *refHierarchy) Access(leaf int, now int64, a mem.Addr, write bool) (cost int64, served int) {
	nl := h.desc.NumLevels()
	for lvl := nl - 1; lvl >= 1; lvl-- {
		if h.at(lvl, leaf).probe(a, write) {
			served = lvl
			break
		}
	}
	if served == 0 {
		wait, link := h.reserve(now, a)
		h.DRAMAccesses++
		h.StallCycles += wait
		cost = wait + h.desc.LineService + h.desc.MemLatency
		if h.desc.RemoteLatency > 0 && h.desc.Links == h.desc.NodesAt(1) && link != h.desc.NodeOf(1, leaf) {
			cost += h.desc.RemoteLatency
			h.RemoteHits++
		}
	} else {
		cost = h.desc.Levels[served].HitCost
		if write && served > 1 {
			if w := h.at(1, leaf).find(a); w >= 0 {
				h.at(1, leaf).dirty[w] = true
			}
		}
	}
	if !h.desc.NonInclusive {
		for lvl := served + 1; lvl < nl; lvl++ {
			if ev, _, evDirty := h.at(lvl, leaf).fill(a, write); lvl == 1 && evDirty {
				h.writeback(now, ev)
			}
		}
		return cost, served
	}
	if served == nl-1 {
		return cost, served
	}
	dirty := write
	if served > 0 && h.at(served, leaf).invalidate(a) {
		dirty = true
	}
	for lvl := nl - 1; lvl >= 1; lvl-- {
		c := h.at(lvl, leaf)
		if w := c.find(a); w >= 0 {
			c.touch(w, dirty)
			break
		}
		ev, evValid, evDirty := c.fill(a, dirty)
		if !evValid {
			break
		}
		if lvl == 1 {
			if evDirty {
				h.writeback(now, ev)
			}
			break
		}
		a, dirty = ev, evDirty
	}
	return cost, served
}

func (h *refHierarchy) writeback(now int64, ev mem.Addr) {
	h.reserve(now, ev)
	h.Writebacks++
}
