// Package cachesim simulates the tree of caches of a PMH machine with exact
// hit/miss accounting — the simulator's replacement for the hardware
// performance counters (C-Box PMUs) the paper reads on the Xeon 7560.
//
// Each cache is set-associative with LRU replacement within sets. Caches at
// a shared level (e.g. the per-socket L3) are single objects touched by all
// cores below them, so constructive sharing and cache pollution between
// concurrent tasks arise naturally from the interleaving of accesses, which
// is exactly the effect the paper measures.
//
// Model notes (documented substitutions, see DESIGN.md):
//   - Fills are inclusive: a line served by level i is installed in every
//     level below i on the accessing core's path.
//   - There is no coherence protocol: the programming model forbids data
//     races and permits concurrent reads (§2 of the paper), so writes and
//     reads are equivalent for replacement state.
//   - DRAM bandwidth is modeled by per-link occupancy: each access that
//     misses the outermost cache reserves its page's DRAM link for
//     LineService cycles; the queueing delay this induces is the paper's
//     "bandwidth gap" made explicit.
package cachesim

import (
	"fmt"
	"math/bits"

	"repro/internal/machine"
	"repro/internal/mem"
)

// defaultAssoc is the associativity used when a cache has at least that
// many lines (8-way, matching the L1/L2/L3 organization of the Xeon 7560
// closely enough for the experiments).
const defaultAssoc = 8

// Stats holds access counters for one cache.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Accesses returns the total number of accesses observed.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// Cache is one set-associative LRU cache.
//
// Every set keeps its ways in recency order: way 0 holds the most recently
// used line, the valid lines follow in LRU order, and invalid ways (tag 0)
// sit at the tail. A hit moves its line to the front; a fill evicts the
// last way and inserts at the front. The LRU line is therefore always the
// last way, and no per-way timestamps are needed.
type Cache struct {
	// Level is the machine level (1 = outermost cache, e.g. L3).
	Level int
	// ID is the index of this cache within its level.
	ID int

	sets       int
	assoc      int
	blockShift uint
	// setMask is sets-1 when sets is a power of two (setPow2), letting the
	// set index be a mask. Otherwise setMul = ceil(2^64/sets) computes it
	// without a hardware divide (see setBase).
	setMask uint64
	setPow2 bool
	setMul  uint64
	// tags holds line+1 per way (0 = invalid), indexed set*assoc+way, each
	// set in recency order.
	tags []uint64
	// dirty marks written lines (write-back accounting at the outermost
	// level). It moves with its tag; invalid ways are never dirty.
	dirty []bool

	// Stats accumulates hit/miss counters; read via the Hierarchy helpers
	// or directly in tests.
	Stats Stats
}

func log2u(x int64) uint {
	var s uint
	for x > 1 {
		x >>= 1
		s++
	}
	return s
}

// cacheGeom returns the set/associativity geometry for a size/block pair.
func cacheGeom(size, block int64) (sets, assoc int) {
	lines := int(size / block)
	assoc = defaultAssoc
	if lines < assoc {
		assoc = lines
	}
	sets = lines / assoc
	if sets < 1 {
		sets = 1
	}
	return sets, assoc
}

// init fills in a zero Cache. The tags/dirty slices are carved out of
// shared backing arrays by the Hierarchy constructor (one allocation per
// array for the whole tree instead of two per cache); standalone
// construction via newCache allocates them directly.
func (c *Cache) init(level, id int, size, block int64, tags []uint64, dirty []bool) {
	sets, assoc := cacheGeom(size, block)
	*c = Cache{
		Level:      level,
		ID:         id,
		sets:       sets,
		assoc:      assoc,
		blockShift: log2u(block),
		setMask:    uint64(sets - 1),
		setPow2:    sets&(sets-1) == 0,
		setMul:     ^uint64(0)/uint64(sets) + 1,
		tags:       tags,
		dirty:      dirty,
	}
}

func newCache(level, id int, size, block int64) *Cache {
	sets, assoc := cacheGeom(size, block)
	ways := sets * assoc
	c := new(Cache)
	c.init(level, id, size, block, make([]uint64, ways), make([]bool, ways))
	return c
}

// Lines returns the capacity of the cache in lines.
func (c *Cache) Lines() int { return c.sets * c.assoc }

func (c *Cache) line(a mem.Addr) uint64 { return uint64(a) >> c.blockShift }

// addr returns the address of the line a tag names.
func (c *Cache) addr(tag uint64) mem.Addr { return mem.Addr(tag-1) << c.blockShift }

// setBase returns the first way index of the set holding line ln. For a
// non-power-of-two set count and ln < 2^32 it computes ln mod sets as the
// high word of (setMul*ln mod 2^64) * sets, which is exact for all 32-bit
// ln and sets (Lemire, Kaser & Kurz, "Faster remainder by direct
// computation", 2019); larger lines fall back to the divide.
//
//schedlint:hotpath
func (c *Cache) setBase(ln uint64) int {
	set := ln & c.setMask
	if !c.setPow2 {
		if ln < 1<<32 {
			set, _ = bits.Mul64(c.setMul*ln, uint64(c.sets))
		} else {
			set = ln % uint64(c.sets)
		}
	}
	return int(set) * c.assoc
}

// find scans ln's set from its MRU end and returns the set's first way
// index plus ln's position within the set, or -1 if it is not resident.
// It changes no state.
//
//schedlint:hotpath
func (c *Cache) find(ln uint64) (base, way int) {
	base = c.setBase(ln)
	tag := ln + 1
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			return base, i
		}
	}
	return base, -1
}

// touch promotes position way of the set at base to MRU, shifting the more
// recently used lines down one, and ORs dirty into the line's dirty bit.
//
//schedlint:hotpath
func (c *Cache) touch(base, way int, dirty bool) {
	w := base + way
	d := c.dirty[w] || dirty
	if way > 0 { // way 0 is already the MRU line
		t := c.tags[w]
		for ; w > base; w-- {
			c.tags[w], c.dirty[w] = c.tags[w-1], c.dirty[w-1]
		}
		c.tags[base] = t
	}
	c.dirty[base] = d
}

// fill installs line ln (not resident) as the MRU line of the set at base,
// evicting the set's LRU way. It returns the evicted tag (0 if the way was
// invalid) and its dirty bit, so the hierarchy can account the write-back.
//
//schedlint:hotpath
func (c *Cache) fill(base int, ln uint64, dirty bool) (evicted uint64, evictedDirty bool) {
	last := c.assoc - 1
	evicted, evictedDirty = c.tags[base+last], c.dirty[base+last]
	if evicted != 0 {
		c.Stats.Evictions++
	}
	c.tags[base+last], c.dirty[base+last] = ln+1, dirty
	c.touch(base, last, false)
	return evicted, evictedDirty
}

// invalidate removes line ln if resident (exclusive hierarchies move lines
// rather than copy them), returning whether it was dirty. The lines after
// it move up one, keeping the invalid way at the tail.
func (c *Cache) invalidate(ln uint64) (wasDirty bool) {
	base, way := c.find(ln)
	if way < 0 {
		return false
	}
	wasDirty = c.dirty[base+way]
	last := base + c.assoc - 1
	copy(c.tags[base+way:last], c.tags[base+way+1:last+1])
	copy(c.dirty[base+way:last], c.dirty[base+way+1:last+1])
	c.tags[last], c.dirty[last] = 0, false
	return wasDirty
}

// Reset invalidates all lines and zeroes the counters.
func (c *Cache) Reset() {
	c.Invalidate()
	c.Stats = Stats{}
}

// Invalidate drops every resident line — tags and dirty bits — while
// preserving the hit/miss counters. It models an interference event
// (fault.Flush) wiping cache contents mid-run: the lost dirty lines are not
// written back, matching a co-tenant evicting them through its own traffic
// whose bandwidth we do not account.
func (c *Cache) Invalidate() {
	clear(c.tags)
	clear(c.dirty)
}

// Hierarchy is the full tree of caches plus the DRAM links of one machine.
type Hierarchy struct {
	Desc  *machine.Desc
	space *mem.Space
	// levels[i] holds the caches of machine level i; levels[0] is nil
	// (memory has no cache object).
	levels [][]*Cache

	// paths[leaf][lvl] is the cache at lvl on leaf's root-to-leaf path
	// (index 0 nil), precomputed so Access performs no tree-index
	// arithmetic (Desc.NodeOf divisions) per probe.
	paths [][]*Cache
	// hitCost[lvl] caches Desc.Levels[lvl].HitCost.
	hitCost []int64
	nl      int   // Desc.NumLevels()
	numa    bool  // remote-link latency applies (links map 1:1 to sockets)
	socket  []int // leaf -> level-1 node, for the NUMA check

	linkFree []int64 // next free cycle per DRAM link
	// lineService is the current per-line DRAM service slot in cycles.
	// Nominally Desc.LineService; fault injection widens it to model
	// reduced bandwidth (see SetLineService).
	lineService int64

	// DRAM accounting.
	DRAMAccesses int64
	StallCycles  int64 // total cycles cores waited on busy links
	Writebacks   int64 // dirty lines written back to memory
	RemoteHits   int64 // DRAM accesses served by a remote socket's link
}

// New builds the cache tree for desc, with pages placed by space.
func New(desc *machine.Desc, space *mem.Space) *Hierarchy {
	if err := desc.Validate(); err != nil {
		panic(fmt.Sprintf("cachesim: %v", err))
	}
	if space.Links() != desc.Links {
		panic(fmt.Sprintf("cachesim: space has %d links, machine has %d", space.Links(), desc.Links))
	}
	h := &Hierarchy{
		Desc:        desc,
		space:       space,
		levels:      make([][]*Cache, desc.NumLevels()),
		linkFree:    make([]int64, desc.Links),
		lineService: desc.LineService,
	}
	// Count caches and ways first, then carve every cache struct and its
	// tag/dirty arrays out of three shared backings: the whole tree costs a
	// constant number of allocations, not two per cache. Each carve is
	// staggered by a growing multiple of stagger entries: sibling tag
	// arrays are power-of-two sized (a 32KB/64B L1 is exactly 4KB of tags),
	// and packing them back to back makes the same probe set of every
	// sibling alias to the same host cache set — a measured ~9% slowdown
	// on random-access probes before the stagger.
	const stagger = 8 // u64 entries = one 64B host line
	nl := desc.NumLevels()
	totalCaches, totalWays := 0, 0
	for lvl := 1; lvl < nl; lvl++ {
		sets, assoc := cacheGeom(desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize)
		totalCaches += desc.NodesAt(lvl)
		totalWays += desc.NodesAt(lvl) * sets * assoc
	}
	structs := make([]Cache, totalCaches)
	tags := make([]uint64, totalWays+stagger*totalCaches)
	dirty := make([]bool, totalWays+stagger*totalCaches)
	ci, wi := 0, 0
	for lvl := 1; lvl < nl; lvl++ {
		n := desc.NodesAt(lvl)
		h.levels[lvl] = make([]*Cache, n)
		for id := 0; id < n; id++ {
			c := &structs[ci]
			ci++
			sets, assoc := cacheGeom(desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize)
			ways := sets * assoc
			c.init(lvl, id, desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize,
				tags[wi:wi+ways:wi+ways], dirty[wi:wi+ways:wi+ways])
			wi += ways + stagger
			h.levels[lvl][id] = c
		}
	}
	cores := desc.NumCores()
	h.nl = nl
	h.paths = make([][]*Cache, cores)
	h.socket = make([]int, cores)
	pathBacking := make([]*Cache, cores*nl)
	for leaf := 0; leaf < cores; leaf++ {
		path := pathBacking[leaf*nl : (leaf+1)*nl : (leaf+1)*nl]
		for lvl := 1; lvl < nl; lvl++ {
			path[lvl] = h.levels[lvl][desc.NodeOf(lvl, leaf)]
		}
		h.paths[leaf] = path
		h.socket[leaf] = desc.NodeOf(1, leaf)
	}
	h.hitCost = make([]int64, nl)
	for lvl := 1; lvl < nl; lvl++ {
		h.hitCost[lvl] = desc.Levels[lvl].HitCost
	}
	h.numa = desc.RemoteLatency > 0 && desc.Links == desc.NodesAt(1)
	return h
}

// CacheAt returns the cache at the given level above the given leaf.
func (h *Hierarchy) CacheAt(level, leaf int) *Cache {
	return h.paths[leaf][level]
}

// Caches returns all caches at a level.
func (h *Hierarchy) Caches(level int) []*Cache { return h.levels[level] }

// Access simulates a memory access from leaf at simulated time now and
// returns the number of cycles the access costs the core. servedLevel is
// the machine level that supplied the line (0 = DRAM).
//
// Levels are probed innermost first. Because sets are recency-ordered, a
// line the leaf touched recently is found in the first way or two of its
// set, and a fill needs no victim search: the LRU line is the last way.
//
//schedlint:hotpath
func (h *Hierarchy) Access(leaf int, now int64, a mem.Addr, write bool) (cost int64, servedLevel int) {
	nl := h.nl
	path := h.paths[leaf]
	inner := nl - 1
	c := path[inner]
	if base, way := c.find(c.line(a)); way >= 0 {
		// Innermost hit, the common case: nothing to fill on any
		// hierarchy, so return before the outer-level walk.
		c.touch(base, way, write)
		c.Stats.Hits++
		if write && inner > 1 {
			h.markDirtyOuter(leaf, a)
		}
		return h.hitCost[inner], inner
	}
	c.Stats.Misses++
	served := 0
	for lvl := inner - 1; lvl >= 1; lvl-- {
		c := path[lvl]
		if base, way := c.find(c.line(a)); way >= 0 {
			c.touch(base, way, write)
			c.Stats.Hits++
			served = lvl
			break
		}
		c.Stats.Misses++
	}
	if served == 0 {
		// DRAM access: queue on the page's link.
		link := h.space.LinkOf(a)
		start := now
		if h.linkFree[link] > start {
			start = h.linkFree[link]
		}
		wait := start - now
		h.linkFree[link] = start + h.lineService
		h.DRAMAccesses++
		h.StallCycles += wait
		cost = wait + h.lineService + h.Desc.MemLatency
		// NUMA: crossing to another socket's DRAM link pays the QPI +
		// remote-link latency (§5.2), when links map 1:1 to sockets.
		if h.numa && link != h.socket[leaf] {
			cost += h.Desc.RemoteLatency
			h.RemoteHits++
		}
	} else {
		cost = h.hitCost[served]
		if write && served > 1 {
			// Propagate the dirty bit to the outermost resident copy so
			// its eventual eviction is written back.
			h.markDirtyOuter(leaf, a)
		}
	}
	if h.Desc.NonInclusive {
		h.exclusiveFill(leaf, now, a, write, served)
	} else {
		// Inclusive fill of every level that missed.
		for lvl := served + 1; lvl < nl; lvl++ {
			c := path[lvl]
			ln := c.line(a)
			if ev, evDirty := c.fill(c.setBase(ln), ln, write); lvl == 1 && evDirty {
				h.writeback(now, c.addr(ev))
			}
		}
	}
	return cost, served
}

// markDirtyOuter sets the dirty bit of a's line in leaf's outermost cache
// if resident, without touching LRU order or counters.
//
//schedlint:hotpath
func (h *Hierarchy) markDirtyOuter(leaf int, a mem.Addr) {
	c := h.paths[leaf][1]
	if base, way := c.find(c.line(a)); way >= 0 {
		c.dirty[base+way] = true
	}
}

// writeback reserves the evicted dirty line's DRAM link for one transfer
// slot; write buffers hide the latency from the core, but the bandwidth is
// consumed.
func (h *Hierarchy) writeback(now int64, ev mem.Addr) {
	wbLink := h.space.LinkOf(ev)
	wbStart := now
	if h.linkFree[wbLink] > wbStart {
		wbStart = h.linkFree[wbLink]
	}
	h.linkFree[wbLink] = wbStart + h.lineService
	h.Writebacks++
}

// exclusiveFill implements the victim-cache (non-inclusive) policy: the
// accessed line moves into the innermost cache only; if it was served by
// an outer cache it is removed there; evicted lines cascade outward level by
// level, and a dirty victim of the outermost cache is written back. A
// victim arriving at a shared cache that already holds its line (another
// core's copy cascaded there first) merges into that copy — moved to MRU,
// dirty bits ORed — so no set ever holds a line twice.
func (h *Hierarchy) exclusiveFill(leaf int, now int64, a mem.Addr, write bool, served int) {
	inner := h.nl - 1
	if served == inner {
		return // already innermost; the probe updated LRU and dirty state
	}
	path := h.paths[leaf]
	dirty := write
	if served > 0 && path[served].invalidate(path[served].line(a)) {
		dirty = true
	}
	lineAddr, lineDirty := a, dirty
	for lvl := inner; lvl >= 1; lvl-- {
		c := path[lvl]
		ln := c.line(lineAddr)
		base, way := c.find(ln)
		if way >= 0 {
			c.touch(base, way, lineDirty)
			return
		}
		ev, evDirty := c.fill(base, ln, lineDirty)
		if ev == 0 {
			return
		}
		if lvl == 1 {
			if evDirty {
				h.writeback(now, c.addr(ev))
			}
			return
		}
		lineAddr, lineDirty = c.addr(ev), evDirty
	}
}

// SetLineService overrides the per-line DRAM service slot, the
// bandwidth-jitter hook of fault injection: serving a line at pct% of
// nominal bandwidth takes LineService*100/pct cycles. Passing
// Desc.LineService restores nominal bandwidth.
func (h *Hierarchy) SetLineService(cycles int64) {
	if cycles < 0 {
		panic("cachesim: negative line-service time")
	}
	h.lineService = cycles
}

// LineService returns the current per-line DRAM service slot in cycles.
func (h *Hierarchy) LineService() int64 { return h.lineService }

// MissesAt returns the total misses across all caches of a level. For the
// outermost level this equals the DRAM access count — the paper's L3 miss
// metric on the Xeon.
func (h *Hierarchy) MissesAt(level int) int64 {
	var total int64
	for _, c := range h.levels[level] {
		total += c.Stats.Misses
	}
	return total
}

// HitsAt returns the total hits across all caches of a level.
func (h *Hierarchy) HitsAt(level int) int64 {
	var total int64
	for _, c := range h.levels[level] {
		total += c.Stats.Hits
	}
	return total
}

// Reset clears all caches, link occupancy and DRAM counters.
func (h *Hierarchy) Reset() {
	for _, lvl := range h.levels {
		for _, c := range lvl {
			c.Reset()
		}
	}
	for i := range h.linkFree {
		h.linkFree[i] = 0
	}
	h.DRAMAccesses = 0
	h.StallCycles = 0
	h.Writebacks = 0
	h.RemoteHits = 0
	h.lineService = h.Desc.LineService
}
