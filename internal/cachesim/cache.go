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
// used line, the valid lines follow in LRU order, and invalid ways (word 0)
// sit at the tail. A hit moves its line to the front; a fill evicts the
// last way and inserts at the front. The LRU line is therefore always the
// last way, and no per-way timestamps are needed.
//
// A way is one word: (line+1)<<1 | dirty. The dirty bit marks a written
// line (write-back accounting at the outermost level) and moves with its
// line for free; an invalid way is 0, so it is never dirty. The word holds
// every line below 2^63-1.
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
	// ways holds one word per way (see above), indexed set*assoc+way, each
	// set in recency order.
	ways []uint64

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

// init fills in a zero Cache. The ways slice is carved out of one shared
// backing array by the Hierarchy constructor (one allocation for the whole
// tree instead of one per cache); standalone construction via newCache
// allocates it directly.
func (c *Cache) init(level, id int, size, block int64, ways []uint64) {
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
		ways:       ways,
	}
}

func newCache(level, id int, size, block int64) *Cache {
	sets, assoc := cacheGeom(size, block)
	ways := sets * assoc
	c := new(Cache)
	c.init(level, id, size, block, make([]uint64, ways))
	return c
}

// Lines returns the capacity of the cache in lines.
func (c *Cache) Lines() int { return c.sets * c.assoc }

func (c *Cache) line(a mem.Addr) uint64 { return uint64(a) >> c.blockShift }

// key returns the clean way word of line ln.
func key(ln uint64) uint64 { return ln<<1 + 2 }

// dirtyBit returns a way word's dirty bit for a write flag.
func dirtyBit(write bool) uint64 {
	if write {
		return 1
	}
	return 0
}

// addr returns the address of the line a valid way word names.
func (c *Cache) addr(word uint64) mem.Addr { return mem.Addr(word>>1-1) << c.blockShift }

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
// A way matches when its word, with the dirty bit shifted out, is ln+1.
// It changes no state.
//
//schedlint:hotpath
func (c *Cache) find(ln uint64) (base, way int) {
	base = c.setBase(ln)
	tag := ln + 1
	for i, w := range c.ways[base : base+c.assoc] {
		if w>>1 == tag {
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
	t := c.ways[w] | dirtyBit(dirty)
	for ; w > base; w-- { // way 0 is already the MRU line
		c.ways[w] = c.ways[w-1]
	}
	c.ways[base] = t
}

// fill installs line ln (not resident) as the MRU line of the set at base,
// evicting the set's LRU way. It returns the evicted way's word (0 if the
// way was invalid; bit 0 is its dirty bit), so the hierarchy can account
// the write-back.
//
//schedlint:hotpath
func (c *Cache) fill(base int, ln uint64, dirty bool) (evicted uint64) {
	w := base + c.assoc - 1
	evicted = c.ways[w]
	if evicted != 0 {
		c.Stats.Evictions++
	}
	for ; w > base; w-- {
		c.ways[w] = c.ways[w-1]
	}
	c.ways[base] = key(ln) | dirtyBit(dirty)
	return evicted
}

// invalidate removes line ln if resident (exclusive hierarchies move lines
// rather than copy them), returning whether it was dirty. The lines after
// it move up one, keeping the invalid way at the tail.
func (c *Cache) invalidate(ln uint64) (wasDirty bool) {
	base, way := c.find(ln)
	if way < 0 {
		return false
	}
	wasDirty = c.ways[base+way]&1 != 0
	last := base + c.assoc - 1
	copy(c.ways[base+way:last], c.ways[base+way+1:last+1])
	c.ways[last] = 0
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
	clear(c.ways)
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
	// way array out of two shared backings: the whole tree costs a
	// constant number of allocations, not one per cache. Each carve is
	// staggered by a growing multiple of stagger entries: sibling way
	// arrays are power-of-two sized (a 32KB/64B L1 is exactly 4KB of ways),
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
	backing := make([]uint64, totalWays+stagger*totalCaches)
	ci, wi := 0, 0
	for lvl := 1; lvl < nl; lvl++ {
		n := desc.NodesAt(lvl)
		h.levels[lvl] = make([]*Cache, n)
		for id := 0; id < n; id++ {
			c := &structs[ci]
			ci++
			sets, assoc := cacheGeom(desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize)
			ways := sets * assoc
			c.init(lvl, id, desc.Levels[lvl].Size, desc.Levels[lvl].BlockSize, backing[wi:wi+ways:wi+ways])
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
	inner := h.nl - 1
	c := h.paths[leaf][inner]
	base, way := c.find(c.line(a))
	if way < 0 {
		return h.miss(leaf, now, a, write, base)
	}
	// Innermost hit, the common case: nothing to fill on any hierarchy.
	c.touch(base, way, write)
	c.Stats.Hits++
	if write && inner > 1 {
		h.markDirtyOuter(leaf, a)
	}
	return h.hitCost[inner], inner
}

// miss is the outer walk of an access that missed leaf's innermost cache,
// whose probe found a's set at base: it probes the outer levels innermost
// first, queues a DRAM access if every level misses, and fills. Access and
// RunScript both call it after their own innermost probe, so a miss scans
// the innermost set once.
//
// An inclusive fill installs the line in every level that missed. A level
// below the outermost is filled right after its probe misses, reusing the
// set base that the probe found: the fill touches only that cache, so its
// place in the walk changes nothing another level sees. The outermost
// fill waits until a DRAM access has taken its link slot, because the
// write-back of its dirty victim queues on a link too. A non-inclusive
// hierarchy fills nothing during the walk and moves the line in with
// exclusiveFill at its end.
//
//schedlint:hotpath
func (h *Hierarchy) miss(leaf int, now int64, a mem.Addr, write bool, base int) (cost int64, served int) {
	path := h.paths[leaf]
	exclusive := h.Desc.NonInclusive
	lvl := h.nl - 1
	c := path[lvl]
	c.Stats.Misses++
	ln := c.line(a)
	for lvl > 1 {
		if !exclusive {
			c.fill(base, ln, write)
		}
		lvl--
		c = path[lvl]
		ln = c.line(a)
		var way int
		if base, way = c.find(ln); way >= 0 {
			c.touch(base, way, write)
			c.Stats.Hits++
			if write && lvl > 1 {
				// Propagate the dirty bit to the outermost resident copy
				// so its eventual eviction is written back.
				h.markDirtyOuter(leaf, a)
			}
			if exclusive {
				h.exclusiveFill(leaf, now, a, write, lvl)
			}
			return h.hitCost[lvl], lvl
		}
		c.Stats.Misses++
	}
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
	if exclusive {
		h.exclusiveFill(leaf, now, a, write, 0)
	} else if ev := c.fill(base, ln, write); ev&1 != 0 {
		h.writeback(now, c.addr(ev))
	}
	return cost, 0
}

// markDirtyOuter sets the dirty bit of a's line in leaf's outermost cache
// if resident, without touching LRU order or counters.
//
//schedlint:hotpath
func (h *Hierarchy) markDirtyOuter(leaf int, a mem.Addr) {
	c := h.paths[leaf][1]
	if base, way := c.find(c.line(a)); way >= 0 {
		c.ways[base+way] |= 1
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
		ev := c.fill(base, ln, lineDirty)
		if ev == 0 {
			return
		}
		if lvl == 1 {
			if ev&1 != 0 {
				h.writeback(now, c.addr(ev))
			}
			return
		}
		lineAddr, lineDirty = c.addr(ev), ev&1 != 0
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
