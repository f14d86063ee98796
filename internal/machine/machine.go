// Package machine describes parallel memory hierarchy (PMH) machines as
// trees of caches, following the model of Alpern et al. used by the paper
// (Fig. 1(b)) and the concrete configuration-entry format of Fig. 4.
//
// A machine is a height-h tree. Level 0 is an infinitely large main memory;
// each level below it is a layer of identical caches, and below the last
// cache level sit the cores (the leaves). Each level carries the four PMH
// parameters: size M_i, block (cache-line) size B_i, miss/hit cost C_i, and
// fanout f_i. A core map assigns logical core numbers to left-to-right leaf
// positions, exactly as in the paper's specification entry for the Xeon 7560.
package machine

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/mem"
)

// Level describes one layer of the hierarchy. Levels[0] is always the main
// memory (Size 0 = unbounded); subsequent entries are cache layers ordered
// from outermost (e.g. L3) to innermost (e.g. L1).
type Level struct {
	// Name identifies the level in reports ("RAM", "L3", "L2", "L1").
	Name string `json:"name"`
	// Size is the capacity in bytes of each cache at this level; 0 means
	// unbounded and is only legal for the memory level.
	Size int64 `json:"size"`
	// BlockSize is the cache-line size in bytes used to transfer to the
	// next level up.
	BlockSize int64 `json:"block_size"`
	// HitCost is the cost in core cycles of an access served by this level.
	HitCost int64 `json:"hit_cost"`
	// Fanout is the number of next-level units below each unit of this
	// level; for the innermost cache level it is the number of cores
	// sharing each cache (2 models 2-way hyperthreading).
	Fanout int `json:"fanout"`
}

// Desc is a complete machine description. The zero value is not usable;
// construct via the predefined machines or New, then Validate.
type Desc struct {
	// Name labels the machine in reports.
	Name string `json:"name"`
	// Levels[0] is main memory; the rest are cache layers outermost-first.
	Levels []Level `json:"levels"`
	// CoreMap maps logical core id -> left-to-right leaf position. If nil,
	// the identity map is used.
	CoreMap []int `json:"core_map,omitempty"`
	// MemLatency is the additional latency in cycles of a DRAM access
	// beyond the last cache level's HitCost.
	MemLatency int64 `json:"mem_latency"`
	// RemoteLatency is the extra latency of a DRAM access whose page lives
	// on another socket's memory link (the QPI + remote-link traversal of
	// §5.2). It applies only when Links equals the socket count.
	RemoteLatency int64 `json:"remote_latency,omitempty"`
	// LineService is the number of cycles one DRAM link is occupied
	// transferring one cache line; it is the reciprocal of per-link
	// bandwidth and the knob behind the paper's bandwidth-gap experiments.
	LineService int64 `json:"line_service"`
	// Links is the number of independent DRAM links (one per socket on the
	// Xeon 7560). Pages are distributed over links by the memory allocator.
	Links int `json:"links"`
	// ClockGHz converts simulated cycles to seconds in reports.
	ClockGHz float64 `json:"clock_ghz"`
	// NonInclusive selects an exclusive (victim-cache) hierarchy: a line
	// lives in exactly one cache level; outer levels hold evictions from
	// inner ones. The default (false) is the inclusive hierarchy of the
	// Xeon 7560. §4.1's cache-occupancy definition differs between the
	// two, and the space-bounded schedulers account accordingly.
	NonInclusive bool `json:"non_inclusive,omitempty"`
}

// NumLevels returns the number of levels including memory.
func (d *Desc) NumLevels() int { return len(d.Levels) }

// NodesAt returns the number of units at level i (level 0 = memory = 1).
func (d *Desc) NodesAt(i int) int {
	n := 1
	for j := 0; j < i; j++ {
		n *= d.Levels[j].Fanout
	}
	return n
}

// NumCores returns the number of cores (leaves below the last cache level).
func (d *Desc) NumCores() int { return d.NodesAt(len(d.Levels)) }

// LeafOf returns the leaf position of logical core id, applying CoreMap.
func (d *Desc) LeafOf(core int) int {
	if d.CoreMap == nil {
		return core
	}
	return d.CoreMap[core]
}

// CacheLevels returns the number of cache levels (excluding memory).
func (d *Desc) CacheLevels() int { return len(d.Levels) - 1 }

// CoresPerNode returns the number of cores (leaves) under each unit at
// level i. For the memory level (0) this is all cores.
func (d *Desc) CoresPerNode(i int) int { return d.NumCores() / d.NodesAt(i) }

// NodeOf returns the index, within level i, of the unit above leaf. The tree
// is symmetric, so the unit at level i covers CoresPerNode(i) consecutive
// leaves.
func (d *Desc) NodeOf(i, leaf int) int { return leaf / d.CoresPerNode(i) }

// SocketOf returns the index of the outermost-cache unit (level 1; the
// socket on the Xeon) above leaf.
func (d *Desc) SocketOf(leaf int) int { return d.NodeOf(1, leaf) }

// Block returns the innermost cache-line size, the B used for task sizes.
func (d *Desc) Block() int64 { return d.Levels[len(d.Levels)-1].BlockSize }

// PageSize returns the DRAM-link placement page size of d: the smallest
// power of two from 4 KB up whose twelve pages cover an outermost cache
// (Levels[1]), capped at the 2 MB hugepage (mem.PageSize). The full-size
// Xeon 7560's 24 MB L3 gets 2 MB hugepages, and a copy scaled down by s
// gets pages s times smaller, so scaled inputs spread over the DRAM links
// as the paper's inputs spread over hugepages.
func (d *Desc) PageSize() int64 {
	ps := int64(4 << 10)
	for ps < mem.PageSize && 12*ps < d.Levels[1].Size {
		ps <<= 1
	}
	return ps
}

// Validate checks the structural invariants of the description.
func (d *Desc) Validate() error {
	if len(d.Levels) < 2 {
		return fmt.Errorf("machine %q: need memory plus at least one cache level, got %d levels", d.Name, len(d.Levels))
	}
	if d.Levels[0].Size != 0 {
		return fmt.Errorf("machine %q: memory level must have Size 0 (unbounded), got %d", d.Name, d.Levels[0].Size)
	}
	prev := int64(1) << 62
	for i, lv := range d.Levels {
		if lv.Fanout < 1 {
			return fmt.Errorf("machine %q: level %d (%s) fanout %d < 1", d.Name, i, lv.Name, lv.Fanout)
		}
		if i > 0 {
			if lv.Size <= 0 {
				return fmt.Errorf("machine %q: cache level %d (%s) must have positive size", d.Name, i, lv.Name)
			}
			if lv.Size > prev {
				return fmt.Errorf("machine %q: level %d (%s) size %d exceeds enclosing level size %d", d.Name, i, lv.Name, lv.Size, prev)
			}
			prev = lv.Size
			if lv.BlockSize <= 0 || lv.BlockSize&(lv.BlockSize-1) != 0 {
				return fmt.Errorf("machine %q: level %d (%s) block size %d must be a positive power of two", d.Name, i, lv.Name, lv.BlockSize)
			}
			if lv.Size%lv.BlockSize != 0 {
				return fmt.Errorf("machine %q: level %d (%s) size %d not a multiple of block %d", d.Name, i, lv.Name, lv.Size, lv.BlockSize)
			}
		}
		if lv.HitCost < 0 {
			return fmt.Errorf("machine %q: level %d (%s) negative hit cost", d.Name, i, lv.Name)
		}
	}
	n := d.NumCores()
	if d.CoreMap != nil {
		if len(d.CoreMap) != n {
			return fmt.Errorf("machine %q: core map has %d entries for %d cores", d.Name, len(d.CoreMap), n)
		}
		seen := make([]bool, n)
		for c, pos := range d.CoreMap {
			if pos < 0 || pos >= n || seen[pos] {
				return fmt.Errorf("machine %q: core map entry %d->%d is not a permutation", d.Name, c, pos)
			}
			seen[pos] = true
		}
	}
	if d.Links < 1 {
		return fmt.Errorf("machine %q: need at least one DRAM link", d.Name)
	}
	if d.LineService < 0 || d.MemLatency < 0 || d.RemoteLatency < 0 {
		return fmt.Errorf("machine %q: negative memory timing parameters", d.Name)
	}
	if d.ClockGHz <= 0 {
		return fmt.Errorf("machine %q: clock must be positive", d.Name)
	}
	return nil
}

// Seconds converts simulated cycles to seconds at the machine clock rate.
func (d *Desc) Seconds(cycles int64) float64 {
	return float64(cycles) / (d.ClockGHz * 1e9)
}

// Save writes the description as JSON to path.
func (d *Desc) Save(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("machine: marshal %q: %w", d.Name, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a JSON description from path and validates it.
func Load(path string) (*Desc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	var d Desc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("machine: parse %s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// String renders a one-line summary, e.g.
// "xeon7560: 4x8x1x1 cores=32 L3=24MB L2=256KB L1=32KB".
func (d *Desc) String() string {
	s := d.Name + ":"
	for _, lv := range d.Levels {
		s += fmt.Sprintf(" %dx", lv.Fanout)
	}
	s = s[:len(s)-1] + fmt.Sprintf(" cores=%d", d.NumCores())
	for _, lv := range d.Levels[1:] {
		s += fmt.Sprintf(" %s=%s", lv.Name, fmtBytes(lv.Size))
	}
	return s
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
