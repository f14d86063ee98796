// Package exp reproduces the paper's experimental study: one driver per
// figure (Figs. 5-10), the framework-validation comparison against the
// CilkPlus profile, and the §5.3 analytic-model check. Each driver runs
// its grid of (benchmark, scheduler, machine, bandwidth) cells, averages
// repetitions with the paper's trimmed mean, and prints the same rows the
// paper plots.
package exp

import (
	"repro/internal/machine"
)

// Profile fixes the scale of an experiment suite. The paper runs on a real
// 32-core Xeon with 100M-element inputs; the simulator runs the same
// geometry scaled down — machine caches and inputs shrink together, so
// every fits-in-cache boundary (the quantity behind every result) is
// preserved. See DESIGN.md's substitution table.
type Profile struct {
	Name string
	// MachineScale divides all cache sizes (machine.Scaled).
	MachineScale int64
	// Reps is the number of runs per cell (paper: ≥10, trimmed mean).
	Reps int
	// Seed is the base seed; each rep r uses Seed+r.
	Seed uint64

	// Benchmark sizes.
	RRMN, RRGN   int
	RRBase       int // RRM/RRG recursion base
	RRGrain      int // map/gather pass grain
	SortN        int // quicksort, samplesort, aware samplesort
	SerialCutoff int
	PartCutoff   int
	// Chunk is the distribution-phase block size (parallel partition,
	// bucket scatter, quadrant split); it scales with the machine like the
	// cutoffs so anchored subtrees keep the paper's internal parallelism.
	Chunk      int
	QuadN      int
	QuadCutoff int
	MatmulN    int
	MatmulBase int

	// Cluster sweep sizing (the multi-machine serving experiment): fleet
	// size, arrivals per grid cell, the two mix kernel sizes (working-set
	// scans dominate so routing locality matters), and the offered rate.
	ClusterMachines int
	ClusterJobs     int
	ClusterWSetN    int
	ClusterRRMN     int
	ClusterRate     float64
}

// Paper returns the full-scale profile: the Xeon 7560 at 1/64 cache scale
// with inputs holding the paper's input-to-L3 ratios (e.g. RRM touches
// 16n bytes ≈ 6.7 L3 capacities, exactly as 160MB vs 24MB in §5.3).
func Paper() Profile {
	return Profile{
		Name:         "paper",
		MachineScale: 64,
		Reps:         5,
		Seed:         1,
		RRMN:         160_000, // 16n = 2.56MB vs 384KB L3: 6.7x, as in the paper
		RRGN:         160_000,
		RRBase:       1024,
		RRGrain:      512,
		SortN:        600_000, // 4.8MB ≈ 12.5 L3 capacities
		SerialCutoff: 256,     // paper: 16K elements at full scale → /64
		PartCutoff:   2048,    // paper: 128K elements at full scale → /64
		Chunk:        128,
		QuadN:        400_000,
		QuadCutoff:   256, // paper: 16K points at full scale → /64
		MatmulN:      512, // 3 matrices = 6MB ≈ 16 L3 capacities
		MatmulBase:   16,  // scaled stand-in for the paper's 128×128 MKL base

		ClusterMachines: 4,
		ClusterJobs:     6_500,  // 16 grid cells → 104k requests per sweep
		ClusterWSetN:    24_000, // 192KB working set vs 384KB scaled L3
		ClusterRRMN:     8_000,
		ClusterRate:     200_000,
	}
}

// Quick returns a reduced profile for tests and smoke runs.
func Quick() Profile {
	return Profile{
		Name:         "quick",
		MachineScale: 256,
		Reps:         2,
		Seed:         1,
		RRMN:         40_000,
		RRGN:         40_000,
		RRBase:       512,
		RRGrain:      256,
		SortN:        60_000,
		SerialCutoff: 64,
		PartCutoff:   512,
		Chunk:        64,
		QuadN:        40_000,
		QuadCutoff:   128,
		MatmulN:      128,
		MatmulBase:   16,

		ClusterMachines: 3,
		ClusterJobs:     40,
		ClusterWSetN:    3_000,
		ClusterRRMN:     2_000,
		ClusterRate:     60_000,
	}
}

// PageSize returns the hugepage (link-placement) granularity at the
// profile's scale: that of its machine (machine.Desc.PageSize), 2MB
// divided like the caches down to 4KB, so scaled inputs spread over DRAM
// links like the paper's inputs over hugepages. Every Fig. 7 topology has
// the same L3 and so the same page size.
func (p Profile) PageSize() int64 { return p.MachineHT().PageSize() }

// MachineHT returns the scaled 64-hyperthread Xeon used by Figs. 5, 6, 8,
// 9 and 10.
func (p Profile) MachineHT() *machine.Desc {
	return machine.Scaled(machine.Xeon7560HT(), p.MachineScale)
}

// MachineVariant returns a scaled Fig. 7 topology variant.
func (p Profile) MachineVariant(coresPerSocket int, ht bool) *machine.Desc {
	return machine.Scaled(machine.XeonVariant(coresPerSocket, ht), p.MachineScale)
}
