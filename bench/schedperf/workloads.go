package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/exp"
)

// defaultSeed is the quick profile's own seed. The goldens are pinned for
// it; any other seed is checked for run-to-run determinism instead.
var defaultSeed = exp.Quick().Seed

const (
	// cellSched is the scheduler of the two cell workloads (the paper's
	// reference scheduler, and the canonical recording scheduler, so the
	// record and replay stages run the same scheduler code).
	cellSched = "sb"
	// cellShards is the host goroutine count of the cells' sharded replay;
	// it matches the children's GOMAXPROCS cap.
	cellShards = 2
)

// The full-scale grid workload: two kernels with different task shapes
// under one work-stealing and one space-bounded scheduler, at full and at
// one-link bandwidth — 2 recordings shared by 8 concurrent sharded
// replays. The 64 MiB budget keeps every cell out of the supervisor's
// degraded mode, whose serialization would make wall time depend on
// timing rather than on the code.
var (
	fullGridKernels = []string{"Quad-Tree", "Samplesort"}
	fullGridScheds  = []string{"ws", "sb"}
	fullGridBands   = []int{4, 1}
)

const fullGridBudget = 64 << 20

// workload is one input set of the benchmark. A child process runs it once
// through the entry point users call (Runner.FullCell, Fig8/Fig9,
// FullGridRun), so a later change to the pipeline's internals shows up in
// the numbers without editing the benchmark.
type workload struct {
	name string
	why  string
	// cells is the number of digests one run yields; a run that fails
	// outright fails all of them.
	cells int
	// run executes the workload once and returns one digest per cell.
	run func(seed uint64, dir string) ([]string, error)
	// traced runs the same computation with the benchmark's layer
	// decorators attached; its digests must equal run's.
	traced func(seed uint64, dir string, t *tracer) ([]string, error)
}

var workloads = []workload{
	{
		name:   "cell_rrm_quick",
		why:    "FullCell RRM/sb: few long strands per op byte, so record-path and per-access replay work dominate",
		cells:  1,
		run:    runCell("RRM"),
		traced: tracedCell("RRM"),
	},
	{
		name:   "cell_qsort_quick",
		why:    "FullCell Quicksort/sb: a similar op stream with 5x the tasks, so per-task layers (scheduler, engine, recorder metadata) dominate",
		cells:  1,
		run:    runCell("Quicksort"),
		traced: tracedCell("Quicksort"),
	},
	{
		name:   "grid_fig89_quick",
		why:    "Fig8+Fig9 quick grid: the only workload on the arena trace cache and RunGrid, running ws/pws idle polling at one link",
		cells:  40,
		run:    runFigGrid,
		traced: tracedFigGrid,
	},
	{
		name:   "fullgrid_quick",
		why:    "FullGridRun 2 kernels x {ws,sb} x 2 bands: replay-dominated, on the framed-trace disk cache, shared budget and journal",
		cells:  len(fullGridKernels) * len(fullGridScheds) * len(fullGridBands),
		run:    runFullGrid,
		traced: tracedFullGrid,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// quick is the quick profile at the workload seed.
func quick(seed uint64) exp.Profile {
	p := exp.Quick()
	p.Seed = seed
	return p
}

// figProfile is the quick profile with one repetition per cell, which
// halves the grid so that one run fits several times into a measurement.
func figProfile(seed uint64) exp.Profile {
	p := quick(seed)
	p.Reps = 1
	return p
}

// short hashes one cell's deterministic outputs into a 16-hex-digit digest.
func short(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// cellDigest covers the sharded fingerprint and the unsharded makespan,
// the two simulated results a cell reports.
func cellDigest(fingerprint string, replayWall int64) string {
	return short(fmt.Sprintf("%s/replay_wall=%d", fingerprint, replayWall))
}

// rowDigest covers every metric of one figure row; %v prints each float
// in its shortest exact form.
func rowDigest(group, scheduler string, m exp.Metrics) string {
	return short(fmt.Sprintf("%s|%s|%+v|%+v|%+v|%+v|%+v|%+v", group, scheduler,
		m.ActiveSec, m.OverSec, m.EmptySec, m.WallSec, m.L3Misses, m.DRAMStall))
}

func runCell(kernel string) func(uint64, string) ([]string, error) {
	return func(seed uint64, _ string) ([]string, error) {
		r := exp.NewRunner(quick(seed), io.Discard)
		r.Shards = cellShards
		rep, err := r.FullCell(kernel, cellSched)
		if err != nil {
			return nil, err
		}
		return []string{cellDigest(rep.Fingerprint, rep.ReplayWall)}, nil
	}
}

func runFigGrid(seed uint64, _ string) ([]string, error) {
	r := exp.NewRunner(figProfile(seed), io.Discard)
	var digests []string
	for _, fig := range []func() ([]exp.FigRow, error){r.Fig8, r.Fig9} {
		rows, err := fig()
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			digests = append(digests, rowDigest(row.Group, row.Scheduler, row.M))
		}
	}
	return digests, nil
}

func fullGrid(seed uint64, runDir string) (*exp.FullGridReport, error) {
	r := exp.NewRunner(quick(seed), io.Discard)
	r.Workers = 2
	r.Shards = 1
	r.GridBudget = fullGridBudget
	return r.FullGridRun(context.Background(), fullGridKernels, fullGridScheds, fullGridBands,
		exp.GridRunOpts{RunDir: runDir})
}

func runFullGrid(seed uint64, dir string) ([]string, error) {
	rep, err := fullGrid(seed, filepath.Join(dir, "run"))
	if err != nil {
		return nil, err
	}
	return gridDigests(rep), nil
}

func gridDigests(rep *exp.FullGridReport) []string {
	digests := make([]string, len(rep.Cells))
	for i, c := range rep.Cells {
		digests[i] = short(c.Fingerprint)
	}
	return digests
}
