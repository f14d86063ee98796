package exp

// The full-scale Fig. 8/Fig. 9 grid: every kernel × scheduler ×
// bandwidth cell at a FullScale profile, sharing one framed recording
// per kernel and one decoder-memory budget across concurrently
// replaying cells. A K-kernel, S-scheduler, B-bandwidth grid performs K
// recordings (not K·S·B), so the grid amortizes the record stage, and
// its per-cell fingerprints are bit-identical to running
// each cell alone, invariant under -shards, worker count and budget
// (pinned by TestFullGridEquivalence). FullGridRun runs it under the
// supervisor (journal, resume, deadline, retries, degraded mode — see
// supervisor.go) on the worker pool RunGrid uses too (dispatch).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/runlog"
	"repro/internal/sched"
)

// GridCell names one full-scale grid point.
type GridCell struct {
	Kernel    string
	Scheduler string
	LinksUsed int // DRAM links in use (Fig. 8: all, Fig. 9: 1)
}

// FullGridReport is the outcome of one full-scale grid run.
type FullGridReport struct {
	Profile string
	Machine string
	Shards  int
	Window  int64
	Workers int

	// Grid lists every grid point in input order; Cells holds the report
	// at the same index, nil for a cell that did not finish (pending
	// after an interrupt, or failed).
	Grid  []GridCell
	Cells []*FullCellReport

	// Recordings counts cells that produced a framed recording;
	// SharedCells counts cells that reused one. Recordings equals the
	// number of distinct kernels when the cache starts cold, and 0 when
	// every recording was adopted from a previous run's directory.
	Recordings  int
	SharedCells int

	// Supervisor outcome counters (see supervisor.go). Resumed cells were
	// restored from the run journal; Retries/Quarantines/DegradedCells
	// count this process's re-attempts, recording evictions and
	// budget-diverted serialized cells; Abandoned counts watchdog-expired
	// attempt goroutines still running when the grid gave up waiting.
	Resumed       int
	Retries       int
	Quarantines   int
	DegradedCells int
	Abandoned     int

	// Partial marks an interrupted run (context canceled before every
	// cell finished); Failed counts cells that exhausted their retries,
	// detailed in Failures. Either way the run resumes from its journal.
	Partial  bool
	Failed   int
	Failures []GridCellFailure

	// GridSec is the host wall-clock of the whole grid; SumCellSec is the
	// sum of every cell's stage times — what the same cells would cost run
	// back to back — so GridSec vs SumCellSec is the grid's concurrency +
	// sharing win.
	GridSec    float64
	SumCellSec float64

	// BudgetBytes is the shared token bucket's size; PeakBudgetBytes its
	// high-water mark over all concurrent windows — the grid-wide analogue
	// of one stream's PeakResidentBytes.
	BudgetBytes     int64
	PeakBudgetBytes int64

	// CacheStats snapshots the framed-trace cache delta over the grid.
	CacheStats dagtrace.Stats
}

// FullGridRun runs the kernels × schedNames × bands grid of full-scale
// cells concurrently on r.Workers host goroutines (no bands means all
// links). All cells of one kernel share a single framed recording (through
// the directory cache fileTraces picks): the first cell to arrive records
// it, everyone else blocks on the cache and replays the same file. Every
// cell's decoder window draws on one shared budget of r.GridBudget bytes,
// so grid peak decoder memory tracks a single cell's rather than
// multiplying by the worker count. Cells skip the unsharded full-machine
// replay (the cell experiment's cross-check); their results come from the
// sharded per-socket replay, which is where the full-scale numbers come
// from anyway.
//
// The run is supervised: with a RunDir every cell outcome is journaled
// crash-safely and the run resumes (Resume) skipping cells whose
// journaled inputs-fingerprint still matches; CellDeadline/CellRetries
// bound and retry misbehaving cells; cells the shared budget cannot
// admit run serialized with a shrunken window. Canceling ctx drains
// gracefully: running cells finish (unless abandoned by their deadline),
// pending cells stay pending, and the partial report comes back wrapped
// in ErrGridInterrupted. Without a RunDir, a failed cell fails the whole
// grid: the report is nil and the error is the cell's.
func (r *Runner) FullGridRun(ctx context.Context, kernels, schedNames []string, bands []int, opts GridRunOpts) (*FullGridReport, error) {
	m := r.P.MachineHT()
	if len(bands) == 0 {
		bands = []int{m.Links}
	}
	cells, err := r.fullGridCells(kernels, schedNames, bands)
	if err != nil {
		return nil, err
	}

	// Journal: create fresh, or reopen and reduce for resume. The
	// manifest pins the run's identity; resuming under a different
	// profile, machine, seed or grid is refused rather than silently
	// mixing results.
	var (
		journal *runlog.Journal
		prior   map[runlog.CellID]*runlog.CellState
	)
	if opts.Resume && opts.RunDir == "" {
		return nil, fmt.Errorf("exp: resume needs a run directory")
	}
	if opts.RunDir != "" {
		man := &runlog.Manifest{
			Version: runlog.Version, Profile: r.P.Name, Machine: m.Name, Seed: r.P.Seed,
			Kernels: append([]string(nil), kernels...),
			Scheds:  append([]string(nil), schedNames...),
			Bands:   append([]int(nil), bands...),
			Cells:   len(cells),
		}
		if runlog.Exists(opts.RunDir) {
			if !opts.Resume {
				return nil, fmt.Errorf("exp: run directory %s already holds a journal; resume it or pick a fresh directory", opts.RunDir)
			}
			j, got, recs, err := runlog.Open(opts.RunDir)
			if err != nil {
				return nil, err
			}
			if err := got.Match(man); err != nil {
				j.Close()
				return nil, fmt.Errorf("exp: refusing to resume %s: %w", opts.RunDir, err)
			}
			journal = j
			prior = runlog.Reduce(recs)
			if journal.Dropped > 0 && r.Verbose {
				fmt.Fprintf(r.Out, "# journal: dropped %d damaged tail byte(s) left by a crash mid-append\n", journal.Dropped)
			}
		} else {
			if journal, err = runlog.Create(opts.RunDir, man); err != nil {
				return nil, err
			}
		}
		defer journal.Close()
	}

	cache, cleanup, err := r.fileTraces(opts.RunDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	before := cache.Stats()
	window := r.replayWindow()
	budgetBytes := r.GridBudget
	if budgetBytes <= 0 {
		budgetBytes = max(window, dagtrace.DefaultWindowBytes)
	}
	budget := dagtrace.NewBudget(budgetBytes)

	rep := &FullGridReport{
		Profile: r.P.Name, Machine: m.Name, Shards: r.Shards,
		Window: window, Workers: r.workers(len(cells)),
		Grid:        cells,
		Cells:       make([]*FullCellReport, len(cells)),
		BudgetBytes: budgetBytes,
	}

	sup := &gridSupervisor{
		r: r, ctx: ctx, opts: opts, journal: journal,
		cache: cache, budget: budget, m: m, window: window,
	}

	// Resume: restore completed cells from the journal. A stored report
	// is trusted only when its journaled key equals the cell's freshly
	// computed inputs-fingerprint — anything else (stale key, torn
	// report) re-dispatches the cell.
	keys := make([]string, len(cells))
	priorAtt := make([]int, len(cells))
	pending := make([]int, 0, len(cells))
	for i, c := range cells {
		keys[i] = r.gridCellKey(c, m)
		if st := prior[cellID(c)]; st != nil {
			priorAtt[i] = st.Attempts
			if st.Status == runlog.StatusDone && st.Key == keys[i] && len(st.Report) > 0 {
				var cr FullCellReport
				if err := json.Unmarshal(st.Report, &cr); err == nil && cr.Fingerprint != "" {
					cr.Resumed = true
					rep.Cells[i] = &cr
					rep.Resumed++
					if r.Verbose {
						fmt.Fprintf(r.Out, "# resumed %-16s %-4s bw=%d/%d from journal (attempt %d)\n",
							c.Kernel, c.Scheduler, c.LinksUsed, m.Links, cr.Attempts)
					}
					continue
				}
			}
		}
		pending = append(pending, i)
	}

	errs := make([]error, len(cells))
	//schedlint:ignore nondeterminism host-side grid wall-clock for the report; simulated results never read it
	t0 := time.Now()
	r.dispatch(ctx, pending,
		func(i int) string { return cells[i].Kernel },
		func(i int) string {
			c := cells[i]
			if rep.Cells[i], errs[i] = sup.runCell(c, keys[i], priorAtt[i]); errs[i] != nil {
				return ""
			}
			return fmt.Sprintf("# done %-16s %-4s bw=%d/%d: sharded=%.1fs shared=%v\n",
				c.Kernel, c.Scheduler, c.LinksUsed, m.Links, rep.Cells[i].ShardedSec, rep.Cells[i].RecordShared)
		},
		func(i int) {
			if opts.OnCellDone != nil {
				opts.OnCellDone(cells[i], rep.Cells[i], errs[i])
			}
		})
	//schedlint:ignore nondeterminism host-side grid wall-clock for the report
	rep.GridSec = time.Since(t0).Seconds()

	// Wait a bounded grace for attempt goroutines abandoned by their
	// watchdog; stragglers that never finish are reported, and the budget
	// leak check is skipped (they still hold window tokens legitimately).
	if live := sup.liveAttempts.Load(); live > 0 {
		grace := 2 * opts.CellDeadline
		if grace < 10*time.Second {
			grace = 10 * time.Second
		}
		done := make(chan struct{})
		//schedlint:ignore nondeterminism bounded wait for abandoned host goroutines during shutdown
		go func() { sup.abandoned.Wait(); close(done) }()
		t := time.NewTimer(grace)
		//schedlint:ignore nondeterminism bounded wait for abandoned host goroutines during shutdown
		select {
		case <-done:
		case <-t.C:
		}
		t.Stop()
	}
	rep.Abandoned = int(sup.liveAttempts.Load())

	// Classify what the pending cells became: done, failed (retries
	// exhausted), or still pending (canceled before/while running).
	canceled := ctx.Err() != nil
	for _, i := range pending {
		if rep.Cells[i] != nil {
			continue
		}
		err := errs[i]
		if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			rep.Partial = true // never dispatched, or canceled mid-backoff
			continue
		}
		rep.Failed++
		rep.Failures = append(rep.Failures, GridCellFailure{
			Cell:     cells[i],
			Attempts: priorAtt[i] + 1 + opts.CellRetries,
			Error:    err.Error(),
		})
	}
	if canceled {
		rep.Partial = true
	}

	for _, c := range rep.Cells {
		if c == nil {
			continue
		}
		if c.RecordShared || c.Resumed {
			rep.SharedCells++
		} else {
			rep.Recordings++
		}
		rep.SumCellSec += c.RecordSec + c.WriteSec + c.ReplaySec + c.ShardedSec
	}
	rep.Retries = int(sup.retries.Load())
	rep.Quarantines = int(sup.quarantines.Load())
	rep.DegradedCells = int(sup.degraded.Load())
	rep.PeakBudgetBytes = budget.PeakBytes()
	if rep.Abandoned == 0 {
		if leaked := budget.Used(); leaked != 0 {
			return nil, fmt.Errorf("exp: grid drained with %d budget bytes still charged (window lease leak)", leaked)
		}
	}
	s := cache.Stats()
	rep.CacheStats = dagtrace.Stats{
		Hits: s.Hits - before.Hits, Misses: s.Misses - before.Misses,
		DiskHits: s.DiskHits - before.DiskHits, Fallbacks: s.Fallbacks - before.Fallbacks,
		Corrupt: s.Corrupt - before.Corrupt, Quarantined: s.Quarantined - before.Quarantined,
	}

	switch {
	case rep.Partial:
		// Every finished cell counts as a recording or as a shared cell.
		return rep, fmt.Errorf("exp: %w (%d/%d cells done; resume with the same run directory)",
			ErrGridInterrupted, rep.Recordings+rep.SharedCells, len(cells))
	case rep.Failed > 0:
		f := rep.Failures[0]
		if journal == nil {
			// Without a journal there is nothing to resume: a failing cell
			// fails the whole grid with its error.
			return nil, fmt.Errorf("exp: grid cell %s/%s bw=%d: %s",
				f.Cell.Kernel, f.Cell.Scheduler, f.Cell.LinksUsed, f.Error)
		}
		return rep, fmt.Errorf("exp: %w: %d cell(s), first: %s/%s bw=%d: %s",
			ErrGridCellsFailed, rep.Failed, f.Cell.Kernel, f.Cell.Scheduler, f.Cell.LinksUsed, f.Error)
	}
	return rep, nil
}

// fullGridCells validates a kernels × schedNames × bands grid — known
// kernels and schedulers, bands within the machine's links — and lists
// its points in input order. FullGridRun and FullCell validate through it,
// so fullCell runs only valid cells.
func (r *Runner) fullGridCells(kernels, schedNames []string, bands []int) ([]GridCell, error) {
	if len(kernels) == 0 || len(schedNames) == 0 {
		return nil, fmt.Errorf("exp: full grid needs at least one kernel and one scheduler")
	}
	for _, k := range kernels {
		if _, err := r.P.FullKernelFactory(k); err != nil {
			return nil, err
		}
	}
	for _, sn := range schedNames {
		if sched.New(sn) == nil {
			return nil, fmt.Errorf("exp: unknown scheduler %q (want one of %v)", sn, sched.Names())
		}
	}
	links := r.P.MachineHT().Links
	for _, b := range bands {
		if b < 1 || b > links {
			return nil, fmt.Errorf("exp: bandwidth %d out of range 1..%d links", b, links)
		}
	}
	cells := make([]GridCell, 0, len(kernels)*len(schedNames)*len(bands))
	for _, k := range kernels {
		for _, sn := range schedNames {
			for _, b := range bands {
				cells = append(cells, GridCell{Kernel: k, Scheduler: sn, LinksUsed: b})
			}
		}
	}
	return cells, nil
}

// Print renders per-cell reports, a Fig. 8/Fig. 9-style table per
// bandwidth (sharded wall seconds and L3 misses per kernel × scheduler),
// any failures, and the summary line the fullgrid-smoke CI job greps
// (recordings= in particular). Interrupted runs are marked PARTIAL.
func (rep *FullGridReport) Print(w io.Writer) {
	header := ""
	if rep.Partial {
		header = " PARTIAL"
	}
	fmt.Fprintf(w, "fullgrid%s profile=%s machine=%s cells=%d workers=%d shards=%d\n",
		header, rep.Profile, rep.Machine, len(rep.Cells), rep.Workers, rep.Shards)
	for _, c := range rep.Cells {
		if c == nil {
			continue
		}
		c.Print(w)
	}
	rep.printTables(w)
	if len(rep.Failures) > 0 {
		fmt.Fprintf(w, "\n# failed cells: %d\n", len(rep.Failures))
		for _, f := range rep.Failures {
			fmt.Fprintf(w, "#   %s/%s bw=%d after %d attempt(s): %s\n",
				f.Cell.Kernel, f.Cell.Scheduler, f.Cell.LinksUsed, f.Attempts, f.Error)
		}
	}
	if rep.Resumed > 0 || rep.Retries > 0 || rep.Quarantines > 0 || rep.DegradedCells > 0 || rep.Abandoned > 0 || rep.Partial || rep.Failed > 0 {
		fmt.Fprintf(w, "\n# supervisor: resumed=%d retried=%d quarantined=%d degraded=%d abandoned=%d failed=%d partial=%v\n",
			rep.Resumed, rep.Retries, rep.Quarantines, rep.DegradedCells, rep.Abandoned, rep.Failed, rep.Partial)
	}
	fmt.Fprintf(w, "\n# fullgrid: recordings=%d shared=%d grid_wall=%.1fs cell_sum=%.1fs budget=%d peak_budget_bytes=%d cache=[hits=%d misses=%d disk=%d corrupt=%d quarantined=%d]\n",
		rep.Recordings, rep.SharedCells, rep.GridSec, rep.SumCellSec,
		rep.BudgetBytes, rep.PeakBudgetBytes,
		rep.CacheStats.Hits, rep.CacheStats.Misses, rep.CacheStats.DiskHits,
		rep.CacheStats.Corrupt, rep.CacheStats.Quarantined)
}

// printTables renders the per-bandwidth Fig. 8/Fig. 9 result tables.
// Resume-equivalence tests compare these bytes between a resumed and an
// uninterrupted run, so the tables depend only on simulated results —
// never on host timings, attempt counts or resume provenance.
func (rep *FullGridReport) printTables(w io.Writer) {
	kernels := distinct(rep.Grid, func(g GridCell) string { return g.Kernel })
	scheds := distinct(rep.Grid, func(g GridCell) string { return g.Scheduler })
	bands := distinct(rep.Grid, func(g GridCell) int { return g.LinksUsed })
	byCell := make(map[GridCell]*FullCellReport, len(rep.Grid))
	for i, g := range rep.Grid {
		byCell[g] = rep.Cells[i]
	}
	for _, b := range bands {
		fmt.Fprintf(w, "\n# table links=%d (sharded wall Mcycles | L3 misses)\n", b)
		fmt.Fprintf(w, "%-18s", "kernel")
		for _, sn := range scheds {
			fmt.Fprintf(w, " %22s", sn)
		}
		fmt.Fprintln(w)
		for _, k := range kernels {
			fmt.Fprintf(w, "%-18s", k)
			for _, sn := range scheds {
				c := byCell[GridCell{k, sn, b}]
				if c == nil {
					fmt.Fprintf(w, " %22s", "-")
					continue
				}
				fmt.Fprintf(w, " %12.1f|%9d", float64(c.ShardedWall)/1e6, c.L3Misses)
			}
			fmt.Fprintln(w)
		}
	}
}

// distinct returns the values of axis over the grid points, each once, in
// first-seen order.
func distinct[T comparable](grid []GridCell, axis func(GridCell) T) []T {
	var out []T
	seen := make(map[T]bool)
	for _, g := range grid {
		if v := axis(g); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
