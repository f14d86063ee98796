package exp

// Grid run supervisor: the robustness layer wrapped around the
// full-scale grid. FullGridRun journals every cell of a run to an
// on-disk runlog (crash-safe: atomic manifest + checksummed append-only
// records), so an interrupted or crashed grid resumes by replaying the
// journal — completed cells are restored from their stored reports and
// only unfinished or failed cells re-dispatch. Resume is bit-identical
// by construction: a cell's journaled report is restored only when its
// stored inputs-fingerprint (gridCellKey) matches the one freshly
// computed from the profile, and fingerprints are pure functions of
// those inputs — never of worker count, window size, shard count or
// budget, the knobs a resumed process may legitimately change.
//
// Per-cell robustness lives here too:
//
//   - a host wall-clock watchdog deadline per attempt (the simulation
//     has no host-time hooks, so a hung cell is abandoned from outside;
//     simulated time stays untouched and schedlint-clean),
//   - bounded retries with exponential backoff, doubling the deadline
//     each attempt so a slow-but-sound cell eventually fits,
//   - quarantine of the cell's shared framed recording between attempts
//     (a replay failure may mean the recording itself is suspect;
//     retrying against the same bytes would fail the same way),
//   - degraded-mode execution when the shared decoder budget cannot
//     admit another full window: the cell serializes behind a mutex and
//     runs with a shrunken window instead of overdrafting the budget —
//     safe because simulated results are window-invariant.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/machine"
	"repro/internal/runlog"
)

// GridRunOpts configures the supervised grid run. The zero value runs
// the grid unsupervised: no journal, no deadline, no retries.
type GridRunOpts struct {
	// RunDir is the run's journal directory (manifest + cell records +
	// the framed-trace cache when r.Traces has no directory). Empty
	// disables journaling.
	RunDir string
	// Resume continues the journal already in RunDir instead of refusing
	// to overwrite it. The journal's manifest must match this run's
	// profile, machine, seed and grid, or FullGridRun rejects the resume.
	Resume bool
	// CellDeadline is the host wall-clock watchdog per attempt; 0
	// disables it. The deadline doubles on every retry. An attempt that
	// overruns is abandoned (its goroutine keeps running until the cell
	// finishes on its own; the report counts it) and the cell is retried
	// or failed.
	CellDeadline time.Duration
	// CellRetries is how many times a failing cell is re-attempted after
	// its first try. Between attempts the cell's shared framed recording
	// is quarantined from the cache.
	CellRetries int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt; 0 means a second.
	RetryBackoff time.Duration
	// OnCellDone, when set, is called after every executed (not resumed)
	// cell with its outcome. Calls are serialized. Tests use it to
	// interrupt a run at a deterministic point.
	OnCellDone func(c GridCell, rep *FullCellReport, err error)
}

// Sentinel errors for resumable grid outcomes; both are returned
// wrapped, alongside a partially filled report.
var (
	// ErrGridInterrupted: the context was canceled before every cell
	// finished. The report is partial; a journaled run resumes.
	ErrGridInterrupted = errors.New("grid interrupted before all cells finished")
	// ErrGridCellsFailed: every cell was attempted but some exhausted
	// their retries. The report carries the survivors; a journaled run
	// re-dispatches only the failed cells on resume.
	ErrGridCellsFailed = errors.New("grid completed with failed cells")
)

// CellDeadlineError reports an attempt abandoned by the watchdog.
type CellDeadlineError struct {
	Cell     GridCell
	Attempt  int
	Deadline time.Duration
}

func (e *CellDeadlineError) Error() string {
	return fmt.Sprintf("cell %s/%s bw=%d attempt %d exceeded its %s host deadline",
		e.Cell.Kernel, e.Cell.Scheduler, e.Cell.LinksUsed, e.Attempt, e.Deadline)
}

// GridCellFailure records one cell that exhausted its attempts.
type GridCellFailure struct {
	Cell     GridCell
	Attempts int    // attempts across every process that tried this cell
	Error    string // last attempt's error
}

// gridCellKey is a cell's inputs-fingerprint for the journal: the
// recording's computation key (traceKey: kernel, scale, seed, machine
// geometry) plus the replay knobs that determine simulated results — the
// scheduler under test and the bandwidth.
// Worker count, shard count, window and budget are deliberately absent:
// results are pinned invariant under them (TestFullGridEquivalence and
// the degraded-mode test), which is exactly what lets a resumed process
// run with different host settings and still match bit-for-bit.
func (r *Runner) gridCellKey(c GridCell, m *machine.Desc) string {
	return fmt.Sprintf("%s|cell:sched=%s,links=%d", r.traceKey(Cell{Label: c.Kernel, Machine: m}, r.P.Seed), c.Scheduler, c.LinksUsed)
}

func cellID(c GridCell) runlog.CellID {
	return runlog.CellID{Kernel: c.Kernel, Sched: c.Scheduler, Links: c.LinksUsed}
}

// degradedWindow shrinks a cell's decoder window for the serialized
// degraded path: a quarter of the normal window, floored at 1 MiB (the
// stream clamps further up to one frame if needed).
func degradedWindow(w int64) int64 {
	w /= 4
	if w < 1<<20 {
		w = 1 << 20
	}
	return w
}

// gridSupervisor carries the per-run robustness state shared by the
// grid's worker goroutines.
type gridSupervisor struct {
	r       *Runner
	ctx     context.Context
	opts    GridRunOpts
	journal *runlog.Journal
	cache   *dagtrace.StreamCache
	budget  *dagtrace.Budget
	m       *machine.Desc
	window  int64 // the run's full decoder window (admission unit)

	// degradedMu serializes cells diverted to the degraded path.
	degradedMu sync.Mutex
	// abandoned tracks attempt goroutines that outlived their watchdog;
	// liveAttempts counts the ones still running.
	abandoned    sync.WaitGroup
	liveAttempts atomic.Int64

	retries     atomic.Int64
	quarantines atomic.Int64
	degraded    atomic.Int64
}

// log journals one record; a nil journal makes it a no-op.
func (s *gridSupervisor) log(rec *runlog.Record) error {
	if s.journal == nil {
		return nil
	}
	//schedlint:ignore nondeterminism host timestamp for journal records; operators read it, simulation never does
	rec.UnixMS = time.Now().UnixMilli()
	return s.journal.Append(rec)
}

// sleep waits d of host time, returning false if the run was canceled
// first.
func (s *gridSupervisor) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	//schedlint:ignore nondeterminism host-side retry backoff racing cancellation; simulated results never depend on which fires
	select {
	case <-t.C:
		return true
	case <-s.ctx.Done():
		return false
	}
}

// runCell executes one grid cell under supervision: journal the attempt,
// run it under the watchdog, retry with backoff and recording quarantine
// on failure. priorAttempts is the attempt count inherited from the
// journal of earlier processes, so attempt numbers stay monotonic across
// resumes. A context cancellation (mid-backoff) returns ctx.Err(): the
// cell is pending, not failed.
func (s *gridSupervisor) runCell(c GridCell, key string, priorAttempts int) (*FullCellReport, error) {
	attempts := 1 + s.opts.CellRetries
	backoff := s.opts.RetryBackoff
	if backoff <= 0 {
		backoff = time.Second
	}
	deadline := s.opts.CellDeadline
	var lastErr error
	for a := 1; a <= attempts; a++ {
		attempt := priorAttempts + a
		if err := s.log(&runlog.Record{Cell: cellID(c), Key: key, Status: runlog.StatusRunning, Attempt: attempt}); err != nil {
			return nil, fmt.Errorf("journal: %w", err)
		}
		rep, degraded, err := s.attempt(c, attempt, deadline)
		if err == nil {
			rep.Attempts = attempt
			payload, merr := json.Marshal(rep)
			if merr != nil {
				return nil, fmt.Errorf("journal: encoding cell report: %w", merr)
			}
			if err := s.log(&runlog.Record{
				Cell: cellID(c), Key: key, Status: runlog.StatusDone,
				Attempt: attempt, Degraded: degraded, Report: payload,
			}); err != nil {
				return nil, fmt.Errorf("journal: %w", err)
			}
			return rep, nil
		}
		lastErr = err
		quarantined := false
		if a < attempts && s.cache != nil {
			// The recording this cell replayed may itself be the problem;
			// evict it so the retry re-records from scratch.
			if s.cache.Quarantine(s.r.traceKey(Cell{Label: c.Kernel, Machine: s.m}, s.r.P.Seed)) {
				s.quarantines.Add(1)
				quarantined = true
			}
		}
		// Best-effort: the attempt's own error dominates a journal fault here.
		s.log(&runlog.Record{
			Cell: cellID(c), Key: key, Status: runlog.StatusFailed,
			Attempt: attempt, Error: err.Error(), Quarantined: quarantined,
		})
		if a == attempts {
			break
		}
		s.retries.Add(1)
		if !s.sleep(backoff) {
			return nil, s.ctx.Err()
		}
		backoff *= 2
		if deadline > 0 {
			deadline *= 2
		}
	}
	return nil, lastErr
}

// attempt runs one try of a cell, diverting to the degraded serialized
// path when the shared budget cannot admit another full window, and
// abandoning the try if it outlives the watchdog deadline. The attempt
// goroutine is never killed — Go cannot preempt it safely — it keeps
// running detached and its result is discarded; FullGridRun waits a
// bounded grace for stragglers and reports the ones that never finished.
func (s *gridSupervisor) attempt(c GridCell, attempt int, deadline time.Duration) (rep *FullCellReport, degraded bool, err error) {
	run := func() (*FullCellReport, bool, error) {
		o := fullCellOpts{linksUsed: c.LinksUsed, cache: s.cache, budget: s.budget}
		if !s.budget.Admit(s.window) {
			s.degraded.Add(1)
			s.degradedMu.Lock()
			defer s.degradedMu.Unlock()
			o.window = degradedWindow(s.window)
			o.degraded = true
		}
		r, err := s.r.fullCell(c.Kernel, c.Scheduler, o)
		return r, o.degraded, err
	}
	if deadline <= 0 {
		return run()
	}
	type result struct {
		rep      *FullCellReport
		degraded bool
		err      error
	}
	ch := make(chan result, 1) // buffered: an abandoned attempt must not block sending
	s.abandoned.Add(1)
	s.liveAttempts.Add(1)
	//schedlint:ignore nondeterminism watchdog-supervised attempt goroutine; the cell is a pure function of its inputs
	go func() {
		defer s.abandoned.Done()
		defer s.liveAttempts.Add(-1)
		rep, degraded, err := run()
		ch <- result{rep, degraded, err}
	}()
	t := time.NewTimer(deadline)
	defer t.Stop()
	//schedlint:ignore nondeterminism host watchdog select; simulated results never depend on which case fires
	select {
	case res := <-ch:
		return res.rep, res.degraded, res.err
	case <-t.C:
		return nil, false, &CellDeadlineError{Cell: c, Attempt: attempt, Deadline: deadline}
	}
}
