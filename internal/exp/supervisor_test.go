package exp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/runlog"
)

func newGridRunner(out io.Writer) *Runner {
	r := NewRunner(Quick(), out)
	r.ReplayWindow = 1 << 22
	r.Shards = 1
	r.Workers = 1
	return r
}

// TestFullGridResumeEquivalence is the supervisor's determinism pin: a
// grid interrupted mid-run and resumed from its journal must produce
// per-cell fingerprints — and rendered result tables — byte-identical
// to the same grid run uninterrupted, while executing only the cells
// the journal does not already hold.
func TestFullGridResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	kernels := []string{"Quicksort"}
	scheds := []string{"sb", "sbd"}
	bands := []int{4, 1}
	runDir := filepath.Join(t.TempDir(), "run")

	// Pass 1: interrupt after two cells. Workers=1 makes the cut point
	// deterministic — the hook cancels before the worker picks up cell 3.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	executed := 0
	r := newGridRunner(io.Discard)
	rep1, err := r.FullGridRun(ctx, kernels, scheds, bands, GridRunOpts{
		RunDir: runDir,
		OnCellDone: func(GridCell, *FullCellReport, error) {
			executed++
			if executed == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrGridInterrupted) {
		t.Fatalf("interrupted run: err=%v, want ErrGridInterrupted", err)
	}
	if rep1 == nil || !rep1.Partial {
		t.Fatalf("interrupted run: report %+v not marked partial", rep1)
	}
	if executed != 2 {
		t.Fatalf("interrupted run executed %d cells, want 2", executed)
	}
	done1 := 0
	for _, c := range rep1.Cells {
		if c != nil {
			done1++
		}
	}
	if done1 != 2 {
		t.Fatalf("interrupted run finished %d cells, want 2", done1)
	}

	// Pass 2: resume. Only the two remaining cells may execute; the two
	// journaled ones come back marked Resumed.
	executed = 0
	r2 := newGridRunner(io.Discard)
	rep2, err := r2.FullGridRun(context.Background(), kernels, scheds, bands, GridRunOpts{
		RunDir: runDir, Resume: true,
		OnCellDone: func(GridCell, *FullCellReport, error) { executed++ },
	})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.Resumed != 2 {
		t.Errorf("resume restored %d cells, want 2", rep2.Resumed)
	}
	if executed != 2 {
		t.Errorf("resume executed %d cells, want 2", executed)
	}
	resumed := 0
	for i, c := range rep2.Cells {
		if c == nil {
			t.Fatalf("resume: cell %d missing", i)
		}
		if c.Resumed {
			resumed++
		}
	}
	if resumed != 2 {
		t.Errorf("resume: %d cells marked Resumed, want 2", resumed)
	}

	// Reference: the same grid uninterrupted, adopting the recordings the
	// journaled run already framed (adoption cannot change results — the
	// file is content-addressed by the computation key).
	refCache, err := dagtrace.NewStreamCache(filepath.Join(runDir, "traces"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rRef := newGridRunner(io.Discard)
	rRef.Traces = refCache
	ref, err := rRef.FullGrid(kernels, scheds, bands)
	if err != nil {
		t.Fatalf("reference grid: %v", err)
	}
	for i := range ref.Cells {
		got, want := rep2.Cells[i], ref.Cells[i]
		if got.Fingerprint != want.Fingerprint || got.ShardedWall != want.ShardedWall {
			t.Errorf("cell %d (%s/bw=%d): resumed fp=%s wall=%d, uninterrupted fp=%s wall=%d",
				i, want.Scheduler, want.LinksUsed,
				got.Fingerprint, got.ShardedWall, want.Fingerprint, want.ShardedWall)
		}
	}
	var gotTab, wantTab bytes.Buffer
	rep2.printTables(&gotTab)
	ref.printTables(&wantTab)
	if gotTab.String() != wantTab.String() {
		t.Errorf("resumed tables differ from uninterrupted run:\n--- resumed\n%s--- uninterrupted\n%s",
			gotTab.String(), wantTab.String())
	}

	// The journal's merged state agrees: every cell done, none failed.
	_, _, recs, err := runlog.Open(runDir)
	if err != nil {
		t.Fatal(err)
	}
	states := runlog.Reduce(recs)
	if len(states) != len(ref.Cells) {
		t.Errorf("journal holds %d cells, want %d", len(states), len(ref.Cells))
	}
	for id, st := range states {
		if st.Status != runlog.StatusDone {
			t.Errorf("journal cell %s: status %s, want done", id, st.Status)
		}
	}
}

// TestFullGridDeadlineRetry pins the watchdog + retry path: a cell whose
// attempts all exceed a tiny host deadline is journaled as failed (with
// the run surviving to report it), and a later resume with a sane
// deadline completes the cell with a monotonic attempt count.
func TestFullGridDeadlineRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	kernels := []string{"Quicksort"}
	scheds := []string{"sb"}
	bands := []int{1}
	runDir := filepath.Join(t.TempDir(), "run")

	r := newGridRunner(io.Discard)
	rep, err := r.FullGridRun(context.Background(), kernels, scheds, bands, GridRunOpts{
		RunDir:       runDir,
		CellDeadline: time.Nanosecond, // every attempt is abandoned immediately
		CellRetries:  1,
		RetryBackoff: time.Millisecond,
	})
	if !errors.Is(err, ErrGridCellsFailed) {
		t.Fatalf("deadline run: err=%v, want ErrGridCellsFailed", err)
	}
	if rep == nil || rep.Failed != 1 || len(rep.Failures) != 1 {
		t.Fatalf("deadline run: report %+v, want exactly one failure", rep)
	}
	if rep.Retries != 1 {
		t.Errorf("deadline run counted %d retries, want 1", rep.Retries)
	}
	if !strings.Contains(rep.Failures[0].Error, "host deadline") {
		t.Errorf("failure %q does not mention the deadline", rep.Failures[0].Error)
	}

	// Resume without a deadline: the cell runs to completion and its
	// attempt number continues where the journal left off (2 failed
	// attempts + 1 success = 3).
	r2 := newGridRunner(io.Discard)
	rep2, err := r2.FullGridRun(context.Background(), kernels, scheds, bands, GridRunOpts{
		RunDir: runDir, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume after deadline failures: %v", err)
	}
	c := rep2.Cells[0]
	if c == nil || c.Fingerprint == "" {
		t.Fatalf("resume did not complete the cell: %+v", c)
	}
	if c.Attempts != 3 {
		t.Errorf("resumed cell attempt %d, want 3 (monotonic across processes)", c.Attempts)
	}
}

// TestDegradedWindowEquivalence pins the safety property degraded mode
// rests on: replaying through the shrunken serialized-path window yields
// bit-identical simulated results, and the report carries the Degraded
// marker.
func TestDegradedWindowEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full cell pipeline")
	}
	cache, err := dagtrace.NewStreamCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newGridRunner(io.Discard)
	r.Traces = cache
	normal, err := r.fullCell("Quicksort", "sb", fullCellOpts{linksUsed: 1, cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	shrunk, err := r.fullCell("Quicksort", "sb", fullCellOpts{
		linksUsed: 1, cache: cache, window: degradedWindow(r.ReplayWindow), degraded: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !shrunk.Degraded || normal.Degraded {
		t.Errorf("Degraded markers wrong: normal=%v shrunk=%v", normal.Degraded, shrunk.Degraded)
	}
	if shrunk.Window != degradedWindow(r.ReplayWindow) {
		t.Errorf("degraded report window %d, want %d", shrunk.Window, degradedWindow(r.ReplayWindow))
	}
	if shrunk.Fingerprint != normal.Fingerprint || shrunk.ShardedWall != normal.ShardedWall {
		t.Errorf("degraded window changed results: fp %s vs %s, wall %d vs %d",
			shrunk.Fingerprint, normal.Fingerprint, shrunk.ShardedWall, normal.ShardedWall)
	}
	if w := degradedWindow(100); w != 1<<20 {
		t.Errorf("degradedWindow(100)=%d, want the 1 MiB floor", w)
	}
}

// TestFullGridTinyBudgetDegrades runs a multi-cell grid under a 1-byte
// shared budget with concurrent workers: any cell arriving while another
// holds tokens is diverted to the degraded serialized path. Whatever mix
// of degraded and normal execution the race produces, results must match
// the sequential references.
func TestFullGridTinyBudgetDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	cache, err := dagtrace.NewStreamCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	r := newGridRunner(io.Discard)
	r.Workers = 2
	r.GridBudget = 1
	r.Traces = cache
	rep, err := r.FullGrid([]string{"Quicksort"}, []string{"sb", "sbd"}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DegradedCells < 0 || rep.DegradedCells > len(rep.Cells) {
		t.Fatalf("DegradedCells=%d out of range", rep.DegradedCells)
	}
	ref := newGridRunner(io.Discard)
	ref.Traces = cache
	for _, c := range rep.Cells {
		want, err := ref.FullCellAt(c.Kernel, c.Scheduler, c.LinksUsed)
		if err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint != want.Fingerprint {
			t.Errorf("cell %s/%s: grid fp %s != reference %s (degraded=%v)",
				c.Kernel, c.Scheduler, c.Fingerprint, want.Fingerprint, c.Degraded)
		}
	}
}

// TestFullGridRunRejects pins the supervisor's refusal paths.
func TestFullGridRunRejects(t *testing.T) {
	kernels := []string{"Quicksort"}
	scheds := []string{"sb"}
	r := NewRunner(Quick(), io.Discard)

	if _, err := r.FullGridRun(context.Background(), kernels, scheds, nil, GridRunOpts{Resume: true}); err == nil {
		t.Error("Resume without RunDir accepted")
	}

	runDir := filepath.Join(t.TempDir(), "run")
	man := &runlog.Manifest{
		Version: runlog.Version, Profile: "other-profile", Machine: "m", Seed: 1,
		Kernels: kernels, Scheds: scheds, Bands: []int{1}, Cells: 1,
	}
	j, err := runlog.Create(runDir, man)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := r.FullGridRun(context.Background(), kernels, scheds, nil, GridRunOpts{RunDir: runDir}); err == nil {
		t.Error("fresh run over an existing journal accepted")
	}
	if _, err := r.FullGridRun(context.Background(), kernels, scheds, nil, GridRunOpts{RunDir: runDir, Resume: true}); err == nil {
		t.Error("resume with a mismatched manifest accepted")
	}
}
