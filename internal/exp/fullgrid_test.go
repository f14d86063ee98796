package exp

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/dagtrace"
)

// gridRefKey names one grid point for the equivalence maps.
type gridRefKey struct {
	sched string
	links int
}

// TestFullGridEquivalence is the tentpole determinism pin: a grid run
// off one shared recording, concurrently, under a shared decoder budget,
// must produce per-cell fingerprints and simulated clocks bit-identical
// to running each cell alone through FullCellAt — at every worker count,
// shard count and budget size tried. It also asserts the record-once
// contract (exactly one recording on a cold cache, zero on a warm one)
// and the RecordShared stage-marker discipline.
func TestFullGridEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid pipeline")
	}
	kernels := []string{"Quicksort"}
	scheds := []string{"sb", "sbd"}
	bands := []int{4, 1}

	// Sequential references: each cell alone, sharing one framed cache so
	// the reference pass records once too (the recording is canonical —
	// FullRecordSched — so sharing cannot change it).
	refCache, err := dagtrace.NewStreamCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	refFP := map[gridRefKey]string{}
	refWall := map[gridRefKey]int64{}
	var refPeak int64
	for _, sn := range scheds {
		for _, b := range bands {
			r := NewRunner(Quick(), io.Discard)
			r.ReplayWindow = 1 << 22
			r.Shards = 1
			r.Traces = refCache
			rep, err := r.FullCellAt("Quicksort", sn, b)
			if err != nil {
				t.Fatalf("FullCellAt(%s,%d): %v", sn, b, err)
			}
			if rep.Fingerprint == "" || rep.ShardedWall <= 0 {
				t.Fatalf("FullCellAt(%s,%d): incomplete report %+v", sn, b, rep)
			}
			refFP[gridRefKey{sn, b}] = rep.Fingerprint
			refWall[gridRefKey{sn, b}] = rep.ShardedWall
			if rep.PeakWindowB > refPeak {
				refPeak = rep.PeakWindowB
			}
		}
	}

	// Grid runs: the same cells through the concurrent executor, over one
	// on-disk cache directory shared by all three runs. Worker count,
	// shard count and budget all vary; nothing simulated may move.
	gridDir := t.TempDir()
	for i, cfg := range []struct {
		workers, shards int
		budget          int64
	}{
		{1, 2, 0},
		{2, 1, 1 << 20}, // budget far under one window: constant eviction pressure
		{runtime.GOMAXPROCS(0), 2, 0},
	} {
		cache, err := dagtrace.NewStreamCache(gridDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(Quick(), io.Discard)
		r.ReplayWindow = 1 << 22
		r.Workers = cfg.workers
		r.Shards = cfg.shards
		r.GridBudget = cfg.budget
		r.Traces = cache
		rep, err := r.FullGrid(kernels, scheds, bands)
		if err != nil {
			t.Fatalf("grid %d (workers=%d): %v", i, cfg.workers, err)
		}
		if len(rep.Cells) != len(scheds)*len(bands) {
			t.Fatalf("grid %d: %d cells, want %d", i, len(rep.Cells), len(scheds)*len(bands))
		}
		wantRecordings := 0
		if i == 0 {
			wantRecordings = 1 // cold directory: exactly one record stage
		}
		if rep.Recordings != wantRecordings || rep.SharedCells != len(rep.Cells)-wantRecordings {
			t.Errorf("grid %d: recordings=%d shared=%d, want %d and %d",
				i, rep.Recordings, rep.SharedCells, wantRecordings, len(rep.Cells)-wantRecordings)
		}
		if rep.PeakBudgetBytes <= 0 {
			t.Errorf("grid %d: no shared-budget peak recorded", i)
		}
		for _, c := range rep.Cells {
			k := gridRefKey{c.Scheduler, c.LinksUsed}
			if c.Fingerprint != refFP[k] {
				t.Errorf("grid %d: cell %s/bw=%d fingerprint %s != sequential %s",
					i, c.Scheduler, c.LinksUsed, c.Fingerprint, refFP[k])
			}
			if c.ShardedWall != refWall[k] {
				t.Errorf("grid %d: cell %s/bw=%d wall %d != sequential %d",
					i, c.Scheduler, c.LinksUsed, c.ShardedWall, refWall[k])
			}
			if c.RecordShared {
				if c.RecordSec != 0 || c.WriteSec != 0 {
					t.Errorf("grid %d: shared cell %s/bw=%d reports record=%.3fs write=%.3fs, want 0",
						i, c.Scheduler, c.LinksUsed, c.RecordSec, c.WriteSec)
				}
			} else if c.RecordSec <= 0 {
				t.Errorf("grid %d: recording cell %s/bw=%d reports zero RecordSec", i, c.Scheduler, c.LinksUsed)
			}
			if c.ReplayWall != 0 {
				t.Errorf("grid %d: cell %s/bw=%d ran the unsharded replay (wall=%d); grid cells must skip it",
					i, c.Scheduler, c.LinksUsed, c.ReplayWall)
			}
		}
	}
}

// TestFullGridRejects pins the input validation: unknown kernels and
// schedulers and out-of-range bandwidths fail before any cell runs.
func TestFullGridRejects(t *testing.T) {
	r := NewRunner(Quick(), io.Discard)
	if _, err := r.FullGrid(nil, []string{"sb"}, nil); err == nil {
		t.Error("empty kernel list accepted")
	}
	if _, err := r.FullGrid([]string{"NoSuchKernel"}, []string{"sb"}, nil); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := r.FullGrid([]string{"Quicksort"}, []string{"nope"}, nil); err == nil {
		t.Error("unknown scheduler accepted")
	}
	if _, err := r.FullGrid([]string{"Quicksort"}, []string{"sb"}, []int{99}); err == nil {
		t.Error("out-of-range bandwidth accepted")
	}
	if _, err := r.fullCell("Quicksort", "sb", fullCellOpts{linksUsed: -1}); err == nil {
		t.Error("negative linksUsed accepted")
	}
}
