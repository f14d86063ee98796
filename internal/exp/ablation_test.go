package exp

import (
	"bytes"
	"io"
	"math"
	"testing"

	"repro/internal/dagtrace"
)

func TestChunkSensitivityStable(t *testing.T) {
	var buf bytes.Buffer
	p := Quick()
	p.Reps = 1
	r := NewRunner(p, &buf)
	rows, err := r.ChunkSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Misses must be chunk-independent to within a few percent: the
	// engine's interleaving granularity is not allowed to drive results.
	base := rows[0].M.L3Misses.Mean
	for _, row := range rows[1:] {
		if dev := math.Abs(row.M.L3Misses.Mean-base) / base; dev > 0.05 {
			t.Errorf("%s: misses deviate %.1f%% from chunk-1024 baseline", row.Group, 100*dev)
		}
	}
}

func TestQueueContentionSBDCheaper(t *testing.T) {
	var buf bytes.Buffer
	p := Quick()
	p.Reps = 1
	r := NewRunner(p, &buf)
	rows, err := r.QueueContention()
	if err != nil {
		t.Fatal(err)
	}
	// On the largest topology, SB-D's call-back overhead (excluding idle
	// time) must not exceed SB's: the distributed top bucket removes the
	// serialization hotspot.
	var sb, sbd float64
	for _, row := range rows {
		if row.Group != "4x8x2(HT)" {
			continue
		}
		cb := row.M.OverSec.Mean - row.M.EmptySec.Mean
		if row.Scheduler == "SB" {
			sb = cb
		} else {
			sbd = cb
		}
	}
	if sb == 0 || sbd == 0 {
		t.Fatal("missing 64-core rows")
	}
	if sbd > sb*1.1 {
		t.Errorf("SB-D call-back overhead (%.4g) above SB (%.4g)", sbd, sb)
	}
}

// TestQueueContentionSharesFig7Recordings pins that the top-bucket
// ablation records nothing of its own: each of its cells keys the same
// computation as Fig. 7's RRM cells on its machine (Fig. 7 labels its
// cells with the kernel's name), so it replays their recordings.
func TestQueueContentionSharesFig7Recordings(t *testing.T) {
	p := Quick()
	r := NewRunner(p, io.Discard)
	rrm := microKernels[0].name
	for _, c := range r.queueContentionCells() {
		fig7 := r.traceKey(Cell{Label: rrm, Machine: c.Machine}, p.Seed)
		if got := r.traceKey(c, p.Seed); got != fig7 {
			t.Errorf("%s %s: trace key %q, Fig. 7's %s key on that machine %q", c.Label, c.Scheduler, got, rrm, fig7)
		}
	}
}

func TestMuSweepRuns(t *testing.T) {
	var buf bytes.Buffer
	p := Quick()
	p.Reps = 1
	r := NewRunner(p, &buf)
	rows, err := r.MuSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.M.L3Misses.Mean <= 0 {
			t.Errorf("%s: no misses recorded", row.Group)
		}
	}
}

// TestSweepsAdoptFigureRecordings: the µ, chunk and resilience sweeps key
// their recording by the name Fig. 8 and Fig. 5 give the kernel, so over a
// directory cache they adopt the files those figures' quad-tree and RRM
// cells left instead of recording the same computations again.
func TestSweepsAdoptFigureRecordings(t *testing.T) {
	p := Quick()
	p.Reps = 1
	m := p.MachineHT()
	dir := t.TempDir()
	figs, err := dagtrace.NewStreamCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p, io.Discard)
	r.Traces = figs
	if _, err := r.RunGrid([]Cell{
		{Label: "Quad-Tree", Scheduler: "sb", Machine: m, LinksUsed: m.Links, MakeK: p.QuadtreeFactory()},
		{Label: "RRM", Scheduler: "sb", Machine: m, LinksUsed: m.Links, MakeK: p.RRMFactory()},
	}); err != nil {
		t.Fatal(err)
	}
	sweeps, err := dagtrace.NewStreamCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r.Traces = sweeps
	if _, err := r.MuSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ChunkSensitivity(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ResilienceSweep(trimmedResilience); err != nil {
		t.Fatal(err)
	}
	if s := sweeps.Stats(); s.Misses != 0 || s.DiskHits != 2 {
		t.Fatalf("sweep cache stats %+v, want both recordings adopted from disk and none made", s)
	}
}
