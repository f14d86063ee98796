package exp

import (
	"io"
	"testing"

	"repro/internal/dagtrace"
)

// TestFullScaleProfiles pins the scale arithmetic: x64 is Paper, and x1
// restores the paper's real input sizes (RRM 16n ≈ 164MB of §5.3, sort at
// 38.4M elements, matmul at N=4096 with the 128-wide MKL base).
func TestFullScaleProfiles(t *testing.T) {
	x64 := FullScale(64)
	paper := Paper()
	paper.Name, paper.Reps = x64.Name, x64.Reps
	if x64 != paper {
		t.Errorf("FullScale(64) differs from Paper(): %+v vs %+v", x64, paper)
	}
	x1 := FullScale(1)
	if x1.MachineScale != 1 || x1.RRMN != 10_240_000 || x1.SortN != 38_400_000 ||
		x1.MatmulN != 4096 || x1.MatmulBase != 128 {
		t.Errorf("FullScale(1) = %+v", x1)
	}
	if got := 16 * x1.RRMN; got < 160_000_000 || got > 170_000_000 {
		t.Errorf("x1 RRM touches %d bytes, want ~164MB", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("FullScale(3) did not panic")
		}
	}()
	FullScale(3)
}

// TestFullCellShardInvariance runs one cell of the pipeline at quick
// scale twice — 1 shard and 2 — and requires identical fingerprints and
// simulated clocks: the process-local version of the fullscale-smoke CI
// check. It also pins the bounded-memory contract end to end: the
// decoder's high-water mark must stay under the window budget plus leases
// even though replays run concurrently on shards.
func TestFullCellShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline cell")
	}
	base := NewRunner(Quick(), io.Discard)
	base.ReplayWindow = 1 << 16
	var prev *FullCellReport
	for _, shards := range []int{1, 2} {
		r := NewRunner(Quick(), io.Discard)
		r.ReplayWindow = 1 << 16
		r.Shards = shards
		rep, err := r.FullCell("Quicksort", "sb")
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if rep.Fingerprint == "" || rep.ReplayWall <= 0 || rep.ShardedWall <= 0 ||
			rep.ReplayLoads <= 0 || rep.ShardedLoads <= 0 {
			t.Fatalf("shards=%d: incomplete report %+v", shards, rep)
		}
		if rep.PeakWindowB >= rep.OpBytes {
			t.Errorf("shards=%d: peak window bytes %d not below op stream %d",
				shards, rep.PeakWindowB, rep.OpBytes)
		}
		if prev != nil {
			if rep.Fingerprint != prev.Fingerprint {
				t.Errorf("sharded fingerprint changed between shards=1 and shards=%d", shards)
			}
			if rep.ShardedWall != prev.ShardedWall || rep.ReplayWall != prev.ReplayWall {
				t.Errorf("simulated walls changed with shard count: %+v vs %+v", rep, prev)
			}
		}
		prev = rep
	}
	_ = base
}

// TestFullCellRejectsUnknownNames covers the argument validation
// schedbench relies on for its exit-2 usage errors.
func TestFullCellRejectsUnknownNames(t *testing.T) {
	r := NewRunner(Quick(), io.Discard)
	if _, err := r.FullCell("NoSuchKernel", "sb"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := r.FullCell("Quicksort", "nosuchsched"); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestFullCellSharesGridRecording: a full-scale cell keys its recording
// as a RunGrid cell of the same kernel does, so over a directory cache a
// figure grid has filled, FullCell records nothing and replays the
// grid's file.
func TestFullCellSharesGridRecording(t *testing.T) {
	p := Quick()
	p.Reps = 1
	cache, err := dagtrace.NewStreamCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p, io.Discard)
	r.Traces = cache
	m := p.MachineHT()
	if _, err := r.RunGrid([]Cell{{Label: "RRM", Scheduler: "sb", Machine: m, LinksUsed: m.Links, MakeK: p.RRMFactory()}}); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if before.Misses != 1 {
		t.Fatalf("grid cache stats %+v, want the grid to record once", before)
	}
	rep, err := r.FullCell("RRM", "sb")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.RecordShared || rep.RecordSec != 0 || rep.WriteSec != 0 {
		t.Errorf("FullCell recorded (shared=%v record=%.3fs write=%.3fs), want the grid's recording reused",
			rep.RecordShared, rep.RecordSec, rep.WriteSec)
	}
	if s := cache.Stats(); s.Misses != before.Misses || s.Hits != before.Hits+1 {
		t.Errorf("cache stats %+v after FullCell, %+v before: want one more hit and no new miss", s, before)
	}
}

// TestPageSizeRule pins the one placement page-size rule
// (machine.Desc.PageSize) on the machines whose recordings the
// experiments key: every profile's machine gets 2 MB divided like its
// caches, floored at 4 KB, and so does every Fig. 7 topology at that
// scale. Trace keys carry the page size, so a change here re-keys every
// recording.
func TestPageSizeRule(t *testing.T) {
	profiles := []Profile{Quick(), Paper()}
	for div := int64(1); div <= 64; div *= 2 {
		profiles = append(profiles, FullScale(div))
	}
	for _, p := range profiles {
		want := max(int64(2<<20)/p.MachineScale, 4<<10)
		if got := p.PageSize(); got != want {
			t.Errorf("%s: page size %d, want %d", p.Name, got, want)
		}
		for _, tp := range []struct {
			cps int
			ht  bool
		}{{1, false}, {2, false}, {4, false}, {8, false}, {8, true}} {
			if got := p.MachineVariant(tp.cps, tp.ht).PageSize(); got != want {
				t.Errorf("%s: 4x%d (ht=%v) page size %d, want %d", p.Name, tp.cps, tp.ht, got, want)
			}
		}
	}
}
