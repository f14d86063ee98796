package dagtrace

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runPiece replays one partition piece in its own simulation.
func runPiece(t *testing.T, p Piece, m *machine.Desc, schedName string, seed uint64) *sim.Result {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New(schedName), Seed: seed,
	}, p.Root)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPartitionConservation is the correctness core of sharded replay:
// pieces are disjoint and exhaustive, so the per-piece task, strand and
// access counts must sum exactly to the recorded totals, for every piece
// count from 1 to well past the tree's fanout.
func TestPartitionConservation(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, _ := record(t, m, "ws", 7)
	st := Resident(tr)
	total := tr.OpBytes() + int64(tr.StrandCount)
	for _, k := range []int{1, 2, 3, 4, 8} {
		p, err := PartitionStream(st, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Pieces) > k {
			t.Fatalf("k=%d: produced %d pieces", k, len(p.Pieces))
		}
		var tasks, strands uint64
		var accesses, wsum int64
		for _, pc := range p.Pieces {
			res := runPiece(t, pc, m, "ws", 7)
			tasks += res.Tasks
			strands += res.Strands
			inner := res.Machine.NumLevels() - 1
			accesses += res.Hier.HitsAt(inner) + res.Hier.MissesAt(inner)
			wsum += pc.Weight
		}
		if tasks != tr.TaskCount || strands != tr.StrandCount || accesses != tr.AccessOps {
			t.Errorf("k=%d: pieces replay %d tasks / %d strands / %d accesses, trace recorded %d / %d / %d",
				k, tasks, strands, accesses, tr.TaskCount, tr.StrandCount, tr.AccessOps)
		}
		if wsum != total {
			t.Errorf("k=%d: piece weights sum to %d, want %d", k, wsum, total)
		}
	}
}

// TestPartitionDeterministic: same trace, same k, byte-identical piece
// list — the property shard-count invariance is built on.
func TestPartitionDeterministic(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, _ := record(t, m, "ws", 7)
	st := Resident(tr)
	a, err := PartitionStream(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionStream(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pieces) != len(b.Pieces) {
		t.Fatalf("piece counts differ: %d vs %d", len(a.Pieces), len(b.Pieces))
	}
	for i := range a.Pieces {
		if a.Pieces[i].Node != b.Pieces[i].Node || a.Pieces[i].Weight != b.Pieces[i].Weight {
			t.Fatalf("piece %d differs: node %d w%d vs node %d w%d",
				i, a.Pieces[i].Node, a.Pieces[i].Weight, b.Pieces[i].Node, b.Pieces[i].Weight)
		}
	}
	if len(a.Pieces) < 2 {
		t.Fatal("test trace too small to split")
	}
}

// TestPartitionSinglePieceIsUnchanged: k=1 must replay bit-identically to
// the unpartitioned root (no wrappers on that path).
func TestPartitionSinglePieceIsUnchanged(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, _ := record(t, m, "ws", 7)
	st := Resident(tr)
	p, err := PartitionStream(st, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pieces) != 1 {
		t.Fatalf("k=1 produced %d pieces", len(p.Pieces))
	}
	a := replay(t, st, m, "sb", 7, nil)
	b := runPiece(t, p.Pieces[0], m, "sb", 7)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("single-piece partition replays differently from the plain root")
	}
}

// TestPartitionStream: partitioning the windowed view must yield the same
// piece structure as the resident view, and its pieces must replay with
// the same aggregate counts, leasing scripts through the window.
func TestPartitionStream(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, st, _ := writeFramed(t, 512, 256, 2048)
	pa, err := PartitionStream(Resident(tr), 4)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PartitionStream(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Pieces) != len(ps.Pieces) {
		t.Fatalf("piece counts differ: resident %d, windowed %d", len(pa.Pieces), len(ps.Pieces))
	}
	var tasks, strands uint64
	for i := range ps.Pieces {
		if pa.Pieces[i].Node != ps.Pieces[i].Node || pa.Pieces[i].Weight != ps.Pieces[i].Weight {
			t.Fatalf("piece %d differs between resident and windowed partition", i)
		}
		ra := runPiece(t, pa.Pieces[i], m, "ws", 7)
		rs := runPiece(t, ps.Pieces[i], m, "ws", 7)
		if ra.Fingerprint() != rs.Fingerprint() {
			t.Errorf("piece %d: windowed replay differs from resident replay", i)
		}
		tasks += rs.Tasks
		strands += rs.Strands
	}
	if tasks != st.TaskCount || strands != st.StrandCount {
		t.Errorf("streamed pieces replay %d tasks / %d strands, trace recorded %d / %d",
			tasks, strands, st.TaskCount, st.StrandCount)
	}
	if peak := st.PeakResidentBytes(); peak >= st.OpBytes() {
		t.Errorf("partitioned streamed replay held %d bytes resident, op stream is %d", peak, st.OpBytes())
	}
}
