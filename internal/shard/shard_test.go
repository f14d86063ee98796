package shard

import (
	"runtime"
	"testing"

	"repro/internal/dagtrace"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// shardProgram is a deterministic fork/join program over sp: a parallel
// fill and a dependent parallel update.
func shardProgram(sp *mem.Space) job.Job {
	a := sp.NewF64("a", 4096)
	size := func(lo, hi int) int64 { return int64(hi-lo) * 8 }
	return job.FuncJob(func(ctx job.Ctx) {
		ctx.Fork(job.For(1, 4095, 16, size, func(c job.Ctx, i int) {
			a.Write(c, i, a.Read(c, i-1)+1)
		}), job.For(0, 4096, 16, size, func(c job.Ctx, i int) {
			a.Write(c, i, float64(i))
			c.Work(5)
		}))
	})
}

// recordParts records shardProgram live on m and partitions its trace
// into k pieces.
func recordParts(t *testing.T, m *machine.Desc, k int) (*dagtrace.StreamTrace, []Root) {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	rec := dagtrace.NewRecorder()
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 11, Listener: rec,
	}, shardProgram(sp)); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr, partRoots(t, tr, k)
}

// partRoots partitions tr into k pieces and returns them as replay roots.
func partRoots(t *testing.T, tr *dagtrace.StreamTrace, k int) []Root {
	t.Helper()
	p, err := dagtrace.PartitionStream(tr, k)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]Root, len(p.Pieces))
	for i, pc := range p.Pieces {
		roots[i] = Root{Job: pc.Root, Weight: pc.Weight}
	}
	return roots
}

// TestShardedReplayIgnoresNodeOrder: a live recording numbers its nodes
// in the order the schedule reached them, a sequential one
// (dagtrace.Record) in depth-first spawn order. The partitioner and the
// LPT assignment break ties structurally, never by node index, so both
// recordings replay sharded to the same merged result.
func TestShardedReplayIgnoresNodeOrder(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	live, liveRoots := recordParts(t, m, 4)
	sp := mem.NewSpace(m.Links, m.Links)
	rec := dagtrace.NewRecorder()
	if err := dagtrace.Record(rec, shardProgram(sp), m.Block()); err != nil {
		t.Fatal(err)
	}
	seq, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	fp := func(tr *dagtrace.StreamTrace) string {
		s, err := tr.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if fp(live) == fp(seq) {
		t.Fatal("the live and the sequential recording number their nodes alike; the test needs them to differ")
	}
	seqRoots := partRoots(t, seq, 4)
	for _, sn := range []string{"ws", "sb"} {
		cfg := Config{Machine: m, MakeSched: func() sched.Scheduler { return sched.New(sn) }, Seed: 11, Shards: 2}
		a, err := Replay(cfg, liveRoots)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Replay(cfg, seqRoots)
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() || a.WallCycles != b.WallCycles {
			t.Errorf("%s: sharded replay of the sequential recording differs from the live one's (wall %d vs %d)",
				sn, b.WallCycles, a.WallCycles)
		}
	}
}

// TestShardCountInvariance is the tentpole determinism guarantee: the
// merged result of a sharded replay is bit-identical whether the fixed
// per-socket simulations run on 1 goroutine, 2, or one per core. Run
// under -race this also proves the fan-out shares no simulation state.
func TestShardCountInvariance(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, roots := recordParts(t, m, 4)
	cfg := Config{Machine: m, MakeSched: func() sched.Scheduler { return sched.NewWS() }, Seed: 11}
	var base *Result
	for _, shards := range []int{1, 2, runtime.GOMAXPROCS(0), 64} {
		cfg.Shards = shards
		res, err := Replay(cfg, roots)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Tasks != tr.TaskCount || res.Strands != tr.StrandCount || res.Accesses != tr.AccessOps {
			t.Fatalf("shards=%d: replayed %d tasks / %d strands / %d accesses, trace recorded %d / %d / %d",
				shards, res.Tasks, res.Strands, res.Accesses, tr.TaskCount, tr.StrandCount, tr.AccessOps)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Fingerprint() != base.Fingerprint() {
			t.Errorf("shards=%d: fingerprint differs from shards=1", shards)
		}
		if res.WallCycles != base.WallCycles {
			t.Errorf("shards=%d: wall %d differs from shards=1 wall %d", shards, res.WallCycles, base.WallCycles)
		}
	}
	if base.WallCycles <= 0 {
		t.Fatal("sharded replay reported non-positive wall clock")
	}
}

// TestShardStreamedReplay runs the sharded replay over a framed trace:
// concurrent sub-simulations lease scripts from one shared frame window,
// and the result must match the resident sharded replay exactly.
func TestShardStreamedReplay(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, residentRoots := recordParts(t, m, 4)
	path := t.TempDir() + "/trace.dgts"
	if err := dagtrace.WriteFramed(tr, path, 512); err != nil {
		t.Fatal(err)
	}
	st, err := dagtrace.OpenStream(path, 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := dagtrace.PartitionStream(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	roots := make([]Root, len(p.Pieces))
	for i, pc := range p.Pieces {
		roots[i] = Root{Job: pc.Root, Weight: pc.Weight}
	}
	cfg := Config{Machine: m, MakeSched: func() sched.Scheduler { return sched.NewWS() }, Seed: 11}
	cfg.Shards = 1
	resident, err := Replay(cfg, residentRoots)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		res, err := Replay(cfg, roots)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Fingerprint() != resident.Fingerprint() {
			t.Errorf("shards=%d: streamed sharded replay differs from resident sharded replay", shards)
		}
	}
	if peak := st.PeakResidentBytes(); peak >= st.OpBytes() {
		t.Errorf("sharded streamed replay held %d bytes resident of a %d-byte op stream", peak, st.OpBytes())
	}
}

// TestShardAssignmentBalance: LPT must put work on every socket when
// there are at least as many pieces as sockets, and the assignment must
// be identical across calls.
func TestShardAssignmentBalance(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	_, roots := recordParts(t, m, 4)
	cfg := Config{Machine: m, MakeSched: func() sched.Scheduler { return sched.NewWS() }, Seed: 11, Shards: 1}
	a, err := Replay(cfg, roots)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(cfg, roots)
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.Assignment {
		if len(a.Assignment[s]) == 0 {
			t.Errorf("socket %d received no pieces from %d-piece LPT", s, len(roots))
		}
		if len(a.Assignment[s]) != len(b.Assignment[s]) {
			t.Fatalf("assignment differs between identical calls")
		}
		for i := range a.Assignment[s] {
			if a.Assignment[s][i] != b.Assignment[s][i] {
				t.Fatalf("assignment differs between identical calls")
			}
		}
	}
}

// TestShardLinksUsedDerating pins the bandwidth knob: replaying with
// fewer links in use must slow the simulated clock (per-socket
// LineService derated by Links/LinksUsed), stay deterministic across
// shard counts, never change trace conservation totals, and reject
// out-of-range values.
func TestShardLinksUsedDerating(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	_, roots := recordParts(t, m, 4)
	mk := func() sched.Scheduler { return sched.NewWS() }
	full, err := Replay(Config{Machine: m, MakeSched: mk, Seed: 11}, roots)
	if err != nil {
		t.Fatal(err)
	}
	var prev *Result
	for _, shards := range []int{1, 2} {
		half, err := Replay(Config{Machine: m, MakeSched: mk, Seed: 11, Shards: shards, LinksUsed: 1}, roots)
		if err != nil {
			t.Fatal(err)
		}
		if half.WallCycles <= full.WallCycles {
			t.Errorf("1 of %d links: wall %d not above full-bandwidth %d", m.Links, half.WallCycles, full.WallCycles)
		}
		if half.Tasks != full.Tasks || half.Strands != full.Strands || half.Accesses != full.Accesses {
			t.Errorf("derating changed conservation totals: %+v vs %+v", half, full)
		}
		if prev != nil && half.Fingerprint() != prev.Fingerprint() {
			t.Errorf("derated fingerprint differs across shard counts")
		}
		prev = half
	}
	// LinksUsed == Links must be exactly the default.
	all, err := Replay(Config{Machine: m, MakeSched: mk, Seed: 11, LinksUsed: m.Links}, roots)
	if err != nil {
		t.Fatal(err)
	}
	if all.Fingerprint() != full.Fingerprint() {
		t.Error("LinksUsed=Links differs from the all-links default")
	}
	for _, bad := range []int{-1, m.Links + 1} {
		if _, err := Replay(Config{Machine: m, MakeSched: mk, Seed: 11, LinksUsed: bad}, roots); err == nil {
			t.Errorf("LinksUsed=%d accepted", bad)
		}
	}
}

// TestShardRejectsLinkMismatch: a machine without one DRAM link per
// socket cannot be sharded along sockets.
func TestShardRejectsLinkMismatch(t *testing.T) {
	m := machine.TwoSocket(2, 1<<14, 1<<12)
	m.Links = 1
	_, roots := recordParts(t, machine.TwoSocket(2, 1<<14, 1<<12), 2)
	cfg := Config{Machine: m, MakeSched: func() sched.Scheduler { return sched.NewWS() }, Seed: 1, Shards: 1}
	if _, err := Replay(cfg, roots); err == nil {
		t.Fatal("link/socket mismatch accepted")
	}
}
