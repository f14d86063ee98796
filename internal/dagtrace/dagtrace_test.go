package dagtrace

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// testProgram is a deterministic fork/join program with mixed reads,
// writes, compute and continuations: a two-pass parallel stencil.
func testProgram(sp *mem.Space, n int) job.Job {
	a := sp.NewF64("a", n)
	b := sp.NewF64("b", n)
	size := func(lo, hi int) int64 { return int64(hi-lo) * 8 }
	pass1 := job.For(0, n, 16, size, func(ctx job.Ctx, i int) {
		a.Write(ctx, i, float64(i%7))
		ctx.Work(3)
	})
	pass2 := job.For(1, n-1, 16, size, func(ctx job.Ctx, i int) {
		b.Write(ctx, i, a.Read(ctx, i-1)+a.Read(ctx, i+1))
	})
	return job.FuncJob(func(ctx job.Ctx) {
		ctx.Fork(job.FuncJob(func(c2 job.Ctx) {
			c2.Fork(nil, pass2)
		}), pass1)
	})
}

func record(t *testing.T, m *machine.Desc, schedName string, seed uint64) (*StreamTrace, *sim.Result) {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	rec := NewRecorder()
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New(schedName), Seed: seed, Listener: rec,
	}, testProgram(sp, 512))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// recordMem records root sequentially into memory.
func recordMem(root job.Job, block int64) (*StreamTrace, error) {
	rec := NewRecorder()
	if err := Record(rec, root, block); err != nil {
		return nil, err
	}
	return rec.Finish()
}

// recordSeq records testProgram of n elements sequentially, without
// simulating it.
func recordSeq(t *testing.T, m *machine.Desc, n int) *StreamTrace {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	tr, err := recordMem(testProgram(sp, n), m.Block())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// replay runs a replay of st and checks it against the recording.
func replay(t *testing.T, st *StreamTrace, m *machine.Desc, schedName string, seed uint64, l sim.Listener) *sim.Result {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New(schedName), Seed: seed, Listener: l,
	}, st.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckResult(res); err != nil {
		t.Fatal(err)
	}
	return res
}

// fingerprint returns st's canonical content hash.
func fingerprint(t *testing.T, st *StreamTrace) string {
	t.Helper()
	fp, err := st.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestReplayMatchesLiveAcrossSchedulers is the core soundness property:
// record once — live under ws, and sequentially with Record — replay under
// every scheduler, and require each replay's Result fingerprint to be
// bit-identical to a live run under that scheduler.
func TestReplayMatchesLiveAcrossSchedulers(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const seed = 7
	tr, recRes := record(t, m, "ws", seed)
	if tr.TaskCount != recRes.Tasks || tr.StrandCount != recRes.Strands {
		t.Fatalf("trace counts %d/%d, result %d/%d", tr.TaskCount, tr.StrandCount, recRes.Tasks, recRes.Strands)
	}
	traces := []struct {
		name string
		st   *StreamTrace
	}{{"live", tr}, {"sequential", recordSeq(t, m, 512)}}
	for _, sn := range []string{"ws", "pws", "cilk", "sb", "sbd", "pdf"} {
		sp := mem.NewSpace(m.Links, m.Links)
		live, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: sched.New(sn), Seed: seed,
		}, testProgram(sp, 512))
		if err != nil {
			t.Fatalf("%s live: %v", sn, err)
		}
		for _, tc := range traces {
			rep := replay(t, tc.st, m, sn, seed, nil)
			if live.Fingerprint() != rep.Fingerprint() {
				t.Errorf("%s, %s recording: live fingerprint != replay fingerprint\nlive:   %s\nreplay: %s",
					sn, tc.name, live.Fingerprint(), rep.Fingerprint())
			}
		}
	}
}

// TestRecordMatchesLiveRecording: a sequential recording captures the
// same computation as a live one — the same totals and op volume — and
// recording a replay of it sequentially reproduces it exactly, node
// order included.
func TestRecordMatchesLiveRecording(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	live, _ := record(t, m, "sb", 7)
	seq := recordSeq(t, m, 512)
	if seq.TaskCount != live.TaskCount || seq.StrandCount != live.StrandCount ||
		seq.AccessOps != live.AccessOps || seq.WorkOps != live.WorkOps || seq.OpBytes() != live.OpBytes() {
		t.Fatalf("sequential recording %d tasks / %d strands / %d accesses / %d work ops / %d op bytes, live %d / %d / %d / %d / %d",
			seq.TaskCount, seq.StrandCount, seq.AccessOps, seq.WorkOps, seq.OpBytes(),
			live.TaskCount, live.StrandCount, live.AccessOps, live.WorkOps, live.OpBytes())
	}
	again, err := recordMem(seq.Root(), m.Block())
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, seq) != fingerprint(t, again) {
		t.Fatal("sequential recording of a replay differs from the original recording")
	}
}

// TestRecordFailsOnBadStrands: a strand that panics or misuses a fork
// primitive ends a sequential recording with a strand error — never
// ErrUnsupported, never a crash of the caller — and fails a live run the
// same way: both executors enforce job's one set of fork rules.
func TestRecordFailsOnBadStrands(t *testing.T) {
	leaf := job.FuncJob(func(ctx job.Ctx) { ctx.Work(1) })
	m := machine.Flat(2, 1<<14)
	for _, tc := range []struct {
		name, want string
		bad        job.FuncJob
	}{
		{"panic", "kernel bug", func(job.Ctx) { panic("kernel bug") }},
		{"double fork", "job: fork primitive called twice", func(ctx job.Ctx) {
			ctx.Fork(nil, leaf)
			ctx.Fork(nil, leaf)
		}},
		{"fork without children", "job: Fork with no children", func(ctx job.Ctx) { ctx.Fork(leaf) }},
		{"future without body", "job: ForkFuture requires", func(ctx job.Ctx) { ctx.ForkFuture(nil, job.NewFuture(), nil) }},
		{"await nil future", "job: ForkAwait with nil future", func(ctx job.Ctx) { ctx.ForkAwait(leaf, []*job.Future{nil}) }},
		{"await without continuation", "job: ForkAwait requires a continuation", func(ctx job.Ctx) { ctx.ForkAwait(nil, nil, leaf) }},
	} {
		// The bad strand runs as a child task beside a good one.
		root := job.FuncJob(func(ctx job.Ctx) { ctx.Fork(nil, leaf, tc.bad) })
		tr, err := recordMem(root, m.Block())
		if err == nil || tr != nil || errors.Is(err, ErrUnsupported) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Record = %v, %v; want a strand error mentioning %q", tc.name, tr, err, tc.want)
		}
		sp := mem.NewSpace(m.Links, m.Links)
		_, err = sim.Run(sim.Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: sim.Run = %v; want a strand error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestFingerprintCountsOpSplit: two traces with the same nodes and the
// same concatenated op stream, split between the strands at different
// bytes, are different recordings and must fingerprint differently.
func TestFingerprintCountsOpSplit(t *testing.T) {
	split := func(at int64) *StreamTrace {
		return &StreamTrace{
			TaskCount: 2, StrandCount: 2,
			nodes: []node{
				{taskSize: -1, strandSize: -1, opOff: 0, opEnd: at, cont: -1, childOff: 0, childEnd: 1},
				{taskSize: -1, strandSize: -1, opOff: at, opEnd: 3, cont: -1, childOff: 1, childEnd: 1},
			},
			ops:      []byte{byte(opWork) | 1<<opTagBits, byte(opWork) | 2<<opTagBits, byte(opWork) | 3<<opTagBits},
			childIdx: []int32{1},
		}
	}
	if fingerprint(t, split(1)) == fingerprint(t, split(2)) {
		t.Fatal("traces that split one op stream differently share a fingerprint")
	}
}

// TestTraceOfReplayIsIdentical re-records a replay run and requires the
// captured trace to reproduce the original's canonical fingerprint: replay
// is a fixed point of record.
func TestTraceOfReplayIsIdentical(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, _ := record(t, m, "ws", 7)
	rec2 := NewRecorder()
	replay(t, tr, m, "ws", 7, rec2)
	tr2, err := rec2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, tr) != fingerprint(t, tr2) {
		t.Fatal("trace of replay differs from original trace")
	}
}

// TestFutureProgramsAreRejected: a ForkFuture program must abort recording
// with ErrUnsupported, live or sequential (callers fall back to live
// execution).
func TestFutureProgramsAreRejected(t *testing.T) {
	m := machine.Flat(2, 1<<14)
	sp := mem.NewSpace(1, 1)
	f := job.NewFuture()
	root := job.FuncJob(func(ctx job.Ctx) {
		ctx.ForkFuture(job.FuncJob(func(c2 job.Ctx) {
			c2.ForkAwait(job.FuncJob(func(job.Ctx) {}), []*job.Future{f})
		}), f, job.FuncJob(func(c3 job.Ctx) { c3.Work(5) }))
	})
	rec := NewRecorder()
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1, Listener: rec,
	}, root); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Finish(); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Finish = %v, want ErrUnsupported", err)
	}
	if _, err := recordMem(root, m.Block()); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Record = %v, want ErrUnsupported", err)
	}
}

// TestRecorderRequiresSpawnOrderIDs: the recorder finds a strand's node as
// its ID − 1, which holds because both executors number strands 1, 2, 3…
// in spawn order. A strand spawned out of that order fails the recording
// instead of being filed under another strand's node.
func TestRecorderRequiresSpawnOrderIDs(t *testing.T) {
	leaf := job.FuncJob(func(ctx job.Ctx) { ctx.Work(1) })
	var task job.Task
	task.Init(1, nil, leaf, 64)
	var s job.Strand
	s.Init(2, &task, leaf, job.TaskStart, 64, 0, nil)
	rec := NewRecorder()
	rec.StrandSpawned(&s)
	rec.StrandForked(&s, false, 0, false)
	if _, err := rec.Finish(); err == nil || !strings.Contains(err.Error(), "spawn order") {
		t.Fatalf("Finish = %v, want a spawn-order error", err)
	}
}
