package dagtrace

import (
	"errors"
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

func record(t *testing.T, m *machine.Desc, schedName string, seed uint64) (*Trace, *sim.Result) {
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

// recordSeq records testProgram sequentially, without simulating it.
func recordSeq(t *testing.T, m *machine.Desc) *Trace {
	t.Helper()
	sp := mem.NewSpace(m.Links, m.Links)
	tr, err := Record(testProgram(sp, 512), m.Block())
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
	}{{"live", Resident(tr)}, {"sequential", Resident(recordSeq(t, m))}}
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
	seq := recordSeq(t, m)
	if seq.TaskCount != live.TaskCount || seq.StrandCount != live.StrandCount ||
		seq.AccessOps != live.AccessOps || seq.WorkOps != live.WorkOps || seq.OpBytes() != live.OpBytes() {
		t.Fatalf("sequential recording %d tasks / %d strands / %d accesses / %d work ops / %d op bytes, live %d / %d / %d / %d / %d",
			seq.TaskCount, seq.StrandCount, seq.AccessOps, seq.WorkOps, seq.OpBytes(),
			live.TaskCount, live.StrandCount, live.AccessOps, live.WorkOps, live.OpBytes())
	}
	st := Resident(seq)
	again, err := Record(st.Root(), m.Block())
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, st) != fingerprint(t, Resident(again)) {
		t.Fatal("sequential recording of a replay differs from the original recording")
	}
}

// TestRecordFailsOnBadStrands: a strand that panics, and a strand that
// forks twice, end a sequential recording with an error instead of
// crashing the caller.
func TestRecordFailsOnBadStrands(t *testing.T) {
	leaf := job.FuncJob(func(ctx job.Ctx) { ctx.Work(1) })
	for name, root := range map[string]job.Job{
		"panic": job.FuncJob(func(ctx job.Ctx) {
			ctx.Fork(nil, leaf, job.FuncJob(func(job.Ctx) { panic("kernel bug") }))
		}),
		"double fork": job.FuncJob(func(ctx job.Ctx) {
			ctx.Fork(nil, leaf)
			ctx.Fork(nil, leaf)
		}),
	} {
		tr, err := Record(root, 64)
		if err == nil || tr != nil {
			t.Errorf("%s: Record = %v, %v; want an error", name, tr, err)
		}
	}
}

// TestFingerprintCountsOpSplit: two traces with the same nodes and the
// same concatenated op stream, split between the strands at different
// bytes, are different recordings and must fingerprint differently.
func TestFingerprintCountsOpSplit(t *testing.T) {
	split := func(at int64) *StreamTrace {
		return Resident(&Trace{
			TaskCount: 2, StrandCount: 2,
			nodes: []node{
				{taskSize: -1, strandSize: -1, opOff: 0, opEnd: at, cont: -1, childOff: 0, childEnd: 1},
				{taskSize: -1, strandSize: -1, opOff: at, opEnd: 3, cont: -1, childOff: 1, childEnd: 1},
			},
			ops:      []byte{byte(opWork) | 1<<opTagBits, byte(opWork) | 2<<opTagBits, byte(opWork) | 3<<opTagBits},
			childIdx: []int32{1},
		})
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
	st := Resident(tr)
	rec2 := NewRecorder()
	replay(t, st, m, "ws", 7, rec2)
	tr2, err := rec2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, st) != fingerprint(t, Resident(tr2)) {
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
	if _, err := Record(root, m.Block()); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("Record = %v, want ErrUnsupported", err)
	}
}
