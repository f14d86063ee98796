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
// record once (under ws), replay under every scheduler, and require the
// replay Result fingerprint to be bit-identical to a live run under that
// scheduler.
func TestReplayMatchesLiveAcrossSchedulers(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const seed = 7
	tr, recRes := record(t, m, "ws", seed)
	if tr.TaskCount != recRes.Tasks || tr.StrandCount != recRes.Strands {
		t.Fatalf("trace counts %d/%d, result %d/%d", tr.TaskCount, tr.StrandCount, recRes.Tasks, recRes.Strands)
	}
	st := Resident(tr)
	for _, sn := range []string{"ws", "pws", "cilk", "sb", "sbd", "pdf"} {
		sp := mem.NewSpace(m.Links, m.Links)
		live, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: sched.New(sn), Seed: seed,
		}, testProgram(sp, 512))
		if err != nil {
			t.Fatalf("%s live: %v", sn, err)
		}
		rep := replay(t, st, m, sn, seed, nil)
		if live.Fingerprint() != rep.Fingerprint() {
			t.Errorf("%s: live fingerprint != replay fingerprint\nlive:   %s\nreplay: %s",
				sn, live.Fingerprint(), rep.Fingerprint())
		}
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
// with ErrUnsupported (callers fall back to live execution).
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
}
