package job

import (
	"strings"
	"testing"
)

// TestForkRecordMisusePanics: every breach of the fork discipline panics
// with a job: message, whichever primitive commits it.
func TestForkRecordMisusePanics(t *testing.T) {
	leaf := FuncJob(func(Ctx) {})
	for _, tc := range []struct {
		name, want string
		misuse     func(r *ForkRecord)
	}{
		{"fork no children", "Fork with no children", func(r *ForkRecord) { r.Fork(leaf, nil) }},
		{"future nil handle", "requires a future handle", func(r *ForkRecord) { r.ForkFuture(nil, nil, leaf) }},
		{"future nil body", "requires a future handle", func(r *ForkRecord) { r.ForkFuture(nil, NewFuture(), nil) }},
		{"await no continuation", "requires a continuation", func(r *ForkRecord) { r.ForkAwait(nil, nil, []Job{leaf}) }},
		{"await nil future", "nil future", func(r *ForkRecord) { r.ForkAwait(leaf, []*Future{NewFuture(), nil}, nil) }},
		{"fork twice", "called twice", func(r *ForkRecord) { r.Fork(nil, []Job{leaf}); r.Fork(nil, []Job{leaf}) }},
		{"future after fork", "called twice", func(r *ForkRecord) { r.Fork(nil, []Job{leaf}); r.ForkFuture(nil, NewFuture(), leaf) }},
		{"await after future", "called twice", func(r *ForkRecord) { r.ForkFuture(nil, NewFuture(), leaf); r.ForkAwait(leaf, nil, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "job: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want a job: panic mentioning %q", msg, tc.want)
				}
			}()
			var r ForkRecord
			tc.misuse(&r)
		})
	}
}

// TestForkRecordFuturesFlagAndTake: Futures is set exactly by a future
// body or awaited futures, and Take hands the record over and clears it.
func TestForkRecordFuturesFlagAndTake(t *testing.T) {
	leaf := FuncJob(func(Ctx) {})
	for _, tc := range []struct {
		name    string
		fork    func(r *ForkRecord)
		futures bool
	}{
		{"none", func(*ForkRecord) {}, false},
		{"fork", func(r *ForkRecord) { r.Fork(leaf, []Job{leaf}) }, false},
		{"await nothing", func(r *ForkRecord) { r.ForkAwait(leaf, nil, nil) }, false},
		{"await", func(r *ForkRecord) { r.ForkAwait(leaf, []*Future{NewFuture()}, nil) }, true},
		{"future", func(r *ForkRecord) { r.ForkFuture(nil, NewFuture(), leaf) }, true},
	} {
		var r ForkRecord
		tc.fork(&r)
		if got := r.Futures(); got != tc.futures {
			t.Errorf("%s: Futures() = %v, want %v", tc.name, got, tc.futures)
		}
		f := r.Take()
		if f.Futures() != tc.futures || f.Called != (tc.name != "none") {
			t.Errorf("%s: Take returned %+v", tc.name, f)
		}
		if r.Called || r.Futures() || r.Cont != nil || r.Children != nil {
			t.Errorf("%s: record not cleared by Take: %+v", tc.name, r)
		}
	}
}

// TestInitSizesAndDefaults: Task.Init and Strand.Init set IDs, depth and
// S(t;B)/S(ℓ;B) with the strand-to-task fallback, and leave no state of
// a recycled record behind.
func TestInitSizesAndDefaults(t *testing.T) {
	root := &Task{Ended: true, BlockPending: 3, AnchorLevel: 2}
	root.Init(1, nil, Sized{J: FuncJob(func(Ctx) {}), Bytes: 4096}, 64)
	if got := *root; got.Job == nil {
		t.Fatal("root task lost its job")
	} else if got.Job = nil; got != (Task{ID: 1, SizeBytes: 4096, AnchorLevel: -1, AnchorNode: -1}) {
		t.Fatalf("root task %+v", got)
	}
	var child Task
	child.Init(2, root, FuncJob(func(Ctx) {}), 64)
	if child.Depth != 1 || child.Parent != root || child.SizeBytes != -1 {
		t.Fatalf("child task %+v", child)
	}

	by := &Strand{ID: 9}
	s := &Strand{Start: 5, End: 7, Proc: 3}
	s.Init(4, root, FuncJob(func(Ctx) {}), Continuation, 64, 100, by)
	if s.ID != 4 || s.Task != root || s.Kind != Continuation || s.SizeBytes != 4096 ||
		s.Spawn != 100 || s.Start != 0 || s.End != 0 || s.Proc != -1 || s.SpawnedBy != by {
		t.Fatalf("unannotated strand %+v: want the task size and no core", *s)
	}
	s.Init(5, root, Sized{J: FuncJob(func(Ctx) {}), Bytes: 4096, StrandBytes: 128}, TaskStart, 64, 0, nil)
	if s.SizeBytes != 128 {
		t.Fatalf("annotated strand size %d, want 128", s.SizeBytes)
	}
}

// TestPoolZeroesAndRefillsSlabs: Put zeroes a record and Get hands it
// back; a miss refills slabSize records from one backing array.
func TestPoolZeroesAndRefillsSlabs(t *testing.T) {
	var p Pool[Task]
	x := p.Get()
	if len(p.free) != slabSize-1 {
		t.Fatalf("a miss left %d free records, want %d", len(p.free), slabSize-1)
	}
	x.ID, x.Depth = 7, 3
	p.Put(x)
	if *x != (Task{}) {
		t.Fatalf("Put left %+v", *x)
	}
	if y := p.Get(); y != x {
		t.Fatal("Get did not return the recycled record")
	}
	for len(p.free) > 0 {
		if y := p.Get(); *y != (Task{}) {
			t.Fatalf("slab record not zero: %+v", *y)
		}
	}
	if y := p.Get(); y == x || len(p.free) != slabSize-1 {
		t.Fatalf("an exhausted pool did not refill a fresh slab (%d free)", len(p.free))
	}
}

// forkCtx records a strand's terminal fork in a ForkRecord, as the
// engine's ctx does.
type forkCtx struct {
	stubCtx
	rec ForkRecord
}

func (c *forkCtx) Fork(cont Job, children ...Job) { c.rec.Fork(cont, children) }
func (c *forkCtx) ForkFuture(cont Job, f *Future, body Job) {
	c.rec.ForkFuture(cont, f, body)
}
func (c *forkCtx) ForkAwait(cont Job, futures []*Future, children ...Job) {
	c.rec.ForkAwait(cont, futures, children)
}

// scriptJob is a Scripted with no ops and a fixed terminal fork.
type scriptJob struct {
	cont Job
	kids []Job
}

func (j scriptJob) Run(ctx Ctx)                        { ForkScript(ctx, j) }
func (j scriptJob) Script() ([]byte, int64, int64)     { return nil, 0, 0 }
func (j scriptJob) ScriptFork() (cont Job, kids []Job) { return j.cont, j.kids }

// TestForkScript: a scripted strand forks its children with Fork, a lone
// continuation through an empty ForkAwait, and nothing without either.
func TestForkScript(t *testing.T) {
	leaf := FuncJob(func(Ctx) {})
	for _, tc := range []struct {
		name         string
		j            scriptJob
		called, cont bool
		kids         int
	}{
		{"children and continuation", scriptJob{leaf, []Job{leaf, leaf}}, true, true, 2},
		{"children only", scriptJob{nil, []Job{leaf}}, true, false, 1},
		{"continuation only", scriptJob{leaf, nil}, true, true, 0},
		{"neither", scriptJob{}, false, false, 0},
	} {
		var c forkCtx
		tc.j.Run(&c)
		r := c.rec
		if r.Called != tc.called || (r.Cont != nil) != tc.cont || len(r.Children) != tc.kids || r.Futures() {
			t.Errorf("%s: recorded %+v", tc.name, r)
		}
	}
}
