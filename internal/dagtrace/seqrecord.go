package dagtrace

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// Record captures root's computation without simulating it. The program
// runs depth first on the calling goroutine — no engine, worker
// goroutines, cache simulator, scheduler or clock — and the events a live
// run would send its sim.TraceListener drive one Recorder, so Finish
// cross-checks the structure exactly as it does for a live recording.
// block is the machine's cache-line size, against which the task and
// strand space annotations resolve (job.SizeOf, job.StrandSizeOf, with the
// engine's strand-to-task fallback).
//
// At a fork every child task is spawned in fork order, as the engine does;
// each child then runs to completion in that order, and the continuation
// is spawned once the last child has ended. Node numbering therefore
// follows sequential spawn order, and every subtree's strands sit
// contiguously in the op arena. Replays depend only on the trace's
// structure, so a sequential recording replays bit-identically to a live
// one.
//
// A program that forks futures fails with ErrUnsupported. A strand that
// panics — a second terminal fork in one strand included — fails with an
// error carrying the panic value.
func Record(root job.Job, block int64) (tr *Trace, err error) {
	q := &seqRecorder{rec: NewRecorder(), block: block}
	q.ctx.q = q
	q.ctx.rng.Seed(1)
	defer func() {
		if p := recover(); p != nil {
			tr, err = nil, fmt.Errorf("dagtrace: record: strand panicked: %v", p)
		}
	}()
	q.runTask(q.spawn(q.newTask(nil, root), root, job.TaskStart, nil))
	return q.rec.Finish()
}

// seqRecorder is the state of one sequential recording. Task and strand
// records are recycled through free lists as the engine's pools recycle
// them, which the Recorder allows by being sim.PoolSafe: it keeps IDs,
// never the records.
type seqRecorder struct {
	rec   *Recorder
	block int64
	ctx   seqCtx

	tasks, strands uint64 // IDs handed out so far

	// pending holds the spawned, not yet run first strands of every open
	// fork, innermost fork last.
	pending []*job.Strand
	// last is the most recently finished strand that did not fork. It is
	// the dependency whose completion releases a continuation, so it stays
	// unrecycled until the next strand starts.
	last *job.Strand

	taskFree   freeList[job.Task]
	strandFree freeList[job.Strand]
	pairFree   freeList[job.ForPair]
}

// runTask runs the task of its first strand s to completion: its strands
// in order and, at each fork, every child task in fork order. It returns
// early once the recorder has failed.
func (q *seqRecorder) runTask(s *job.Strand) {
	t := s.Task
	for {
		f := q.runStrand(s)
		if q.rec.err != nil || !f.called {
			break
		}
		base := len(q.pending)
		for _, cj := range f.children {
			q.pending = append(q.pending, q.spawn(q.newTask(t, cj), cj, job.TaskStart, s))
		}
		q.strandFree.put(s)
		for i := base; i < base+len(f.children) && q.rec.err == nil; i++ {
			q.runTask(q.pending[i])
		}
		q.pending = q.pending[:base]
		if q.rec.err != nil || f.cont == nil {
			break
		}
		s = q.spawn(t, f.cont, job.Continuation, q.last)
	}
	q.rec.TaskEnded(t, 0)
	if pr, ok := t.Job.(job.PairRecycler); ok {
		if p := pr.TakeChildPair(); p != nil {
			q.pairFree.put(p)
		}
	}
	q.taskFree.put(t)
}

// runStrand executes one strand and reports its end and terminal fork.
func (q *seqRecorder) runStrand(s *job.Strand) seqFork {
	if q.last != nil {
		q.strandFree.put(q.last)
		q.last = nil
	}
	q.rec.StrandStarted(s)
	c := &q.ctx
	c.cur, c.fork = s, seqFork{}
	s.Job.Run(c)
	f := c.fork
	q.rec.StrandEnded(s)
	q.rec.StrandForked(s, f.cont != nil, len(f.children), f.futures)
	if !f.called {
		q.last = s
	}
	return f
}

// newTask returns a task record for job j forked by parent (nil for the
// root), sized as the engine sizes it.
func (q *seqRecorder) newTask(parent *job.Task, j job.Job) *job.Task {
	q.tasks++
	depth := 0
	if parent != nil {
		depth = parent.Depth + 1
	}
	t := q.taskFree.get()
	*t = job.Task{
		ID:          q.tasks,
		Parent:      parent,
		Depth:       depth,
		Job:         j,
		SizeBytes:   job.SizeOf(j, q.block),
		AnchorLevel: -1,
		AnchorNode:  -1,
	}
	return t
}

// spawn creates a strand of t running j and reports it to the recorder.
// by is the strand whose completion made it runnable.
func (q *seqRecorder) spawn(t *job.Task, j job.Job, kind job.Kind, by *job.Strand) *job.Strand {
	q.strands++
	size := job.StrandSizeOf(j, q.block)
	if size < 0 {
		size = t.SizeBytes
	}
	s := q.strandFree.get()
	*s = job.Strand{ID: q.strands, Task: t, Job: j, Kind: kind, SizeBytes: size, Proc: -1, SpawnedBy: by}
	q.rec.StrandSpawned(s)
	return s
}

// seqFork is the terminal fork of the running strand.
type seqFork struct {
	called   bool
	futures  bool
	cont     job.Job
	children []job.Job
}

// seqCtx is the job.Ctx of a sequential recording: accesses and positive
// work charges go straight to the recorder, and the terminal fork is kept
// for runTask. It enforces the engine's fork discipline.
type seqCtx struct {
	q    *seqRecorder
	cur  *job.Strand
	fork seqFork
	rng  xrand.Source
}

// Access implements job.Ctx.
func (c *seqCtx) Access(a mem.Addr, write bool) { c.q.rec.StrandAccess(c.cur, a, write) }

// Work implements job.Ctx.
func (c *seqCtx) Work(cycles int64) {
	if cycles > 0 {
		c.q.rec.StrandWork(c.cur, cycles)
	}
}

// Fork implements job.Ctx.
func (c *seqCtx) Fork(cont job.Job, children ...job.Job) {
	c.terminal()
	if len(children) == 0 {
		panic("dagtrace: Fork with no children")
	}
	c.fork = seqFork{called: true, cont: cont, children: children}
}

// ForkFuture implements job.Ctx. The recorder rejects the fork, so the
// future body never runs.
func (c *seqCtx) ForkFuture(cont job.Job, _ *job.Future, _ job.Job) {
	c.terminal()
	c.fork = seqFork{called: true, futures: true, cont: cont}
}

// ForkAwait implements job.Ctx. Awaiting no future is a plain fork.
func (c *seqCtx) ForkAwait(cont job.Job, futures []*job.Future, children ...job.Job) {
	c.terminal()
	if cont == nil {
		panic("dagtrace: ForkAwait requires a continuation")
	}
	c.fork = seqFork{called: true, futures: len(futures) > 0, cont: cont, children: children}
}

func (c *seqCtx) terminal() {
	if c.fork.called {
		panic("dagtrace: fork primitive called twice in one strand (must be terminal)")
	}
}

// AllocForPair implements job.ForPairAllocator: parallel-for fork
// contexts are recycled when their splitting task ends, as in the engine.
func (c *seqCtx) AllocForPair() *job.ForPair { return c.q.pairFree.get() }

// Worker implements job.Ctx: a sequential recording runs on one core.
func (c *seqCtx) Worker() int { return 0 }

// RNG implements job.Ctx.
func (c *seqCtx) RNG() *xrand.Source { return &c.rng }

// freeList recycles records of one type. put zeroes a record, so a
// reference kept past its release shows up as a loud bug rather than
// silent state bleed.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	if n := len(*l); n > 0 {
		x := (*l)[n-1]
		(*l)[n-1] = nil
		*l = (*l)[:n-1]
		return x
	}
	return new(T)
}

func (l *freeList[T]) put(x *T) {
	var zero T
	*x = zero
	*l = append(*l, x)
}
