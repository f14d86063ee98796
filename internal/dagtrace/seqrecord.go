package dagtrace

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/xrand"
)

// Record captures root's computation into rec without simulating it.
// The program runs depth first on the calling goroutine — no engine,
// worker goroutines, cache simulator, scheduler or clock — and the events
// a live run would send its sim.TraceListener drive rec, so the recording
// is checked and finished exactly as a live one is: by rec.Finish for an
// in-memory Recorder, by StreamCache.Fill for one a cache handed out.
// block is the machine's cache-line size, against which the task and
// strand space annotations resolve. The program-model rules — the fork
// discipline, task and strand initialization, record recycling — are
// job's, shared with the engine.
//
// At a fork every child task is spawned in fork order, as the engine does;
// each child then runs to completion in that order, and the continuation
// is spawned once the last child has ended. Node numbering therefore
// follows sequential spawn order, and strands finish depth first, so a
// recording that streams into its file lays every subtree's ops out
// contiguously. Replays depend only on the trace's structure, so a
// sequential recording replays bit-identically to a live one.
//
// A program that forks futures fails with ErrUnsupported; a recorder
// whose file cannot be written, with its *WriteError. A strand that
// panics — a misused fork primitive included — fails with an error
// carrying the panic value.
func Record(rec *Recorder, root job.Job, block int64) (err error) {
	q := &seqRecorder{rec: rec, block: block}
	q.ctx.q = q
	q.ctx.rng.Seed(1)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("dagtrace: record: strand panicked: %v", p)
			rec.fail(err)
		}
	}()
	q.runTask(q.spawn(q.newTask(nil, root), root, job.TaskStart, nil))
	return rec.err
}

// seqRecorder is the state of one sequential recording. Task and strand
// records are recycled through job.Pools as the engine's pools recycle
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

	taskPool   job.Pool[job.Task]
	strandPool job.Pool[job.Strand]
	pairPool   job.Pool[job.ForPair]
}

// runTask runs the task of its first strand s to completion: its strands
// in order and, at each fork, every child task in fork order. It returns
// early once the recorder has failed.
func (q *seqRecorder) runTask(s *job.Strand) {
	t := s.Task
	for {
		f := q.runStrand(s)
		if q.rec.err != nil || !f.Called {
			break
		}
		base := len(q.pending)
		for _, cj := range f.Children {
			q.pending = append(q.pending, q.spawn(q.newTask(t, cj), cj, job.TaskStart, s))
		}
		q.strandPool.Put(s)
		for i := base; i < base+len(f.Children) && q.rec.err == nil; i++ {
			q.runTask(q.pending[i])
		}
		q.pending = q.pending[:base]
		if q.rec.err != nil || f.Cont == nil {
			break
		}
		s = q.spawn(t, f.Cont, job.Continuation, q.last)
	}
	q.rec.TaskEnded(t, 0)
	job.RecyclePair(&q.pairPool, t)
	q.taskPool.Put(t)
}

// runStrand executes one strand and reports its end and terminal fork.
func (q *seqRecorder) runStrand(s *job.Strand) job.ForkRecord {
	if q.last != nil {
		q.strandPool.Put(q.last)
		q.last = nil
	}
	q.rec.StrandStarted(s)
	c := &q.ctx
	c.cur = s
	s.Job.Run(c)
	f := c.fork.Take()
	q.rec.StrandEnded(s)
	q.rec.StrandForked(s, f.Cont != nil, len(f.Children), f.Futures())
	if !f.Called {
		q.last = s
	}
	return f
}

// newTask returns a task record for job j forked by parent (nil for the
// root).
func (q *seqRecorder) newTask(parent *job.Task, j job.Job) *job.Task {
	q.tasks++
	t := q.taskPool.Get()
	t.Init(q.tasks, parent, j, q.block)
	return t
}

// spawn creates a strand of t running j and reports it to the recorder.
// by is the strand whose completion made it runnable.
func (q *seqRecorder) spawn(t *job.Task, j job.Job, kind job.Kind, by *job.Strand) *job.Strand {
	q.strands++
	s := q.strandPool.Get()
	s.Init(q.strands, t, j, kind, q.block, 0, by)
	q.rec.StrandSpawned(s)
	return s
}

// seqCtx is the job.Ctx of a sequential recording: accesses and positive
// work charges go straight to the recorder, and the terminal fork is kept
// for runTask.
type seqCtx struct {
	q    *seqRecorder
	cur  *job.Strand
	fork job.ForkRecord
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
func (c *seqCtx) Fork(cont job.Job, children ...job.Job) { c.fork.Fork(cont, children) }

// ForkFuture implements job.Ctx. The recorder rejects the fork, so the
// future body never runs.
func (c *seqCtx) ForkFuture(cont job.Job, f *job.Future, body job.Job) {
	c.fork.ForkFuture(cont, f, body)
}

// ForkAwait implements job.Ctx. Awaiting no future is a plain fork.
func (c *seqCtx) ForkAwait(cont job.Job, futures []*job.Future, children ...job.Job) {
	c.fork.ForkAwait(cont, futures, children)
}

// AllocForPair implements job.ForPairAllocator: parallel-for fork
// contexts are recycled when their splitting task ends, as in the engine.
func (c *seqCtx) AllocForPair() *job.ForPair { return c.q.pairPool.Get() }

// Worker implements job.Ctx: a sequential recording runs on one core.
func (c *seqCtx) Worker() int { return 0 }

// RNG implements job.Ctx.
func (c *seqCtx) RNG() *xrand.Source { return &c.rng }
