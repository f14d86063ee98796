package sim

import (
	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/xrand"
)

type yieldKind uint8

const (
	yieldChunk   yieldKind = iota // chunk budget exhausted, strand continues
	yieldDone                     // strand code returned
	yieldPanic                    // strand code panicked
	yieldStopped                  // goroutine unwound during shutdown
)

type yieldMsg struct {
	kind     yieldKind
	panicVal any
}

// workerStopped unwinds a worker goroutine paused mid-strand when the
// engine shuts down on an error path.
type workerStopped struct{}

// worker is one simulated core: a goroutine that executes strand code,
// cooperatively yielding to the engine every chunk of simulated cycles.
//
// Synchronization invariant: the engine and the workers form a baton-pass —
// at any moment at most one of them runs. Outside engine.step every worker
// is blocked receiving on resume (at the loop top when idle, inside pause
// when mid-strand), so worker code may freely touch engine state (caches,
// clocks) without locks and the whole simulation is deterministic.
type worker struct {
	id   int // logical core id (scheduler-visible)
	leaf int // leaf position in the cache tree

	clock  int64
	timers [numBuckets]int64
	rng    xrand.Source

	cur *job.Strand

	// ctx is the reusable job.Ctx for strands run on this worker,
	// embedded here so strand execution allocates nothing per strand.
	ctx wctx

	// resume: engine → worker "run until your next yield" (per worker:
	// all workers block on their own resume simultaneously).
	// yield:  worker → engine, exactly one reply per resume. Shared by
	// every worker of an engine — the baton-pass invariant (at most one
	// worker runs at a time) guarantees only the resumed worker can send.
	// exited: shared, buffered; each goroutine sends one token on return.
	resume chan struct{}
	yield  chan yieldMsg
	exited chan struct{}

	// chunkLeft is the remaining simulated-cycle budget before the current
	// chunk must yield.
	chunkLeft int64

	// virtualPop is the simulated time at which the engine (actually or
	// virtually) last popped this worker to run its current chunk. When a
	// chunk boundary is batched away (see engine.batchable), the pop that
	// fine-grained execution would have performed is recorded here so the
	// engine can later replay the idle polls that ordered before it.
	virtualPop int64

	// Inline-script state (engine.runInline). script is non-nil iff the
	// current strand is a job.Scripted executing on the engine goroutine
	// instead of this worker's goroutine; sip/send delimit the remaining
	// ops and sprev is the delta-decoding previous address, saved across
	// chunk yields.
	script []byte
	sjob   job.Scripted
	sip    int64
	send   int64
	sprev  int64

	// Terminal-fork record for the current strand.
	fork job.ForkRecord
}

// loop is the worker goroutine body: wait for a strand, run it, report.
func (w *worker) loop(e *engine) {
	defer func() { w.exited <- struct{}{} }()
	for range w.resume {
		msg := w.runStrand(e)
		if msg.kind == yieldStopped {
			return
		}
		w.yield <- msg
	}
}

func (w *worker) runStrand(e *engine) (msg yieldMsg) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(workerStopped); ok {
				msg = yieldMsg{kind: yieldStopped}
				return
			}
			msg = yieldMsg{kind: yieldPanic, panicVal: r}
		}
	}()
	w.cur.Job.Run(&w.ctx)
	return yieldMsg{kind: yieldDone}
}

// runChunk resumes the worker until its next yield and returns the yield.
// Called on the engine goroutine.
//
//schedlint:hotpath
func (w *worker) runChunk() yieldMsg {
	w.resume <- struct{}{}
	return <-w.yield
}

// wctx implements job.Ctx for one strand execution on one worker.
type wctx struct {
	w *worker
	e *engine
}

// batchable reports whether worker w's chunk boundary at simulated time
// clock can be batched away: skipped — no yield to the engine, only
// w.virtualPop recording the pop the engine would have performed —
// because it is provably unobservable. Both strand paths ask it: wctx.pause
// on the worker goroutine and runInline on the engine's.
//
// No sampler may be armed, no fault event and no injection due at or
// before clock (otherwise the engine must interpose), and one of:
//
//   - w runs the only live strand: every event the baseline engine would
//     interleave before this strand's next real boundary is a failed idle
//     poll, and engine.drainIdle replays exactly those (in heap order)
//     before the strand's fork publishes; or
//   - w still orders strictly before every other worker in the heap: the
//     baseline engine would push and immediately re-pop it, touching
//     nothing — drainIdle then has nothing to replay.
//
// Every term of the condition only changes through engine actions, and
// the engine is parked while strand code runs, so the decision cannot be
// invalidated between boundaries.
//
//schedlint:hotpath
func (e *engine) batchable(w *worker, clock int64) bool {
	if !e.sampling && clock < e.nextFault &&
		(e.liveStrands == 1 || clock < e.nextClock || (clock == e.nextClock && w.id < e.nextID)) {
		t, pending := e.src.Pending()
		return !pending || t > clock
	}
	return false
}

// pause hands control back to the engine between chunks, unless the
// boundary is batchable. If the engine has shut down (resume closed),
// unwind the strand via workerStopped.
//
//schedlint:hotpath
func (c *wctx) pause() {
	w, e := c.w, c.e
	if e.batchable(w, w.clock) {
		w.virtualPop = w.clock
		w.chunkLeft = e.cost.ChunkCycles
		return
	}
	w.yield <- yieldMsg{kind: yieldChunk}
	if _, ok := <-w.resume; !ok {
		panic(workerStopped{})
	}
	w.chunkLeft = e.cost.ChunkCycles
}

// spend charges cycles of program execution (active time) and yields when
// the chunk budget is exhausted. A straggler fault dilates the charge:
// every nominal cycle costs mult/100 cycles on the afflicted core
// (integer arithmetic, so the dilation is exactly reproducible).
//
//schedlint:hotpath
func (c *wctx) spend(cycles int64) {
	if f := c.e.flt; f != nil {
		if m := f.mult[c.w.id]; m != 100 {
			cycles = cycles * m / 100
		}
	}
	c.w.clock += cycles
	c.w.timers[BucketActive] += cycles
	c.w.chunkLeft -= cycles
	if c.w.chunkLeft <= 0 {
		c.pause()
	}
}

// Access implements job.Ctx (and mem.Accessor): simulate the access on the
// worker's cache path and charge its cost. The access is reported to the
// trace recorder (when armed) before simulation, so recorded op streams are
// in exact program order regardless of cache state.
//
//schedlint:hotpath
func (c *wctx) Access(a mem.Addr, write bool) {
	if r := c.e.rec; r != nil {
		r.StrandAccess(c.w.cur, a, write)
	}
	cost, _ := c.e.h.Access(c.w.leaf, c.w.clock, a, write)
	c.spend(cost)
}

// Work implements job.Ctx: charge pure compute cycles.
func (c *wctx) Work(cycles int64) {
	if cycles <= 0 {
		return
	}
	if r := c.e.rec; r != nil {
		r.StrandWork(c.w.cur, cycles)
	}
	c.spend(cycles)
}

// Fork implements job.Ctx: record the strand's terminal fork.
func (c *wctx) Fork(cont job.Job, children ...job.Job) { c.w.fork.Fork(cont, children) }

// ForkFuture implements job.Ctx.
func (c *wctx) ForkFuture(cont job.Job, f *job.Future, body job.Job) {
	c.w.fork.ForkFuture(cont, f, body)
}

// ForkAwait implements job.Ctx.
func (c *wctx) ForkAwait(cont job.Job, futures []*job.Future, children ...job.Job) {
	c.w.fork.ForkAwait(cont, futures, children)
}

// AllocForPair implements job.ForPairAllocator: parallel-for fork
// contexts come from the engine's pair pool. Safe off the engine
// goroutine for the usual baton-pass reason — the engine is parked while
// strand code runs.
func (c *wctx) AllocForPair() *job.ForPair { return c.e.pairPool.Get() }

// Worker implements job.Ctx.
func (c *wctx) Worker() int { return c.w.id }

// RNG implements job.Ctx.
func (c *wctx) RNG() *xrand.Source { return &c.w.rng }
