// Package sim is the runtime system of the experimental framework (§3):
// it binds one simulated thread to every core of a PMH machine, drives the
// program's strands through the scheduler's add/get/done call-backs, and
// meters everything — per-core active time, per-call-back scheduler
// overheads, empty-queue time, and exact cache misses at every level.
//
// The engine is a deterministic discrete-event simulator. Each worker
// (core) is a goroutine that executes strand code; the engine goroutine
// resumes exactly one worker at a time — always the one with the smallest
// simulated clock — for a bounded chunk of simulated cycles, so strands on
// different cores interleave in the shared caches at fine granularity while
// the whole simulation stays single-threaded-deterministic: a run is a pure
// function of (machine, program, scheduler, cost model, seed).
package sim

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// Time-accounting buckets (§3.3's five components).
const (
	BucketActive = iota // executing program code
	BucketAdd           // add call-back overhead
	BucketDone          // done call-back (and task-end) overhead
	BucketGet           // get call-back overhead
	BucketEmpty         // get returned nothing: idle / load imbalance
	numBuckets
)

// BucketNames labels the buckets in reports.
var BucketNames = [numBuckets]string{"active", "add", "done", "get", "empty"}

// Listener observes scheduling events for tracing; all methods are called
// on the engine goroutine. Any method may be a no-op.
type Listener interface {
	StrandSpawned(s *job.Strand)
	StrandStarted(s *job.Strand)
	StrandEnded(s *job.Strand)
	TaskEnded(t *job.Task, now int64)
}

// TraceListener extends Listener with program-level events: the memory
// accesses and compute charges each strand performs, and the terminal fork
// that ends it. A Listener that also implements TraceListener observes the
// complete schedule-independent computation — enough to replay it later
// under a different scheduler — at the cost of one call per access. All
// methods are called on the engine goroutine while the engine is parked,
// in exact simulated order.
type TraceListener interface {
	Listener
	// StrandAccess reports one memory access performed by strand s, in
	// program order, before its cache cost is simulated.
	StrandAccess(s *job.Strand, a mem.Addr, write bool)
	// StrandWork reports a positive compute charge by strand s.
	StrandWork(s *job.Strand, cycles int64)
	// StrandForked reports the terminal fork of s as it ends: whether a
	// continuation was registered, how many child tasks were forked, and
	// whether futures are involved (ForkFuture body or ForkAwait
	// dependencies). A strand that returned without forking reports
	// (false, 0, false).
	StrandForked(s *job.Strand, hasCont bool, children int, futures bool)
}

// PoolSafe marks a Listener that retains no *job.Task or *job.Strand
// pointer past the event call that delivers it (storing IDs or copied
// field values instead). The engine keeps task/strand pooling enabled
// when the configured Listener declares this; for any other Listener
// pooling is disabled, since a recycled object would mutate under the
// listener's feet.
type PoolSafe interface {
	PoolSafeListener()
}

// Config describes one simulation run.
type Config struct {
	// Machine is the PMH to simulate. Required.
	Machine *machine.Desc
	// Space is the address space holding the program's (pre-allocated)
	// data; its link count must match the machine. Required.
	Space *mem.Space
	// Scheduler maps strands to cores. Required.
	Scheduler sched.Scheduler
	// Cost is the scheduler/runtime cost model; zero value means defaults.
	Cost sched.CostModel
	// Seed drives all scheduler randomness.
	Seed uint64
	// Listener, if non-nil, receives trace events.
	Listener Listener
	// MaxStrands aborts runaway programs; 0 means no limit.
	MaxStrands uint64
	// Sampler, if non-nil, is called on the engine goroutine every
	// SampleEvery simulated cycles (at now = k*SampleEvery), letting the
	// caller record time series (queue depths, cache occupancy) in
	// simulated time.
	Sampler func(now int64)
	// SampleEvery is the sampling period in cycles; 0 disables sampling.
	SampleEvery int64
	// Faults, if non-nil and non-empty, injects deterministic machine
	// perturbations (stragglers, core loss, bandwidth jitter, cache
	// flushes) at their scheduled simulated times. A nil or empty plan
	// leaves every run bit-identical to one without fault support.
	Faults *fault.Plan
}

// Run executes root to completion on the configured machine and scheduler
// and returns the measured Result.
func Run(cfg Config, root job.Job) (*Result, error) {
	if cfg.Machine == nil || cfg.Space == nil || cfg.Scheduler == nil {
		return nil, errConfig()
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, errMachine(err)
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Machine); err != nil {
			return nil, errMachine(err)
		}
	}
	normalizeCosts(&cfg)
	e := newEngine(cfg)
	defer e.shutdown()
	return e.run(&oneShot{root: root})
}

func errConfig() error           { return fmt.Errorf("sim: Config requires Machine, Space and Scheduler") }
func errMachine(err error) error { return fmt.Errorf("sim: %w", err) }
func errNilSource() error        { return fmt.Errorf("sim: RunStream requires a Source") }

// normalizeCosts fills cost-model defaults. An idle worker must advance
// its clock or the event loop would spin on it forever; a chunk must be at
// least one cycle.
func normalizeCosts(cfg *Config) {
	if cfg.Cost == (sched.CostModel{}) {
		cfg.Cost = sched.DefaultCosts()
	}
	if cfg.Cost.IdleBackoff < 1 {
		cfg.Cost.IdleBackoff = 1
	}
	if cfg.Cost.ChunkCycles < 1 {
		cfg.Cost.ChunkCycles = 1
	}
}

type engine struct {
	cfg     Config
	m       *machine.Desc
	h       *cachesim.Hierarchy
	sch     sched.Scheduler
	cost    sched.CostModel
	workers []*worker
	heap    workerHeap

	lockFree []int64 // per simulated lock: next free cycle

	nextTaskID   uint64
	nextStrandID uint64
	// curSpawner is the strand whose completion is currently being
	// processed; new strands record it as their dependency source.
	curSpawner  *job.Strand
	liveStrands int
	// liveRoots counts injected root tasks that have not yet completed;
	// src is the injection source driving this run.
	liveRoots int
	src       Source
	// roots tracks per-root bookkeeping for Source.Done callbacks. The map
	// is only ever looked up by key (never iterated), so it cannot
	// introduce iteration-order nondeterminism.
	roots map[*job.Task]rootRec
	// nextSample is the simulated time of the next Sampler callback.
	nextSample int64
	// sampling caches "Sampler armed" so the hot paths test one bool.
	sampling bool
	// nextClock/nextID are the heap-order key of the earliest worker left
	// in the heap when the current worker was popped; batchable compares
	// against them to detect boundaries where the engine would re-pop the
	// same worker immediately. Fixed while strand code runs.
	nextClock int64
	nextID    int

	// curBucket attributes Env charges to the call-back being executed.
	curBucket int

	// flt holds fault-injection state (nil when Config.Faults is empty),
	// and nextFault the simulated time of the earliest unapplied fault
	// event (a huge sentinel otherwise), so the hot paths test one int64.
	flt       *faultState
	nextFault int64

	// dynFlushes counts dynamic (injected) cache flushes, surfaced in
	// Result.FaultEvents alongside compiled-plan events.
	dynFlushes int

	// rec receives program-level record events (StrandAccess/StrandWork/
	// StrandForked) when cfg.Listener also implements TraceListener; nil
	// otherwise, so the per-access hot-path cost is a single nil check.
	rec TraceListener

	// pool enables task/strand recycling. Recycling is only sound when no
	// Listener can retain pointers past an object's lifetime; the engine
	// itself drops every reference to a non-root strand at the end of its
	// finishStrand and to a non-root, non-future task once its parent's
	// bookkeeping is updated (futures are excluded because job.Future keeps
	// its bound task forever). Parallel-for fork contexts (job.ForPair)
	// are reclaimed at the splitting task's end — both children live
	// inside the pair and have completed by then — under the same rule.
	pool       bool
	taskPool   job.Pool[job.Task]
	strandPool job.Pool[job.Strand]
	pairPool   job.Pool[job.ForPair]

	err error
}

func newEngine(cfg Config) *engine {
	e := &engine{
		cfg:  cfg,
		m:    cfg.Machine,
		h:    cachesim.New(cfg.Machine, cfg.Space),
		sch:  cfg.Scheduler,
		cost: cfg.Cost,
		pool: cfg.Listener == nil,
	}
	if _, ok := cfg.Listener.(PoolSafe); ok {
		e.pool = true
	}
	if tl, ok := cfg.Listener.(TraceListener); ok {
		e.rec = tl
	}
	n := e.m.NumCores()
	// Workers live in one backing array (one allocation instead of n);
	// e.workers never reallocates, so interior pointers stay valid.
	backing := make([]worker, n)
	e.workers = make([]*worker, n)
	yield := make(chan yieldMsg)
	exited := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		w := &backing[i]
		w.id = i
		w.leaf = e.m.LeafOf(i)
		w.rng.Seed(cfg.Seed*0x9e3779b97f4a7c15 + uint64(i) + 1)
		w.resume = make(chan struct{})
		w.yield = yield
		w.exited = exited
		w.ctx = wctx{w: w, e: e}
		e.workers[i] = w
		go w.loop(e) //schedlint:ignore nondeterminism baton-pass worker: exactly one goroutine runs at a time, sequenced by resume/yield channels
	}
	e.lockFree = make([]int64, 0, 2*n+8)
	e.flt = newFaultState(&cfg)
	e.nextFault = int64(1)<<62 - 1
	if e.flt != nil && len(e.flt.events) > 0 {
		e.nextFault = e.flt.events[0].Time
	}
	e.sch.Setup(e) // engine implements sched.Env
	return e
}

// shutdown terminates all worker goroutines. Outside engine.step every
// worker is blocked receiving on resume, so closing the channels unwinds
// them all (idle workers exit the loop; paused workers unwind their strand
// via workerStopped).
func (e *engine) shutdown() {
	for _, w := range e.workers {
		close(w.resume)
	}
	// One token per goroutine on the shared exited channel.
	for range e.workers {
		<-e.workers[0].exited
	}
}

// --- sched.Env implementation -------------------------------------------

// Machine implements sched.Env.
func (e *engine) Machine() *machine.Desc { return e.m }

// Cost implements sched.Env.
func (e *engine) Cost() sched.CostModel { return e.cost }

// NewLock implements sched.Env.
func (e *engine) NewLock() int {
	e.lockFree = append(e.lockFree, 0)
	return len(e.lockFree) - 1
}

// Lock implements sched.Env: serialize on the lock in simulated time.
//
//schedlint:hotpath
func (e *engine) Lock(worker, id int, hold int64) {
	w := e.workers[worker]
	start := w.clock
	if e.lockFree[id] > start {
		start = e.lockFree[id]
	}
	e.lockFree[id] = start + hold
	total := (start - w.clock) + hold
	w.clock += total
	w.timers[e.curBucket] += total
}

// Charge implements sched.Env.
//
//schedlint:hotpath
func (e *engine) Charge(worker int, cycles int64) {
	w := e.workers[worker]
	w.clock += cycles
	w.timers[e.curBucket] += cycles
}

// RNG implements sched.Env.
func (e *engine) RNG(worker int) *xrand.Source { return &e.workers[worker].rng }

// --- call-back wrappers with bucket attribution --------------------------

func (e *engine) callAdd(s *job.Strand, w *worker) {
	e.curBucket = BucketAdd
	e.sch.Add(s, w.id)
	e.curBucket = BucketActive
}

func (e *engine) callGet(w *worker) *job.Strand {
	e.curBucket = BucketGet
	before := w.timers[BucketGet]
	s := e.sch.Get(w.id)
	e.curBucket = BucketActive
	if s == nil {
		// §3.3: "the empty queue overhead is the amount of time the
		// scheduler fails to assign work to a thread (get returns null)" —
		// reattribute the whole failed call.
		spent := w.timers[BucketGet] - before
		w.timers[BucketGet] = before
		w.timers[BucketEmpty] += spent
	}
	return s
}

func (e *engine) callDone(s *job.Strand, w *worker) {
	e.curBucket = BucketDone
	e.sch.Done(s, w.id)
	e.curBucket = BucketActive
}

func (e *engine) callTaskEnd(t *job.Task, w *worker) {
	e.curBucket = BucketDone
	e.sch.TaskEnd(t, w.id)
	e.curBucket = BucketActive
}

// --- task/strand lifecycle ------------------------------------------------

func (e *engine) newTask(parent *job.Task, j job.Job) *job.Task {
	e.nextTaskID++
	t := e.taskPool.Get()
	t.Init(e.nextTaskID, parent, j, e.m.Block())
	return t
}

func (e *engine) newStrand(t *job.Task, j job.Job, kind job.Kind, now int64) *job.Strand {
	e.nextStrandID++
	s := e.strandPool.Get()
	s.Init(e.nextStrandID, t, j, kind, e.m.Block(), now, e.curSpawner)
	return s
}

// spawn registers a new strand with the scheduler on behalf of w.
func (e *engine) spawn(s *job.Strand, w *worker) {
	if e.cfg.MaxStrands > 0 && e.nextStrandID > e.cfg.MaxStrands {
		panic(fmt.Sprintf("sim: strand budget %d exceeded (runaway program?)", e.cfg.MaxStrands))
	}
	if l := e.cfg.Listener; l != nil {
		l.StrandSpawned(s)
	}
	e.liveStrands++
	e.callAdd(s, w)
}

// finishStrand handles a worker whose strand code returned: scheduler
// done, then either fork bookkeeping or join/task-end propagation.
func (e *engine) finishStrand(w *worker) {
	s := w.cur
	s.End = w.clock
	if l := e.cfg.Listener; l != nil {
		l.StrandEnded(s)
	}
	e.callDone(s, w)
	rec := w.fork.Take()
	if e.rec != nil {
		e.rec.StrandForked(s, rec.Cont != nil, len(rec.Children), rec.Futures())
	}
	w.cur = nil
	e.liveStrands--
	e.curSpawner = s
	t := s.Task
	// Decide poolability up front: after maybeFinish the task may itself be
	// recycled, so s.Task must not be consulted again. Root-task strands are
	// excluded (rootRec retains the first one; keeping the rule coarse but
	// obviously safe costs one strand per root).
	poolStrand := e.pool && t.Parent != nil
	if !rec.Called {
		// Strand ended without forking: the task's strand sequence is over.
		t.FinalDone = true
		e.maybeFinish(t, w)
		if poolStrand {
			e.strandPool.Put(s)
		}
		return
	}
	t.Cont = rec.Cont
	t.BlockPending = len(rec.Children)
	t.ChildPending += len(rec.Children)
	for _, cj := range rec.Children {
		ct := e.newTask(t, cj)
		e.spawn(e.newStrand(ct, cj, job.TaskStart, w.clock), w)
	}
	if rec.Future != nil {
		ft := e.newTask(t, rec.Body)
		ft.Handle = rec.Future
		rec.Future.Bind(ft)
		t.ChildPending++ // gates task completion, not the continuation
		e.spawn(e.newStrand(ft, rec.Body, job.TaskStart, w.clock), w)
	}
	for _, f := range rec.Awaits {
		if f.AddWaiter(t) {
			t.BlockPending++
		}
	}
	if t.BlockPending == 0 {
		// Pure-await already satisfied (or future fork with no gated
		// children): release the continuation immediately.
		e.releaseBlock(t, w)
		e.maybeFinish(t, w)
	}
	if poolStrand {
		e.strandPool.Put(s)
	}
}

// releaseBlock fires when a task's current parallel block has fully joined
// (BlockPending reached zero): spawn the continuation strand, or — if none
// — the task's strand sequence is over.
func (e *engine) releaseBlock(t *job.Task, w *worker) {
	if t.Cont != nil {
		cont := t.Cont
		t.Cont = nil
		e.spawn(e.newStrand(t, cont, job.Continuation, w.clock), w)
		return
	}
	t.FinalDone = true
}

// maybeFinish completes t if its strand sequence is over and all child
// tasks (including futures) have completed, cascading upward and waking
// any futures' waiters. It is idempotent per task.
func (e *engine) maybeFinish(t *job.Task, w *worker) {
	for t != nil && t.FinalDone && t.ChildPending == 0 && !t.Ended {
		t.Ended = true
		if l := e.cfg.Listener; l != nil {
			l.TaskEnded(t, w.clock)
		}
		e.callTaskEnd(t, w)
		if e.pool {
			job.RecyclePair(&e.pairPool, t)
		}
		if t.Handle != nil {
			for _, waiter := range t.Handle.Complete() {
				waiter.BlockPending--
				if waiter.BlockPending == 0 {
					e.releaseBlock(waiter, w)
					e.maybeFinish(waiter, w)
				}
			}
		}
		p := t.Parent
		if p == nil {
			e.liveRoots--
			if rec, ok := e.roots[t]; ok {
				delete(e.roots, t)
				e.src.Done(rec.tag, RootStats{Enqueued: rec.enq, Start: rec.strand.Start, End: w.clock})
			}
			return
		}
		p.ChildPending--
		if t.Handle == nil {
			p.BlockPending--
			if p.BlockPending == 0 {
				e.releaseBlock(p, w)
			}
			if e.pool {
				// Ended, non-root, not future-bound, parent bookkeeping
				// done: the engine holds no more references to t. (Future
				// tasks stay out: job.Future retains its bound task so
				// Get after completion keeps working.)
				e.taskPool.Put(t)
			}
			t = p
			continue
		}
		t = p
	}
}

// --- main loop -------------------------------------------------------------

// rootRec is the per-injected-root bookkeeping for Source.Done.
type rootRec struct {
	tag    uint64
	enq    int64
	strand *job.Strand
}

// inject spawns one injected root task on behalf of w (the earliest
// worker, taking the dispatch interrupt). The scheduler's Add cost is
// charged to w under the add bucket, exactly like a fork-spawned strand.
// An injection may instead (or additionally) carry a dynamic cache
// flush; flush-only injections touch no scheduler state.
func (e *engine) inject(inj Injection, w *worker) {
	if inj.Flush != nil {
		e.applyFlush(inj.Flush)
	}
	if inj.Job == nil {
		return
	}
	t := e.newTask(nil, inj.Job)
	e.liveRoots++
	// A root strand has no spawning strand: it enters from outside the
	// dependence DAG, so suppress the stale curSpawner.
	saved := e.curSpawner
	e.curSpawner = nil
	s := e.newStrand(t, inj.Job, job.TaskStart, w.clock)
	e.curSpawner = saved
	if e.roots == nil {
		e.roots = make(map[*job.Task]rootRec)
	}
	e.roots[t] = rootRec{tag: inj.Tag, enq: w.clock, strand: s}
	e.spawn(s, w)
}

// applyFlush invalidates the caches named by an injected flush: one cache,
// one whole level (Node < 0), or every cache level (Level < 0).
func (e *engine) applyFlush(f *fault.Flush) {
	lo, hi := f.Level, f.Level
	if f.Level < 0 {
		lo, hi = 1, e.m.CacheLevels()
	}
	for lvl := lo; lvl <= hi; lvl++ {
		if f.Node < 0 {
			for _, c := range e.h.Caches(lvl) {
				c.Invalidate()
			}
		} else {
			e.h.Caches(lvl)[f.Node].Invalidate()
		}
	}
	e.dynFlushes++
}

// fastForward advances every (idle) worker's clock to t, accounted as
// empty-queue time. Only called when no strand is live or queued, so no
// worker is mid-strand and nothing observable can happen in the gap.
func (e *engine) fastForward(t int64) {
	for _, w := range e.workers {
		if w.clock < t {
			w.timers[BucketEmpty] += t - w.clock
			w.clock = t
		}
	}
	e.heap.init(e.workers)
}

// sample fires Sampler callbacks for every period boundary up to now.
func (e *engine) sample(now int64) {
	for e.nextSample <= now {
		e.cfg.Sampler(e.nextSample)
		e.nextSample += e.cfg.SampleEvery
	}
}

// run drives the event loop: always advance the earliest worker, folding
// in the source's injection events in simulated-time order, until the
// source is exhausted and every injected root has completed.
func (e *engine) run(src Source) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: %v", r)
		}
	}()

	e.src = src
	e.sampling = e.cfg.Sampler != nil && e.cfg.SampleEvery > 0
	if e.sampling {
		e.nextSample = e.cfg.SampleEvery
	}
	e.heap.init(e.workers)
	for {
		t, pending := src.Pending()
		if !pending && e.liveRoots == 0 {
			break
		}
		w := e.heap.pop()
		if e.heap.len() > 0 {
			u := e.heap.peek()
			e.nextClock, e.nextID = u.clock, u.id
		} else {
			e.nextClock = int64(1)<<62 - 1 // single worker: always next
		}
		// Step w for as long as it remains the earliest worker, re-doing
		// the loop-head checks before every step but touching the heap
		// only when another worker overtakes. drainIdle (inside step) can
		// advance other workers, making nextClock a stale lower bound on
		// the true heap minimum — stale-low only ends the inner loop (and
		// skips chunk batching) early, never oversteps w.
		for {
			if e.sampling {
				e.sample(w.clock)
			}
			if w.clock >= e.nextFault {
				e.fireFaults(w.clock, w)
			}
			if pending {
				if t > w.clock && e.liveStrands == 0 && e.liveRoots == 0 {
					// The system is fully drained and the next arrival is
					// in the future: collapse the idle gap in one step.
					e.heap.push(w)
					e.fastForward(t)
					break
				}
				if t <= w.clock {
					if inj, ok := src.Pop(); ok {
						e.inject(inj, w)
					}
					e.heap.push(w)
					break
				}
			}
			e.step(w)
			if e.err != nil {
				return nil, e.err
			}
			if e.liveStrands == 0 && e.liveRoots > 0 {
				if _, ok := src.Pending(); !ok {
					// Nothing queued, nothing running, no arrival coming,
					// yet roots remain: a task awaits a future that can
					// never complete.
					return nil, fmt.Errorf("sim: deadlock — no runnable strands but %d root task(s) have not completed (unsatisfiable future await?)", e.liveRoots)
				}
			}
			if w.clock > e.nextClock || (w.clock == e.nextClock && w.id > e.nextID) {
				e.heap.push(w)
				break
			}
			t, pending = src.Pending()
			if !pending && e.liveRoots == 0 {
				e.heap.push(w)
				break
			}
		}
	}
	return e.collect(), nil
}

// drainIdle replays the idle polls that fine-grained chunking would have
// interleaved with a batched strand. While the finished strand ran through
// batched chunk boundaries (see batchable), the other workers sat in the
// heap untouched; any of them ordering before (w.virtualPop, w.id) — the
// pop the engine would have performed for the strand's final chunk — would,
// under fine-grained execution, have polled the scheduler (and failed: this
// strand was the only live one) before the strand's fork was published.
// Replay those polls now, in exact heap order, so their clock advances, RNG
// draws and lock/charge side effects land before finishStrand publishes new
// strands. When no boundary was batched, w.virtualPop is the strand's last
// real pop and every other worker already orders at or after it, so the
// loop is a no-op.
//
//schedlint:hotpath
func (e *engine) drainIdle(w *worker) {
	for e.heap.len() > 0 {
		if p := e.heap.peek(); p.clock > w.virtualPop || (p.clock == w.virtualPop && p.id > w.id) {
			return
		}
		u := e.heap.pop()
		// Step u while it stays both below the replay limit and ahead of
		// the rest of the heap, so repeated idle polls (IdleBackoff apart)
		// cost one pop/push instead of one each.
		nc, ni := int64(1)<<62-1, 0
		if e.heap.len() > 0 {
			v := e.heap.peek()
			nc, ni = v.clock, v.id
		}
		for {
			e.step(u)
			if u.clock > w.virtualPop || (u.clock == w.virtualPop && u.id > w.id) {
				break
			}
			if u.clock > nc || (u.clock == nc && u.id > ni) {
				break
			}
		}
		e.heap.push(u)
	}
}

// step advances one worker by one event: acquire a strand if idle, then
// run one chunk of it.
//
//schedlint:hotpath
func (e *engine) step(w *worker) {
	w.virtualPop = w.clock
	if w.cur == nil {
		if f := e.flt; f != nil && f.offline[w.id] {
			// Offline core: no scheduler polls until its CoreUp event; the
			// dead time accrues as empty-queue overhead. A core that was
			// mid-strand at its CoreDown drains that strand first (w.cur
			// non-nil skips this branch) — execution state lives on the
			// worker goroutine, so mid-strand migration is not modelled.
			w.clock += e.cost.IdleBackoff
			w.timers[BucketEmpty] += e.cost.IdleBackoff
			f.offlineCycles += e.cost.IdleBackoff
			return
		}
		s := e.callGet(w)
		if s == nil {
			w.clock += e.cost.IdleBackoff
			w.timers[BucketEmpty] += e.cost.IdleBackoff
			return
		}
		s.Start = w.clock
		s.Proc = w.id
		if l := e.cfg.Listener; l != nil {
			l.StrandStarted(s)
		}
		w.cur = s
		w.chunkLeft = e.cost.ChunkCycles
		e.beginInline(w, s.Job)
	}
	if w.script != nil {
		if !e.runInline(w) {
			return // real chunk boundary; resumes when earliest again
		}
		w.endInline()
		e.drainIdle(w)
		e.finishStrand(w)
		return
	}
	msg := w.runChunk()
	switch msg.kind {
	case yieldChunk:
		// Worker paused mid-strand; nothing to do, it will be resumed
		// when it is again the earliest worker.
	case yieldDone:
		e.drainIdle(w)
		e.finishStrand(w)
	case yieldPanic:
		//schedlint:ignore hotalloc terminal error path, runs at most once per simulation
		e.err = fmt.Errorf("sim: strand panicked on worker %d: %v", w.id, msg.panicVal)
	}
}

// collect builds the Result after the root task has ended.
func (e *engine) collect() *Result {
	wall := int64(0)
	for _, w := range e.workers {
		if w.clock > wall {
			wall = w.clock
		}
	}
	// Workers that went idle before the end spin in get until the
	// program completes; account that tail as empty-queue time.
	for _, w := range e.workers {
		w.timers[BucketEmpty] += wall - w.clock
	}
	r := &Result{
		Machine:      e.m,
		Scheduler:    e.sch.Name(),
		WallCycles:   wall,
		Workers:      make([]WorkerTimes, len(e.workers)),
		Tasks:        e.nextTaskID,
		Strands:      e.nextStrandID,
		DRAMAccesses: e.h.DRAMAccesses,
		StallCycles:  e.h.StallCycles,
		Writebacks:   e.h.Writebacks,
		RemoteHits:   e.h.RemoteHits,
		Hier:         e.h,
	}
	for i, w := range e.workers {
		r.Workers[i] = WorkerTimes{Buckets: w.timers}
	}
	r.MissesPerLevel = make([]int64, e.m.NumLevels())
	for lvl := 1; lvl < e.m.NumLevels(); lvl++ {
		r.MissesPerLevel[lvl] = e.h.MissesAt(lvl)
	}
	if f := e.flt; f != nil {
		r.Migrations = f.migrations
		r.FaultEvents = f.eventsFired
		r.OfflineCycles = f.offlineCycles
	}
	r.FaultEvents += e.dynFlushes
	return r
}
