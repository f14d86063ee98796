package sim

// Strand execution. Every strand runs the same way: when a worker takes
// it, beginInline hands the worker the strand's op stream (internal/opcode
// bytecode), and runInline interprets that stream on the engine goroutine
// through cachesim.RunScript, one chunk of simulated cycles at a time. A
// replayed strand (a job.Scripted) brings its recorded ops; any other
// strand's code runs to completion at once, and the ops it emits are
// captured into the worker's buffer (wctx).
//
// Running a strand's code when its core takes it, rather than spread over
// its chunks, is exact because no strand reads data that a strand
// overlapping it in time writes (the program model has no determinacy
// races; dagtrace.Record relies on the same property): the code emits the
// same ops in the same order whenever it runs. RunScript applies Access's
// state change to each op at the clock the op starts at, so the cache
// model sees the ops as if each access were simulated the moment the code
// performs it.

import "repro/internal/job"

// beginInline readies the strand that w has just taken for runInline. A
// scripted strand hands over its recorded ops, unless a recorder is
// armed: the recorder must see every access, so then — as for every
// strand that is not scripted — the strand's code runs to completion
// here, its ops captured into w's buffer and its terminal fork into
// w.fork. A panic in the code fails the run.
func (e *engine) beginInline(w *worker, j job.Job) {
	w.sprev = 0
	if sj, ok := j.(job.Scripted); ok && e.rec == nil {
		w.sjob = sj
		w.script, w.sip, w.send = sj.Script()
		return
	}
	if w.ctx.ops == nil {
		e.carveOpBuffers()
	}
	if err := w.ctx.capture(j); err != nil {
		e.err = err
		return
	}
	w.script, w.sip, w.send = w.ctx.ops, 0, int64(len(w.ctx.ops))
}

// carveOpBuffers gives every worker's capture buffer a 1 KiB start, all
// carved from one slab, when the run's first live strand starts; buffers
// that outgrow it reallocate on their own, and a replay never pays for
// them.
func (e *engine) carveOpBuffers() {
	const size = 1 << 10
	slab := make([]byte, size*len(e.workers))
	for i, w := range e.workers {
		w.ctx.ops = slab[i*size : i*size : (i+1)*size]
	}
}

// batchable reports whether worker w's chunk boundary at simulated time
// clock can be batched away: skipped — only w.virtualPop records the pop
// the engine would have performed — because it is provably unobservable.
//
// No sampler may be armed, no fault event and no injection due at or
// before clock (otherwise the engine must interpose), and one of:
//
//   - w runs the only live strand: every event the engine would
//     interleave before this strand's next real boundary is a failed idle
//     poll, and engine.drainIdle replays exactly those (in heap order)
//     before the strand's fork publishes; or
//   - w still orders strictly before every other worker in the heap: the
//     engine would push and immediately re-pop it, touching nothing —
//     drainIdle then has nothing to replay.
//
// Every term of the condition only changes through engine actions, and
// none runs while runInline interprets a strand, so the decision cannot
// be invalidated between boundaries.
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

// runInline advances w's strand until its next real chunk boundary
// (returns false; the decode position is saved in w) or until its ops are
// exhausted (returns true; the caller then ends the strand with endInline
// and finishes it).
//
//   - Ops advance inside cachesim.RunScript, which charges each op at the
//     clock it starts at and stops on the op where the cumulative cost
//     reaches the chunk budget.
//   - A straggler core's ops run one per RunScript call (a budget of one
//     cycle), and each op's cost is dilated on its own: every nominal
//     cycle costs mult/100 cycles, in integer arithmetic, so the dilation
//     is exactly reproducible. mult only changes when a fault fires, and
//     batchable turns a fault's due time into a real boundary, so it holds
//     for the whole call.
//   - At the budget's end, engine.batchable decides the boundary: a
//     batched one records the pop and continues with a fresh budget; a
//     real one returns, and the budget is reset when the engine next
//     steps w.
//
// The worker's clock, active-bucket time and chunk budget accumulate in
// locals and are flushed at every exit; nothing reads them in between
// (RunScript takes the clock as an argument, and nothing re-enters the
// engine while the loop runs).
//
//schedlint:hotpath
func (e *engine) runInline(w *worker) bool {
	ops, ip, end := w.script, w.sip, w.send
	prev := w.sprev
	clock := w.clock
	chunkLeft := w.chunkLeft
	var active int64
	if chunkLeft <= 0 {
		chunkLeft = e.cost.ChunkCycles // re-entry after a real boundary
	}
	mult := int64(100)
	if f := e.flt; f != nil {
		mult = f.mult[w.id]
	}
	h := e.h
	leaf := w.leaf
	for ip < end {
		var spent int64
		if mult == 100 {
			ip, prev, spent = h.RunScript(leaf, ops, ip, end, prev, clock, chunkLeft)
		} else {
			ip, prev, spent = h.RunScript(leaf, ops, ip, end, prev, clock, 1)
			spent = spent * mult / 100
		}
		clock += spent
		active += spent
		chunkLeft -= spent
		if chunkLeft > 0 {
			continue // budget left: the stream ended, or a straggler's op did
		}
		if e.batchable(w, clock) {
			w.virtualPop = clock
			chunkLeft = e.cost.ChunkCycles
			continue
		}
		w.sip, w.sprev = ip, prev
		w.clock = clock
		w.timers[BucketActive] += active
		w.chunkLeft = chunkLeft
		return false
	}
	w.clock = clock
	w.timers[BucketActive] += active
	w.chunkLeft = chunkLeft
	return true
}

// endInline ends w's strand once runInline has exhausted its ops. A
// scripted strand's recorded terminal fork goes through the worker's ctx
// (job.ForkScript, as a scripted job's Run ends it), and script bytes
// leased from a streamed trace's decode window go back; a captured
// strand's fork is already in w.fork. Like beginInline it runs once per
// strand, not per op.
func (w *worker) endInline() {
	if sj := w.sjob; sj != nil {
		job.ForkScript(&w.ctx, sj)
		if ss, ok := sj.(job.StreamScripted); ok {
			ss.ReleaseScript(w.script)
		}
		w.sjob = nil
	}
	w.script = nil
}
