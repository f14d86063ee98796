package sim

// Inline execution of scripted strands: when the strand's Job is a
// job.Scripted (a replayed trace node) and no trace recorder is armed,
// the engine interprets the op bytecode directly on its own goroutine
// instead of resuming the worker goroutine to call Run. The simulated
// state transitions are identical to the goroutine path — every op
// executes inside cachesim.RunScript, which applies Access's state change
// per op (an innermost miss takes the same outer walk Access does), and
// every chunk boundary is decided by the same engine.batchable predicate
// wctx.pause asks — so results stay bit-identical; only the host-side
// channel handoff, goroutine switches and per-op call overhead disappear.

import "repro/internal/job"

// beginInline arms inline execution for the strand just acquired by w if
// its job is scripted and no recorder needs the goroutine path. (A
// recording replay must go through wctx so StrandAccess/StrandWork fire;
// correctness there matters, not speed.)
func (e *engine) beginInline(w *worker, j job.Job) {
	if e.rec != nil {
		return
	}
	if f := e.flt; f != nil && f.stragglers {
		// Straggler dilation is applied per charge in wctx.spend; the
		// inline interpreter batches charges inside cachesim.RunScript and
		// cannot reproduce the same integer roundings, so scripted strands
		// take the goroutine path for the whole run. Correctness is
		// unaffected — only the replay speedup is given up.
		return
	}
	if sj, ok := j.(job.Scripted); ok {
		w.sjob = sj
		w.script, w.sip, w.send = sj.Script()
		w.sprev = 0
	}
}

// runInline advances w's scripted strand until its next real chunk yield
// (returns false; resume state saved in w) or until the strand's ops are
// exhausted (returns true; the caller then ends the strand with endInline
// and finishes it exactly like a yieldDone).
//
// Equivalence with the goroutine path, op by op:
//
//   - ops advance inside cachesim.RunScript, which applies the same state
//     transition as wctx.Work / wctx.Access (h.Access) per op, at the
//     clock the op starts at, and stops exactly on the op where
//     cumulative cost crosses the chunk budget — the same op on which
//     wctx.spend would have observed chunkLeft <= 0;
//   - the boundary is decided by engine.batchable as in wctx.pause: a
//     batched boundary records the pop and continues with a fresh budget;
//     a real boundary saves the decode position where pause would have
//     parked the goroutine, and the reset of chunkLeft that pause
//     performs after resume happens at re-entry.
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
		// Re-entry after a real chunk yield: wctx.pause resets the budget
		// after its resume; the inline path resets it here.
		chunkLeft = e.cost.ChunkCycles
	}
	h := e.h
	leaf := w.leaf
	for ip < end {
		nip, nprev, spent := h.RunScript(leaf, ops, ip, end, prev, clock, chunkLeft)
		ip, prev = nip, nprev
		clock += spent
		active += spent
		chunkLeft -= spent
		if chunkLeft > 0 {
			break // budget left: the stream ended
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

// endInline finishes w's scripted strand once runInline has exhausted its
// ops, the way runScripted ends it on the goroutine path: the recorded
// terminal fork goes through the worker's ctx (job.ForkScript), and script
// bytes leased from a streamed trace's decode window go back. Like
// beginInline it runs once per strand, not per op.
func (w *worker) endInline() {
	job.ForkScript(&w.ctx, w.sjob)
	if ss, ok := w.sjob.(job.StreamScripted); ok {
		ss.ReleaseScript(w.script)
	}
	w.script, w.sjob = nil, nil
}
