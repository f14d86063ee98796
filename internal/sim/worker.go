package sim

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/opcode"
	"repro/internal/xrand"
)

// worker is one simulated core. The engine advances it on the engine
// goroutine, one chunk of its current strand's op stream at a time
// (engine.runInline).
type worker struct {
	id   int // logical core id (scheduler-visible)
	leaf int // leaf position in the cache tree

	clock  int64
	timers [numBuckets]int64
	rng    xrand.Source

	cur *job.Strand

	// ctx is the job.Ctx live strand code runs against on this worker,
	// embedded here (with its reusable op buffer) so running a strand
	// allocates nothing per strand.
	ctx wctx

	// chunkLeft is the remaining simulated-cycle budget before the current
	// chunk ends.
	chunkLeft int64

	// virtualPop is the simulated time at which the engine (actually or
	// virtually) last popped this worker to run its current chunk. When a
	// chunk boundary is batched away (see engine.batchable), the pop that
	// fine-grained execution would have performed is recorded here so the
	// engine can later replay the idle polls that ordered before it.
	virtualPop int64

	// The current strand's op stream (engine.beginInline): script[sip,
	// send) holds the ops not yet run and sprev is the delta-decoding
	// previous address, saved across chunk boundaries. sjob is the
	// scripted job whose recorded ops these are; it is nil when the ops
	// were captured from the strand's code.
	script []byte
	sjob   job.Scripted
	sip    int64
	send   int64
	sprev  int64

	// Terminal-fork record for the current strand.
	fork job.ForkRecord
}

// wctx implements job.Ctx for live strand code on one worker. capture
// runs the code to completion when the worker takes the strand, and each
// access and work charge is appended to ops as one op in internal/opcode's
// encoding — the bytes dagtrace.Recorder writes — for runInline to
// interpret, after an armed recorder has seen it. ops is reused across
// strands.
type wctx struct {
	w    *worker
	e    *engine
	ops  []byte
	prev int64 // address of the last access, for delta encoding
}

// capture runs strand code j into c.ops, turning a panic in it into the
// run's error.
func (c *wctx) capture(j job.Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: strand panicked on worker %d: %v", c.w.id, r)
		}
	}()
	c.ops, c.prev = c.ops[:0], 0
	j.Run(c)
	return nil
}

// Access implements job.Ctx (and mem.Accessor): append one access op. The
// access is reported to the trace recorder (when armed) first, so
// recorded op streams are in exact program order.
//
//schedlint:hotpath
func (c *wctx) Access(a mem.Addr, write bool) {
	if r := c.e.rec; r != nil {
		r.StrandAccess(c.w.cur, a, write)
	}
	tag := uint64(opcode.Read)
	if write {
		tag = opcode.Write
	}
	c.ops = opcode.AppendUvarint(c.ops, opcode.Zigzag(int64(a)-c.prev)<<opcode.TagBits|tag)
	c.prev = int64(a)
}

// Work implements job.Ctx: append one compute-charge op.
//
//schedlint:hotpath
func (c *wctx) Work(cycles int64) {
	if cycles <= 0 {
		return
	}
	if r := c.e.rec; r != nil {
		r.StrandWork(c.w.cur, cycles)
	}
	c.ops = opcode.AppendUvarint(c.ops, uint64(cycles)<<opcode.TagBits|opcode.Work)
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
// contexts come from the engine's pair pool.
func (c *wctx) AllocForPair() *job.ForPair { return c.e.pairPool.Get() }
