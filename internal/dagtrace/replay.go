package dagtrace

import (
	"repro/internal/job"
	"repro/internal/mem"
)

// streamJob replays one recorded strand — and, through its continuation
// chain, one recorded task. It is allocated once per trace node in the
// StreamTrace's job arena and is immutable, so the same value serves
// every concurrent replay of the trace. It implements job.SBJob by
// returning the space declarations the live run resolved:
// Strand.SizeBytes already holds the strand→task fallback the engine
// applies, so replay reproduces the exact sizes (including the
// unannotated −1 case) every scheduler saw.
//
// Its Script bytes come from wherever the recording lives: one held in
// memory hands out its op region (no copy, no lease), a windowed view
// leases a copy from the frame window. Either way the engine returns them
// through ReleaseScript when the strand completes.
type streamJob struct {
	t *StreamTrace
	n int32
}

var _ job.StreamScripted = (*streamJob)(nil)
var _ job.SBJob = (*streamJob)(nil)

// Run implements job.Job. The engine's inline interpreter executes
// replayed strands without the worker-goroutine handoff; Run is the
// semantically identical fallback (used, e.g., when a replay is itself
// being recorded).
func (j *streamJob) Run(ctx job.Ctx) { runScripted(ctx, j) }

// Script implements job.Scripted with the strand's op bytes.
func (j *streamJob) Script() (ops []byte, lo, hi int64) {
	t := j.t
	n := &t.nodes[j.n]
	if t.r == nil {
		return t.ops, n.opOff, n.opEnd
	}
	buf := t.fetch(n.opOff, n.opEnd)
	return buf, 0, int64(len(buf))
}

// ReleaseScript implements job.StreamScripted: a windowed view takes its
// lease back; a recording held in memory lent nothing.
func (j *streamJob) ReleaseScript(ops []byte) {
	if j.t.r != nil {
		j.t.release(ops)
	}
}

// ScriptFork implements job.Scripted with the recorded terminal fork,
// over child jobs prebuilt in the trace's arenas so a replayed fork
// allocates nothing.
func (j *streamJob) ScriptFork() (cont job.Job, children []job.Job) {
	t := j.t
	n := &t.nodes[j.n]
	if n.childEnd <= n.childOff {
		return nil, nil
	}
	if n.cont >= 0 {
		cont = &t.jobs[n.cont]
	}
	return cont, t.kids[n.childOff:n.childEnd]
}

// Size implements job.SBJob with the recorded S(t;B).
func (j *streamJob) Size(int64) int64 { return j.t.nodes[j.n].taskSize }

// StrandSize implements job.SBJob with the recorded S(ℓ;B).
func (j *streamJob) StrandSize(int64) int64 { return j.t.nodes[j.n].strandSize }

// runScripted is the goroutine-path body of a replayed strand: take the
// script, replay it, hand it back, then perform the terminal fork
// (job.ForkScript, as the engine's inline path does).
func runScripted(ctx job.Ctx, j job.StreamScripted) {
	ops, lo, hi := j.Script()
	replayOps(ctx, ops, lo, hi)
	j.ReleaseScript(ops)
	job.ForkScript(ctx, j)
}

// replayOps is the replay inner loop: decode the strand's op stream and
// feed it through the simulation context. The uvarint decode is hand-rolled
// (no binary.Uvarint call, no slice re-slicing) and the zigzag is inlined,
// so one op costs a few shifts on top of the ctx.Access the live kernel
// would have performed anyway.
//
//schedlint:hotpath
func replayOps(ctx job.Ctx, ops []byte, off, end int64) {
	var prev int64
	for off < end {
		var v uint64
		var shift uint
		for {
			b := ops[off]
			off++
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
			shift += 7
		}
		if tag := v & opTagMask; tag == opWork {
			ctx.Work(int64(v >> opTagBits))
		} else {
			u := v >> opTagBits
			prev += int64(u>>1) ^ -int64(u&1)
			ctx.Access(mem.Addr(prev), tag == opWrite)
		}
	}
}
