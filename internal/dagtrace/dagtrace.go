// Package dagtrace captures the computation of a deterministic
// nested-parallel program as a compact, schedule-independent trace, and
// replays it under any scheduler, cost model or bandwidth setting.
//
// The paper's experiment grids (Figs. 5-10) sweep schedulers and DRAM-link
// counts over deterministic kernels: for a fixed (kernel, input seed) the
// fork/join DAG and every strand's memory-address stream are identical in
// every cell — only the schedule and the cache/link state differ. (Cole &
// Ramachandran's general-scheduler cache-cost bounds and Gu et al.'s
// work-stealing analyses rest on exactly this schedule-independence of the
// computation.) A recording holds the spawn/sync tree — one node per
// strand, with the task and strand space declarations space-bounded
// schedulers read — plus each strand's access script (delta-encoded
// addresses, read/write bits, interleaved compute charges), laid out in
// one op region in the order the strands finished. Record captures it by
// running the program sequentially, with nothing simulated; a Recorder
// attached to a live simulation captures the same computation. Wherever
// the op region lives — in memory (Recorder.Finish) or in the frames of a
// DGTS file (NewStream) — the recording is one type, StreamTrace, which
// replays it by feeding the identical op stream through the cache
// simulator via the ordinary job.Job interface, so a replay run is
// bit-identical to a live run under the same (machine, scheduler, cost
// model, seed): the golden equivalence suite in internal/exp pins this. A
// StreamCache records each computation once and hands every cell of a
// grid its recording.
//
// Traces only capture pure fork/join programs: futures (ForkFuture /
// ForkAwait) introduce cross-task dependencies whose replay order the
// spawn tree alone cannot express, and multi-root streams interleave
// arrivals; both abort recording with ErrUnsupported so callers fall back
// to live execution.
package dagtrace

import (
	"errors"

	"repro/internal/opcode"
)

// ErrUnsupported marks a computation the trace model cannot express
// (futures, multiple roots). Recording fails softly: callers run live.
var ErrUnsupported = errors.New("dagtrace: computation not traceable")

// The op bytecode itself lives in internal/opcode so the sim engine can
// share it; the local names keep this package's
// call sites short.
const (
	opRead  = opcode.Read
	opWrite = opcode.Write
	opWork  = opcode.Work

	opTagBits = opcode.TagBits
	opTagMask = opcode.TagMask
)

func zigzag(v int64) uint64   { return opcode.Zigzag(v) }
func unzigzag(u uint64) int64 { return opcode.Unzigzag(u) }

func appendUvarint(b []byte, v uint64) []byte { return opcode.AppendUvarint(b, v) }

// node is one strand of the recorded computation. Offsets index the op
// region and the child-index table of the owning trace, keeping the whole
// DAG in three flat allocations regardless of strand count.
type node struct {
	// taskSize and strandSize are the space declarations (S(t;B) and
	// S(ℓ;B)) the live run resolved for this strand's task and for the
	// strand itself; -1 when the original job was unannotated.
	taskSize   int64
	strandSize int64
	// opOff/opEnd delimit the strand's access script in the op region.
	opOff, opEnd int64
	// cont is the node index of the task's next strand, spawned when this
	// strand's parallel block joins; -1 when this strand ends the task's
	// strand sequence.
	cont int32
	// childOff/childEnd delimit this strand's forked child tasks (their
	// first strands) in the child-index table.
	childOff, childEnd int32
}

// Trace is the recording type's former name, kept as an alias because
// bench/schedperf still spells it: a finished recording is a StreamTrace,
// in memory (Recorder.Finish) or in a DGTS file (OpenStream).
type Trace = StreamTrace
