// Package job defines the nested-parallel program model of the paper (§2,
// §3.1): computations are built from Jobs composed with fork and join, and
// decompose into tasks, parallel blocks and strands.
//
// A strand is a serial run of instructions; in this framework it is one
// execution of Job.Run. As in the paper's interface, "the control flow of
// this function is sequential with a terminal fork or join call": Run either
// calls Ctx.Fork exactly once as its final action (creating a parallel block
// of child tasks plus an optional continuation strand of the same task), or
// returns without forking, which ends the task's current strand sequence and
// joins upward.
//
// Space-bounded schedulers require size annotations; Jobs provide them by
// additionally implementing SBJob (the paper's SBJob subclass with
// size(block_size) and strand_size(block_size)). Schedulers that do not need
// annotations ignore them, so the same program runs under every scheduler.
package job

import "repro/internal/mem"

// Ctx is the per-strand execution context supplied by the runtime. It
// carries the memory-access channel into the cache simulator, the compute
// cost channel, and the fork primitive.
type Ctx interface {
	// Access performs a simulated memory access (see mem.Accessor). The
	// runtime may simulate its cost after the call returns: the strand's
	// accesses and work charges are its op stream, simulated in program
	// order, so strand code must not depend on when it runs.
	Access(a mem.Addr, write bool)
	// Work charges pure compute cycles to the running core.
	Work(cycles int64)
	// Fork ends this strand with a parallel block of children, followed —
	// after all children complete — by the continuation strand cont of the
	// same task. cont may be nil (the task ends when the children join).
	// Fork must be called at most once per strand, as its final action;
	// the same exclusivity applies across Fork, ForkFuture and ForkAwait.
	Fork(cont Job, children ...Job)
	// ForkFuture ends this strand by spawning body as a future task bound
	// to handle f; unlike Fork the continuation cont is NOT gated on the
	// future — it becomes runnable immediately. The spawning task still
	// does not complete until the future does. cont may be nil.
	ForkFuture(cont Job, f *Future, body Job)
	// ForkAwait ends this strand with a parallel block of children (which
	// may be empty) and gates the continuation cont on the children AND on
	// every listed future. cont must be non-nil.
	ForkAwait(cont Job, futures []*Future, children ...Job)
}

// Job is a task body: one strand of sequential code ending in an optional
// terminal fork.
type Job interface {
	Run(ctx Ctx)
}

// SBJob is a Job annotated with its memory footprint, required by
// space-bounded schedulers (§3.1). Size reports S(t;B) — the number of
// bytes in distinct B-byte cache lines touched by the whole task — and
// StrandSize reports S(ℓ;B) for the job's first strand alone.
type SBJob interface {
	Job
	// Size returns the task's footprint in bytes for line size block.
	Size(block int64) int64
	// StrandSize returns the first strand's footprint in bytes.
	StrandSize(block int64) int64
}

// FuncJob adapts a plain function to the Job interface (unannotated).
type FuncJob func(Ctx)

// Run implements Job.
func (f FuncJob) Run(ctx Ctx) { f(ctx) }

// Sized wraps a Job with explicit size annotations, turning it into an
// SBJob. StrandBytes <= 0 means "defaults to the task size", the paper's
// rule for strands without their own annotation.
type Sized struct {
	J           Job
	Bytes       int64
	StrandBytes int64
}

// Run implements Job.
func (s Sized) Run(ctx Ctx) { s.J.Run(ctx) }

// Size implements SBJob.
func (s Sized) Size(int64) int64 { return s.Bytes }

// StrandSize implements SBJob.
func (s Sized) StrandSize(int64) int64 {
	if s.StrandBytes > 0 {
		return s.StrandBytes
	}
	return s.Bytes
}

// SizeOf returns S(t;B) for j, or -1 if j carries no annotation.
func SizeOf(j Job, block int64) int64 {
	if sb, ok := j.(SBJob); ok {
		return sb.Size(block)
	}
	return -1
}

// StrandSizeOf returns S(ℓ;B) for j's first strand, or -1 if unannotated.
func StrandSizeOf(j Job, block int64) int64 {
	if sb, ok := j.(SBJob); ok {
		return sb.StrandSize(block)
	}
	return -1
}

// Kind distinguishes the two ways a strand is spawned (§3.1: add is called
// for each new task at a fork, and for the continuation at a join).
type Kind uint8

const (
	// TaskStart is the first strand of a newly forked task.
	TaskStart Kind = iota
	// Continuation is a later strand of an existing task, spawned when a
	// parallel block joins.
	Continuation
)

func (k Kind) String() string {
	if k == TaskStart {
		return "task"
	}
	return "cont"
}

// Task is the runtime record of one task: the serial composition of strands
// interleaved with parallel blocks (§2). Tasks are created by the engine at
// fork points and threaded to schedulers through Strands.
type Task struct {
	// ID is unique within a run; the root task has ID 1.
	ID uint64
	// Parent is the enclosing task; nil for the root.
	Parent *Task
	// Depth is the nesting depth (root = 0).
	Depth int
	// Job is the job that defines the task.
	Job Job
	// SizeBytes caches S(t;B) for the machine's line size; -1 when the job
	// carries no annotation.
	SizeBytes int64

	// BlockPending counts the dependencies (children of the current
	// parallel block, plus awaited futures) gating the continuation.
	// Engine-managed.
	BlockPending int
	// ChildPending counts all live child tasks, including future children
	// that do not gate the continuation; a task completes only when its
	// strand sequence is over and ChildPending is zero. Engine-managed.
	ChildPending int
	// FinalDone records that the task's last strand has returned (its
	// strand sequence is over). Engine-managed.
	FinalDone bool
	// Ended records that the task has fully completed (idempotence guard
	// for completion cascades). Engine-managed.
	Ended bool
	// Cont is the continuation strand to spawn when BlockPending reaches
	// zero.
	Cont Job
	// Handle is non-nil for future tasks: the Future resolved when this
	// task completes.
	Handle *Future

	// AnchorLevel and AnchorNode identify the cache this task is anchored
	// to by a space-bounded scheduler (-1, -1 when unanchored). For other
	// schedulers they stay -1. Exposed so traces can validate anchoring.
	AnchorLevel int
	AnchorNode  int

	// Sched is scheduler-private per-task state.
	Sched any
}

// Strand is the unit of work exchanged with schedulers: one pending
// execution of a Job on behalf of a Task.
type Strand struct {
	// ID is unique within a run.
	ID uint64
	// Task is the task this strand belongs to.
	Task *Task
	// Job is the code of this strand.
	Job Job
	// Kind records how the strand was spawned.
	Kind Kind
	// SizeBytes caches S(ℓ;B); falls back to the task size when the
	// strand's job is unannotated (the paper's default rule).
	SizeBytes int64

	// Sched is scheduler-private per-strand state.
	Sched any

	// Spawn, Start and End are simulated timestamps filled by the engine
	// (§2's spawn/start/end times); Proc is the executing core.
	Spawn, Start, End int64
	Proc              int

	// SpawnedBy is the strand whose completion made this strand runnable
	// (the fork point for task starts, the last-finishing dependency for
	// continuations); nil for the root strand. It reconstructs the
	// series-parallel dependence DAG for work/span analysis.
	SpawnedBy *Strand
}
