package job

// Scripted is implemented by jobs whose strand body is a prerecorded op
// script (see internal/opcode for the bytecode) rather than live Go
// code. The simulator runs every strand as such an op stream: it
// interprets a Scripted strand's Script directly, where any other
// strand's ops must first be captured by running its code through a Ctx.
// Run must remain a faithful equivalent: executing it through a Ctx must
// perform exactly the accesses, work charges and terminal fork that
// Script/ScriptFork describe (the simulator calls it while a recorder
// has to see every access).
type Scripted interface {
	Job
	// Script returns the strand's encoded op stream: the shared arena and
	// the [lo, hi) byte range holding this strand's ops. Address deltas
	// decode against a previous address starting at 0.
	Script() (ops []byte, lo, hi int64)
	// ScriptFork returns the strand's terminal fork: the continuation (nil
	// when the parallel block has none) and the child jobs. An empty child
	// list with a nil cont means the strand ends without forking; an empty
	// child list with a non-nil cont is a degenerate fork whose
	// continuation becomes runnable immediately (partitioned replays use
	// it for spine strands whose children were split off).
	ScriptFork() (cont Job, children []Job)
}

// StreamScripted is a Scripted whose Script bytes are leased from a
// bounded decode window rather than borrowed from a resident arena: the
// runtime must hand the returned buffer back through ReleaseScript once
// the strand has fully executed, so the window can recycle it. Script may
// be called again after a release (it fetches a fresh lease); the two
// calls return byte-identical op streams.
type StreamScripted interface {
	Scripted
	// ReleaseScript returns the buffer obtained from Script. Passing a
	// slice not obtained from Script on the same job is a bug.
	ReleaseScript(ops []byte)
}

// ForkScript ends scripted strand j through ctx with its recorded terminal
// fork: Fork when it has children, ForkAwait with no futures when it has
// only a continuation (the empty block joins at once and releases it), and
// nothing when it has neither. Every executor of a scripted strand — the
// engine, and Run on any Ctx — ends it here.
func ForkScript(ctx Ctx, j Scripted) {
	switch cont, kids := j.ScriptFork(); {
	case len(kids) > 0:
		ctx.Fork(cont, kids...)
	case cont != nil:
		ctx.ForkAwait(cont, nil)
	}
}
