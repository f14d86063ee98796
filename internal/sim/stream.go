package sim

import (
	"repro/internal/fault"
	"repro/internal/job"
)

// This file is the online half of the engine: a simulation that accepts
// root jobs *while it runs*. A Source feeds Injections — root tasks with
// arrival semantics decided by the caller (open-loop arrivals, admission
// control, closed-loop feedback) — and is notified as each injected root
// completes, so sources can react to completions in simulated time. The
// batch entry point Run is the one-shot special case of this mechanism.

// Injection is one root job entering a running simulation.
type Injection struct {
	// Tag is the caller's correlation id, echoed back in Source.Done.
	Tag uint64
	// Job is the root job to spawn. Multiple injected roots coexist: their
	// tasks compete for the same caches under the same scheduler. Job may
	// be nil when the injection carries only a Flush.
	Job job.Job
	// Flush, if non-nil, invalidates the named caches at injection time —
	// before Job (if any) spawns. Unlike a fault.Plan flush, whose times
	// are compiled at engine construction, an injected flush fires at a
	// time the source chose while the run was already underway; the
	// cluster autoscaler uses it to model the cold caches of a machine
	// re-entering service. Flush.Time is ignored (the injection's own
	// timing governs); Level < 0 flushes every cache level.
	Flush *fault.Flush
}

// RootStats reports the lifecycle timestamps (simulated cycles) of one
// injected root task.
type RootStats struct {
	// Enqueued is when the root strand was handed to the scheduler.
	Enqueued int64
	// Start is when the root task's first strand began executing.
	Start int64
	// End is when the root task and all of its descendants completed.
	End int64
}

// Source feeds root jobs into a running simulation. All methods are called
// on the engine goroutine, so implementations need no locking; any state
// they keep must be updated deterministically for runs to stay
// reproducible.
type Source interface {
	// Pending returns the simulated time of the source's earliest pending
	// event, or ok=false when none is currently pending (stream exhausted,
	// or waiting on a completion). The engine polls it every event-loop
	// iteration.
	Pending() (t int64, ok bool)
	// Pop consumes the pending event once simulated time reaches it. It
	// returns ok=false when the event was internal bookkeeping (e.g. an
	// arrival that admission control queued or dropped) and produced no
	// injection.
	Pop() (Injection, bool)
	// Done reports that the root task injected with tag has fully
	// completed. It may cause new pending events (closed-loop arrivals,
	// admission-queue releases).
	Done(tag uint64, r RootStats)
}

// oneShot is the Source behind the batch Run entry point: a single root
// injected at time zero.
type oneShot struct {
	root job.Job
	done bool
}

func (o *oneShot) Pending() (int64, bool) { return 0, !o.done }

func (o *oneShot) Pop() (Injection, bool) {
	o.done = true
	return Injection{Job: o.root}, true
}

func (o *oneShot) Done(uint64, RootStats) {}

// RunStream executes every root job the source injects, from simulated
// time zero until the source has no pending events and all injected roots
// have completed, and returns the measured Result. Injection events are
// interleaved with worker events in simulated-time order, and each
// injection's scheduler add is charged to the core that was earliest when
// the injection fired (the core taking the dispatch interrupt).
func RunStream(cfg Config, src Source) (*Result, error) {
	if cfg.Machine == nil || cfg.Space == nil || cfg.Scheduler == nil {
		return nil, errConfig()
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, errMachine(err)
	}
	if src == nil {
		return nil, errNilSource()
	}
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Machine); err != nil {
			return nil, errMachine(err)
		}
	}
	normalizeCosts(&cfg)
	return newEngine(cfg).run(src)
}
