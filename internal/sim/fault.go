package sim

import (
	"repro/internal/fault"
	"repro/internal/sched"
)

// faultState is the engine-side machinery of fault injection: the
// compiled event list plus the current perturbation state of the machine.
// It exists only when Config.Faults is a non-empty plan, so unfaulted
// runs pay a single nil check on each hot path and are bit-identical to
// builds without fault injection at all.
type faultState struct {
	events []fault.Event
	idx    int
	// mult[core] is the active straggler dilation in percent (100 =
	// nominal); offline[core] marks cores taken down. Both are indexed by
	// logical core id.
	mult    []int64
	offline []bool
	// baseLineService restores nominal DRAM bandwidth between phases.
	baseLineService int64

	// Diagnostics surfaced in Result (excluded from fingerprints).
	migrations    int64
	eventsFired   int
	offlineCycles int64
}

// newFaultState compiles cfg.Faults; it returns nil for an absent or
// empty plan. Compile errors panic — Run/RunStream validate the plan
// first and return them as proper errors.
func newFaultState(cfg *Config) *faultState {
	if cfg.Faults.Empty() {
		return nil
	}
	evs, err := cfg.Faults.Compile(cfg.Machine)
	if err != nil {
		panic(errMachine(err).Error())
	}
	n := cfg.Machine.NumCores()
	f := &faultState{
		events:          evs,
		mult:            make([]int64, n),
		offline:         make([]bool, n),
		baseLineService: cfg.Machine.LineService,
	}
	for i := range f.mult {
		f.mult[i] = 100
	}
	return f
}

// fireFaults applies every event due at or before now, then re-arms
// e.nextFault. Called from the event loop with w the just-popped earliest
// worker, so events apply at the first engine interposition at or after
// their nominal time — scheduler migration costs (CoreDown/CoreUp
// callbacks) are charged to w, the core that observed the fault, which is
// safely out of the worker heap.
func (e *engine) fireFaults(now int64, w *worker) {
	f := e.flt
	for f.idx < len(f.events) && f.events[f.idx].Time <= now {
		ev := f.events[f.idx]
		f.idx++
		f.eventsFired++
		switch ev.Kind {
		case fault.KindStragglerOn:
			f.mult[ev.Core] = ev.Arg
		case fault.KindStragglerOff:
			f.mult[ev.Core] = 100
		case fault.KindCoreDown:
			if f.offline[ev.Core] {
				break
			}
			f.offline[ev.Core] = true
			if fa, ok := e.sch.(sched.FaultAware); ok {
				e.curBucket = BucketDone
				f.migrations += int64(fa.CoreDown(ev.Core, w.id))
				e.curBucket = BucketActive
			}
		case fault.KindCoreUp:
			if !f.offline[ev.Core] {
				break
			}
			f.offline[ev.Core] = false
			if fa, ok := e.sch.(sched.FaultAware); ok {
				e.curBucket = BucketDone
				fa.CoreUp(ev.Core, w.id)
				e.curBucket = BucketActive
			}
		case fault.KindBandwidth:
			// pct% of nominal bandwidth = a service slot 100/pct as long.
			e.h.SetLineService(f.baseLineService * 100 / ev.Arg)
		case fault.KindFlush:
			if ev.Node < 0 {
				for _, c := range e.h.Caches(ev.Level) {
					c.Invalidate()
				}
			} else {
				e.h.Caches(ev.Level)[ev.Node].Invalidate()
			}
		}
	}
	if f.idx < len(f.events) {
		e.nextFault = f.events[f.idx].Time
	} else {
		e.nextFault = int64(1)<<62 - 1
	}
}
