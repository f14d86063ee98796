// Package fault describes deterministic machine perturbations — straggler
// cores, core offline/online events, DRAM bandwidth jitter and cache-flush
// interference — injected into a simulation run from the engine's event
// loop.
//
// A Plan is pure data: a set of timed events against the simulated
// machine. The engine applies each event when the simulated clock first
// reaches its time, so a run under a fixed (machine, program, scheduler,
// seed, plan) tuple is bit-for-bit reproducible; golden fingerprints stay
// pinned per fault seed. All randomness used to *build* plans (scenario
// generators in scenario.go) draws from internal/xrand. Crucially, faults
// are machine-side only: they never alter the program DAG, so recorded
// dagtrace captures remain valid replay sources under any plan.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Straggler slows one core over a timed phase: every cycle the core would
// spend executing program work costs Percent/100 cycles instead. Percent
// is an integer ≥ 100 so the dilation is exact integer arithmetic
// (cycles*Percent/100) and therefore deterministic.
type Straggler struct {
	Core    int   // logical core id
	Start   int64 // phase start, simulated cycles
	End     int64 // phase end; <= Start means "until the run ends"
	Percent int64 // cycle-time multiplier in percent; 100 = nominal
}

// Outage takes one core offline at Down and back online at Up. While
// offline the core finishes the strand it is running (drain — execution
// state lives on the worker, mid-strand migration is not modelled) and
// then stops polling the scheduler; its queued work is migrated by the
// scheduler's CoreDown callback. Up <= Down means the core never returns.
type Outage struct {
	Core int
	Down int64
	Up   int64
}

// BandwidthPhase sets the available DRAM bandwidth to Percent of nominal
// from Start onward (until the next phase). The per-line service slot
// widens to LineService*100/Percent, generalising the paper's static
// {100,75,50,25}% memory-bandwidth knob into a piecewise schedule.
type BandwidthPhase struct {
	Start   int64
	Percent int64 // available bandwidth in percent, 1..100
}

// Flush invalidates every line of the caches it names at Time, modelling
// a burst of interfering work (co-tenant, OS) wiping cache state. Node
// selects one cache at Level; Node < 0 flushes all caches at that level.
// Hit/miss counters are preserved — only residency is lost.
type Flush struct {
	Time  int64
	Level int // machine cache level; 1 = outermost (L3 on the Xeon)
	Node  int // cache id within Level, or -1 for all
}

// Plan is a complete perturbation schedule for one run. The zero value
// (and nil) is the unperturbed machine; the engine guarantees a nil or
// empty Plan reproduces unfaulted fingerprints exactly.
type Plan struct {
	Stragglers []Straggler      `json:"stragglers,omitempty"`
	Outages    []Outage         `json:"outages,omitempty"`
	Bandwidth  []BandwidthPhase `json:"bandwidth,omitempty"`
	Flushes    []Flush          `json:"flushes,omitempty"`
}

// Empty reports whether the plan perturbs nothing.
func (p *Plan) Empty() bool {
	return p == nil ||
		len(p.Stragglers) == 0 && len(p.Outages) == 0 &&
			len(p.Bandwidth) == 0 && len(p.Flushes) == 0
}

// Kind discriminates compiled fault events.
type Kind uint8

const (
	// KindStragglerOn sets core Core's dilation to Arg percent.
	KindStragglerOn Kind = iota
	// KindStragglerOff restores core Core to nominal speed.
	KindStragglerOff
	// KindCoreDown takes core Core offline.
	KindCoreDown
	// KindCoreUp brings core Core back online.
	KindCoreUp
	// KindBandwidth sets DRAM bandwidth to Arg percent of nominal.
	KindBandwidth
	// KindFlush invalidates cache (Level, Node); Node < 0 = whole level.
	KindFlush
)

// Event is one compiled perturbation, applied when the simulated clock
// first reaches Time. Events at equal times apply in slice order, which
// Compile makes deterministic (plan-field order, then element order).
type Event struct {
	Time  int64
	Kind  Kind
	Core  int
	Arg   int64
	Level int
	Node  int
}

// Validate checks the plan against a machine description: core ids and
// cache coordinates in range, multipliers and percentages in their
// domains, and — so that a run can always make progress — at no point may
// every core be offline simultaneously.
func (p *Plan) Validate(m *machine.Desc) error {
	_, err := p.Compile(m)
	return err
}

// Compile flattens the plan into a time-sorted event list, validating it
// against m. The sort is stable over a deterministic construction order,
// so equal-time events always apply in the same order: stragglers,
// outages (down before up per entry), bandwidth phases, flushes.
func (p *Plan) Compile(m *machine.Desc) ([]Event, error) {
	if p.Empty() {
		return nil, nil
	}
	cores := m.NumCores()
	var evs []Event
	for i, s := range p.Stragglers {
		if s.Core < 0 || s.Core >= cores {
			return nil, fmt.Errorf("fault: straggler %d: core %d out of range [0,%d)", i, s.Core, cores)
		}
		if s.Percent < 100 {
			return nil, fmt.Errorf("fault: straggler %d: percent %d < 100 (stragglers only slow down)", i, s.Percent)
		}
		if s.Start < 0 {
			return nil, fmt.Errorf("fault: straggler %d: negative start %d", i, s.Start)
		}
		evs = append(evs, Event{Time: s.Start, Kind: KindStragglerOn, Core: s.Core, Arg: s.Percent})
		if s.End > s.Start {
			evs = append(evs, Event{Time: s.End, Kind: KindStragglerOff, Core: s.Core})
		}
	}
	for i, o := range p.Outages {
		if o.Core < 0 || o.Core >= cores {
			return nil, fmt.Errorf("fault: outage %d: core %d out of range [0,%d)", i, o.Core, cores)
		}
		if o.Down < 0 {
			return nil, fmt.Errorf("fault: outage %d: negative down time %d", i, o.Down)
		}
		evs = append(evs, Event{Time: o.Down, Kind: KindCoreDown, Core: o.Core})
		if o.Up > o.Down {
			evs = append(evs, Event{Time: o.Up, Kind: KindCoreUp, Core: o.Core})
		}
	}
	for i, b := range p.Bandwidth {
		if b.Percent < 1 || b.Percent > 100 {
			return nil, fmt.Errorf("fault: bandwidth phase %d: percent %d outside [1,100]", i, b.Percent)
		}
		if b.Start < 0 {
			return nil, fmt.Errorf("fault: bandwidth phase %d: negative start %d", i, b.Start)
		}
		evs = append(evs, Event{Time: b.Start, Kind: KindBandwidth, Arg: b.Percent})
	}
	for i, f := range p.Flushes {
		if f.Level < 1 || f.Level > m.CacheLevels() {
			return nil, fmt.Errorf("fault: flush %d: cache level %d outside [1,%d]", i, f.Level, m.CacheLevels())
		}
		if n := m.NodesAt(f.Level); f.Node >= n {
			return nil, fmt.Errorf("fault: flush %d: node %d out of range for level %d (%d nodes)", i, f.Node, f.Level, n)
		}
		if f.Time < 0 {
			return nil, fmt.Errorf("fault: flush %d: negative time %d", i, f.Time)
		}
		evs = append(evs, Event{Time: f.Time, Kind: KindFlush, Level: f.Level, Node: f.Node})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })
	if err := checkLiveness(evs, cores); err != nil {
		return nil, err
	}
	return evs, nil
}

// checkLiveness rejects plans that at any instant leave zero cores
// online: the engine drains offline cores, so a fully-offline machine
// could never finish the remaining work.
func checkLiveness(evs []Event, cores int) error {
	offline := make([]bool, cores)
	down := 0
	for _, ev := range evs {
		switch ev.Kind {
		case KindCoreDown:
			if !offline[ev.Core] {
				offline[ev.Core] = true
				down++
			}
			if down == cores {
				return fmt.Errorf("fault: all %d cores offline at t=%d; at least one core must stay online", cores, ev.Time)
			}
		case KindCoreUp:
			if offline[ev.Core] {
				offline[ev.Core] = false
				down--
			}
		}
	}
	return nil
}
