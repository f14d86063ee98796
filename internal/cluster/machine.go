package cluster

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
)

// This file holds the per-machine half of the cluster: one serve.Server
// per machine wrapped in a machineSource that rendezvouses with the
// coordinator at shared virtual-time barriers. Each machine's engine runs
// on its own goroutine and engines may execute host-concurrently between
// barriers, but they share no mutable state — every cross-machine
// interaction flows through the coordinator while the machine is parked
// at a barrier (the evt/cmd channel pair gives the happens-before edges),
// so the co-simulation is deterministic regardless of host interleaving.

// feed is the ArrivalProcess of one machine: a FIFO of already-routed
// arrivals, appended by the coordinator while the machine is parked at a
// barrier. It reports the cluster-wide workload name so a 1-machine
// cluster's report is byte-identical to the equivalent single-machine run.
type feed struct {
	name string
	q    []serve.Arrival
}

func (f *feed) Name() string { return f.name }

func (f *feed) Next() (serve.Arrival, bool) {
	if len(f.q) == 0 {
		return serve.Arrival{}, false
	}
	a := f.q[0]
	f.q = f.q[1:]
	return a, true
}

func (f *feed) JobDone(int64) {}

// completion is one root completion observed by a machine, reported to the
// coordinator at the next barrier.
type completion struct {
	mach  int
	tag   uint64
	stats sim.RootStats
}

// drop is one terminal non-completion (queue-cap drop, shed, or timeout)
// observed by a machine.
type drop struct {
	mach int
	tag  uint64
}

type eventKind uint8

const (
	evBarrier eventKind = iota
	evFinished
)

// machineEvent travels machine→coordinator: either "reached the barrier"
// (with the completions and drops since the previous one) or "engine
// finished" (drain done, or an engine error).
type machineEvent struct {
	kind        eventKind
	completions []completion
	drops       []drop
	res         *sim.Result
	err         error
}

// directive travels coordinator→machine: run to the next barrier, or drain
// to completion. flush models the cold caches of a machine re-entering
// service: the machineSource turns it into an Injection.Flush at the
// barrier time.
type directive struct {
	barrier int64
	drain   bool
	flush   bool
}

// machineSource adapts a machine's serve.Server to the lockstep protocol.
// It implements sim.Source: inner events at or before the barrier pass
// through untouched; once the inner server has nothing left before the
// barrier, the source fast-forwards the engine to the barrier and
// rendezvouses with the coordinator. The rendezvous Pop returns ok=false,
// which the engine treats as bookkeeping — the popped worker is pushed
// back with its clock unchanged — so barriers are invisible to the
// simulation itself: a 1-machine cluster is bit-identical to a plain
// serving run.
type machineSource struct {
	inner *serve.Server
	// barrier is the next coordinator event time; draining disables
	// barriers entirely (the cluster has no more coordinator events and
	// every machine just runs dry).
	barrier  int64
	draining bool

	evtc chan machineEvent
	cmdc chan directive

	mach        int
	completions []completion
	drops       []drop
}

// Pending implements sim.Source: the earlier of the inner server's next
// event and the barrier. While draining there is no barrier.
func (s *machineSource) Pending() (int64, bool) {
	t, ok := s.inner.Pending()
	if s.draining {
		return t, ok
	}
	if ok && t <= s.barrier {
		return t, true
	}
	return s.barrier, true
}

// Pop implements sim.Source. Inner events strictly before (or at) the
// barrier are served first, preserving the server's equal-time event
// order; reaching the barrier hands the baton to the coordinator and
// blocks until it answers with the next directive.
func (s *machineSource) Pop() (sim.Injection, bool) {
	if t, ok := s.inner.Pending(); ok && (s.draining || t <= s.barrier) {
		return s.inner.Pop()
	}
	ev := machineEvent{kind: evBarrier, completions: s.completions, drops: s.drops}
	s.completions = nil
	s.drops = nil
	s.evtc <- ev
	d := <-s.cmdc
	s.barrier = d.barrier
	s.draining = d.drain
	if d.flush {
		return sim.Injection{Flush: &fault.Flush{Level: -1, Node: -1}}, true
	}
	return sim.Injection{}, false
}

// Done implements sim.Source: forward to the server and record the
// completion for the coordinator.
func (s *machineSource) Done(tag uint64, r sim.RootStats) {
	s.inner.Done(tag, r)
	s.completions = append(s.completions, completion{mach: s.mach, tag: tag, stats: r})
}

// jobMeta is the coordinator's routing-time record of one job, indexed by
// the machine-local tag (the server assigns tags in feed order, so tag ==
// index into meta).
type jobMeta struct {
	tenant  int
	sig     uint64
	arrival int64
}

// machineState is the coordinator's view of one machine.
type machineState struct {
	id        int
	srv       *serve.Server
	sc        sched.Scheduler
	schedName string
	feed      *feed
	src       *machineSource

	// active machines accept routed work; draining ones finish what they
	// have before deactivating (autoscaler scale-down).
	active   bool
	draining bool

	// outstanding counts routed-but-unfinished jobs (in queue, in flight,
	// or pending in the feed); perTenant splits it by tenant for the
	// fair-share tie-break.
	outstanding int
	perTenant   []int

	meta []jobMeta
	// sigBySeed maps a routed job's seed to its working-set signature, read
	// by the dispatcher on the machine's engine goroutine (the coordinator
	// only writes while the machine is parked at a barrier, so the channel
	// rendezvous orders every write before the read).
	sigBySeed map[uint64]uint64
	datasets  map[uint64]mem.F64

	// coldFlush is latched by a scale-up and delivered with the next
	// directive.
	coldFlush bool

	finished bool
	res      *sim.Result
	err      error
}

// newMachineState builds one machine: its own address space, scheduler
// instance, admission stack (parsed fresh from the shared spec) and
// server, plus the lockstep source. Nothing runs until start.
func newMachineState(cfg *Config, id int, tenants int) (*machineState, error) {
	ms := &machineState{
		id:        id,
		feed:      &feed{name: cfg.Arrivals.Name()},
		active:    true,
		perTenant: make([]int, tenants),
		sigBySeed: make(map[uint64]uint64),
		datasets:  make(map[uint64]mem.F64),
	}
	adm, err := serve.ParseAdmission(cfg.Admission)
	if err != nil {
		return nil, fmt.Errorf("cluster: machine %d: %w", id, err)
	}
	ms.src = &machineSource{
		mach: id,
		evtc: make(chan machineEvent),
		cmdc: make(chan directive),
	}
	srv, sc, err := serve.NewServer(serve.Config{
		Machine:   cfg.Machine,
		Scheduler: cfg.Scheduler,
		Arrivals:  ms.feed,
		Admission: adm,
		Seed:      cfg.Seed + uint64(id)*clusterSeedStep,
		LinksUsed: cfg.LinksUsed,
		Dispatch:  ms.dispatch(cfg),
		OnDropped: func(rec *serve.JobRecord) {
			ms.src.drops = append(ms.src.drops, drop{mach: id, tag: rec.Tag})
		},
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: machine %d: %w", id, err)
	}
	ms.srv = srv
	ms.sc = sc
	ms.schedName = sc.Name()
	ms.src.inner = srv
	return ms, nil
}

// dispatch returns the machine's kernel builder. Working-set kernels
// ("wset") run over a per-(machine, signature) shared dataset, so repeated
// requests with the same working set find it resident — the locality the
// anchor-affinity router exploits. Everything else takes the default
// per-job construction. Runs on the machine's engine goroutine.
func (ms *machineState) dispatch(cfg *Config) serve.Dispatcher {
	return func(spec serve.JobSpec) (kernels.Kernel, error) {
		if strings.EqualFold(spec.Kernel, "wset") {
			sig := ms.sigBySeed[spec.Seed]
			d, ok := ms.datasets[sig]
			if !ok {
				d = kernels.NewWSetData(ms.srv.Space(), fmt.Sprintf("wset.%016x", sig), spec.N, sig|1)
				ms.datasets[sig] = d
			}
			return kernels.NewWSet(ms.srv.Space(), kernels.WSetConfig{Data: &d, Seed: spec.Seed}), nil
		}
		return core.NewKernel(spec.Kernel, ms.srv.Space(), cfg.Machine, core.BenchOpts{N: spec.N, Seed: spec.Seed})
	}
}

// start launches the machine's engine toward the initial barrier (already
// stored in the source). The machine runs only between receiving a
// directive and sending its next event; the coordinator touches the
// machine's state only in the complementary window.
func (ms *machineState) start(cfg *Config) {
	simCfg := sim.Config{
		Machine:   cfg.Machine,
		Space:     ms.srv.Space(),
		Scheduler: ms.sc,
		Seed:      cfg.Seed + uint64(ms.id)*clusterSeedStep,
	}
	src := ms.src
	go func() { //schedlint:ignore nondeterminism lockstep co-simulation: engines share no state and synchronize with the coordinator only at virtual-time barriers, so host interleaving cannot reach simulated state
		res, err := sim.RunStream(simCfg, src)
		src.evtc <- machineEvent{kind: evFinished, completions: src.completions, drops: src.drops, res: res, err: err}
	}()
}

// takeCold consumes the latched cold-start flush flag.
func (ms *machineState) takeCold() bool {
	c := ms.coldFlush
	ms.coldFlush = false
	return c
}
