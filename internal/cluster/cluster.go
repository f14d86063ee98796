// Package cluster simulates a multi-machine serving fleet: N identical
// PMH machines, each an independent deterministic simulation engine with
// its own scheduler and address space, advanced in lockstep on a shared
// virtual clock by a coordinator that routes arriving requests, enforces
// per-tenant quotas, and (optionally) autoscales the active set.
//
// The whole cluster run is a pure function of its Config: arrivals are
// drawn and tenanted deterministically, routing reads only coordinator
// state, machines interact solely through barrier rendezvous, and
// completion events are applied in a canonical (time, machine, tag)
// order — so a cluster Report fingerprint reproduces bit-identically
// across repetitions and across permutations of the machine advance
// order, and a 1-machine cluster is bit-identical to the equivalent
// single-machine serving run.
package cluster

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/serve"
)

// clusterSeedStep spaces per-machine engine seeds; same golden-ratio
// constant used for per-job seeds elsewhere. Machine 0 keeps Config.Seed
// exactly, which is what makes the 1-machine cluster bit-identical to a
// plain serving run with the same seed.
const clusterSeedStep = 0x9e3779b97f4a7c15

// Config describes one cluster run.
type Config struct {
	// Machine is the per-machine PMH; all machines are identical. Required.
	Machine *machine.Desc
	// Machines is the fleet size (the autoscaler ceiling). Required, >= 1.
	Machines int
	// Scheduler is the per-machine scheduler name ("ws", "sb", ...).
	Scheduler string
	// Arrivals generates the cluster-wide request stream. Required,
	// single-use, and must be open-loop (Poisson or a trace): the cluster
	// front door never feeds completions back into the process.
	Arrivals serve.ArrivalProcess
	// Routing names the routing policy (see RoutingPolicies); default "rr".
	Routing string
	// Admission is the per-machine admission spec (serve.ParseAdmission),
	// parsed fresh for each machine; default "always".
	Admission string
	// Tenants partitions the arrival stream; empty means single-tenant
	// with no front-door quota.
	Tenants []TenantSpec
	// Scale enables the deterministic autoscaler; nil runs all Machines
	// for the whole run.
	Scale *ScalePolicy
	// Seed drives tenant draws and per-machine scheduler randomness.
	Seed uint64
	// LinksUsed restricts DRAM links per machine; 0 = all.
	LinksUsed int
}

// coordinator is the cluster front door: it owns the arrival stream, the
// tenant and routing state, and the barrier protocol with every machine.
type coordinator struct {
	cfg    *Config
	ms     []*machineState
	router Router

	tenants   []*tenant
	weightSum int

	// home is the anchor-affinity table: working-set signature → sticky
	// machine. Owned by affinityRouter.Pick.
	home map[uint64]int

	// advance is the order machines are received from / directed at each
	// barrier — a permutation of machine ids. It must not affect any
	// observable (the permutation-invariance test exercises this).
	advance []int

	head         *serve.Arrival
	arrExhausted bool
	arrIdx       int

	now       int64
	nextEpoch int64
	cooldown  int
	// latEWMA is the fleet arrival→completion latency EWMA (cycles), an
	// autoscaler signal, updated at each completion in canonical order.
	latEWMA int64

	report *Report
}

// Run executes the cluster to drain: every arrival routed or shed, every
// routed job completed or dropped, all machines finished and verified.
func Run(cfg Config) (*Report, error) {
	return run(&cfg, nil)
}

// run is the advance-order-parameterized entry point; the permutation
// invariance test drives it directly. A nil order means 0..N-1.
func run(cfg *Config, advance []int) (*Report, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("cluster: Config requires a Machine")
	}
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: Machines must be >= 1 (got %d)", cfg.Machines)
	}
	if cfg.Arrivals == nil {
		return nil, fmt.Errorf("cluster: Config requires an ArrivalProcess")
	}
	if cfg.Routing == "" {
		cfg.Routing = "rr"
	}
	if cfg.Admission == "" {
		cfg.Admission = "always"
	}
	router, err := ParseRouting(cfg.Routing)
	if err != nil {
		return nil, err
	}
	tenants, weightSum, err := newTenants(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	if cfg.Scale != nil {
		if cfg.Scale.Epoch <= 0 {
			return nil, fmt.Errorf("cluster: ScalePolicy.Epoch must be positive")
		}
		if cfg.Scale.Min < 1 || cfg.Scale.Min > cfg.Machines {
			return nil, fmt.Errorf("cluster: ScalePolicy.Min %d out of range [1,%d]", cfg.Scale.Min, cfg.Machines)
		}
	}
	if advance == nil {
		advance = make([]int, cfg.Machines)
		for i := range advance {
			advance[i] = i
		}
	} else {
		if err := checkPermutation(advance, cfg.Machines); err != nil {
			return nil, err
		}
	}

	c := &coordinator{
		cfg:       cfg,
		router:    router,
		tenants:   tenants,
		weightSum: weightSum,
		home:      make(map[uint64]int),
		advance:   advance,
	}
	c.report = &Report{
		Routing:          router.Name(),
		Machines:         cfg.Machines,
		Workload:         cfg.Arrivals.Name(),
		PerMachineRouted: make([]int, cfg.Machines),
		Tenants:          make([]TenantReport, len(tenants)),
	}
	for id := 0; id < cfg.Machines; id++ {
		ms, err := newMachineState(cfg, id, len(tenants))
		if err != nil {
			return nil, err
		}
		c.ms = append(c.ms, ms)
	}
	c.report.Scheduler = c.ms[0].schedName
	initialActive := cfg.Machines
	if cfg.Scale != nil {
		initialActive = cfg.Scale.Min
		for _, m := range c.ms[initialActive:] {
			m.active = false
		}
		c.nextEpoch = cfg.Scale.Epoch
	}
	c.report.InitialActive = initialActive

	first, haveRounds := c.firstEventTime()
	for _, m := range c.ms {
		if haveRounds {
			m.src.barrier = first
		} else {
			m.src.draining = true
		}
		m.start(cfg)
	}
	if haveRounds {
		if err := c.rounds(first); err != nil {
			return nil, err
		}
	}
	return c.finish()
}

func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("cluster: advance order has %d entries, want %d", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("cluster: advance order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[i] = true
	}
	return nil
}

// peek buffers the next arrival; open-loop processes return ok=false only
// when exhausted, which is latched.
func (c *coordinator) peek() *serve.Arrival {
	if c.head == nil && !c.arrExhausted {
		if a, ok := c.cfg.Arrivals.Next(); ok {
			c.head = &a
		} else {
			c.arrExhausted = true
		}
	}
	return c.head
}

// firstEventTime is the initial barrier: the earlier of the first arrival
// and the first autoscaler epoch. ok=false means the run has no
// coordinator events at all (empty arrival stream, no autoscaler).
func (c *coordinator) firstEventTime() (int64, bool) {
	a := c.peek()
	if a == nil {
		return 0, false
	}
	t := a.Time
	if c.cfg.Scale != nil && c.cfg.Scale.Epoch < t {
		t = c.cfg.Scale.Epoch
	}
	return t, true
}

// rounds drives the barrier loop from the first coordinator event until
// the arrival stream is exhausted, then switches every machine to drain.
func (c *coordinator) rounds(T int64) error {
	for {
		comps, drops, failed := c.gather()
		if failed {
			return c.abort()
		}
		c.apply(comps, drops)
		c.settleDraining()
		c.now = T

		for a := c.peek(); a != nil && a.Time == T; a = c.peek() {
			arr := *a
			c.head = nil
			c.route(arr)
		}
		if c.cfg.Scale != nil && T == c.nextEpoch {
			c.evaluate(T)
			c.nextEpoch += c.cfg.Scale.Epoch
		}

		nextT := int64(-1)
		if a := c.peek(); a != nil {
			nextT = a.Time
			if c.cfg.Scale != nil && c.nextEpoch < nextT {
				nextT = c.nextEpoch
			}
		}
		if nextT < 0 {
			for _, i := range c.advance {
				c.ms[i].src.cmdc <- directive{drain: true}
			}
			return nil
		}
		for _, i := range c.advance {
			c.ms[i].src.cmdc <- directive{barrier: nextT, flush: c.ms[i].takeCold()}
		}
		T = nextT
	}
}

// gather receives one event from every unfinished machine, in advance
// order. failed reports that some engine finished mid-rounds, which only
// happens on an engine error.
func (c *coordinator) gather() (comps []completion, drops []drop, failed bool) {
	for _, i := range c.advance {
		m := c.ms[i]
		if m.finished {
			failed = true
			continue
		}
		ev := <-m.src.evtc
		comps = append(comps, ev.completions...)
		drops = append(drops, ev.drops...)
		if ev.kind == evFinished {
			m.finished = true
			m.res = ev.res
			m.err = ev.err
			failed = true
		}
	}
	return comps, drops, failed
}

// abort cleans up after a mid-rounds engine failure: every still-running
// machine is directed to drain and its final event consumed, then the
// first error (in machine-id order) is returned.
func (c *coordinator) abort() error {
	for _, m := range c.ms {
		if m.finished {
			continue
		}
		m.src.cmdc <- directive{drain: true}
		ev := <-m.src.evtc
		m.finished = true
		m.res = ev.res
		m.err = ev.err
	}
	for _, m := range c.ms {
		if m.err != nil {
			return fmt.Errorf("cluster: machine %d: %w", m.id, m.err)
		}
	}
	return fmt.Errorf("cluster: a machine engine finished before its stream drained")
}

// apply folds a window's completions and drops into coordinator state.
// Completions are applied in canonical (end time, machine, tag) order —
// the EWMA and per-tenant latency observers are order-sensitive — which
// is what makes the run invariant under advance-order permutations.
// Drops only decrement counters (commutative), so their gather order is
// immaterial.
func (c *coordinator) apply(comps []completion, drops []drop) {
	sort.Slice(comps, func(i, j int) bool {
		a, b := comps[i], comps[j]
		if a.stats.End != b.stats.End {
			return a.stats.End < b.stats.End
		}
		if a.mach != b.mach {
			return a.mach < b.mach
		}
		return a.tag < b.tag
	})
	for _, cp := range comps {
		m := c.ms[cp.mach]
		meta := m.meta[cp.tag]
		m.outstanding--
		lat := cp.stats.End - meta.arrival
		c.latEWMA += (lat - c.latEWMA) / 8
		if meta.tenant >= 0 {
			tn := c.tenants[meta.tenant]
			tn.outstanding--
			tn.completed++
			tn.latencies = append(tn.latencies, float64(lat))
			m.perTenant[meta.tenant]--
			if ob, ok := tn.adm.(serve.LatencyObserver); ok {
				ob.Observe(cp.stats.End, lat)
			}
		}
	}
	for _, d := range drops {
		m := c.ms[d.mach]
		meta := m.meta[d.tag]
		m.outstanding--
		if meta.tenant >= 0 {
			c.tenants[meta.tenant].outstanding--
			m.perTenant[meta.tenant]--
		}
	}
}

// route processes one arrival at the current barrier: draw its tenant,
// apply the tenant's front-door admission, pick a machine, and deliver
// the request into that machine's feed (the machine is parked, so the
// append is ordered before its next directive).
func (c *coordinator) route(a serve.Arrival) {
	idx := c.arrIdx
	c.arrIdx++
	c.report.Arrivals++
	ti := c.tenantOf(idx)
	sig := sigOf(a.Spec, ti)
	var tn *tenant
	if ti >= 0 {
		tn = c.tenants[ti]
		tn.arrivals++
		if sh, ok := tn.adm.(serve.Shedder); ok && sh.ShedNow(a.Time) {
			tn.shed++
			c.report.QuotaShed++
			return
		}
		if !tn.adm.Admit(a.Time, tn.outstanding) {
			tn.shed++
			c.report.QuotaShed++
			return
		}
	}
	mi := c.router.Pick(c, sig, ti)
	if mi < 0 {
		c.report.Unroutable++
		return
	}
	m := c.ms[mi]
	m.feed.q = append(m.feed.q, a)
	m.meta = append(m.meta, jobMeta{tenant: ti, sig: sig, arrival: a.Time})
	if strings.EqualFold(a.Spec.Kernel, "wset") {
		m.sigBySeed[a.Spec.Seed] = sig
	}
	m.outstanding++
	if ti >= 0 {
		m.perTenant[ti]++
		tn.outstanding++
	}
	c.report.Routed++
	c.report.PerMachineRouted[mi]++
}

// finish waits for every machine to drain, applies the final completion
// window, verifies outputs, and assembles the Report.
func (c *coordinator) finish() (*Report, error) {
	var comps []completion
	var drops []drop
	for _, i := range c.advance {
		m := c.ms[i]
		if m.finished {
			continue
		}
		ev := <-m.src.evtc
		m.finished = true
		m.res = ev.res
		m.err = ev.err
		comps = append(comps, ev.completions...)
		drops = append(drops, ev.drops...)
	}
	c.apply(comps, drops)
	for _, m := range c.ms {
		if m.err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", m.id, m.err)
		}
	}
	for _, m := range c.ms {
		if err := m.srv.Verify(m.schedName); err != nil {
			return nil, fmt.Errorf("cluster: machine %d: %w", m.id, err)
		}
	}
	return c.assemble(), nil
}
