package exp

import (
	"fmt"
	"strings"

	"repro/internal/dagtrace"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
)

// traceKey identifies the schedule-independent computation of one cell
// repetition: the kernel (label), its input (seed), every profile scale
// that shapes the DAG, and the machine parameters kernel construction can
// observe (cache-line size for the space annotations, level sizes for the
// cache-aware samplesort, core count, page size for address layout).
//
// Scheduler, cost model and LinksUsed are deliberately absent: none of
// them affect the fork/join tree or the address streams. The bump
// allocator places arrays independently of the link count, and the
// page→link mapping is pure arithmetic applied at replay time — so one
// recording serves every scheduler × bandwidth × cost cell of a sweep.
func (r *Runner) traceKey(c Cell, seed uint64) string {
	id := c.Label
	if c.TraceID != "" {
		id = c.TraceID
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|seed=%d|page=%d|m=%s:c%d:b%d",
		id, seed, r.P.PageSize(), c.Machine.Name, c.Machine.NumCores(), c.Machine.Block())
	for _, lv := range c.Machine.Levels {
		fmt.Fprintf(&b, ":%d", lv.Size)
	}
	p := r.P
	fmt.Fprintf(&b, "|p=%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d.%d",
		p.RRMN, p.RRGN, p.RRBase, p.RRGrain, p.SortN, p.SerialCutoff, p.PartCutoff,
		p.Chunk, p.QuadN, p.QuadCutoff, p.MatmulN, p.MatmulBase)
	return b.String()
}

// runRep executes one repetition of cell c: through the trace cache when
// one is configured (record once, replay everywhere — the recording cell
// included), live otherwise.
func (r *Runner) runRep(c Cell, seed uint64) (*sim.Result, error) {
	if r.Traces == nil {
		return r.liveRep(c, seed)
	}
	key := r.traceKey(c, seed)
	rec, record, err := r.Traces.GetOrReserve(key)
	if record {
		rec, err = r.recordRep(c, seed, key)
	}
	if err != nil {
		// Recording was rejected (ErrUnsupported: futures) or failed — run
		// live and untraced; a real simulation error will reproduce here.
		return r.liveRep(c, seed)
	}
	st, err := rec.Open(0, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return r.replayRep(c, seed, st)
}

// recordRep records the cell's computation and publishes the outcome
// under key. Every path fills or fails the reservation, so cache waiters
// can never block on a recording that died.
func (r *Runner) recordRep(c Cell, seed uint64, key string) (dagtrace.Recording, error) {
	tr, err := r.recordKernel(c.MakeK, c.Machine, seed)
	if err != nil {
		r.Traces.Fail(key, err)
		return dagtrace.Recording{}, err
	}
	// A failed write reaches the key's waiters, which then run live, as
	// this cell does.
	return r.Traces.Fill(key, tr)
}

// recordKernel constructs the kernel and records its computation without
// simulating it (dagtrace.Record), then verifies the computed output as a
// live run would. Addresses do not depend on the link count, so the
// recording serves every bandwidth setting.
func (r *Runner) recordKernel(mk KernelFactory, m *machine.Desc, seed uint64) (*dagtrace.Trace, error) {
	sp := mem.NewSpacePaged(m.Links, m.Links, r.P.PageSize())
	k := mk(sp, m, seed)
	tr, err := dagtrace.Record(k.Root(), m.Block())
	if err != nil {
		return nil, err
	}
	if err := k.Verify(); err != nil {
		return nil, fmt.Errorf("output verification failed: %w", err)
	}
	return tr, nil
}

// liveRep constructs the kernel and executes its closures under the cell's
// scheduler, verifying the computed output afterwards.
func (r *Runner) liveRep(c Cell, seed uint64) (*sim.Result, error) {
	sp := mem.NewSpacePaged(c.Machine.Links, c.LinksUsed, r.P.PageSize())
	k := c.MakeK(sp, c.Machine, seed)
	res, err := sim.Run(sim.Config{
		Machine:   c.Machine,
		Space:     sp,
		Scheduler: c.MakeS(),
		Cost:      c.Cost,
		Seed:      seed,
	}, k.Root())
	if err != nil {
		return nil, err
	}
	if err := k.Verify(); err != nil {
		return nil, fmt.Errorf("output verification failed: %w", err)
	}
	return res, nil
}

// replayRep re-executes a recorded computation under the cell's scheduler,
// cost model and bandwidth. Kernel.Verify is skipped — a replay moves no
// program data to verify — and the trace's structural check (task, strand
// and access counts against the live recording) takes its place.
func (r *Runner) replayRep(c Cell, seed uint64, st *dagtrace.StreamTrace) (*sim.Result, error) {
	sp := mem.NewSpacePaged(c.Machine.Links, c.LinksUsed, r.P.PageSize())
	res, err := sim.Run(sim.Config{
		Machine:   c.Machine,
		Space:     sp,
		Scheduler: c.MakeS(),
		Cost:      c.Cost,
		Seed:      seed,
	}, st.Root())
	if err != nil {
		return nil, err
	}
	if err := st.CheckResult(res); err != nil {
		return nil, err
	}
	return res, nil
}

// recordFirst orders the items so the first item of every recording key
// is dispatched ahead of the rest, each part in input order: recordings
// start immediately, and cells that replay them never occupy workers only
// to block on the cache behind unrelated record work.
func recordFirst(items []int, key func(int) string) []int {
	seen := make(map[string]bool, len(items))
	order := make([]int, 0, len(items))
	var rest []int
	for _, i := range items {
		if k := key(i); seen[k] {
			rest = append(rest, i)
		} else {
			seen[k] = true
			order = append(order, i)
		}
	}
	return append(order, rest...)
}

// groupCounters maps each cell to a shared countdown of its trace group's
// unfinished cells, so RunGrid can evict a group's traces the moment its
// last cell completes (bounding grid memory to the groups in flight).
// Returns nil without a cache.
func (r *Runner) groupCounters(cells []Cell) []*int32 {
	if r.Traces == nil {
		return nil
	}
	byKey := make(map[string]*int32, len(cells))
	counters := make([]*int32, len(cells))
	for i := range cells {
		g := r.traceKey(cells[i], r.P.Seed)
		ctr := byKey[g]
		if ctr == nil {
			ctr = new(int32)
			byKey[g] = ctr
		}
		*ctr++
		counters[i] = ctr
	}
	return counters
}

// dropTraces evicts every repetition key of c's group from the cache's
// memory (files survive).
func (r *Runner) dropTraces(c Cell) {
	reps := r.P.Reps
	if reps < 1 {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		r.Traces.Drop(r.traceKey(c, r.P.Seed+uint64(rep)))
	}
}
