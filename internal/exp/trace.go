package exp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/job"
	"repro/internal/kernels"
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
		return r.simulate(c, seed, nil)
	}
	rec, err := r.record(r.Traces, r.traceKey(c, seed), c, seed)
	if err != nil {
		// Recording was rejected (ErrUnsupported: futures) or failed — run
		// live and untraced; a real simulation error will reproduce here.
		return r.simulate(c, seed, nil)
	}
	st, err := rec.Open(0, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return r.simulate(c, seed, st)
}

// recorded is the outcome of resolving a cell's recording through a cache.
type recorded struct {
	dagtrace.Recording
	// shared reports that the recording was published by another caller
	// (or adopted from a previous process) rather than recorded here;
	// recordSec and writeSec are then zero. recordSec is the host seconds
	// of recording and verifying — for a directory cache, writing the op
	// frames as the strands finish included — and writeSec those of Fill:
	// checking the structure, then completing the file (metadata block,
	// rename) or publishing the recording held in memory.
	shared              bool
	recordSec, writeSec float64
}

// record resolves the recording of c's computation under key in cache.
// The caller that holds the key's reservation records it here without
// simulating it (dagtrace.Record) into the recorder the cache hands out —
// straight into the key's file when the cache has a directory — verifies
// the computed output as a live run would, and publishes it with Fill, or
// with Fail on error, so the key's waiters never block on a recording
// that died; everyone else gets the published recording or its failure.
// Addresses do not depend on the link count, so the recording serves
// every bandwidth setting.
func (r *Runner) record(cache *dagtrace.StreamCache, key string, c Cell, seed uint64) (recorded, error) {
	rec, into, err := cache.GetOrReserve(key)
	if into == nil {
		return recorded{Recording: rec, shared: true}, err
	}
	//schedlint:ignore nondeterminism host-side stage timing for the report; simulated results never read it
	t0 := time.Now()
	sp := mem.NewSpacePaged(c.Machine.Links, c.Machine.Links, r.P.PageSize())
	k := c.MakeK(sp, c.Machine, seed)
	err = dagtrace.Record(into, k.Root(), c.Machine.Block())
	if err == nil {
		if err = k.Verify(); err != nil {
			err = fmt.Errorf("output verification failed: %w", err)
		}
	}
	if err != nil {
		cache.Fail(key, err)
		return recorded{}, err
	}
	//schedlint:ignore nondeterminism host-side stage timing for the report
	out := recorded{recordSec: time.Since(t0).Seconds()}
	//schedlint:ignore nondeterminism host-side stage timing for the report
	t0 = time.Now()
	// Fill publishes a write failure to the key's waiters as well.
	out.Recording, err = cache.Fill(key)
	//schedlint:ignore nondeterminism host-side stage timing for the report
	out.writeSec = time.Since(t0).Seconds()
	return out, err
}

// simulate runs one repetition of cell c under its scheduler, cost model
// and bandwidth: a replay of st when st is set, else live — the kernel
// constructed and its closures executed, its output verified afterwards. A
// replay moves no program data to verify, so the trace's structural check
// (task, strand and access counts against the recording) takes the place
// of Kernel.Verify.
func (r *Runner) simulate(c Cell, seed uint64, st *dagtrace.StreamTrace) (*sim.Result, error) {
	sp := mem.NewSpacePaged(c.Machine.Links, c.LinksUsed, r.P.PageSize())
	var k kernels.Kernel
	var root job.Job
	if st != nil {
		root = st.Root()
	} else {
		k = c.MakeK(sp, c.Machine, seed)
		root = k.Root()
	}
	res, err := sim.Run(sim.Config{
		Machine:   c.Machine,
		Space:     sp,
		Scheduler: c.scheduler(),
		Cost:      c.Cost,
		Seed:      seed,
	}, root)
	if err != nil {
		return nil, err
	}
	if st != nil {
		err = st.CheckResult(res)
	} else if err = k.Verify(); err != nil {
		err = fmt.Errorf("output verification failed: %w", err)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
