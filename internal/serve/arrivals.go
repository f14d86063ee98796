// Package serve is the online serving subsystem: it turns the batch
// simulator into a traffic-serving system study. A stream of jobs —
// instances of the paper's benchmarks with size annotations — arrives over
// simulated time, passes admission control, and is injected as concurrent
// root tasks into one running simulation, where the four schedulers (WS,
// PWS, SB, SB-D) compete for the same tree of caches. The subsystem
// reports per-request latency percentiles (p50/p95/p99), queueing delay,
// drops, and time series of queue depth and anchored-cache occupancy —
// the question the paper leaves open: do space-bounded locality wins
// survive continuous arrivals and cross-job anchoring contention?
//
// Everything is deterministic: a serving run is a pure function of
// (machine, workload mix, arrival process, admission policy, scheduler,
// seed), so latency distributions are exactly reproducible.
//
// Arrival processes and admission policies are stateful and single-use:
// construct fresh ones for every Run, exactly like kernels.
package serve

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/xrand"
)

// JobSpec names one request's computation: a benchmark kernel, its input
// size (the per-job size annotation driving space-bounded anchoring), and
// the deterministic seed for its input generation.
type JobSpec struct {
	Kernel string
	N      int
	Seed   uint64
}

func (s JobSpec) String() string { return fmt.Sprintf("%s[n=%d,seed=%d]", s.Kernel, s.N, s.Seed) }

// Arrival is one job arriving at a simulated cycle.
type Arrival struct {
	Time int64
	Spec JobSpec
}

// ArrivalProcess generates the request stream. Implementations are driven
// from the engine goroutine, so they need no locking but must be
// deterministic. They are single-use.
type ArrivalProcess interface {
	// Name identifies the process in reports.
	Name() string
	// Next returns the next arrival, or ok=false when none is currently
	// available — the stream is exhausted, or (for closed-loop processes)
	// the next request waits on a completion.
	Next() (Arrival, bool)
	// JobDone informs the process that an admitted job completed at now.
	JobDone(now int64)
}

// seedStep spaces per-job RNG seeds; any odd constant works, this is the
// golden-ratio step used elsewhere in the framework.
const seedStep = 0x9e3779b97f4a7c15

// --- workload mix ----------------------------------------------------------

// MixEntry is one benchmark in a workload mix with its relative weight.
type MixEntry struct {
	Kernel string
	N      int
	Weight int
}

// Mix is a weighted set of job kinds arrivals draw from.
type Mix struct {
	entries []MixEntry
	total   int
}

// NewMix builds a mix, checking every kernel name and size the way
// core.NewKernel will (core.CheckBench) and requiring positive weights, so
// a bad entry fails here instead of mid-run.
func NewMix(entries ...MixEntry) (*Mix, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("serve: empty workload mix")
	}
	m := &Mix{}
	for _, e := range entries {
		if err := core.CheckBench(e.Kernel, e.N); err != nil {
			return nil, fmt.Errorf("serve: mix entry %s:%d: %w", e.Kernel, e.N, err)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("serve: mix entry %s has non-positive weight %d", e.Kernel, e.Weight)
		}
		m.entries = append(m.entries, e)
		m.total += e.Weight
	}
	return m, nil
}

// ParseMix parses "kernel:n[:weight],..." — e.g. "rrm:8000:2,quicksort:20000:1".
// Weight defaults to 1.
func ParseMix(s string) (*Mix, error) {
	var entries []MixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("serve: bad mix entry %q (want kernel:n[:weight])", part)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("serve: bad size in mix entry %q: %w", part, err)
		}
		w := 1
		if len(fields) == 3 {
			if w, err = strconv.Atoi(fields[2]); err != nil {
				return nil, fmt.Errorf("serve: bad weight in mix entry %q: %w", part, err)
			}
		}
		entries = append(entries, MixEntry{Kernel: fields[0], N: n, Weight: w})
	}
	return NewMix(entries...)
}

// String renders the mix in ParseMix format.
func (m *Mix) String() string {
	parts := make([]string, len(m.entries))
	for i, e := range m.entries {
		parts[i] = fmt.Sprintf("%s:%d:%d", e.Kernel, e.N, e.Weight)
	}
	return strings.Join(parts, ",")
}

// draw picks one entry with probability proportional to its weight.
func (m *Mix) draw(r *xrand.Source) MixEntry {
	t := r.Intn(m.total)
	for _, e := range m.entries {
		t -= e.Weight
		if t < 0 {
			return e
		}
	}
	return m.entries[len(m.entries)-1] // unreachable: weights sum to total
}

// --- open-loop Poisson -----------------------------------------------------

// PoissonConfig parameterizes an open-loop Poisson arrival process.
type PoissonConfig struct {
	// MeanGap is the mean inter-arrival time in cycles (1/λ). Required.
	MeanGap float64
	// Horizon stops generating arrivals after this cycle; 0 = no horizon
	// (MaxJobs must then bound the stream).
	Horizon int64
	// MaxJobs bounds the number of arrivals; 0 = unbounded.
	MaxJobs int
	// Mix is the workload drawn from. Required.
	Mix *Mix
	// Seed drives inter-arrival draws, mix draws and per-job input seeds.
	Seed uint64
}

// Poisson is the open-loop arrival process: exponential inter-arrival
// gaps, independent of completions — the load does not back off when the
// system saturates, which is what exposes the saturation knee.
type Poisson struct {
	cfg       PoissonConfig
	rng       *xrand.Source
	t         float64
	count     int
	exhausted bool
}

// NewPoisson returns a Poisson process; it panics on an invalid config
// (missing mix, non-positive gap, or an unbounded stream).
func NewPoisson(cfg PoissonConfig) *Poisson {
	if cfg.Mix == nil {
		panic("serve: Poisson requires a Mix")
	}
	if cfg.MeanGap <= 0 || math.IsInf(cfg.MeanGap, 1) || math.IsNaN(cfg.MeanGap) {
		panic("serve: Poisson requires a positive, finite MeanGap")
	}
	if cfg.Horizon <= 0 && cfg.MaxJobs <= 0 {
		panic("serve: Poisson requires a Horizon or MaxJobs bound")
	}
	return &Poisson{cfg: cfg, rng: xrand.New(cfg.Seed*seedStep + 1)}
}

// Name implements ArrivalProcess.
func (p *Poisson) Name() string { return fmt.Sprintf("poisson(gap=%.0f)", p.cfg.MeanGap) }

// Next implements ArrivalProcess.
func (p *Poisson) Next() (Arrival, bool) {
	if p.exhausted {
		return Arrival{}, false
	}
	if p.cfg.MaxJobs > 0 && p.count >= p.cfg.MaxJobs {
		p.exhausted = true
		return Arrival{}, false
	}
	// Exponential gap via inverse transform; 1-U is in (0,1] so the log is
	// finite.
	p.t += -math.Log(1-p.rng.Float64()) * p.cfg.MeanGap
	if p.cfg.Horizon > 0 && int64(p.t) > p.cfg.Horizon {
		p.exhausted = true
		return Arrival{}, false
	}
	e := p.cfg.Mix.draw(p.rng)
	p.count++
	return Arrival{
		Time: int64(p.t),
		Spec: JobSpec{Kernel: e.Kernel, N: e.N, Seed: p.cfg.Seed + uint64(p.count)*seedStep},
	}, true
}

// JobDone implements ArrivalProcess: open-loop arrivals ignore completions.
func (p *Poisson) JobDone(int64) {}

// --- closed loop -----------------------------------------------------------

// ClosedLoopConfig parameterizes a fixed-concurrency arrival process.
type ClosedLoopConfig struct {
	// Concurrency is the number of jobs kept in flight. Required.
	Concurrency int
	// TotalJobs is the total number of requests issued. Required.
	TotalJobs int
	// Think is the delay in cycles between a completion and the next
	// request it triggers (0 = immediate re-issue).
	Think int64
	// Mix is the workload drawn from. Required.
	Mix *Mix
	// Seed drives mix draws and per-job input seeds.
	Seed uint64
}

// ClosedLoop issues Concurrency requests at time zero and one more after
// every completion, so exactly Concurrency jobs are pending at any time
// until TotalJobs have been issued — the classic closed-loop client.
type ClosedLoop struct {
	cfg    ClosedLoopConfig
	rng    *xrand.Source
	issued int
	ready  []Arrival
	primed bool
}

// NewClosedLoop returns a closed-loop process; it panics on an invalid
// config.
func NewClosedLoop(cfg ClosedLoopConfig) *ClosedLoop {
	if cfg.Mix == nil {
		panic("serve: ClosedLoop requires a Mix")
	}
	if cfg.Concurrency < 1 || cfg.TotalJobs < 1 {
		panic("serve: ClosedLoop requires Concurrency >= 1 and TotalJobs >= 1")
	}
	return &ClosedLoop{cfg: cfg, rng: xrand.New(cfg.Seed*seedStep + 2)}
}

// Name implements ArrivalProcess.
func (c *ClosedLoop) Name() string { return fmt.Sprintf("closed(c=%d)", c.cfg.Concurrency) }

func (c *ClosedLoop) gen(at int64) Arrival {
	e := c.cfg.Mix.draw(c.rng)
	c.issued++
	return Arrival{
		Time: at,
		Spec: JobSpec{Kernel: e.Kernel, N: e.N, Seed: c.cfg.Seed + uint64(c.issued)*seedStep},
	}
}

// Next implements ArrivalProcess.
func (c *ClosedLoop) Next() (Arrival, bool) {
	if !c.primed {
		c.primed = true
		burst := c.cfg.Concurrency
		if burst > c.cfg.TotalJobs {
			burst = c.cfg.TotalJobs
		}
		for i := 0; i < burst; i++ {
			c.ready = append(c.ready, c.gen(0))
		}
	}
	if len(c.ready) == 0 {
		return Arrival{}, false
	}
	a := c.ready[0]
	c.ready = c.ready[1:]
	return a, true
}

// JobDone implements ArrivalProcess: each completion triggers the next
// request until the total is reached.
func (c *ClosedLoop) JobDone(now int64) {
	if c.issued < c.cfg.TotalJobs {
		c.ready = append(c.ready, c.gen(now+c.cfg.Think))
	}
}

// --- trace files -----------------------------------------------------------

// Trace replays a fixed arrival schedule (e.g. loaded from a trace file).
type Trace struct {
	arrivals []Arrival
	i        int
}

// NewTrace returns a process replaying the given arrivals in time order
// (the slice is copied and stably sorted by arrival time).
func NewTrace(arrivals []Arrival) *Trace {
	cp := append([]Arrival(nil), arrivals...)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Time < cp[j].Time })
	return &Trace{arrivals: cp}
}

// Name implements ArrivalProcess.
func (t *Trace) Name() string { return fmt.Sprintf("trace(%d jobs)", len(t.arrivals)) }

// Next implements ArrivalProcess.
func (t *Trace) Next() (Arrival, bool) {
	if t.i >= len(t.arrivals) {
		return Arrival{}, false
	}
	a := t.arrivals[t.i]
	t.i++
	return a, true
}

// JobDone implements ArrivalProcess.
func (t *Trace) JobDone(int64) {}

// ParseTrace reads the schedserve trace format: one arrival per line,
//
//	<arrival_cycle> <kernel> <n> [seed]
//
// with '#' comments and blank lines ignored. A missing seed is assigned
// deterministically from defaultSeed and the line's ordinal.
func ParseTrace(r io.Reader, defaultSeed uint64) ([]Arrival, error) {
	var out []Arrival
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) < 3 || len(f) > 4 {
			return nil, fmt.Errorf("serve: trace line %d: want 'cycle kernel n [seed]', got %q", line, text)
		}
		at, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil || at < 0 {
			return nil, fmt.Errorf("serve: trace line %d: bad arrival cycle %q", line, f[0])
		}
		n, err := strconv.Atoi(f[2])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("serve: trace line %d: bad size %q", line, f[2])
		}
		seed := defaultSeed + uint64(len(out)+1)*seedStep
		if len(f) == 4 {
			if seed, err = strconv.ParseUint(f[3], 10, 64); err != nil {
				return nil, fmt.Errorf("serve: trace line %d: bad seed %q", line, f[3])
			}
		}
		if _, err := NewMix(MixEntry{Kernel: f[1], N: n, Weight: 1}); err != nil {
			return nil, fmt.Errorf("serve: trace line %d: %w", line, err)
		}
		out = append(out, Arrival{Time: at, Spec: JobSpec{Kernel: f[1], N: n, Seed: seed}})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading trace: %w", err)
	}
	return out, nil
}

// LoadTrace reads a trace file and returns a replaying process.
func LoadTrace(path string, defaultSeed uint64) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	arrivals, err := ParseTrace(f, defaultSeed)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return NewTrace(arrivals), nil
}

// WriteTrace writes arrivals in the schedserve trace format.
func WriteTrace(w io.Writer, arrivals []Arrival) error {
	if _, err := fmt.Fprintln(w, "# schedserve trace v1: arrival_cycle kernel n seed"); err != nil {
		return err
	}
	for _, a := range arrivals {
		if _, err := fmt.Fprintf(w, "%d %s %d %d\n", a.Time, a.Spec.Kernel, a.Spec.N, a.Spec.Seed); err != nil {
			return err
		}
	}
	return nil
}
