package main

// Per-layer tracing from outside the program. The decorators below wrap
// the layers' public interfaces — sched.Scheduler, the recorder's
// sim.TraceListener, the io.ReaderAt under dagtrace.NewStream, and the
// kernel factories — and spans time the calls between layers. Nothing
// here changes what a simulation computes: the traced runs must print the
// untraced runs' digests.

import (
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/exp"
	"repro/internal/job"
	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
)

// sampleStride is the 1-in-N stride at which hot callbacks are timed. Every
// call is counted; the timed calls' host time is scaled up to all calls, so
// the clock reads do not swamp callbacks that take tens of nanoseconds.
const sampleStride = 64

// span is one timed call between layers, relative to the child's start.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer collects one traced run's spans, layer counters and metrics. Its
// methods are safe for concurrent use; the decorators it hands out are
// each used by one simulation at a time.
type tracer struct {
	start time.Time
	// clockNS is the cost of the clock reads around one timed call,
	// subtracted from every sample.
	clockNS int64

	mu      sync.Mutex
	spans   []span
	metrics map[string]float64
	scheds  map[string][]*timedSched // by pipeline phase
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), clockNS: clockCost(), metrics: map[string]float64{}, scheds: map[string][]*timedSched{}}
}

// clockCost measures the median cost of timing an empty call.
func clockCost() int64 {
	var xs [1001]int64
	for i := range xs {
		t0 := time.Now()
		xs[i] = int64(time.Since(t0))
	}
	slices.Sort(xs[:])
	return xs[len(xs)/2]
}

// run times the whole traced computation as the root span and reports
// the share of it the named child spans cover.
func (t *tracer) run(f func() ([]string, error)) ([]string, error) {
	begin := time.Since(t.start)
	digests, err := f()
	root := span{Name: "run", StartNS: int64(begin), EndNS: int64(time.Since(t.start))}
	t.mu.Lock()
	defer t.mu.Unlock()
	var covered float64
	for _, s := range t.spans {
		covered += s.seconds()
	}
	t.spans = append(t.spans, root)
	t.metrics["span_coverage"] = covered / root.seconds()
	return digests, err
}

// span times f as a child of the run span.
func (t *tracer) span(name string, f func() error) error {
	begin := time.Since(t.start)
	err := f()
	s := span{Name: name, Parent: "run", StartNS: int64(begin), EndNS: int64(time.Since(t.start))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return err
}

// spanSeconds sums the durations of the spans called name.
func (t *tracer) spanSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
		}
	}
	return sum
}

func (t *tracer) set(name string, v float64) {
	t.mu.Lock()
	t.metrics[name] = v
	t.mu.Unlock()
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.metrics[name] += v
	t.mu.Unlock()
}

// callStats counts calls and times every sampleStride-th one.
type callStats struct {
	calls   int64
	sampled int64
	ns      int64 // host time of the sampled calls
}

// begin counts a call and returns the time to measure it from, or the
// zero Time when this call is not sampled.
func (c *callStats) begin() time.Time {
	c.calls++
	if c.calls%sampleStride == 0 {
		return time.Now()
	}
	return time.Time{}
}

func (c *callStats) end(t0 time.Time) {
	if !t0.IsZero() {
		c.sampled++
		c.ns += int64(time.Since(t0))
	}
}

// hostSeconds scales the sampled calls' host time, less clockNS per
// sample, up to every call.
func (c *callStats) hostSeconds(clockNS int64) float64 {
	if c.sampled == 0 {
		return 0
	}
	perCall := max(float64(c.ns)/float64(c.sampled)-float64(clockNS), 0)
	return perCall * float64(c.calls) / 1e9
}

// timedSched decorates a scheduler: it counts every add/get/done/taskEnd
// callback, times a sample of them, and counts the Get calls that found
// no work (idle polls). The engine calls a scheduler from one goroutine.
type timedSched struct {
	sched.Scheduler
	add, get, done, taskEnd callStats
	empty                   int64
}

func (s *timedSched) Add(st *job.Strand, worker int) {
	t0 := s.add.begin()
	s.Scheduler.Add(st, worker)
	s.add.end(t0)
}

func (s *timedSched) Get(worker int) *job.Strand {
	t0 := s.get.begin()
	st := s.Scheduler.Get(worker)
	s.get.end(t0)
	if st == nil {
		s.empty++
	}
	return st
}

func (s *timedSched) Done(st *job.Strand, worker int) {
	t0 := s.done.begin()
	s.Scheduler.Done(st, worker)
	s.done.end(t0)
}

func (s *timedSched) TaskEnd(tk *job.Task, worker int) {
	t0 := s.taskEnd.begin()
	s.Scheduler.TaskEnd(tk, worker)
	s.taskEnd.end(t0)
}

func (s *timedSched) calls() int64 {
	return s.add.calls + s.get.calls + s.done.calls + s.taskEnd.calls
}

func (s *timedSched) hostSeconds(clockNS int64) float64 {
	return s.add.hostSeconds(clockNS) + s.get.hostSeconds(clockNS) + s.done.hostSeconds(clockNS) + s.taskEnd.hostSeconds(clockNS)
}

// sched returns a decorated scheduler, registered under a pipeline phase.
func (t *tracer) sched(phase, name string) sched.Scheduler {
	s := &timedSched{Scheduler: sched.New(name)}
	t.mu.Lock()
	t.scheds[phase] = append(t.scheds[phase], s)
	t.mu.Unlock()
	return s
}

func (t *tracer) schedFactory(phase, name string) func() sched.Scheduler {
	return func() sched.Scheduler { return t.sched(phase, name) }
}

// schedHost sums the scheduler host time of the given phases. Call it only
// once the simulations of those phases have returned.
func (t *tracer) schedHost(phases ...string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, ph := range phases {
		for _, s := range t.scheds[ph] {
			sum += s.hostSeconds(t.clockNS)
		}
	}
	return sum
}

// setSchedMetrics reports the scheduler layer over every phase.
func (t *tracer) setSchedMetrics() {
	t.mu.Lock()
	var add, get, done, taskEnd, empty, calls int64
	var host float64
	for _, list := range t.scheds {
		for _, s := range list {
			add += s.add.calls
			get += s.get.calls
			done += s.done.calls
			taskEnd += s.taskEnd.calls
			empty += s.empty
			calls += s.calls()
			host += s.hostSeconds(t.clockNS)
		}
	}
	t.mu.Unlock()
	t.set("sched.add_calls", float64(add))
	t.set("sched.get_calls", float64(get))
	t.set("sched.get_empty_ratio", ratio(float64(empty), float64(get)))
	t.set("sched.done_calls", float64(done))
	t.set("sched.taskend_calls", float64(taskEnd))
	t.set("sched.host_s", host)
	t.set("sched.ns_per_call", ratio(host*1e9, float64(calls)))
}

// timedRecorder decorates the trace recorder. Embedding keeps Finish and
// the PoolSafe marker, so the engine pools tasks exactly as it does for a
// bare recorder.
type timedRecorder struct {
	*dagtrace.Recorder
	events callStats
}

func (r *timedRecorder) StrandSpawned(s *job.Strand) {
	t0 := r.events.begin()
	r.Recorder.StrandSpawned(s)
	r.events.end(t0)
}

func (r *timedRecorder) StrandStarted(s *job.Strand) {
	t0 := r.events.begin()
	r.Recorder.StrandStarted(s)
	r.events.end(t0)
}

func (r *timedRecorder) StrandEnded(s *job.Strand) {
	t0 := r.events.begin()
	r.Recorder.StrandEnded(s)
	r.events.end(t0)
}

func (r *timedRecorder) TaskEnded(tk *job.Task, now int64) {
	t0 := r.events.begin()
	r.Recorder.TaskEnded(tk, now)
	r.events.end(t0)
}

func (r *timedRecorder) StrandAccess(s *job.Strand, a mem.Addr, write bool) {
	t0 := r.events.begin()
	r.Recorder.StrandAccess(s, a, write)
	r.events.end(t0)
}

func (r *timedRecorder) StrandWork(s *job.Strand, cycles int64) {
	t0 := r.events.begin()
	r.Recorder.StrandWork(s, cycles)
	r.events.end(t0)
}

func (r *timedRecorder) StrandForked(s *job.Strand, hasCont bool, children int, futures bool) {
	t0 := r.events.begin()
	r.Recorder.StrandForked(s, hasCont, children, futures)
	r.events.end(t0)
}

// timedReaderAt counts and times every frame read of a streamed trace.
// Sharded replays read from several goroutines at once.
type timedReaderAt struct {
	r                io.ReaderAt
	calls, bytes, ns atomic.Int64
}

func (r *timedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := r.r.ReadAt(p, off)
	r.ns.Add(int64(time.Since(t0)))
	r.calls.Add(1)
	r.bytes.Add(int64(n))
	return n, err
}

// kernel decorates a kernel factory to time input construction.
func (t *tracer) kernel(mk exp.KernelFactory) exp.KernelFactory {
	return func(sp *mem.Space, m *machine.Desc, seed uint64) kernels.Kernel {
		t0 := time.Now()
		k := mk(sp, m, seed)
		t.add("kernels.build_s", time.Since(t0).Seconds())
		return k
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
