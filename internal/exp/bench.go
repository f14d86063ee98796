package exp

// The benchmark harness: programmatic perf measurements of the simulator's
// hot paths, runnable both as ordinary `go test -bench` benchmarks (see
// bench_harness_test.go) and from `cmd/schedbench -benchjson`, which
// serializes a Report to BENCH_sim.json so every PR leaves a recorded perf
// trajectory (ns/access, ns/simulated-cycle, allocs/op, end-to-end grid
// wall time).

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/dagtrace"
	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
)

// BenchEntry records one measured benchmark of the harness.
type BenchEntry struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Metrics carries the benchmark's derived quantities (ns/access,
	// ns/simulated-cycle, wall seconds, ...) as reported via
	// testing.B.ReportMetric.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchReport is the BENCH_sim.json payload.
type BenchReport struct {
	GeneratedUnix int64        `json:"generated_unix"`
	GoVersion     string       `json:"go_version"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Benchmarks    []BenchEntry `json:"benchmarks"`
}

// BenchAccessHit measures the cachesim innermost-hit path: the same L1
// line re-touched every access.
func BenchAccessHit(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	a := mem.Addr(mem.PageSize)
	h.Access(0, 0, a, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, int64(i), a, false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchAccessPair measures RRM's access pattern, b[i] = a[i]+1: a read of
// one array alternating with a write of another at the same offset, both
// hugepage-aligned, so the two streams share their low address bits and
// every line serves eight consecutive elements.
func BenchAccessPair(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	const n = 1 << 16 // 512KB per array: past L2, inside L3
	src, dst := mem.Addr(mem.PageSize), mem.Addr(2*mem.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := mem.Addr(i/2%n) * 8
		if i&1 == 0 {
			h.Access(0, int64(i), src+off, false)
		} else {
			h.Access(0, int64(i), dst+off, true)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchAccessStream measures a streaming scan: inner-level misses with
// periodic DRAM line fetches.
func BenchAccessStream(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%32, int64(i), mem.Addr(mem.PageSize)+mem.Addr(i*8), false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchAccessRandom measures random gathers over a large footprint
// (DRAM-dominated, full probe walks).
func BenchAccessRandom(b *testing.B) {
	d := machine.Xeon7560()
	sp := mem.NewSpace(d.Links, d.Links)
	h := cachesim.New(d, sp)
	const span = 1 << 28
	x := uint64(0x9e3779b97f4a7c15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.Access(int(x%32), int64(i), mem.Addr(mem.PageSize)+mem.Addr(x%span), false)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
}

// BenchEngineParallelFor measures whole-engine throughput — scheduler
// call-backs, cache simulation, chunk handoff — and derives the harness's
// headline ns/simulated-cycle figure.
func BenchEngineParallelFor(b *testing.B) {
	m := machine.TwoSocket(4, 1<<18, 1<<13)
	var simCycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := mem.NewSpace(m.Links, m.Links)
		arr := sp.NewF64("xs", 1<<16)
		root := job.For(0, arr.Len(), 256,
			func(lo, hi int) int64 { return int64(hi-lo) * 8 },
			func(ctx job.Ctx, i int) { arr.Write(ctx, i, 1) })
		res, err := sim.Run(sim.Config{Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 1}, root)
		if err != nil {
			b.Fatal(err)
		}
		simCycles += res.WallCycles
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(simCycles), "ns/simulated-cycle")
	b.ReportMetric(float64(1<<16)*float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchGridFig8 measures the end-to-end wall time of the quick-profile
// Fig. 8 grid with every cell executed live — the unit every experiment
// command is built from, and the baseline the replay benchmark is compared
// against. (The grid runner records and replays traces by default; that
// steady state is measured by BenchReplayFig8, and mixing a cold-cache
// record pass into this number would make it comparable to neither.)
func BenchGridFig8(b *testing.B) {
	p := Quick()
	p.Reps = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(p, nullWriter{})
		r.Traces = nil
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "grid-wall-s")
}

// BenchTraceRecord measures the capture side of record-once/replay-
// everywhere: a sequential recording of the quick-profile quicksort
// (dagtrace.Record — the kernel's closures plus the recorder, nothing
// simulated), reported per recorded op (accesses + work segments)
// together with the encoded trace density.
func BenchTraceRecord(b *testing.B) {
	p := Quick()
	m := p.MachineHT()
	mk := p.QuicksortFactory()
	var ops, opBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		k := mk(sp, m, p.Seed)
		rec := dagtrace.NewRecorder()
		if err := dagtrace.Record(rec, k.Root(), m.Block()); err != nil {
			b.Fatal(err)
		}
		tr, err := rec.Finish()
		if err != nil {
			b.Fatal(err)
		}
		ops += tr.AccessOps + tr.WorkOps
		opBytes += tr.OpBytes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/recorded-op")
	b.ReportMetric(float64(opBytes)/float64(ops), "bytes/recorded-op")
}

// BenchReplayFig8 measures the steady-state replay grid: the quick-profile
// Fig. 8 grid against a directory-backed cache warmed before the timer,
// so every cell of every iteration replays a recording from disk instead
// of running kernel closures. (The cache holds each published recording
// as its file's path, so every cell opens the file and replays it through
// a frame window of its own.)
func BenchReplayFig8(b *testing.B) {
	p := Quick()
	p.Reps = 1
	cache, err := dagtrace.NewStreamCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	warm := NewRunner(p, nullWriter{})
	warm.Traces = cache
	if _, err := warm.Fig8(); err != nil {
		b.Fatal(err)
	}
	before := cache.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(p, nullWriter{})
		r.Traces = cache
		if _, err := r.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "grid-wall-s")
	s := cache.Stats()
	hits := float64(s.Hits - before.Hits)
	total := hits + float64(s.Misses-before.Misses) + float64(s.Fallbacks-before.Fallbacks)
	if total > 0 {
		b.ReportMetric(hits/total, "trace-hit-rate")
	}
}

// benchStream records the quick-profile quicksort once, sequentially and
// straight into a temp file as FullCell does (Runner.record over a
// directory cache), and opens it through a window of the given byte
// budget. The file and stream are cleaned up with the benchmark. The file
// holds the strands in the order they finished — depth first, each
// subtree contiguous — so a replay fetches frames in the order its
// schedule reaches the subtrees.
func benchStream(b *testing.B, window int64) *dagtrace.StreamTrace {
	b.Helper()
	p := Quick()
	cache, err := dagtrace.NewStreamCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	c := Cell{Label: "Quicksort", Machine: p.MachineHT(), MakeK: p.QuicksortFactory()}
	rec, err := NewRunner(p, nullWriter{}).record(cache, "bench", c, p.Seed)
	if err != nil {
		b.Fatal(err)
	}
	st, err := rec.Open(window, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	return st
}

// BenchWindowedDecode measures the streamed replay path: a framed
// quick-profile quicksort trace replayed on the full machine through a
// window an order of magnitude smaller than its op stream. The headline
// metric is decoded op-stream bytes per second; the decoder's resident
// high-water mark is reported so eviction-policy regressions are visible.
// The window holds a single frame while the 64 workers interleave
// subtrees that lie in different frames, so this replay reloads frames
// far more often than it streams them (DESIGN.md §10).
// It replays under the sb scheduler — same as the FullCell pipeline and
// BenchShardedReplay, so the two replay-wall figures are comparable.
func BenchWindowedDecode(b *testing.B) {
	p := Quick()
	m := p.MachineHT()
	st := benchStream(b, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rsp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		res, err := sim.Run(sim.Config{
			Machine: m, Space: rsp, Scheduler: sched.New("sb"), Seed: p.Seed,
		}, st.Root())
		if err != nil {
			b.Fatal(err)
		}
		if err := st.CheckResult(res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.OpBytes())*float64(b.N)/b.Elapsed().Seconds(), "opbytes/s")
	b.ReportMetric(float64(st.PeakResidentBytes()), "peak-resident-b")
}

// BenchShardedReplay measures the sharded replay engine over the same
// framed recording: the trace partitioned two pieces per socket, pieces
// leasing scripts from one shared window, per-socket sub-simulations
// fanned over GOMAXPROCS host goroutines and merged deterministically.
// Its replay-wall-s against BenchWindowedDecode's wall time is the
// sharded-vs-unsharded speedup on this host. Replays use the sb
// scheduler: work stealing's random idle polling is pathologically
// expensive to simulate on low-parallelism partition pieces, and sb is
// the scheduler the full-scale pipeline defaults to anyway.
func BenchShardedReplay(b *testing.B) {
	p := Quick()
	m := p.MachineHT()
	st := benchStream(b, 1<<20)
	part, err := dagtrace.PartitionStream(st, 2*m.Levels[0].Fanout)
	if err != nil {
		b.Fatal(err)
	}
	roots := make([]shard.Root, len(part.Pieces))
	for i, pc := range part.Pieces {
		roots[i] = shard.Root{Job: pc.Root, Weight: pc.Weight}
	}
	cfg := shard.Config{
		Machine:   m,
		MakeSched: func() sched.Scheduler { return sched.New("sb") },
		Seed:      p.Seed,
		Shards:    runtime.GOMAXPROCS(0),
		PageSize:  p.PageSize(),
	}
	b.ReportAllocs()
	b.ResetTimer()
	var accesses uint64
	for i := 0; i < b.N; i++ {
		res, err := shard.Replay(cfg, roots)
		if err != nil {
			b.Fatal(err)
		}
		if res.Tasks != st.TaskCount || res.Strands != st.StrandCount {
			b.Fatalf("sharded replay executed %d tasks / %d strands, trace recorded %d / %d",
				res.Tasks, res.Strands, st.TaskCount, st.StrandCount)
		}
		accesses += uint64(res.Accesses)
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "replay-wall-s")
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchGridFullscale measures the shared-recording grid executor: a
// quick-profile 1-kernel × 2-scheduler × 2-bandwidth grid, cells
// replayed two at a time off one recording under the shared decoder
// budget. Its grid-wall-s against 4× BenchShardedReplay-plus-record is
// the amortization win the full-scale grid exists for; the recording
// count is asserted so a cache regression (cells silently re-recording)
// fails the harness rather than just slowing it.
func BenchGridFullscale(b *testing.B) {
	p := Quick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRunner(p, nullWriter{})
		r.Workers = 2
		r.Shards = 1
		rep, err := r.FullGridRun(context.Background(), []string{"Quicksort"}, []string{"sb", "sbd"}, []int{4, 1}, GridRunOpts{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Recordings != 1 {
			b.Fatalf("grid performed %d recordings, want exactly 1", rep.Recordings)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "grid-wall-s")
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// benchSuite lists the harness benchmarks in report order.
var benchSuite = []struct {
	name string
	fn   func(*testing.B)
}{
	{"access_hit", BenchAccessHit},
	{"access_pair", BenchAccessPair},
	{"access_stream", BenchAccessStream},
	{"access_random", BenchAccessRandom},
	{"engine_parallel_for", BenchEngineParallelFor},
	{"grid_fig8_quick", BenchGridFig8},
	{"trace_record", BenchTraceRecord},
	{"replay_fig8", BenchReplayFig8},
	{"windowed_decode", BenchWindowedDecode},
	{"sharded_replay", BenchShardedReplay},
	{"grid_fullscale_smoke", BenchGridFullscale},
}

// RunBenchSuite executes the harness and collects a BenchReport.
func RunBenchSuite() BenchReport {
	rep := BenchReport{
		//schedlint:ignore nondeterminism report metadata timestamp; compared fields exclude it
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}
	for _, bm := range benchSuite {
		r := testing.Benchmark(bm.fn)
		e := BenchEntry{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			e.Metrics = make(map[string]float64, len(r.Extra))
			//schedlint:ignore nondeterminism copying into a map; order-insensitive, and the JSON encoder sorts keys
			for k, v := range r.Extra {
				e.Metrics[k] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	return rep
}

// WriteBenchJSON runs the harness and writes the report to path.
func WriteBenchJSON(path string) error {
	rep := RunBenchSuite()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
