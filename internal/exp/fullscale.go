package exp

// Full-scale grid cells: record once, frame to disk, then replay through
// the bounded window — unsharded on the full machine and sharded across
// per-socket simulations — so one Fig. 8 cell at the paper's real input
// sizes (×1: 24MB L3, 100M-element-class inputs) completes in minutes
// with decoder memory independent of the trace size.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/dagtrace"
	"repro/internal/machine"
	"repro/internal/shard"
)

// FullScale returns the experiment profile at cache divisor div: div=64
// is exactly Paper(), div=1 is the real Xeon 7560 (24MB L3) with the
// paper's real input sizes (RRM touches 16n ≈ 164MB, as in §5.3). Linear
// quantities (element counts, cutoffs, grains) scale by 64/div so every
// input-to-cache ratio matches Paper(); the matmul side scales by
// √(64/div) because its footprint is quadratic in N. Reps drops to 1 —
// full-scale cells are minutes each, and the streamed replay is
// deterministic anyway.
func FullScale(div int64) Profile {
	if div < 1 || div > 64 || 64%div != 0 {
		panic(fmt.Sprintf("exp: full-scale divisor %d must divide 64", div))
	}
	f := 64 / div
	sq := int64(1)
	for sq*sq < f {
		sq++
	}
	p := Paper()
	p.Name = fmt.Sprintf("x%d", div)
	p.MachineScale = div
	p.Reps = 1
	scale := func(v *int) { *v = int(int64(*v) * f) }
	scale(&p.RRMN)
	scale(&p.RRGN)
	scale(&p.RRBase)
	scale(&p.RRGrain)
	scale(&p.SortN)
	scale(&p.SerialCutoff)
	scale(&p.PartCutoff)
	scale(&p.Chunk)
	scale(&p.QuadN)
	scale(&p.QuadCutoff)
	p.MatmulN = int(int64(p.MatmulN) * sq)
	p.MatmulBase = int(int64(p.MatmulBase) * sq)
	return p
}

// FullRecordSched is the scheduler full-scale recordings were once made
// under, live. Recording is now sequential and schedule-free
// (dagtrace.Record), so it no longer fixes a file's layout; the name
// survives as the tag in framedKey, which keeps the keys of existing
// -tracecache files and run journals valid. A file recorded live under sb
// holds the same computation in another node order and replays
// identically.
const FullRecordSched = "sb"

// FullCellReport is the outcome of one full-scale cell.
type FullCellReport struct {
	Kernel    string
	Scheduler string
	Machine   string
	LinksUsed int // DRAM links in use (the Fig. 9 bandwidth knob)
	Shards    int
	Window    int64

	// Trace shape.
	Tasks, Strands uint64
	OpBytes        int64 // op-stream bytes (the part the window bounds)
	TraceBytes     int64 // framed file size on disk

	// RecordShared reports the recording was reused — produced by another
	// grid cell or adopted from a previous process — rather than by this
	// cell; RecordSec and WriteSec are then zero, so summing stage columns
	// over a grid never double-counts the amortized record stage.
	RecordShared bool

	// Attempts is the attempt number that produced this report (1 = first
	// try), counted across resumes of a journaled run.
	Attempts int
	// Degraded marks a cell run on the supervisor's degraded path —
	// serialized, with a shrunken decoder window — because the shared
	// budget could not admit another full window. Degraded execution
	// never changes simulated results, only host memory and concurrency.
	Degraded bool
	// Resumed marks a report restored from a run journal rather than
	// executed by this process; host timings are the original attempt's.
	Resumed bool

	// Host wall-clock of each pipeline stage, in seconds.
	RecordSec   float64 // sequential recording + output check (0 when RecordShared)
	WriteSec    float64 // framing to disk (0 when RecordShared)
	ReplaySec   float64 // unsharded streamed replay, full machine
	ShardedSec  float64 // sharded streamed replay (Shards goroutines)
	PeakSysMB   float64 // runtime.MemStats.Sys after the replays
	PeakWindowB int64   // decoder-resident high-water mark (window + leases)
	// ReplayLoads and ShardedLoads count the frames the window read from
	// the file during the unsharded and the sharded replay: the read
	// amplification of each replay's access order against the file's
	// node order.
	ReplayLoads, ShardedLoads int64

	// Simulated results.
	ReplayWall  int64  // unsharded makespan, cycles (0 in grid cells)
	ShardedWall int64  // sharded makespan (max over sockets), cycles
	L3Misses    int64  // sharded L3 misses, summed over sockets
	StallCycles int64  // sharded DRAM-stall cycles, summed over sockets
	Fingerprint string // sharded merge fingerprint (shard-count invariant)
}

// fullCellOpts selects the stages and sharing discipline of one
// full-scale cell run.
type fullCellOpts struct {
	linksUsed int                   // 0 = all machine links
	cache     *dagtrace.StreamCache // nil = private temp-dir cache
	budget    *dagtrace.Budget      // shared window budget (nil = per-stream only)
	unsharded bool                  // also replay unsharded on the full machine
	window    int64                 // decoder window override (0 = r.ReplayWindow)
	degraded  bool                  // mark the report as degraded-mode execution
}

// framedKey is the grid cache identity of a kernel's framed recording:
// the schedule-independent computation key (same discipline as traceKey
// — scheduler, bandwidth and cost are absent) plus the FullRecordSched
// tag that every existing file's key carries.
func (r *Runner) framedKey(kernel string, m *machine.Desc) string {
	return r.traceKey(Cell{Label: kernel, Machine: m}, r.P.Seed) + "|framed:rec=" + FullRecordSched
}

// diskTraces returns r.Traces when it keeps its recordings as files —
// the only form the full-scale paths can share — and nil otherwise.
func (r *Runner) diskTraces() *dagtrace.StreamCache {
	if r.Traces == nil || r.Traces.Dir() == "" {
		return nil
	}
	return r.Traces
}

// privateTraces returns a trace cache over a fresh temp directory and the
// function that removes it.
func privateTraces(pattern string) (*dagtrace.StreamCache, func(), error) {
	dir, err := os.MkdirTemp("", pattern)
	if err != nil {
		return nil, nil, err
	}
	c, err := dagtrace.NewStreamCache(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return c, func() { os.RemoveAll(dir) }, nil
}

// FullCell runs one full-scale grid cell end to end: record the kernel
// sequentially for the profile's machine (dagtrace.Record), frame the
// trace to disk, reopen it through a window of r.ReplayWindow bytes,
// replay it unsharded on the full machine, then partition it and replay
// it sharded over the machine's sockets on r.Shards host goroutines. The
// sharded fingerprint it reports is invariant under r.Shards; the
// driver's fullscale-smoke CI job pins that by diffing two runs. When
// r.Traces has a directory the recording resolves through it — reused if
// already there — instead of a private temp file.
func (r *Runner) FullCell(kernel, schedName string) (*FullCellReport, error) {
	if _, err := r.fullGridCells([]string{kernel}, []string{schedName}, nil); err != nil {
		return nil, err
	}
	return r.fullCell(kernel, schedName, fullCellOpts{cache: r.diskTraces(), unsharded: true})
}

// fullCell runs one full-scale cell, validated by fullGridCells, with the
// stages and sharing discipline of o.
func (r *Runner) fullCell(kernel, schedName string, o fullCellOpts) (*FullCellReport, error) {
	mk, err := r.P.FullKernelFactory(kernel)
	if err != nil {
		return nil, err
	}
	m := r.P.MachineHT()
	c := Cell{Label: kernel, Scheduler: schedName, Machine: m, LinksUsed: o.linksUsed, MakeK: mk}
	if c.LinksUsed == 0 {
		c.LinksUsed = m.Links
	}
	seed := r.P.Seed
	window := o.window
	if window == 0 {
		window = r.ReplayWindow
	}
	rep := &FullCellReport{
		Kernel: kernel, Scheduler: schedName, Machine: m.Name,
		LinksUsed: c.LinksUsed, Shards: r.Shards, Window: window, Degraded: o.degraded,
	}

	// Stage 1: resolve the framed recording through the shared grid cache
	// (one recording per kernel key, whoever gets there first) or a
	// private one.
	cache := o.cache
	if cache == nil {
		private, cleanup, err := privateTraces("fullscale-")
		if err != nil {
			return nil, err
		}
		defer cleanup()
		cache = private
	}
	rec, err := r.record(cache, r.framedKey(kernel, m), c, seed)
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale record: %w", err)
	}
	rep.RecordShared, rep.RecordSec, rep.WriteSec = rec.shared, rec.recordSec, rec.writeSec
	if fi, err := os.Stat(rec.Path); err == nil {
		rep.TraceBytes = fi.Size()
	}
	// Release the arena before replaying: from here on, op bytes live only
	// behind the window. (The arena reference died with Fill's scope; the
	// collector still needs the nudge before the replay allocates its
	// address space.)
	runtime.GC()

	// Stage 2: reopen through the bounded window, charging the shared grid
	// budget when one is set. Window size bounds decoder memory only —
	// simulated results are invariant under it, which is what makes the
	// supervisor's shrunken-window degraded mode safe.
	st, err := rec.Open(window, o.budget)
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale open: %w", err)
	}
	defer st.Close()
	rep.Tasks, rep.Strands = st.TaskCount, st.StrandCount
	rep.OpBytes = st.OpBytes()

	// Stage 3 (cell experiment only): unsharded replay on the full machine.
	if o.unsharded {
		//schedlint:ignore nondeterminism host-side stage timing for the report
		t0 := time.Now()
		res, err := r.simulate(c, seed, st)
		if err != nil {
			return nil, fmt.Errorf("exp: full-scale replay: %w", err)
		}
		//schedlint:ignore nondeterminism host-side stage timing for the report
		rep.ReplaySec = time.Since(t0).Seconds()
		rep.ReplayWall = res.WallCycles
		rep.ReplayLoads = st.FrameLoads()
	}

	// Stage 4: partition and replay sharded over the machine's sockets.
	sockets := m.Levels[0].Fanout
	part, err := dagtrace.PartitionStream(st, 2*sockets)
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale partition: %w", err)
	}
	roots := make([]shard.Root, len(part.Pieces))
	for i, pc := range part.Pieces {
		roots[i] = shard.Root{Job: pc.Root, Weight: pc.Weight}
	}
	//schedlint:ignore nondeterminism host-side stage timing for the report
	t0 := time.Now()
	sres, err := shard.Replay(shard.Config{
		Machine:   m,
		MakeSched: c.scheduler,
		Seed:      seed,
		Shards:    r.Shards,
		PageSize:  r.P.PageSize(),
		LinksUsed: c.LinksUsed,
	}, roots)
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale sharded replay: %w", err)
	}
	//schedlint:ignore nondeterminism host-side stage timing for the report
	rep.ShardedSec = time.Since(t0).Seconds()
	if sres.Tasks != rep.Tasks || sres.Strands != rep.Strands {
		return nil, fmt.Errorf("exp: sharded replay executed %d tasks / %d strands, trace recorded %d / %d",
			sres.Tasks, sres.Strands, rep.Tasks, rep.Strands)
	}
	rep.ShardedWall = sres.WallCycles
	for _, sr := range sres.Sockets {
		if sr == nil {
			continue
		}
		rep.L3Misses += sr.L3Misses()
		rep.StallCycles += sr.StallCycles
	}
	rep.Fingerprint = sres.Fingerprint()
	rep.PeakWindowB = st.PeakResidentBytes()
	rep.ShardedLoads = st.FrameLoads() - rep.ReplayLoads
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.PeakSysMB = float64(ms.Sys) / (1 << 20)
	return rep, nil
}

// Print renders the report as the stable key=value lines the CI smoke job
// greps (fingerprint= in particular). The trace:, sim: and fingerprint=
// lines are deterministic; host: and memory: report host-side
// observations (stage wall-clock, decoder/runtime memory high-water
// marks, frame loads) that vary with machine load and goroutine
// interleaving.
func (rep *FullCellReport) Print(w io.Writer) {
	fmt.Fprintf(w, "fullscale cell %s/%s on %s links=%d\n", rep.Kernel, rep.Scheduler, rep.Machine, rep.LinksUsed)
	fmt.Fprintf(w, "  trace: tasks=%d strands=%d opbytes=%d filebytes=%d\n",
		rep.Tasks, rep.Strands, rep.OpBytes, rep.TraceBytes)
	shared := ""
	if rep.RecordShared {
		shared = " (shared)"
	}
	fmt.Fprintf(w, "  host: record=%.2fs%s write=%.2fs replay=%.2fs sharded=%.2fs (shards=%d)\n",
		rep.RecordSec, shared, rep.WriteSec, rep.ReplaySec, rep.ShardedSec, rep.Shards)
	fmt.Fprintf(w, "  memory: window=%d peak_window_bytes=%d frame_loads=%d sharded_frame_loads=%d runtime_sys=%.1fMB\n",
		rep.Window, rep.PeakWindowB, rep.ReplayLoads, rep.ShardedLoads, rep.PeakSysMB)
	fmt.Fprintf(w, "  sim: replay_wall=%d sharded_wall=%d l3_misses=%d stall=%d\n",
		rep.ReplayWall, rep.ShardedWall, rep.L3Misses, rep.StallCycles)
	fmt.Fprintf(w, "  fingerprint=%s\n", rep.Fingerprint)
}
