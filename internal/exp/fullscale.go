package exp

// Full-scale grid cells: record once, straight into a framed file, then
// replay through the bounded window — unsharded on the full machine and
// sharded across per-socket simulations — so one Fig. 8 cell at the
// paper's real input sizes (×1: 24MB L3, 100M-element-class inputs)
// completes in minutes with recorder and decoder memory independent of
// the trace's op volume.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dagtrace"
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
// (dagtrace.Record), and no cache key or file layout depends on it. Its
// one remaining user is bench/schedperf's traced cell path, which still
// records live under it; such a recording replays identically.
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
	RecordSec   float64 // sequential recording, op frames written as strands finish, + output check (0 when RecordShared)
	WriteSec    float64 // completing the file: structure check, metadata block, rename (0 when RecordShared)
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
	cache     *dagtrace.StreamCache // the directory cache to record into (see fileTraces)
	budget    *dagtrace.Budget      // shared window budget (nil = per-stream only)
	unsharded bool                  // also replay unsharded on the full machine
	window    int64                 // decoder window override (0 = r.replayWindow())
	degraded  bool                  // mark the report as degraded-mode execution
}

// fileTraces returns the directory cache a full-scale run records into,
// since its recordings must be files: r.Traces when it has a directory,
// else one over runDir/traces when runDir is set (so a resumed or retried
// run adopts its recordings), else one over a fresh temp directory.
// cleanup removes that temp directory; otherwise it does nothing.
func (r *Runner) fileTraces(runDir string) (cache *dagtrace.StreamCache, cleanup func(), err error) {
	cleanup = func() {}
	switch {
	case r.Traces != nil && r.Traces.Dir() != "":
		return r.Traces, cleanup, nil
	case runDir != "":
		cache, err = dagtrace.NewStreamCache(filepath.Join(runDir, "traces"))
		return cache, cleanup, err
	}
	dir, err := os.MkdirTemp("", "fullscale-")
	if err != nil {
		return nil, nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	if cache, err = dagtrace.NewStreamCache(dir); err != nil {
		cleanup()
		return nil, nil, err
	}
	return cache, cleanup, nil
}

// FullCell runs one full-scale grid cell end to end: record the kernel
// sequentially for the profile's machine (dagtrace.Record) straight into
// a framed file, open it through a window of r.ReplayWindow bytes,
// replay it unsharded on the full machine, then partition it and replay
// it sharded over the machine's sockets on r.Shards host goroutines. The
// sharded fingerprint it reports is invariant under r.Shards; the
// fullscale-smoke CI job pins that by diffing two runs. When r.Traces has
// a directory the recording resolves through it, under the key a RunGrid
// cell of the same kernel uses, so a recording already there is reused;
// otherwise it goes to a temp directory removed on return.
func (r *Runner) FullCell(kernel, schedName string) (*FullCellReport, error) {
	if _, err := r.fullGridCells([]string{kernel}, []string{schedName}, nil); err != nil {
		return nil, err
	}
	cache, cleanup, err := r.fileTraces("")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	return r.fullCell(kernel, schedName, fullCellOpts{cache: cache, unsharded: true})
}

// replayWindow is the decoder window a full-scale replay opens its
// recording through, and the one FullCellReport and FullGridReport
// report: r.ReplayWindow, or dagtrace.DefaultWindowBytes when that is 0.
func (r *Runner) replayWindow() int64 {
	if r.ReplayWindow <= 0 {
		return dagtrace.DefaultWindowBytes
	}
	return r.ReplayWindow
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
		window = r.replayWindow()
	}
	rep := &FullCellReport{
		Kernel: kernel, Scheduler: schedName, Machine: m.Name,
		LinksUsed: c.LinksUsed, Shards: r.Shards, Window: window, Degraded: o.degraded,
	}

	// Stage 1: resolve the framed recording through the directory cache
	// (one recording per kernel key, whoever gets there first). It
	// streams into its file, so no op region is ever held in memory.
	rec, err := r.record(o.cache, r.traceKey(c, seed), c, seed)
	if err != nil {
		return nil, fmt.Errorf("exp: full-scale record: %w", err)
	}
	rep.RecordShared, rep.RecordSec, rep.WriteSec = rec.shared, rec.recordSec, rec.writeSec
	if fi, err := os.Stat(rec.Path); err == nil {
		rep.TraceBytes = fi.Size()
	}
	// Collect what recording left behind (the recorder's node table and op
	// buffer) before the replay allocates its address space and node
	// table: without the nudge the two stack up, and the quick full grid's
	// peak RSS grows by almost half.
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
