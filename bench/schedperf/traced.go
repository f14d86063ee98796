package main

// The traced runs: each workload's computation with the layer decorators
// attached. The cells are decomposed into the stages Runner.FullCell runs,
// called through each layer's public API; the Fig. 8/9 grid runs the same
// cells through a RunGrid whose scheduler and kernel factories are
// decorated; FullGridRun stays a black box read through its report and
// its run directory.

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/dagtrace"
	"repro/internal/exp"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/runlog"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/sim"
)

const mib = 1 << 20

// metricDef names one reported metric. better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// layerMetrics are the per-layer metrics a traced run reports, in report
// order. A layer a workload's pipeline does not pass through reads 0.
var layerMetrics = []metricDef{
	// sim: engine event loop, worker handoff, inline interpreter.
	{"sim.record_s", "s", "lower"},
	{"sim.record_self_s", "s", "lower"},
	{"sim.replay_s", "s", "lower"},
	{"sim.replay_self_s", "s", "lower"},
	{"sim.strands", "count", "lower"},
	{"sim.ns_per_access_record", "ns", "lower"},
	{"sim.ns_per_access_replay", "ns", "lower"},
	// cachesim: exact work counters, identical under any speed-only change.
	{"cachesim.l1_accesses", "count", "lower"},
	{"cachesim.l3_misses", "count", "lower"},
	{"cachesim.dram_lines", "count", "lower"},
	{"cachesim.stall_cycles", "cycles", "lower"},
	// sched: the add/get/done/taskEnd callbacks.
	{"sched.add_calls", "count", "lower"},
	{"sched.get_calls", "count", "lower"},
	{"sched.get_empty_ratio", "ratio", "lower"},
	{"sched.done_calls", "count", "lower"},
	{"sched.taskend_calls", "count", "lower"},
	{"sched.host_s", "s", "lower"},
	{"sched.ns_per_call", "ns", "lower"},
	{"sched.sim_overhead_cycles", "cycles", "lower"},
	// kernels: input construction.
	{"kernels.build_s", "s", "lower"},
	// dagtrace recorder and codec.
	{"dagtrace.recorder_s", "s", "lower"},
	{"dagtrace.recorder_events", "count", "lower"},
	{"dagtrace.finish_s", "s", "lower"},
	{"dagtrace.op_bytes", "bytes", "lower"},
	{"dagtrace.bytes_per_op", "bytes", "lower"},
	{"dagtrace.frame_s", "s", "lower"},
	{"dagtrace.frame_mb_per_s", "MB/s", "higher"},
	{"dagtrace.file_bytes", "bytes", "lower"},
	// dagtrace stream decode and partition.
	{"dagtrace.open_s", "s", "lower"},
	{"dagtrace.read_calls", "count", "lower"},
	{"dagtrace.read_bytes", "bytes", "lower"},
	{"dagtrace.read_s", "s", "lower"},
	{"dagtrace.read_amplification", "ratio", "lower"},
	{"dagtrace.peak_resident_mb", "MB", "lower"},
	{"dagtrace.partition_s", "s", "lower"},
	{"dagtrace.pieces", "count", "lower"},
	// dagtrace caches.
	{"dagtrace.cache_hit_rate", "ratio", "higher"},
	{"dagtrace.recordings", "count", "lower"},
	// shard: per-socket sharded replay.
	{"shard.replay_s", "s", "lower"},
	{"shard.self_s", "s", "lower"},
	{"shard.sched_host_s", "s", "lower"},
	// exp grid engines.
	{"exp.rungrid_s", "s", "lower"},
	{"exp.fullgrid.grid_s", "s", "lower"},
	{"exp.fullgrid.sum_cell_s", "s", "lower"},
	{"exp.fullgrid.concurrency", "ratio", "higher"},
	{"exp.fullgrid.degraded_cells", "count", "lower"},
	{"exp.fullgrid.retries", "count", "lower"},
	{"exp.fullgrid.peak_budget_mb", "MB", "lower"},
	// runlog: the grid journal.
	{"runlog.journal_bytes", "bytes", "lower"},
	{"runlog.records", "count", "lower"},
	// Go runtime over the whole untraced run.
	{"host.allocs", "count", "lower"},
	{"host.gc_pause_s", "s", "lower"},
	// The trace itself: traced over untraced wall time, and the share of
	// the traced run the named spans cover.
	{"trace_overhead", "ratio", "lower"},
	{"span_coverage", "ratio", "higher"},
}

// tracedCell is Runner.FullCell's pipeline — record, frame, streamed
// replay on the full machine, partition, sharded replay — called stage by
// stage with every layer decorated.
func tracedCell(kernel string) func(uint64, string, *tracer) ([]string, error) {
	return func(seed uint64, dir string, t *tracer) ([]string, error) {
		p := quick(seed)
		m := p.MachineHT()
		mk, err := p.FullKernelFactory(kernel)
		if err != nil {
			return nil, err
		}

		var k kernels.Kernel
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		t.span("kernels.build", func() error { k = mk(sp, m, seed); return nil })
		rec := &timedRecorder{Recorder: dagtrace.NewRecorder()}
		recSched := t.sched("record", exp.FullRecordSched)
		if err := t.span("sim.record", func() error {
			_, err := sim.Run(sim.Config{Machine: m, Space: sp, Scheduler: recSched, Seed: seed, Listener: rec}, k.Root())
			return err
		}); err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		if err := t.span("kernels.verify", k.Verify); err != nil {
			return nil, fmt.Errorf("record: output verification failed: %w", err)
		}
		var tr *dagtrace.Trace
		if err := t.span("dagtrace.finish", func() (err error) { tr, err = rec.Finish(); return err }); err != nil {
			return nil, fmt.Errorf("finish: %w", err)
		}
		path := filepath.Join(dir, "cell.dgts")
		if err := t.span("dagtrace.frame", func() error { return dagtrace.WriteFramed(tr, path, 0) }); err != nil {
			return nil, fmt.Errorf("frame: %w", err)
		}
		opBytes := tr.OpBytes()
		ops := float64(tr.AccessOps + tr.WorkOps)
		// Release the arena and the kernel's arrays before replaying, as
		// FullCell does.
		tr, k, sp = nil, nil, nil
		t.span("host.gc", func() error { runtime.GC(); return nil })

		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return nil, err
		}
		ra := &timedReaderAt{r: f}
		var st *dagtrace.StreamTrace
		if err := t.span("dagtrace.open", func() (err error) { st, err = dagtrace.NewStream(ra, fi.Size(), 0); return err }); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		defer st.Close()

		readBefore := ra.ns.Load()
		var res *sim.Result
		replaySched := t.sched("replay", cellSched)
		if err := t.span("sim.replay", func() (err error) {
			rsp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
			if res, err = sim.Run(sim.Config{Machine: m, Space: rsp, Scheduler: replaySched, Seed: seed}, st.Root()); err != nil {
				return err
			}
			return st.CheckResult(res)
		}); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		replayRead := float64(ra.ns.Load()-readBefore) / 1e9

		var part *dagtrace.Partition
		if err := t.span("dagtrace.partition", func() (err error) {
			part, err = dagtrace.PartitionStream(st, 2*m.Levels[0].Fanout)
			return err
		}); err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}
		roots := make([]shard.Root, len(part.Pieces))
		for i, pc := range part.Pieces {
			roots[i] = shard.Root{Job: pc.Root, Weight: pc.Weight}
		}
		readBefore = ra.ns.Load()
		var sres *shard.Result
		if err := t.span("shard.replay", func() (err error) {
			sres, err = shard.Replay(shard.Config{
				Machine: m, MakeSched: t.schedFactory("shard", cellSched), Seed: seed,
				Shards: cellShards, PageSize: p.PageSize(), LinksUsed: m.Links,
			}, roots)
			return err
		}); err != nil {
			return nil, fmt.Errorf("sharded replay: %w", err)
		}
		shardRead := float64(ra.ns.Load()-readBefore) / 1e9
		if sres.Tasks != st.TaskCount || sres.Strands != st.StrandCount {
			return nil, fmt.Errorf("sharded replay executed %d tasks / %d strands, trace recorded %d / %d",
				sres.Tasks, sres.Strands, st.TaskCount, st.StrandCount)
		}

		accesses := float64(st.AccessOps)
		record, replay, sharded := t.spanSeconds("sim.record"), t.spanSeconds("sim.replay"), t.spanSeconds("shard.replay")
		t.set("sim.record_s", record)
		t.set("sim.record_self_s", record-t.schedHost("record")-rec.events.hostSeconds(t.clockNS))
		t.set("sim.replay_s", replay)
		t.set("sim.replay_self_s", replay-t.schedHost("replay")-replayRead)
		t.set("sim.strands", float64(res.Strands))
		t.set("sim.ns_per_access_record", record*1e9/accesses)
		t.set("sim.ns_per_access_replay", replay*1e9/accesses)
		overhead := res.OverheadAvg()
		for _, sr := range sres.Sockets {
			if sr == nil {
				continue
			}
			t.add("cachesim.l3_misses", float64(sr.L3Misses()))
			t.add("cachesim.dram_lines", float64(sr.DRAMAccesses))
			t.add("cachesim.stall_cycles", float64(sr.StallCycles))
			overhead += sr.OverheadAvg()
		}
		t.set("cachesim.l1_accesses", float64(sres.Accesses))
		t.setSchedMetrics()
		t.set("sched.sim_overhead_cycles", overhead)
		t.set("kernels.build_s", t.spanSeconds("kernels.build"))
		t.set("dagtrace.recorder_s", rec.events.hostSeconds(t.clockNS))
		t.set("dagtrace.recorder_events", float64(rec.events.calls))
		t.set("dagtrace.finish_s", t.spanSeconds("dagtrace.finish"))
		t.set("dagtrace.op_bytes", float64(opBytes))
		t.set("dagtrace.bytes_per_op", ratio(float64(opBytes), ops))
		frame := t.spanSeconds("dagtrace.frame")
		t.set("dagtrace.frame_s", frame)
		t.set("dagtrace.frame_mb_per_s", ratio(float64(fi.Size())/mib, frame))
		t.set("dagtrace.file_bytes", float64(fi.Size()))
		t.set("dagtrace.open_s", t.spanSeconds("dagtrace.open"))
		t.set("dagtrace.read_calls", float64(ra.calls.Load()))
		t.set("dagtrace.read_bytes", float64(ra.bytes.Load()))
		t.set("dagtrace.read_s", float64(ra.ns.Load())/1e9)
		t.set("dagtrace.read_amplification", ratio(float64(ra.bytes.Load()), float64(fi.Size())))
		t.set("dagtrace.peak_resident_mb", float64(st.PeakResidentBytes())/mib)
		t.set("dagtrace.partition_s", t.spanSeconds("dagtrace.partition"))
		t.set("dagtrace.pieces", float64(len(part.Pieces)))
		t.set("dagtrace.recordings", 1)
		shardSched := t.schedHost("shard")
		t.set("shard.replay_s", sharded)
		// Sockets replay concurrently on cellShards goroutines, so the
		// callbacks' summed host time is spread over that many cores.
		t.set("shard.self_s", sharded-(shardSched+shardRead)/cellShards)
		t.set("shard.sched_host_s", shardSched)
		return []string{cellDigest(sres.Fingerprint(), res.WallCycles)}, nil
	}
}

// figCells are the cells Fig8 (links=4) or Fig9 (links=1) runs, in the
// same order, with decorated scheduler and kernel factories.
func figCells(p exp.Profile, links int, t *tracer) []exp.Cell {
	m := p.MachineHT()
	lineup := []struct {
		name string
		mk   exp.KernelFactory
	}{
		{"Quicksort", p.QuicksortFactory()},
		{"Samplesort", p.SamplesortFactory()},
		{"AwareSamplesort", p.AwareSamplesortFactory()},
		{"Quad-Tree", p.QuadtreeFactory()},
		{"MatMul", p.MatMulFactory()},
	}
	var cells []exp.Cell
	for _, k := range lineup {
		for _, sn := range []string{"ws", "pws", "sb", "sbd"} {
			cells = append(cells, exp.Cell{
				Label: k.name, Scheduler: sn, Machine: m, LinksUsed: links,
				MakeK: t.kernel(k.mk), MakeS: t.schedFactory("grid", sn),
			})
		}
	}
	return cells
}

func tracedFigGrid(seed uint64, _ string, t *tracer) ([]string, error) {
	p := figProfile(seed)
	r := exp.NewRunner(p, io.Discard)
	var digests []string
	var l3, stall, overhead float64
	for _, fig := range []struct {
		span  string
		links int
	}{{"exp.fig8", 4}, {"exp.fig9", 1}} {
		cells := figCells(p, fig.links, t)
		var ms []exp.Metrics
		if err := t.span(fig.span, func() (err error) { ms, err = r.RunGrid(cells); return err }); err != nil {
			return nil, err
		}
		for i, c := range cells {
			digests = append(digests, rowDigest(c.Label, sched.New(c.Scheduler).Name(), ms[i]))
			l3 += ms[i].L3Misses.Mean
			stall += ms[i].DRAMStall.Mean
			overhead += ms[i].OverSec.Mean * c.Machine.ClockGHz * 1e9
		}
	}
	t.setSchedMetrics()
	t.set("sched.sim_overhead_cycles", overhead)
	t.set("cachesim.l3_misses", l3)
	t.set("cachesim.stall_cycles", stall)
	s := r.Traces.Stats()
	t.set("dagtrace.cache_hit_rate", s.HitRate())
	t.set("dagtrace.recordings", float64(s.Misses))
	t.set("exp.rungrid_s", t.spanSeconds("exp.fig8")+t.spanSeconds("exp.fig9"))
	return digests, nil
}

func tracedFullGrid(seed uint64, dir string, t *tracer) ([]string, error) {
	runDir := filepath.Join(dir, "run")
	var rep *exp.FullGridReport
	if err := t.span("exp.fullgrid", func() (err error) { rep, err = fullGrid(seed, runDir); return err }); err != nil {
		return nil, err
	}
	var records int
	var journalBytes int64
	if err := t.span("runlog.read", func() error {
		j, _, recs, err := runlog.Open(runDir)
		if err != nil {
			return err
		}
		records = len(recs)
		if err := j.Close(); err != nil {
			return err
		}
		// The journal is everything in the run directory but the
		// recordings it shares with the framed-trace cache.
		return filepath.WalkDir(runDir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "traces" {
				return filepath.SkipDir
			}
			if d.Type().IsRegular() {
				info, err := d.Info()
				if err != nil {
					return err
				}
				journalBytes += info.Size()
			}
			return nil
		})
	}); err != nil {
		return nil, fmt.Errorf("reading the run journal: %w", err)
	}

	var record, write, sharded, strands, l3, stall, opBytes, fileBytes float64
	var peakWindow int64
	for _, c := range rep.Cells {
		record += c.RecordSec
		write += c.WriteSec
		sharded += c.ShardedSec
		strands += float64(c.Strands)
		l3 += float64(c.L3Misses)
		stall += float64(c.StallCycles)
		if !c.RecordShared {
			opBytes += float64(c.OpBytes)
			fileBytes += float64(c.TraceBytes)
		}
		peakWindow = max(peakWindow, c.PeakWindowB)
	}
	t.set("sim.record_s", record)
	t.set("sim.strands", strands)
	t.set("cachesim.l3_misses", l3)
	t.set("cachesim.stall_cycles", stall)
	t.set("dagtrace.op_bytes", opBytes)
	t.set("dagtrace.frame_s", write)
	t.set("dagtrace.frame_mb_per_s", ratio(fileBytes/mib, write))
	t.set("dagtrace.file_bytes", fileBytes)
	t.set("dagtrace.peak_resident_mb", float64(peakWindow)/mib)
	t.set("dagtrace.cache_hit_rate", rep.CacheStats.HitRate())
	t.set("dagtrace.recordings", float64(rep.Recordings))
	t.set("shard.replay_s", sharded)
	t.set("exp.fullgrid.grid_s", rep.GridSec)
	t.set("exp.fullgrid.sum_cell_s", rep.SumCellSec)
	t.set("exp.fullgrid.concurrency", ratio(rep.SumCellSec, rep.GridSec))
	t.set("exp.fullgrid.degraded_cells", float64(rep.DegradedCells))
	t.set("exp.fullgrid.retries", float64(rep.Retries))
	t.set("exp.fullgrid.peak_budget_mb", float64(rep.PeakBudgetBytes)/mib)
	t.set("runlog.journal_bytes", float64(journalBytes))
	t.set("runlog.records", float64(records))
	return gridDigests(rep), nil
}
