package exp

import (
	"fmt"
	"text/tabwriter"

	"repro/internal/sched"
)

// The ablation experiments probe the engineering choices DESIGN.md calls
// out beyond the paper's own sweeps (σ is Fig. 10):
//
//   - µ, the strand-occupancy cap the paper introduces to "allow several
//     large strands to be explored simultaneously ... so that the
//     scheduler can achieve better load balance";
//   - the top-bucket organization (SB's single queue vs SB-D's
//     distributed queues) measured directly as scheduler overhead across
//     machine sizes;
//   - the simulator's own interleaving granularity (chunk size), a pure
//     robustness check: measured misses must not depend on it.

// MuSweep runs the quad-tree benchmark under SB with varying µ and
// reports empty-queue time and misses: small µ starves concurrency (the
// bound admits fewer large strands), large µ gives up bound tightness.
func (r *Runner) MuSweep() ([]FigRow, error) {
	m := r.P.MachineHT()
	mus := []float64{0.05, 0.2, 0.5, 1.0}
	var cells []Cell
	for _, mu := range mus {
		mu := mu
		cells = append(cells, Cell{
			Label: fmt.Sprintf("µ = %.2f", mu), Scheduler: "SB", Machine: m, LinksUsed: m.Links,
			TraceID: "Quad-Tree", // µ only parameterizes the scheduler: every cell replays Fig. 8's quad-tree
			MakeK:   r.P.QuadtreeFactory(),
			MakeS:   func() sched.Scheduler { return sched.NewSB(sched.DefaultSigma, mu) },
		})
	}
	ms, err := r.RunGrid(cells)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.Out, "\nAblation: strand-occupancy parameter µ (quad-tree, SB, σ=0.5)\n")
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mu\tempty-queue(ms)\ttotal(s)\tL3 misses(M)")
	var rows []FigRow
	for i, c := range cells {
		rows = append(rows, FigRow{Group: c.Label, Scheduler: c.Scheduler, M: ms[i]})
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%.3f\n", c.Label, ms[i].EmptySec.Mean*1e3, ms[i].TimeSec(), ms[i].M3())
	}
	tw.Flush()
	return rows, nil
}

// QueueContention measures the scheduler-overhead components of SB vs
// SB-D as core count grows: the distributed top bucket exists to remove
// the centralized queueing hotspot (§4.2 problem (ii)).
func (r *Runner) QueueContention() ([]FigRow, error) {
	cells := r.queueContentionCells()
	ms, err := r.RunGrid(cells)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.Out, "\nAblation: top-bucket organization (RRM, scheduler overhead)\n")
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "cores\tscheduler\tadd+get+done(ms)\tempty(ms)\ttotal(s)")
	var rows []FigRow
	for i, c := range cells {
		rows = append(rows, FigRow{Group: c.Label, Scheduler: c.Scheduler, M: ms[i]})
		callbacks := ms[i].OverSec.Mean - ms[i].EmptySec.Mean
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.4f\n",
			c.Label, c.Scheduler, callbacks*1e3, ms[i].EmptySec.Mean*1e3, ms[i].TimeSec())
	}
	tw.Flush()
	return rows, nil
}

// queueContentionCells builds QueueContention's grid: SB, SB-D and PDF on
// three of Fig. 7's topologies.
func (r *Runner) queueContentionCells() []Cell {
	topos := []struct {
		label string
		cps   int
		ht    bool
	}{{"4 x 2", 2, false}, {"4 x 8", 8, false}, {"4x8x2(HT)", 8, true}}
	var cells []Cell
	for _, tp := range topos {
		m := r.P.MachineVariant(tp.cps, tp.ht)
		// PDF is included as the fully centralized extreme: one shared
		// depth-first pool, whose single lock is the worst case of the
		// hotspot SB-D's distributed top buckets remove.
		for _, sn := range []string{"sb", "sbd", "pdf"} {
			cells = append(cells, Cell{
				Label: tp.label, Scheduler: schedName(sn), Machine: m, LinksUsed: m.Links,
				TraceID: "RRM", // the label names the topology: every cell replays Fig. 7's RRM on its machine
				MakeK:   r.P.RRMFactory(),
			})
		}
	}
	return cells
}

// ChunkSensitivity re-runs one cell at several interleaving granularities.
// This is a validity check on the simulator itself: the paper's metrics
// must be properties of the schedule, not of the engine's chunking.
func (r *Runner) ChunkSensitivity() ([]FigRow, error) {
	m := r.P.MachineHT()
	chunks := []int64{1024, 4096, 16384}
	var cells []Cell
	for _, ch := range chunks {
		cost := sched.DefaultCosts()
		cost.ChunkCycles = ch
		cells = append(cells, Cell{
			Label: fmt.Sprintf("chunk %d", ch), Scheduler: "WS", Machine: m, LinksUsed: m.Links,
			// The chunk size lives in the cost model, not the DAG: replaying one
			// recording under each chunk still re-simulates every interleaving.
			TraceID: "RRM", // Fig. 5's RRM
			MakeK:   r.P.RRMFactory(), Cost: cost,
		})
	}
	ms, err := r.RunGrid(cells)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.Out, "\nAblation: engine interleaving granularity (RRM, WS)\n")
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "chunk(cycles)\tL3 misses(M)\ttotal(s)")
	var rows []FigRow
	for i, c := range cells {
		rows = append(rows, FigRow{Group: c.Label, Scheduler: c.Scheduler, M: ms[i]})
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\n", c.Label, ms[i].M3(), ms[i].TimeSec())
	}
	tw.Flush()
	return rows, nil
}

// Ablations runs all three ablation studies.
func (r *Runner) Ablations() error {
	if _, err := r.MuSweep(); err != nil {
		return err
	}
	if _, err := r.QueueContention(); err != nil {
		return err
	}
	_, err := r.ChunkSensitivity()
	return err
}
