package exp

import (
	"fmt"
	"text/tabwriter"

	"repro/internal/pco"
	"repro/internal/sched"
	"repro/internal/stats"
)

// paperSchedulers is the scheduler lineup of Figs. 5 and 6 (with CilkPlus
// for validation) and figKernelSchedulers that of Figs. 8 and 9.
var (
	microSchedulers  = []string{"cilk", "ws", "pws", "sb", "sbd"}
	kernelSchedulers = []string{"ws", "pws", "sb", "sbd"}
)

// bandwidthSteps lists (linksUsed, label) for the 100/75/50/25% sweep.
var bandwidthSteps = []struct {
	links int
	label string
}{{4, "100%"}, {3, "75%"}, {2, "50%"}, {1, "25%"}}

// FigRow is one printed row of a figure's table.
type FigRow struct {
	Group     string // e.g. bandwidth label or benchmark name
	Scheduler string
	M         Metrics
}

// runSweep runs one benchmark across schedulers × bandwidths on machine m.
func (r *Runner) runSweep(label string, mk KernelFactory, schedNames []string, links []int) ([]FigRow, error) {
	m := r.P.MachineHT()
	var cells []Cell
	var rows []FigRow
	for _, lk := range links {
		for _, sn := range schedNames {
			cells = append(cells, Cell{
				Label: label, Scheduler: sn, Machine: m, LinksUsed: lk,
				MakeK: mk,
			})
		}
	}
	ms, err := r.RunGrid(cells)
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		group := fmt.Sprintf("%d/%d links", c.LinksUsed, c.Machine.Links)
		for _, b := range bandwidthSteps {
			if b.links == c.LinksUsed {
				group = b.label + " b/w"
			}
		}
		rows = append(rows, FigRow{Group: group, Scheduler: schedName(c.Scheduler), M: ms[i]})
	}
	return rows, nil
}

func schedName(key string) string {
	s := sched.New(key)
	if s == nil {
		return key
	}
	return s.Name()
}

// printTimeMissTable prints the active/overhead/L3 layout of the paper's
// bar charts.
func (r *Runner) printTimeMissTable(title string, rows []FigRow) {
	fmt.Fprintf(r.Out, "\n%s\n", title)
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "group\tscheduler\tactive(s)\toverhead(s)\ttotal(s)\tL3 misses(M)\tstall(Mcyc)")
	prev := ""
	for _, row := range rows {
		g := row.Group
		if g == prev {
			g = ""
		} else {
			prev = row.Group
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.4f\t%.3f\t%.2f\n",
			g, row.Scheduler,
			row.M.ActiveSec.Mean, row.M.OverSec.Mean, row.M.TimeSec(),
			row.M.L3Misses.Mean/1e6, row.M.DRAMStall.Mean/1e6)
	}
	tw.Flush()
}

// Fig5 reproduces Figure 5: RRM under five schedulers at four bandwidth
// settings — active time, overhead and L3 misses.
func (r *Runner) Fig5() ([]FigRow, error) {
	links := []int{4, 3, 2, 1}
	rows, err := r.runSweep("RRM", r.P.RRMFactory(), microSchedulers, links)
	if err != nil {
		return nil, err
	}
	r.printTimeMissTable(fmt.Sprintf("Figure 5: RRM on %d elements, varying memory bandwidth", r.P.RRMN), rows)
	return rows, nil
}

// Fig6 reproduces Figure 6: RRG under the same grid.
func (r *Runner) Fig6() ([]FigRow, error) {
	links := []int{4, 3, 2, 1}
	rows, err := r.runSweep("RRG", r.P.RRGFactory(), microSchedulers, links)
	if err != nil {
		return nil, err
	}
	r.printTimeMissTable(fmt.Sprintf("Figure 6: RRG on %d elements, varying memory bandwidth", r.P.RRGN), rows)
	return rows, nil
}

// Fig7 reproduces Figure 7: L3 misses for RRM and RRG as the number of
// cores per socket varies (4x1 .. 4x8 and 4x8x2 with hyperthreading).
func (r *Runner) Fig7() (map[string][]FigRow, error) {
	topos := []struct {
		label string
		cps   int
		ht    bool
	}{
		{"4 x 1", 1, false}, {"4 x 2", 2, false}, {"4 x 4", 4, false},
		{"4 x 8", 8, false}, {"4x8x2(HT)", 8, true},
	}
	out := make(map[string][]FigRow)
	for _, bench := range microKernels {
		var cells []Cell
		for _, tp := range topos {
			m := r.P.MachineVariant(tp.cps, tp.ht)
			for _, sn := range kernelSchedulers {
				cells = append(cells, Cell{
					Label: bench.name, Scheduler: sn, Machine: m, LinksUsed: m.Links,
					MakeK: r.P.factory(bench.name),
				})
			}
		}
		ms, err := r.RunGrid(cells)
		if err != nil {
			return nil, err
		}
		var rows []FigRow
		for i, c := range cells {
			rows = append(rows, FigRow{Group: topos[i/len(kernelSchedulers)].label, Scheduler: schedName(c.Scheduler), M: ms[i]})
		}
		out[bench.name] = rows
	}
	fmt.Fprintf(r.Out, "\nFigure 7: L3 misses varying cores per socket\n")
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "topology\tscheduler\tRRM L3(M)\tRRG L3(M)")
	rrm, rrg := out["RRM"], out["RRG"]
	prev := ""
	for i := range rrm {
		g := rrm[i].Group
		if g == prev {
			g = ""
		} else {
			prev = rrm[i].Group
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\n", g, rrm[i].Scheduler,
			rrm[i].M.L3Misses.Mean/1e6, rrg[i].M.L3Misses.Mean/1e6)
	}
	tw.Flush()
	return out, nil
}

// figKernels runs the five algorithmic kernels at the given bandwidth.
func (r *Runner) figKernels(title string, linksUsed int) ([]FigRow, error) {
	m := r.P.MachineHT()
	var cells []Cell
	for _, bench := range algorithmicKernels {
		for _, sn := range kernelSchedulers {
			cells = append(cells, Cell{
				Label: bench.name, Scheduler: sn, Machine: m, LinksUsed: linksUsed,
				MakeK: r.P.factory(bench.name),
			})
		}
	}
	ms, err := r.RunGrid(cells)
	if err != nil {
		return nil, err
	}
	var rows []FigRow
	for i, c := range cells {
		rows = append(rows, FigRow{Group: c.Label, Scheduler: schedName(c.Scheduler), M: ms[i]})
	}
	r.printTimeMissTable(title, rows)
	return rows, nil
}

// Fig8 reproduces Figure 8: the five kernels at full bandwidth.
func (r *Runner) Fig8() ([]FigRow, error) {
	return r.figKernels("Figure 8: algorithmic kernels at full bandwidth", 4)
}

// Fig9 reproduces Figure 9: the five kernels at 25% bandwidth.
func (r *Runner) Fig9() ([]FigRow, error) {
	return r.figKernels("Figure 9: algorithmic kernels at 25% bandwidth", 1)
}

// Fig10 reproduces Figure 10: empty-queue time of the quad-tree benchmark
// for SB and SB-D as the dilation parameter σ varies.
func (r *Runner) Fig10() ([]FigRow, error) {
	m := r.P.MachineHT()
	sigmas := []float64{0.5, 0.7, 0.9, 1.0}
	var cells []Cell
	for _, sg := range sigmas {
		for _, variant := range []string{"SB", "SB-D"} {
			sg := sg
			distributed := variant == "SB-D"
			cells = append(cells, Cell{
				Label: fmt.Sprintf("σ = %.1f", sg), Scheduler: variant, Machine: m, LinksUsed: m.Links,
				TraceID: "Quad-Tree", // σ only parameterizes the scheduler: every cell replays Fig. 8's quad-tree
				MakeK:   r.P.QuadtreeFactory(),
				MakeS: func() sched.Scheduler {
					if distributed {
						return sched.NewSBD(sg, sched.DefaultMu)
					}
					return sched.NewSB(sg, sched.DefaultMu)
				},
			})
		}
	}
	ms, err := r.RunGrid(cells)
	if err != nil {
		return nil, err
	}
	var rows []FigRow
	fmt.Fprintf(r.Out, "\nFigure 10: quad-tree empty-queue time vs dilation σ\n")
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "sigma\tscheduler\tempty-queue(ms)\ttotal(s)")
	prev := ""
	for i, c := range cells {
		rows = append(rows, FigRow{Group: c.Label, Scheduler: c.Scheduler, M: ms[i]})
		g := c.Label
		if g == prev {
			g = ""
		} else {
			prev = c.Label
		}
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.4f\n", g, c.Scheduler, ms[i].EmptySec.Mean*1e3, ms[i].TimeSec())
	}
	tw.Flush()
	return rows, nil
}

// Validate reproduces the framework-validation comparison of §5: our WS
// implementation against the CilkPlus cost profile on the two synthetic
// micro-benchmarks. The paper's claim is that WS "well-represents" the
// commercial scheduler: total times should agree within a few percent.
func (r *Runner) Validate() (map[string][2]Metrics, error) {
	out := make(map[string][2]Metrics)
	m := r.P.MachineHT()
	for _, bench := range microKernels {
		mk := r.P.factory(bench.name)
		cells := []Cell{
			{Label: bench.name, Scheduler: "cilk", Machine: m, LinksUsed: m.Links, MakeK: mk},
			{Label: bench.name, Scheduler: "ws", Machine: m, LinksUsed: m.Links, MakeK: mk},
		}
		ms, err := r.RunGrid(cells)
		if err != nil {
			return nil, err
		}
		out[bench.name] = [2]Metrics{ms[0], ms[1]}
	}
	fmt.Fprintf(r.Out, "\nFramework validation: WS vs CilkPlus profile\n")
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tCilkPlus(s)\tWS(s)\tdelta\tCilk L3(M)\tWS L3(M)")
	for _, bench := range microKernels {
		pair := out[bench.name]
		delta := stats.PercentChange(pair[0].TimeSec(), pair[1].TimeSec())
		fmt.Fprintf(tw, "%s\t%.4f\t%.4f\t%+.1f%%\t%.3f\t%.3f\n",
			bench.name, pair[0].TimeSec(), pair[1].TimeSec(), delta,
			pair[0].M3(), pair[1].M3())
	}
	tw.Flush()
	return out, nil
}

// M3 returns mean L3 misses in millions.
func (m Metrics) M3() float64 { return m.L3Misses.Mean / 1e6 }

// ModelCheck reproduces §5.3's analytic cache-miss model for RRM: the
// measured SB misses should track r × levels(σM3) × 16n/B, and the WS
// misses r × levels(M3/16) × 16n/B ("the recursion has to unravel to
// one-sixteenth the size of L3 before work-stealing preserves locality").
type ModelCheck struct {
	MeasuredSB, MeasuredWS float64
	ModelSB, ModelWS       int64
}

// Model runs RRM under SB and WS at full bandwidth and compares measured
// L3 misses with the analytic §5.3 model.
func (r *Runner) Model() (ModelCheck, error) {
	m := r.P.MachineHT()
	cells := []Cell{
		{Label: "RRM", Scheduler: "sb", Machine: m, LinksUsed: m.Links, MakeK: r.P.RRMFactory()},
		{Label: "RRM", Scheduler: "ws", Machine: m, LinksUsed: m.Links, MakeK: r.P.RRMFactory()},
	}
	ms, err := r.RunGrid(cells)
	if err != nil {
		return ModelCheck{}, err
	}
	l3 := m.Levels[1].Size
	htPerSocket := m.CoresPerNode(1)
	mc := ModelCheck{
		MeasuredSB: ms[0].L3Misses.Mean,
		MeasuredWS: ms[1].L3Misses.Mean,
		ModelSB:    pco.RRMMissModel(r.P.RRMN, 3, int64(sched.DefaultSigma*float64(l3)), m.Block()),
		ModelWS:    pco.RRMMissModel(r.P.RRMN, 3, l3/int64(htPerSocket), m.Block()),
	}
	fmt.Fprintf(r.Out, "\n§5.3 analytic model check (RRM, n=%d, L3=%d, %d threads/L3)\n", r.P.RRMN, l3, htPerSocket)
	tw := tabwriter.NewWriter(r.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheduler\tmeasured L3(M)\tmodel L3(M)\tratio")
	fmt.Fprintf(tw, "SB\t%.3f\t%.3f\t%.2f\n", mc.MeasuredSB/1e6, float64(mc.ModelSB)/1e6, mc.MeasuredSB/float64(mc.ModelSB))
	fmt.Fprintf(tw, "WS\t%.3f\t%.3f\t%.2f\n", mc.MeasuredWS/1e6, float64(mc.ModelWS)/1e6, mc.MeasuredWS/float64(mc.ModelWS))
	tw.Flush()
	return mc, nil
}
