package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunGridVerboseConcurrent exercises the verbose progress printing
// with several concurrent cell workers sharing one output writer, first
// through RunGrid and then through a two-worker FullGridRun, which prints
// through the same dispatcher. Run under -race (as CI does) this is a
// regression test for the data race where workers called fmt.Fprintf on
// the shared Runner.Out without synchronization.
func TestRunGridVerboseConcurrent(t *testing.T) {
	p := Quick()
	p.Reps = 1
	p.RRMN = 4000
	m := p.MachineHT()
	var cells []Cell
	for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
		cells = append(cells, Cell{
			Label:     "rrm",
			Scheduler: sc,
			Machine:   m,
			LinksUsed: m.Links,
			MakeK:     p.RRMFactory(),
		})
	}
	var buf bytes.Buffer
	r := NewRunner(p, &buf)
	r.Workers = len(cells)
	r.Verbose = true
	if _, err := r.RunGrid(cells); err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if got := strings.Count(buf.String(), "# done"); got != len(cells) {
		t.Errorf("want %d verbose progress lines, got %d:\n%s", len(cells), got, buf.String())
	}

	r.Workers = 2
	rep, err := r.FullGridRun(context.Background(), []string{"RRM"}, []string{"ws", "sb"}, nil, GridRunOpts{})
	if err != nil {
		t.Fatalf("FullGridRun: %v", err)
	}
	if got, want := strings.Count(buf.String(), "# done"), len(cells)+len(rep.Cells); got != want {
		t.Errorf("want %d verbose progress lines after FullGridRun, got %d:\n%s", want, got, buf.String())
	}
}
