package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/machine"
	"repro/internal/mem"
)

func quickRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return NewRunner(Quick(), &buf), &buf
}

// metricsBy collects rows of one scheduler across groups.
func metricsBy(rows []FigRow, sched string) []Metrics {
	var out []Metrics
	for _, r := range rows {
		if r.Scheduler == sched {
			out = append(out, r.M)
		}
	}
	return out
}

// groupRows returns rows of one group.
func groupRows(rows []FigRow, group string) map[string]Metrics {
	out := make(map[string]Metrics)
	for _, r := range rows {
		if r.Group == group {
			out[r.Scheduler] = r.M
		}
	}
	return out
}

func TestFig5ShapesHold(t *testing.T) {
	r, buf := quickRunner(t)
	rows, err := r.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 { // 4 bandwidths × 5 schedulers
		t.Fatalf("Fig5 rows = %d, want 20", len(rows))
	}
	full := groupRows(rows, "100% b/w")
	// Headline: SB reduces L3 misses versus WS substantially.
	red := 100 * (full["WS"].L3Misses.Mean - full["SB"].L3Misses.Mean) / full["WS"].L3Misses.Mean
	if red < 15 {
		t.Errorf("SB vs WS L3 reduction = %.1f%%, want substantial (paper: 42-44%%)", red)
	}
	// SB misses are insensitive to bandwidth.
	quarter := groupRows(rows, "25% b/w")
	ratio := quarter["SB"].L3Misses.Mean / full["SB"].L3Misses.Mean
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("SB misses vary with bandwidth: ratio %.2f", ratio)
	}
	// At 25%% bandwidth the active time rises for every scheduler.
	for _, s := range []string{"WS", "SB"} {
		if quarter[s].ActiveSec.Mean <= full[s].ActiveSec.Mean {
			t.Errorf("%s: active time did not rise when bandwidth dropped (%.4g vs %.4g)",
				s, quarter[s].ActiveSec.Mean, full[s].ActiveSec.Mean)
		}
	}
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Error("missing table output")
	}
}

func TestFig7MissesGrowWithCoresForWSOnly(t *testing.T) {
	r, _ := quickRunner(t)
	out, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	rrm := out["RRM"]
	small := groupRows(rrm, "4 x 1")
	big := groupRows(rrm, "4x8x2(HT)")
	// WS misses grow substantially with more cores per socket sharing L3;
	// SB misses stay within noise.
	wsGrowth := big["WS"].L3Misses.Mean / small["WS"].L3Misses.Mean
	sbGrowth := big["SB"].L3Misses.Mean / small["SB"].L3Misses.Mean
	if wsGrowth < 1.15 {
		t.Errorf("WS miss growth with cores = %.2fx, expected growth", wsGrowth)
	}
	if sbGrowth > wsGrowth {
		t.Errorf("SB miss growth (%.2fx) exceeds WS (%.2fx)", sbGrowth, wsGrowth)
	}
}

func TestFig10SigmaLoadBalance(t *testing.T) {
	r, _ := quickRunner(t)
	rows, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("Fig10 rows = %d, want 8", len(rows))
	}
	lo := groupRows(rows, "σ = 0.5")
	hi := groupRows(rows, "σ = 1.0")
	// σ=1.0 anchors cache-filling tasks, hurting load balance: empty-queue
	// time should not be lower than at σ=0.5.
	if hi["SB"].EmptySec.Mean < lo["SB"].EmptySec.Mean*0.8 {
		t.Errorf("σ=1.0 empty time (%.4g) markedly below σ=0.5 (%.4g)",
			hi["SB"].EmptySec.Mean, lo["SB"].EmptySec.Mean)
	}
}

func TestValidateWSRepresentsCilk(t *testing.T) {
	r, _ := quickRunner(t)
	out, err := r.Validate()
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range out {
		cilk, ws := pair[0], pair[1]
		// Identical policy, near-identical cache behavior.
		mratio := ws.L3Misses.Mean / cilk.L3Misses.Mean
		if mratio < 0.85 || mratio > 1.15 {
			t.Errorf("%s: WS/Cilk miss ratio %.2f", name, mratio)
		}
		// Total time within ~15%% (paper: "well-represents").
		tratio := ws.TimeSec() / cilk.TimeSec()
		if tratio < 0.8 || tratio > 1.25 {
			t.Errorf("%s: WS/Cilk time ratio %.2f", name, tratio)
		}
	}
}

func TestModelCheckTracks(t *testing.T) {
	r, _ := quickRunner(t)
	mc, err := r.Model()
	if err != nil {
		t.Fatal(err)
	}
	// Measured-to-model ratios should be O(1): within [0.4, 2.5].
	for _, pair := range []struct {
		name     string
		measured float64
		model    int64
	}{{"SB", mc.MeasuredSB, mc.ModelSB}, {"WS", mc.MeasuredWS, mc.ModelWS}} {
		ratio := pair.measured / float64(pair.model)
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("%s measured/model = %.2f (measured %.3gM, model %.3gM)",
				pair.name, ratio, pair.measured/1e6, float64(pair.model)/1e6)
		}
	}
	// And the model's ordering must hold in the measurement.
	if mc.MeasuredSB >= mc.MeasuredWS {
		t.Errorf("SB misses (%.3g) not below WS misses (%.3g)", mc.MeasuredSB, mc.MeasuredWS)
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range []Profile{Quick(), Paper()} {
		if p.Reps < 1 || p.RRMN <= 0 || p.SortN <= 0 || p.MatmulN <= 0 {
			t.Errorf("profile %s has zero fields", p.Name)
		}
		m := p.MachineHT()
		if err := m.Validate(); err != nil {
			t.Errorf("profile %s machine: %v", p.Name, err)
		}
		if m.NumCores() != 64 {
			t.Errorf("profile %s HT machine has %d cores", p.Name, m.NumCores())
		}
		if p.MachineVariant(4, false).NumCores() != 16 {
			t.Errorf("profile %s variant wrong", p.Name)
		}
	}
}

// figRowsDigest pins every metric of the quick profile's Fig. 8 then
// Fig. 9 rows (one repetition per cell), each row formatted as the frozen
// benchmark's grid digests format it. It was computed while a grid could
// still run its cells live, and the all-live grids gave the same digest.
const figRowsDigest = "1c6065fe594e3473e7c4b24f985574960fb7a08401c409aba15ea706fac67738"

// TestFigGridsRecordOnce pins the trace cache's lifetime across grids: a
// recording does not depend on bandwidth, so Fig. 9 replays the five
// recordings Fig. 8 made on the same Runner instead of recording them
// again, and a following grid that replays only the quad-tree (Fig. 10)
// releases the other four from memory when it starts. It also pins the
// 40 rows the two grids print (figRowsDigest).
func TestFigGridsRecordOnce(t *testing.T) {
	p := Quick()
	p.Reps = 1
	r := NewRunner(p, io.Discard)
	h := sha256.New()
	for _, fig := range []func() ([]FigRow, error){r.Fig8, r.Fig9} {
		rows, err := fig()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			m := row.M
			fmt.Fprintf(h, "%s|%s|%+v|%+v|%+v|%+v|%+v|%+v\n", row.Group, row.Scheduler,
				m.ActiveSec, m.OverSec, m.EmptySec, m.WallSec, m.L3Misses, m.DRAMStall)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != figRowsDigest {
		t.Errorf("Fig. 8/9 rows digest %s, want %s: simulated results drifted", got, figRowsDigest)
	}
	if s := r.Traces.Stats(); s.Misses != 5 || s.Hits != 35 {
		t.Fatalf("Fig. 8 then Fig. 9: stats = %+v, want 5 recordings and 35 replays", s)
	}
	if _, err := r.Fig10(); err != nil {
		t.Fatal(err)
	}
	if s := r.Traces.Stats(); s.Misses != 5 {
		t.Fatalf("Fig. 10 after Figs. 8 and 9: stats = %+v, want no new recording", s)
	}
	// GetOrReserve hands back a resident recording and reserves an evicted
	// key; each reservation is failed at once to leave the cache as it was.
	m := p.MachineHT()
	for _, k := range algorithmicKernels {
		key := r.traceKey(Cell{Label: k.name, Machine: m}, p.Seed)
		_, into, err := r.Traces.GetOrReserve(key)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if resident := into == nil; resident != (k.name == "Quad-Tree") {
			t.Errorf("%s resident after Fig. 10 = %v, want %v", k.name, resident, k.name == "Quad-Tree")
		}
		if into != nil {
			r.Traces.Fail(key, errors.New("probe only"))
		}
	}
}

// badOutput is a kernel whose output never verifies.
type badOutput struct{ kernels.Kernel }

var errBadOutput = errors.New("output corrupted")

func (badOutput) Verify() error { return errBadOutput }

// TestRunGridFailsUnverifiedRecording pins that a recording whose kernel
// output fails verification fails its cell: RunGrid returns an error that
// names the cell and wraps the verification failure, and the kernel is
// built once, for the recording, and never again to run the cell live.
func TestRunGridFailsUnverifiedRecording(t *testing.T) {
	p := Quick()
	p.Reps = 1
	m := p.MachineHT()
	r := NewRunner(p, io.Discard)
	r.Workers = 1
	rrm, builds := p.RRMFactory(), 0
	_, err := r.RunGrid([]Cell{{
		Label: "RRM", Scheduler: "sb", Machine: m, LinksUsed: m.Links,
		MakeK: func(sp *mem.Space, m *machine.Desc, seed uint64) kernels.Kernel {
			builds++
			return badOutput{rrm(sp, m, seed)}
		},
	}})
	if !errors.Is(err, errBadOutput) || !strings.Contains(err.Error(), "RRM/sb") {
		t.Errorf("RunGrid error %v, want the RRM/sb cell's verification failure", err)
	}
	if builds != 1 {
		t.Errorf("kernel factory called %d times, want once: a failed recording fails its cell", builds)
	}
}

// TestRecordFirst pins the dispatch policy RunGrid and FullGridRun share:
// the first item of every key goes out ahead of the rest, and both parts
// keep input order. It also pins the dispatcher that applies the policy:
// every item runs exactly once, one worker runs the items in that order,
// the done hook fires once per item after the item has run, and a
// canceled context leaves the undispatched items untouched.
func TestRecordFirst(t *testing.T) {
	keys := []string{"a", "a", "b", "a", "c", "b"}
	key := func(i int) string { return keys[i] }
	items := []int{0, 1, 2, 3, 4, 5}
	got := recordFirst(items, key)
	want := []int{0, 2, 4, 1, 3, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("recordFirst = %v, want %v", got, want)
	}

	for _, workers := range []int{1, 3} {
		r := NewRunner(Quick(), io.Discard)
		r.Workers = workers
		var mu sync.Mutex
		var order []int
		runs := make([]int, len(keys))
		dones := make([]int, len(keys))
		r.dispatch(context.Background(), items, key,
			func(i int) string {
				mu.Lock()
				defer mu.Unlock()
				order = append(order, i)
				runs[i]++
				return ""
			},
			func(i int) {
				mu.Lock()
				defer mu.Unlock()
				if runs[i] != 1 {
					t.Errorf("workers=%d: done(%d) fired after %d runs of the item, want 1", workers, i, runs[i])
				}
				dones[i]++
			})
		for i := range runs {
			if runs[i] != 1 || dones[i] != 1 {
				t.Errorf("workers=%d: item %d ran %d times and finished %d times, want once each", workers, i, runs[i], dones[i])
			}
		}
		if workers == 1 && !slices.Equal(order, want) {
			t.Errorf("one worker ran %v, want recordFirst order %v", order, want)
		}
	}

	// Cancel while the second item runs: with one worker, nothing after it
	// may start, and only the two items that ran finish.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(Quick(), io.Discard)
	r.Workers = 1
	var ran, finished []int
	r.dispatch(ctx, items, key,
		func(i int) string {
			ran = append(ran, i)
			if len(ran) == 2 {
				cancel()
			}
			return ""
		},
		func(i int) { finished = append(finished, i) })
	if !slices.Equal(ran, want[:2]) || !slices.Equal(finished, want[:2]) {
		t.Errorf("canceled dispatch ran %v and finished %v, want only %v", ran, finished, want[:2])
	}

	// Canceled before dispatch: no item may run.
	r.Workers = 3
	r.dispatch(ctx, items, key,
		func(i int) string {
			t.Errorf("item %d ran under a context canceled before dispatch", i)
			return ""
		},
		func(int) {})
}
