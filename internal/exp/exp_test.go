package exp

import (
	"bytes"
	"context"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
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

// TestRecordFirst pins the dispatch policy RunGrid and FullGridRun share:
// the first item of every key goes out ahead of the rest, and both parts
// keep input order. It also pins the dispatcher that applies the policy:
// every item runs exactly once, one worker runs the items in that order,
// the per-key hook fires once per key after the key's last item, and a
// canceled context leaves the undispatched items untouched.
func TestRecordFirst(t *testing.T) {
	keys := []string{"a", "a", "b", "a", "c", "b"}
	perKey := map[string]int{"a": 3, "b": 2, "c": 1}
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
		done := map[string]int{}
		lasts := map[string]int{}
		r.dispatch(context.Background(), items, key,
			func(i int) string {
				mu.Lock()
				defer mu.Unlock()
				order = append(order, i)
				runs[i]++
				return ""
			},
			func(i int, last bool) {
				k := keys[i]
				done[k]++
				if !last {
					return
				}
				lasts[k]++
				if done[k] != perKey[k] {
					t.Errorf("workers=%d: key %s hook fired after %d of its %d items", workers, k, done[k], perKey[k])
				}
			})
		for i, n := range runs {
			if n != 1 {
				t.Errorf("workers=%d: item %d ran %d times, want once", workers, i, n)
			}
		}
		if workers == 1 && !slices.Equal(order, want) {
			t.Errorf("one worker ran %v, want recordFirst order %v", order, want)
		}
		for k := range perKey {
			if lasts[k] != 1 {
				t.Errorf("workers=%d: key %s hook fired %d times, want once", workers, k, lasts[k])
			}
		}
	}

	// Cancel while the second item runs: with one worker, nothing after it
	// may start, so neither started key (a, b) reaches its last item.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := NewRunner(Quick(), io.Discard)
	r.Workers = 1
	var ran []int
	r.dispatch(ctx, items, key,
		func(i int) string {
			ran = append(ran, i)
			if len(ran) == 2 {
				cancel()
			}
			return ""
		},
		func(i int, last bool) {
			if last {
				t.Errorf("key %s reported its last item after a cancel", keys[i])
			}
		})
	if !slices.Equal(ran, want[:2]) {
		t.Errorf("canceled dispatch ran %v, want only %v", ran, want[:2])
	}

	// Canceled before dispatch: no item may run.
	r.Workers = 3
	r.dispatch(ctx, items, key,
		func(i int) string {
			t.Errorf("item %d ran under a context canceled before dispatch", i)
			return ""
		},
		func(int, bool) {})
}
