package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestWorkerHeapOrdering(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%32) + 1
		rng := xrand.New(seed)
		ws := make([]*worker, n)
		for i := range ws {
			ws[i] = &worker{id: i, clock: int64(rng.Intn(1000))}
		}
		var h workerHeap
		if h.init(ws) != nil {
			return false
		}
		// Simulate engine churn: pop earliest, advance, push back.
		prevClock := int64(-1)
		for step := 0; step < 200; step++ {
			w := h.pop()
			// Every other live worker must not be earlier.
			for i := 0; i < h.len(); i++ {
				if clock, id := h.at(i); clock < w.clock || (clock == w.clock && id < w.id) {
					return false
				}
			}
			if w.clock < prevClock {
				// Clocks only move forward, and we advance the popped
				// worker, so pops must be monotone.
				return false
			}
			prevClock = w.clock
			w.clock += int64(rng.Intn(50))
			if h.push(w) != nil {
				return false
			}
		}
		return h.len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWorkerHeapTieBreakById(t *testing.T) {
	ws := []*worker{{id: 2, clock: 5}, {id: 0, clock: 5}, {id: 1, clock: 5}}
	var h workerHeap
	if err := h.init(ws); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 3; want++ {
		if got := h.pop(); got.id != want {
			t.Fatalf("pop %d: got id %d", want, got.id)
		}
	}
}

// TestWorkerHeapClockRange pins the packed key's range: with four workers
// the id takes two bits, so a clock must lie in [0, 2^61). A clock at the
// bound, or a negative one, is an error from init and push and leaves the
// heap as it was; it never yields a misordered key.
func TestWorkerHeapClockRange(t *testing.T) {
	const bound = int64(1) << 61
	ws := []*worker{{id: 0, clock: 3}, {id: 1, clock: bound - 1}, {id: 2, clock: 0}, {id: 3, clock: 7}}
	var h workerHeap
	if err := h.init(ws); err != nil {
		t.Fatalf("init with clocks below the bound: %v", err)
	}
	w := h.pop()
	for _, clock := range []int64{bound, bound + 5, -1} {
		w.clock = clock
		if err := h.push(w); err == nil {
			t.Errorf("push of clock %d: no error", clock)
		}
		if h.len() != 3 {
			t.Fatalf("failed push of clock %d left %d entries, want 3", clock, h.len())
		}
	}
	w.clock = bound - 2
	if err := h.push(w); err != nil {
		t.Fatalf("push of clock %d: %v", w.clock, err)
	}
	for want := []int{0, 3, 2, 1}; len(want) > 0; want = want[1:] {
		if got := h.pop(); got.id != want[0] {
			t.Fatalf("pop: got worker %d, want %d", got.id, want[0])
		}
	}
	ws[3].clock = bound
	if err := h.init(ws); err == nil {
		t.Error("init with a clock at the bound: no error")
	}
}
