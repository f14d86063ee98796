package sim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
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
		// Simulate engine churn: take the earliest worker, advance it and
		// put it back, alternating push then pop with one pushPop.
		w := h.pop()
		prevClock := int64(-1)
		for step := 0; step < 200; step++ {
			// Every other live worker must not be earlier.
			for i := 0; i < h.len(); i++ {
				if clock, id := h.at(i); clock < w.clock || (clock == w.clock && id < w.id) {
					return false
				}
			}
			if w.clock < prevClock {
				// Clocks only move forward, and we advance the taken
				// worker, so the workers taken must be monotone.
				return false
			}
			prevClock = w.clock
			w.clock += int64(rng.Intn(50))
			if step%2 == 0 {
				if h.push(w) != nil {
					return false
				}
				w = h.pop()
			} else {
				var err error
				if w, err = h.pushPop(w); err != nil {
					return false
				}
			}
		}
		return h.len() == n-1
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
// bound, or a negative one, is an error from init, push and pushPop and
// leaves the heap as it was; it never yields a misordered key.
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
		before := slices.Clone(h.keys)
		if err := h.push(w); err == nil {
			t.Errorf("push of clock %d: no error", clock)
		}
		if next, err := h.pushPop(w); err == nil || next != nil {
			t.Errorf("pushPop of clock %d: worker %v, error %v, want only an error", clock, next, err)
		}
		if h.len() != 3 || !slices.Equal(h.keys, before) {
			t.Fatalf("failed push or pushPop of clock %d changed the heap: %d entries, keys %x, want 3 entries, keys %x", clock, h.len(), h.keys, before)
		}
	}
	w.clock = bound - 2
	if next, err := h.pushPop(w); err != nil || next.id != 0 {
		t.Fatalf("pushPop of clock %d: worker %v, error %v, want worker 0", w.clock, next, err)
	}
	w = ws[0]
	w.clock = bound - 3
	if err := h.push(w); err != nil {
		t.Fatalf("push of clock %d: %v", w.clock, err)
	}
	for want := []int{3, 0, 2, 1}; len(want) > 0; want = want[1:] {
		if got := h.pop(); got.id != want[0] {
			t.Fatalf("pop: got worker %d, want %d", got.id, want[0])
		}
	}
	ws[3].clock = bound
	if err := h.init(ws); err == nil {
		t.Error("init with a clock at the bound: no error")
	}
	if h.len() != 0 {
		t.Errorf("failed init left %d entries, want an empty heap", h.len())
	}
}

// FuzzWorkerHeap runs arbitrary sequences of init, pop, push and pushPop,
// clocks outside the packed range included, against a reference: the
// (clock, id) pairs of the workers the heap should hold, sorted. After
// every operation the heap's live entries must equal the reference and
// keep the heap order, every slot past them must hold padKey, and a pop
// or pushPop must return the reference's earliest worker. An operation
// refused for its clock must leave the heap as it was.
//
// The first byte picks the worker count (1 to 40); the rest is a stream
// of operations, each an opcode byte followed by its operand bytes.
func FuzzWorkerHeap(f *testing.F) {
	f.Add([]byte{3, 0, 8, 16, 24, 1, 3, 0, 40, 2, 0, 16, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 3, 0, 6, 3, 0, 7, 3, 0, 9, 1, 1})
	f.Add([]byte{39, 3, 0, 14, 2, 1, 15, 0, 1, 1, 1, 1, 3, 2, 200, 3, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%40
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// bound is 2^(63-idBits); for one worker, 2^63.
		bound := uint64(1) << (63 - bits.Len(uint(n-1)))
		// clockOf maps an operand byte to a clock: mostly small values, so
		// that ties broken by id are common; the rest are large or lie
		// outside the packed range.
		clockOf := func(b byte) int64 {
			switch b % 8 {
			case 6:
				return int64(bound + uint64(b>>3))
			case 7:
				return []int64{-1, math.MinInt64, math.MaxInt64, int64(bound>>1) - 1}[b>>3%4]
			}
			return int64(b >> 3)
		}
		ws := make([]*worker, n)
		for i := range ws {
			ws[i] = &worker{id: i}
		}
		in := make([]bool, n) // in[i]: worker i is in the heap
		var h workerHeap
		type entry struct {
			clock int64
			id    int
		}
		less := func(a, b entry) int {
			if c := cmp.Compare(a.clock, b.clock); c != 0 {
				return c
			}
			return cmp.Compare(a.id, b.id)
		}
		reference := func() []entry {
			var r []entry
			for i, w := range ws {
				if in[i] {
					r = append(r, entry{w.clock, i})
				}
			}
			slices.SortFunc(r, less)
			return r
		}
		check := func(op string) {
			t.Helper()
			var live []entry
			for i := 0; i < h.len(); i++ {
				c, id := h.at(i)
				live = append(live, entry{c, id})
				if i > 0 && h.keys[(i-1)/2] > h.keys[i] {
					t.Fatalf("after %s: entry %d orders before its parent", op, i)
				}
			}
			slices.SortFunc(live, less)
			if want := reference(); !slices.Equal(live, want) {
				t.Fatalf("after %s: heap holds %v, want %v", op, live, want)
			}
			if len(h.keys) != n+1 {
				t.Fatalf("after %s: %d slots for %d workers, want %d", op, len(h.keys), n, n+1)
			}
			for i := h.len(); i < len(h.keys); i++ {
				if h.keys[i] != padKey {
					t.Fatalf("after %s: slot %d past the %d live entries holds %#x, want padKey", op, i, h.len(), h.keys[i])
				}
			}
		}
		earliest := func(extra *worker) *worker {
			var best *worker
			for i, w := range ws {
				if in[i] || w == extra {
					if best == nil || less(entry{w.clock, w.id}, entry{best.clock, best.id}) < 0 {
						best = w
					}
				}
			}
			return best
		}
		inRange := func(w *worker) bool { return w.clock >= 0 && uint64(w.clock) < bound }
		initAll := func() {
			ok := true
			for _, w := range ws {
				w.clock = clockOf(next())
				ok = ok && inRange(w)
			}
			if err := h.init(ws); (err == nil) != ok {
				t.Fatalf("init with every clock in range = %v: error %v", ok, err)
			}
			for i := range in {
				in[i] = ok
			}
			check("init")
		}
		initAll()
		for len(data) > 0 {
			switch op := next() % 4; op {
			case 0:
				initAll()
			case 1:
				if h.len() == 0 {
					continue
				}
				want := earliest(nil)
				if got := h.pop(); got != want {
					t.Fatalf("pop returned worker %d, want %d", got.id, want.id)
				}
				in[want.id] = false
				check("pop")
			case 2, 3:
				var out []*worker
				for i, w := range ws {
					if !in[i] {
						out = append(out, w)
					}
				}
				if len(out) == 0 {
					continue
				}
				w := out[int(next())%len(out)]
				w.clock = clockOf(next())
				before, live := slices.Clone(h.keys), h.len()
				var err error
				if op == 2 {
					if err = h.push(w); err == nil {
						in[w.id] = true
					}
				} else {
					want := earliest(w)
					var got *worker
					if got, err = h.pushPop(w); err == nil {
						if got != want {
							t.Fatalf("pushPop of worker %d returned worker %d, want %d", w.id, got.id, want.id)
						}
						in[w.id], in[got.id] = true, false
					}
				}
				if (err == nil) != inRange(w) {
					t.Fatalf("push or pushPop of clock %d (bound %d): error %v", w.clock, bound, err)
				}
				if err != nil && (h.len() != live || !slices.Equal(h.keys, before)) {
					t.Fatalf("refused clock %d changed the heap", w.clock)
				}
				check("push/pushPop")
			}
		}
	})
}
