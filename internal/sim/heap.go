package sim

import (
	"fmt"
	"math/bits"
)

// workerHeap orders workers by (clock, id) so the engine always advances
// the earliest worker, with a deterministic tie-break. A hand-rolled binary
// heap avoids container/heap's interface allocations in the hottest loop of
// the simulator. Each entry is one word, clock<<idBits | id, so comparing
// two entries compares clocks first and ids second: a sift compares and
// moves 8 bytes per level and never dereferences a worker, and the worker
// is looked up by id only when it leaves the heap. A worker's clock only
// changes while it is out of the heap, so the key packed at push time stays
// valid. A clock outside [0, 2^(63-idBits)) makes init and push return an
// error instead of a key that would misorder.
type workerHeap struct {
	keys   []uint64
	byID   []*worker
	idBits uint
	idMask uint64
}

// init (re)builds the heap from ws, whose ids must be 0..len(ws)-1 in any
// order.
func (h *workerHeap) init(ws []*worker) error {
	n := len(ws)
	h.idBits = uint(bits.Len(uint(n - 1)))
	h.idMask = 1<<h.idBits - 1
	if cap(h.keys) < n {
		h.keys = make([]uint64, 0, n)
		h.byID = make([]*worker, n)
	}
	h.keys = h.keys[:0]
	h.byID = h.byID[:n]
	for _, w := range ws {
		h.byID[w.id] = w
		k, err := h.key(w)
		if err != nil {
			return err
		}
		h.keys = append(h.keys, k)
	}
	for i := len(h.keys)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return nil
}

// key packs w's heap-order key.
func (h *workerHeap) key(w *worker) (uint64, error) {
	if uint64(w.clock)>>(63-h.idBits) != 0 {
		return 0, h.rangeError(w)
	}
	return uint64(w.clock)<<h.idBits | uint64(w.id), nil
}

func (h *workerHeap) rangeError(w *worker) error {
	return fmt.Errorf("sim: worker %d clock %d is outside the worker heap's packed range [0, 2^%d)", w.id, w.clock, 63-h.idBits)
}

func (h *workerHeap) up(i int) {
	k := h.keys[i]
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[p] <= k {
			break
		}
		h.keys[i] = h.keys[p]
		i = p
	}
	h.keys[i] = k
}

func (h *workerHeap) down(i int) {
	n := len(h.keys)
	k := h.keys[i]
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.keys[r] < h.keys[m] {
			m = r
		}
		if k <= h.keys[m] {
			break
		}
		h.keys[i] = h.keys[m]
		i = m
	}
	h.keys[i] = k
}

// at returns the (clock, id) key of entry i.
func (h *workerHeap) at(i int) (clock int64, id int) {
	k := h.keys[i]
	return int64(k >> h.idBits), int(k & h.idMask)
}

// peek returns the (clock, id) key of the earliest worker without removing
// it.
func (h *workerHeap) peek() (clock int64, id int) { return h.at(0) }

// pop removes and returns the earliest worker.
func (h *workerHeap) pop() *worker {
	w := h.byID[h.keys[0]&h.idMask]
	last := len(h.keys) - 1
	h.keys[0] = h.keys[last]
	h.keys = h.keys[:last]
	if last > 0 {
		h.down(0)
	}
	return w
}

// push (re-)inserts a worker, keying it by its current clock.
func (h *workerHeap) push(w *worker) error {
	k, err := h.key(w)
	if err != nil {
		return err
	}
	h.keys = append(h.keys, k)
	h.up(len(h.keys) - 1)
	return nil
}

func (h *workerHeap) len() int { return len(h.keys) }
