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
// valid. A clock outside [0, 2^(63-idBits)) makes init, push and pushPop
// return an error instead of a key that would misorder.
//
// keys has one slot more than there are workers, and every slot past the
// n live entries holds padKey. A live key is below 2^63, so padKey orders
// after every live entry: a sift reads both children of a live parent
// without testing whether the right one exists, and picks the smaller with
// a conditional move instead of a branch.
type workerHeap struct {
	keys   []uint64
	n      int
	byID   []*worker
	idBits uint
	idMask uint64
}

// padKey fills every slot past the live entries.
const padKey = ^uint64(0)

// init (re)builds the heap from ws, whose ids must be 0..len(ws)-1 in any
// order. On an error the heap is left empty.
func (h *workerHeap) init(ws []*worker) error {
	n := len(ws)
	h.idBits = uint(bits.Len(uint(n - 1)))
	h.idMask = 1<<h.idBits - 1
	if len(h.byID) != n {
		h.keys = make([]uint64, n+1)
		h.byID = make([]*worker, n)
	}
	for _, w := range ws {
		h.byID[w.id] = w
	}
	h.n = 0
	for i := range h.keys {
		h.keys[i] = padKey
	}
	for i, w := range ws {
		k, err := h.key(w)
		if err != nil {
			for j := range i {
				h.keys[j] = padKey
			}
			return err
		}
		h.keys[i] = k
	}
	h.n = n
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, h.keys[i])
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

// down fills the hole at i with key k, sifting k down past every smaller
// child. The right child of a live entry is at most slot n, a live entry
// or padding, so it is read without testing that it exists. The smaller
// child is picked without a branch: the borrow of r-l is 1 exactly when
// r < l, and min compiles to a conditional move.
func (h *workerHeap) down(i int, k uint64) {
	keys, n := h.keys, h.n
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		l, r := keys[m], keys[m+1]
		_, right := bits.Sub64(r, l, 0)
		m += int(right)
		c := min(l, r)
		if k <= c {
			break
		}
		keys[i] = c
		i = m
	}
	keys[i] = k
}

// at returns the (clock, id) key of entry i.
func (h *workerHeap) at(i int) (clock int64, id int) {
	k := h.keys[i]
	return int64(k >> h.idBits), int(k & h.idMask)
}

// peek returns the (clock, id) key of the earliest worker without removing
// it. The heap must not be empty.
func (h *workerHeap) peek() (clock int64, id int) { return h.at(0) }

// pop removes and returns the earliest worker. The heap must not be empty.
func (h *workerHeap) pop() *worker {
	w := h.byID[h.keys[0]&h.idMask]
	h.n--
	last := h.keys[h.n]
	h.keys[h.n] = padKey
	if h.n > 0 {
		h.down(0, last)
	}
	return w
}

// push (re-)inserts a worker, keying it by its current clock.
func (h *workerHeap) push(w *worker) error {
	k, err := h.key(w)
	if err != nil {
		return err
	}
	i := h.n
	h.n++
	for i > 0 {
		p := (i - 1) / 2
		if h.keys[p] <= k {
			break
		}
		h.keys[i] = h.keys[p]
		i = p
	}
	h.keys[i] = k
	return nil
}

// pushPop re-inserts w, keyed by its current clock, then removes and
// returns the earliest worker: w itself when it orders before every entry,
// else the root, whose slot w's key fills with one sift down where a push
// and a pop would sift twice. Keys are distinct, so the sequence of workers
// returned is the one push then pop would return. On an error the heap is
// left as it was.
func (h *workerHeap) pushPop(w *worker) (*worker, error) {
	k, err := h.key(w)
	if err != nil {
		return nil, err
	}
	top := h.keys[0] // padKey when the heap is empty
	if k < top {
		return w, nil
	}
	h.down(0, k)
	return h.byID[top&h.idMask], nil
}

func (h *workerHeap) len() int { return h.n }
