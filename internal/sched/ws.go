package sched

import (
	"repro/internal/job"
	"repro/internal/machine"
)

// WS is the basic work-stealing scheduler of §4.2 and Appendix A, modeled
// on Cilk++: one double-ended queue per core; add pushes to the bottom of
// the local dequeue; get pops from the bottom, or — when the local dequeue
// is empty — picks a victim and steals one strand from the top of the
// victim's dequeue.
//
// Each dequeue has two simulated locks, exactly as in the paper's
// implementation: a local lock guarding the dequeue, and a steal lock that
// remote cores must take before the local lock, so that thieves contend
// with each other rather than with the owner in the common case.
type WS struct {
	name string
	// costScale scales the bookkeeping constants: the CilkPlus validation
	// profile uses a lower value, modeling the leaner call-backs of a
	// mature commercial runtime (the framework-validation comparison).
	costScale float64
	// bias is the number of tickets each same-socket victim holds in a
	// steal draw; every other victim holds one. 1 makes the draw uniform
	// (WS, CilkPlus), IntraSocketBias makes it PWS's.
	bias int

	env    Env
	n      int
	queues [][]*job.Strand
	local  []int // local lock ids
	steal  []int // steal lock ids

	// Scaled cost constants, precomputed at Setup so the per-call-back
	// hot path avoids repeated float math.
	baseCost, lockCost, opCost int64

	// tickets[worker] holds each of worker's victims once per ticket, in
	// worker order, built at Setup; a steal draws one entry (victim).
	tickets [][]int32

	// Steals counts successful steals per worker, for diagnostics.
	Steals []int64

	// offline marks cores currently held down by fault injection;
	// Migrations counts strands re-homed by CoreDown. Both are
	// diagnostics-only for WS — correctness never depends on them, since
	// any live core can steal from a dead core's dequeue.
	offline    []bool
	Migrations int64
}

// NewWS returns the paper's WS scheduler.
func NewWS() *WS {
	return &WS{name: "WS", costScale: 1, bias: 1}
}

// NewCilk returns the WS policy with the CilkPlus cost profile, used to
// validate the framework against the commercial scheduler as in §5.
func NewCilk() *WS {
	return &WS{name: "CilkPlus", costScale: 0.5, bias: 1}
}

// victim draws worker's steal victim: one uniform ticket of its table, so
// a same-socket victim comes up bias times as often as any other. With
// bias 1, ticket r is worker r, or r+1 from the drawing worker on:
// Appendix A's uniform steal_choice. On a single-core machine the table is
// empty and the worker is its own (always empty) victim. This runs on
// every failed get of an idle core, a very hot path in imbalanced phases,
// so it is one RNG call and one load.
//
//schedlint:hotpath
func (w *WS) victim(worker int) int {
	t := w.tickets[worker]
	if len(t) == 0 {
		return worker
	}
	return int(t[w.env.RNG(worker).Intn(len(t))])
}

// Name implements Scheduler.
func (w *WS) Name() string { return w.name }

// Setup implements Scheduler.
func (w *WS) Setup(env Env) {
	w.env = env
	w.n = env.Machine().NumCores()
	w.queues = make([][]*job.Strand, w.n)
	// Seed every dequeue with capacity carved from one backing array:
	// bottom-push depth is O(split-tree depth), so qcap covers the steady
	// state and per-Add append growth disappears from the hot path.
	const qcap = 64
	qback := make([]*job.Strand, w.n*qcap)
	for i := 0; i < w.n; i++ {
		w.queues[i] = qback[i*qcap : i*qcap : (i+1)*qcap]
	}
	w.local = make([]int, w.n)
	w.steal = make([]int, w.n)
	w.Steals = make([]int64, w.n)
	w.offline = make([]bool, w.n)
	w.Migrations = 0
	for i := 0; i < w.n; i++ {
		w.local[i] = env.NewLock()
		w.steal[i] = env.NewLock()
	}
	w.baseCost = w.scale(env.Cost().CallbackBase)
	w.lockCost = w.scale(env.Cost().LockHold)
	w.opCost = w.scale(env.Cost().QueueOp)
	w.buildTickets(env.Machine())
}

// buildTickets fills every worker's ticket table, in one backing array:
// victim v of worker i holds bias tickets when it shares i's socket, else
// one, and i itself none.
func (w *WS) buildTickets(m *machine.Desc) {
	socket := make([]int, w.n)
	for i := range socket {
		socket[i] = m.SocketOf(m.LeafOf(i))
	}
	weight := func(i, v int) int {
		switch {
		case v == i:
			return 0
		case socket[v] == socket[i]:
			return w.bias
		}
		return 1
	}
	total := 0
	for i := range w.n {
		for v := range w.n {
			total += weight(i, v)
		}
	}
	all := make([]int32, 0, total)
	w.tickets = make([][]int32, w.n)
	for i := range w.n {
		start := len(all)
		for v := range w.n {
			for range weight(i, v) {
				all = append(all, int32(v))
			}
		}
		w.tickets[i] = all[start:len(all):len(all)]
	}
}

func (w *WS) scale(c int64) int64 {
	return int64(float64(c)*w.costScale + 0.5)
}

func (w *WS) base(worker int) {
	w.env.Charge(worker, w.baseCost)
}

func (w *WS) lock(worker, id int) {
	w.env.Lock(worker, id, w.lockCost)
}

func (w *WS) op(worker int) {
	w.env.Charge(worker, w.opCost)
}

// Add implements Scheduler: push onto the bottom of the local dequeue.
func (w *WS) Add(s *job.Strand, worker int) {
	w.base(worker)
	w.lock(worker, w.local[worker])
	w.queues[worker] = append(w.queues[worker], s)
	w.op(worker)
}

// Get implements Scheduler: pop the bottom of the local dequeue, else
// attempt one steal from the top of a random victim's dequeue.
//
//schedlint:hotpath
//schedlint:decision
func (w *WS) Get(worker int) *job.Strand {
	w.base(worker)
	w.lock(worker, w.local[worker])
	if q := w.queues[worker]; len(q) > 0 {
		s := q[len(q)-1]
		w.queues[worker] = q[:len(q)-1]
		w.op(worker)
		return s
	}
	choice := w.victim(worker)
	w.lock(worker, w.steal[choice])
	w.lock(worker, w.local[choice])
	if q := w.queues[choice]; len(q) > 0 {
		s := q[0]
		w.queues[choice] = q[1:]
		w.Steals[worker]++
		w.op(worker)
		return s
	}
	return nil
}

// Done implements Scheduler: work stealing keeps no per-strand state.
func (w *WS) Done(s *job.Strand, worker int) {
	w.base(worker)
}

// TaskEnd implements Scheduler: no anchored space to release.
func (w *WS) TaskEnd(t *job.Task, worker int) {}

// CoreDown implements FaultAware: eagerly re-steal the dead core's entire
// dequeue, dealing its strands round-robin onto the bottoms of the online
// dequeues (starting after the dead core) as if each had been stolen. The
// dequeue and steal-lock traffic is charged to the observing worker.
func (w *WS) CoreDown(core, worker int) int {
	if w.offline[core] {
		return 0
	}
	w.offline[core] = true
	w.lock(worker, w.steal[core])
	w.lock(worker, w.local[core])
	q := w.queues[core]
	if len(q) == 0 {
		return 0
	}
	w.queues[core] = nil
	target := core
	moved := 0
	for _, s := range q {
		found := false
		for i := 0; i < w.n; i++ {
			target = (target + 1) % w.n
			if target != core && !w.offline[target] {
				found = true
				break
			}
		}
		if !found {
			// Every other core is down too; leave the rest on the dead
			// core's dequeue, reachable by steals once someone returns.
			w.queues[core] = append(w.queues[core], s)
			continue
		}
		w.lock(worker, w.local[target])
		w.queues[target] = append(w.queues[target], s)
		w.op(worker)
		moved++
	}
	w.Migrations += int64(moved)
	return moved
}

// CoreUp implements FaultAware.
func (w *WS) CoreUp(core, worker int) { w.offline[core] = false }

// TotalSteals returns the number of successful steals across all workers.
func (w *WS) TotalSteals() int64 {
	var total int64
	for _, s := range w.Steals {
		total += s
	}
	return total
}
