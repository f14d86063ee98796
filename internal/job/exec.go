package job

// The rules every executor of the program model shares: the simulator's
// engine (internal/sim) and the sequential trace recorder
// (internal/dagtrace) both record a strand's terminal fork in a ForkRecord,
// build their task and strand records with Task.Init and Strand.Init, and
// recycle those records through Pools — so the two executors build the
// same DAG from the same program by construction.

// ForkRecord is the terminal fork of one strand. Its methods record the
// three fork primitives of Ctx and enforce their discipline: at most one
// fork per strand, Fork with at least one child, ForkFuture with a handle
// and a body, ForkAwait with a continuation and no nil future. A misuse
// panics, and the executor running the strand reports the panic as a
// strand error.
type ForkRecord struct {
	// Called records that the strand forked.
	Called bool
	// Cont is the continuation strand's job; nil when the task ends at
	// the join.
	Cont Job
	// Children are the jobs of the parallel block's child tasks.
	Children []Job
	// Awaits are the futures that gate Cont besides the children.
	Awaits []*Future
	// Future is ForkFuture's handle and Body its future task's job.
	Future *Future
	Body   Job
}

// Fork records Ctx.Fork.
func (r *ForkRecord) Fork(cont Job, children []Job) {
	r.terminal()
	if len(children) == 0 {
		panic("job: Fork with no children")
	}
	*r = ForkRecord{Called: true, Cont: cont, Children: children}
}

// ForkFuture records Ctx.ForkFuture.
func (r *ForkRecord) ForkFuture(cont Job, f *Future, body Job) {
	r.terminal()
	if f == nil || body == nil {
		panic("job: ForkFuture requires a future handle and a body")
	}
	*r = ForkRecord{Called: true, Cont: cont, Future: f, Body: body}
}

// ForkAwait records Ctx.ForkAwait.
func (r *ForkRecord) ForkAwait(cont Job, futures []*Future, children []Job) {
	r.terminal()
	if cont == nil {
		panic("job: ForkAwait requires a continuation")
	}
	for _, f := range futures {
		if f == nil {
			panic("job: ForkAwait with nil future")
		}
	}
	*r = ForkRecord{Called: true, Cont: cont, Children: children, Awaits: futures}
}

func (r *ForkRecord) terminal() {
	if r.Called {
		panic("job: fork primitive called twice in one strand (must be terminal)")
	}
}

// Futures reports whether the fork involves futures: a ForkFuture body or
// ForkAwait dependencies.
func (r *ForkRecord) Futures() bool { return r.Future != nil || len(r.Awaits) > 0 }

// Take returns the record and clears it for the next strand.
func (r *ForkRecord) Take() ForkRecord {
	f := *r
	*r = ForkRecord{}
	return f
}

// Init makes t a fresh task with the given ID running j, forked by parent
// (nil for a root): one level deeper than its parent, sized S(t;B) for
// line size block, unanchored, with no dependencies pending.
func (t *Task) Init(id uint64, parent *Task, j Job, block int64) {
	depth := 0
	if parent != nil {
		depth = parent.Depth + 1
	}
	*t = Task{
		ID:          id,
		Parent:      parent,
		Depth:       depth,
		Job:         j,
		SizeBytes:   SizeOf(j, block),
		AnchorLevel: -1,
		AnchorNode:  -1,
	}
}

// Init makes s a fresh strand with the given ID running j for task t,
// spawned at simulated time spawn because strand by completed (nil for a
// root strand), on no core. It is sized S(ℓ;B) for line size block, or
// S(t;B) when j carries no annotation — the paper's default rule (§3.1).
func (s *Strand) Init(id uint64, t *Task, j Job, kind Kind, block, spawn int64, by *Strand) {
	size := StrandSizeOf(j, block)
	if size < 0 {
		size = t.SizeBytes
	}
	*s = Strand{
		ID:        id,
		Task:      t,
		Job:       j,
		Kind:      kind,
		SizeBytes: size,
		Spawn:     spawn,
		Proc:      -1,
		SpawnedBy: by,
	}
}

// slabSize is the number of records a pool miss allocates at once.
const slabSize = 64

// Pool recycles records of one type. Put zeroes a record, so a reference
// kept past its release shows up as a loud bug instead of silent state
// bleed; the caller guarantees nothing else holds the record. A miss
// refills the pool a slab at a time: one backing allocation hands out
// slabSize records, so record churn costs O(peak live / slab) allocations
// instead of one per miss. The zero Pool is ready to use.
type Pool[T any] struct {
	free []*T
}

// Get returns a zero record: a recycled one, or one from a fresh slab.
func (p *Pool[T]) Get() *T {
	if len(p.free) == 0 {
		slab := make([]T, slabSize)
		for i := range slab {
			p.free = append(p.free, &slab[i])
		}
	}
	n := len(p.free) - 1
	x := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	return x
}

// Put zeroes x and keeps it for a later Get.
func (p *Pool[T]) Put(x *T) {
	var zero T
	*x = zero
	p.free = append(p.free, x)
}

// RecyclePair puts the fork pair that t's parallel-for job split into
// back into pool. Call it only once t has ended: both children live in
// the pair and have completed by then.
func RecyclePair(pool *Pool[ForPair], t *Task) {
	if pr, ok := t.Job.(PairRecycler); ok {
		if p := pr.TakeChildPair(); p != nil {
			pool.Put(p)
		}
	}
}
