package dagtrace

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The recorder plugs into sim.Config.Listener and must satisfy the full
// program-level event interface.
var _ sim.TraceListener = (*Recorder)(nil)

// recNode is the per-strand working state during recording; it is compacted
// into the Trace's flat arenas by Finish.
type recNode struct {
	ops      []byte
	children []int32
	prevAddr int64
	// forked mirrors the StrandForked report so Finish can cross-check the
	// spawn events against what each strand declared.
	forkSeen     bool
	forkCont     bool
	forkChildren int
}

// Recorder implements sim.TraceListener and builds a Trace from the
// program events it receives: from Record's sequential run, or — passed
// as Config.Listener — from one live simulation; then Finish returns the
// captured Trace. It keys its maps by strand and task IDs — never
// retaining the pointers an event delivers — and declares that through
// sim.PoolSafe, so the engine keeps its task/strand pooling on while
// recording (the dominant cost of a live record run is otherwise the
// pool-less allocation churn), and Record recycles its records too.
//
// A Recorder is single-use and must only observe one run.
type Recorder struct {
	nodes []node
	meta  []recNode
	root  int32

	// strandIdx maps live strand IDs to their node; lastOfTask tracks each
	// task's most recent strand so a continuation can be linked to the
	// strand whose terminal fork declared it (Strand.SpawnedBy is the
	// last-finishing dependency — a schedule artifact — so it cannot serve
	// as the structural parent). IDs stay unique across pooling (recycled
	// objects get fresh IDs), and both maps are only keyed, never iterated.
	strandIdx  map[uint64]int32
	lastOfTask map[uint64]int32

	// curID/curIdx cache the strand of the latest access: accesses arrive
	// in chunk-length runs per strand, so almost every lookup hits the
	// cache instead of the map. IDs start at 1, so 0 means empty.
	curID  uint64
	curIdx int32

	tasks     uint64
	strands   uint64
	accessOps int64
	workOps   int64

	err error
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		root:       -1,
		strandIdx:  make(map[uint64]int32),
		lastOfTask: make(map[uint64]int32),
	}
}

// PoolSafeListener implements sim.PoolSafe: every event handler below
// reads the delivered *job.Strand / *job.Task fields it needs and stores
// only IDs and values, so object recycling after the event is harmless.
func (r *Recorder) PoolSafeListener() {}

// fail latches the first fatal condition; recording continues as no-ops so
// the observed run itself is never disturbed.
func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// StrandSpawned implements sim.Listener: allocate the strand's node and
// link it into the tree.
func (r *Recorder) StrandSpawned(s *job.Strand) {
	if r.err != nil {
		return
	}
	idx := int32(len(r.nodes))
	r.nodes = append(r.nodes, node{
		taskSize:   s.Task.SizeBytes,
		strandSize: s.SizeBytes,
		cont:       -1,
	})
	r.meta = append(r.meta, recNode{})
	r.strandIdx[s.ID] = idx
	r.strands++
	switch {
	case s.Kind == job.Continuation:
		// The task's previous strand is the one whose fork declared this
		// continuation; its node cannot have been linked yet (one terminal
		// fork per strand, one continuation per parallel block).
		prev, ok := r.lastOfTask[s.Task.ID]
		if !ok || r.nodes[prev].cont != -1 {
			r.fail(fmt.Errorf("dagtrace: continuation strand %d has no linkable predecessor", s.ID))
			return
		}
		r.nodes[prev].cont = idx
	case s.Task.Parent == nil:
		if r.root != -1 {
			r.fail(fmt.Errorf("%w: multiple root tasks (streamed injection)", ErrUnsupported))
			return
		}
		r.root = idx
		r.tasks++
	default:
		// First strand of a forked child task: its structural parent is the
		// strand whose terminal fork spawned it, which the engine exposes as
		// SpawnedBy for task starts (children spawn synchronously inside the
		// forking strand's completion, before the forker can be recycled).
		p, ok := r.strandIdx[s.SpawnedBy.ID]
		if !ok {
			r.fail(fmt.Errorf("dagtrace: task-start strand %d spawned by unknown strand", s.ID))
			return
		}
		r.meta[p].children = append(r.meta[p].children, idx)
		r.tasks++
	}
	r.lastOfTask[s.Task.ID] = idx
}

// StrandStarted implements sim.Listener (no-op: schedule detail).
func (r *Recorder) StrandStarted(*job.Strand) {}

// StrandEnded implements sim.Listener (no-op: the strand's map entry must
// survive until StrandForked, which the engine reports just after).
func (r *Recorder) StrandEnded(*job.Strand) {}

// TaskEnded implements sim.Listener.
func (r *Recorder) TaskEnded(t *job.Task, _ int64) {
	if r.err != nil {
		return
	}
	delete(r.lastOfTask, t.ID)
}

// node returns the node index of s, through the one-entry cache.
func (r *Recorder) node(s *job.Strand) (int32, bool) {
	if s.ID == r.curID {
		return r.curIdx, true
	}
	idx, ok := r.strandIdx[s.ID]
	if !ok {
		r.fail(fmt.Errorf("dagtrace: event for unknown strand %d", s.ID))
		return 0, false
	}
	r.curID, r.curIdx = s.ID, idx
	return idx, true
}

// StrandAccess implements sim.TraceListener: append one delta-encoded
// access op to the strand's script.
func (r *Recorder) StrandAccess(s *job.Strand, a mem.Addr, write bool) {
	if r.err != nil {
		return
	}
	idx, ok := r.node(s)
	if !ok {
		return
	}
	m := &r.meta[idx]
	delta := int64(a) - m.prevAddr
	m.prevAddr = int64(a)
	tag := uint64(opRead)
	if write {
		tag = opWrite
	}
	m.ops = appendUvarint(m.ops, zigzag(delta)<<opTagBits|tag)
	r.accessOps++
}

// StrandWork implements sim.TraceListener: append one compute charge.
func (r *Recorder) StrandWork(s *job.Strand, cycles int64) {
	if r.err != nil {
		return
	}
	idx, ok := r.node(s)
	if !ok {
		return
	}
	m := &r.meta[idx]
	m.ops = appendUvarint(m.ops, uint64(cycles)<<opTagBits|opWork)
	r.workOps++
}

// StrandForked implements sim.TraceListener: note the strand's terminal
// fork shape for cross-checking, and reject futures outright.
func (r *Recorder) StrandForked(s *job.Strand, hasCont bool, children int, futures bool) {
	if r.err != nil {
		return
	}
	if futures {
		r.fail(fmt.Errorf("%w: strand %d forked a future", ErrUnsupported, s.ID))
		return
	}
	idx, ok := r.node(s)
	if !ok {
		return
	}
	m := &r.meta[idx]
	m.forkSeen, m.forkCont, m.forkChildren = true, hasCont, children
	// The entry is NOT dropped here: the strand's forked children spawn
	// right after this report and resolve their parent through SpawnedBy.
	// The map is O(strands) for the run, same order as the node arena.
}

// Finish validates the recorded structure and compacts it into a Trace.
// The Recorder must not be reused afterwards.
func (r *Recorder) Finish() (*Trace, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.root == -1 {
		return nil, fmt.Errorf("dagtrace: no root strand recorded")
	}
	opBytes, childN := 0, 0
	for i := range r.meta {
		opBytes += len(r.meta[i].ops)
		childN += len(r.meta[i].children)
	}
	t := &Trace{
		TaskCount:   r.tasks,
		StrandCount: r.strands,
		AccessOps:   r.accessOps,
		WorkOps:     r.workOps,
		nodes:       r.nodes,
		ops:         make([]byte, 0, opBytes),
		childIdx:    make([]int32, 0, childN),
		root:        r.root,
	}
	for i := range r.nodes {
		n, m := &r.nodes[i], &r.meta[i]
		if !m.forkSeen {
			return nil, fmt.Errorf("dagtrace: strand node %d never reported its terminal fork (run incomplete?)", i)
		}
		if m.forkChildren != len(m.children) {
			return nil, fmt.Errorf("dagtrace: strand node %d declared %d children, spawned %d", i, m.forkChildren, len(m.children))
		}
		if m.forkCont != (n.cont != -1) {
			return nil, fmt.Errorf("dagtrace: strand node %d continuation mismatch (declared %v)", i, m.forkCont)
		}
		n.opOff = int64(len(t.ops))
		t.ops = append(t.ops, m.ops...)
		n.opEnd = int64(len(t.ops))
		n.childOff = int32(len(t.childIdx))
		t.childIdx = append(t.childIdx, m.children...)
		n.childEnd = int32(len(t.childIdx))
	}
	r.nodes, r.meta = nil, nil
	return t, nil
}
