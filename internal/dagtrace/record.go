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

// recNode is the per-strand working state during recording.
type recNode struct {
	// ops is the strand's script, held until the strand's terminal fork
	// moves it to the recorder's sink.
	ops      []byte
	children []int32
	prevAddr int64
	// forked mirrors the StrandForked report so Finish can cross-check the
	// spawn events against what each strand declared.
	forkSeen     bool
	forkCont     bool
	forkChildren int
}

// Recorder implements sim.TraceListener and builds a recording from the
// program events it receives: from Record's sequential run, or — passed
// as Config.Listener — from one live simulation. It keeps IDs, never the
// pointers an event delivers, and declares that through sim.PoolSafe, so
// the engine keeps its task/strand pooling on while recording (the
// dominant cost of a live record run is otherwise the pool-less
// allocation churn), and Record recycles its records too.
//
// When a strand reports its terminal fork — its ops are final then — the
// recorder moves them to its sink and hands the strand's buffer to the
// next strand that starts, so it holds only the node table, the sink and
// the open strands' ops. The sink is the end of one in-memory op region
// in a Recorder from NewRecorder (Finish returns the recording over that
// region) and the open frame of the file in one a directory StreamCache
// hands out (StreamCache.Fill completes the file). Either way the op
// region holds the strands in the order they finished.
//
// A Recorder is single-use and must only observe one run.
type Recorder struct {
	nodes []node
	meta  []recNode
	root  int32

	// lastOfTask tracks each task's most recent strand so a continuation
	// can be linked to the strand whose terminal fork declared it
	// (Strand.SpawnedBy is the last-finishing dependency — a schedule
	// artifact — so it cannot serve as the structural parent). Strands
	// need no such map: both executors number them 1, 2, 3… in spawn
	// order, so strand ID i is node i−1 (StrandSpawned enforces it).
	lastOfTask map[uint64]int32

	// out, when non-nil, is the file the recording streams into; ops is
	// the op region otherwise. free holds the op buffers of strands
	// already moved to the sink, for reuse.
	out  *frameWriter
	ops  []byte
	free [][]byte

	tasks     uint64
	strands   uint64
	accessOps int64
	workOps   int64

	err error
}

// NewRecorder returns an empty Recorder that keeps its recording in
// memory.
func NewRecorder() *Recorder {
	return &Recorder{root: -1, lastOfTask: make(map[uint64]int32)}
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
	if s.ID != uint64(idx)+1 {
		r.fail(fmt.Errorf("dagtrace: strand %d spawned as strand number %d (strands must be numbered in spawn order)", s.ID, idx+1))
		return
	}
	r.nodes = append(r.nodes, node{
		taskSize:   s.Task.SizeBytes,
		strandSize: s.SizeBytes,
		cont:       -1,
	})
	r.meta = append(r.meta, recNode{})
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
		if s.SpawnedBy == nil || s.SpawnedBy.ID == 0 || s.SpawnedBy.ID > uint64(idx) {
			r.fail(fmt.Errorf("dagtrace: task-start strand %d spawned by unknown strand", s.ID))
			return
		}
		p := s.SpawnedBy.ID - 1
		r.meta[p].children = append(r.meta[p].children, idx)
		r.tasks++
	}
	r.lastOfTask[s.Task.ID] = idx
}

// StrandStarted implements sim.Listener: hand the strand the op buffer of
// a strand already moved to the sink.
func (r *Recorder) StrandStarted(s *job.Strand) {
	if r.err != nil || len(r.free) == 0 {
		return
	}
	idx, ok := r.node(s)
	if !ok || r.meta[idx].ops != nil {
		return
	}
	last := len(r.free) - 1
	r.meta[idx].ops, r.free = r.free[last], r.free[:last]
}

// StrandEnded implements sim.Listener (no-op: StrandForked, which the
// engine reports just after, closes the strand).
func (r *Recorder) StrandEnded(*job.Strand) {}

// TaskEnded implements sim.Listener.
func (r *Recorder) TaskEnded(t *job.Task, _ int64) {
	if r.err != nil {
		return
	}
	delete(r.lastOfTask, t.ID)
}

// node returns the node index of s: strand ID i is node i−1.
func (r *Recorder) node(s *job.Strand) (int32, bool) {
	if s.ID == 0 || s.ID > uint64(len(r.nodes)) {
		r.fail(fmt.Errorf("dagtrace: event for unknown strand %d", s.ID))
		return 0, false
	}
	return int32(s.ID - 1), true
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
// fork shape for cross-checking, reject futures outright, and move the
// strand's now final ops to the sink.
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
	n := &r.nodes[idx]
	if r.out == nil {
		n.opOff = int64(len(r.ops))
		r.ops = append(r.ops, m.ops...)
	} else if n.opOff = r.out.append(m.ops); r.out.err != nil {
		r.fail(r.out.err)
		return
	}
	n.opEnd = n.opOff + int64(len(m.ops))
	if cap(m.ops) > 0 {
		r.free = append(r.free, m.ops[:0])
	}
	m.ops = nil
}

// Finish validates the recorded structure and returns the recording,
// replayable over the recorder's op region. It is for a Recorder from
// NewRecorder; StreamCache.Fill finishes the ones it hands out. The
// Recorder must not be reused afterwards.
func (r *Recorder) Finish() (*StreamTrace, error) {
	if r.out != nil {
		return nil, fmt.Errorf("dagtrace: Finish on a recorder that writes a file (publish it with StreamCache.Fill)")
	}
	return r.finish()
}

// finish validates the recorded structure and returns the recording:
// the node table, each node's op span indexing the op region — r.ops,
// which the recording then holds and replays, or the region r.out wrote
// to its file.
func (r *Recorder) finish() (*StreamTrace, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.root == -1 {
		return nil, fmt.Errorf("dagtrace: no root strand recorded")
	}
	childN := 0
	for i := range r.meta {
		childN += len(r.meta[i].children)
	}
	t := &StreamTrace{
		TaskCount:   r.tasks,
		StrandCount: r.strands,
		AccessOps:   r.accessOps,
		WorkOps:     r.workOps,
		nodes:       r.nodes,
		childIdx:    make([]int32, 0, childN),
		root:        r.root,
		ops:         r.ops,
		opBytes:     int64(len(r.ops)),
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
		n.childOff = int32(len(t.childIdx))
		t.childIdx = append(t.childIdx, m.children...)
		n.childEnd = int32(len(t.childIdx))
	}
	if r.out == nil {
		t.buildJobs()
	}
	r.nodes, r.meta, r.ops, r.free = nil, nil, nil, nil
	return t, nil
}
