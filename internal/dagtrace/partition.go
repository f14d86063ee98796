package dagtrace

// Partitioning a recorded DAG for sharded replay: split the trace into K
// pieces — disjoint sets of nodes, each replayable as an independent root
// job — so a sharded simulation can run one socket-level sub-simulation
// per piece group and merge the results deterministically (internal/shard).
//
// Only child (task-start) edges are ever cut, never continuation edges: a
// cut promotes one task's whole subtree to a new piece and removes that
// child from its parent's fork. Because every node then belongs to
// exactly one piece, the per-piece task/strand/access counts sum to the
// recorded totals — the aggregate conservation check the sharded replay
// enforces (and the reason cont edges stay intact: cutting one would
// leave a strand whose continuation runs in a different simulation, which
// no merge rule can order deterministically against its siblings).
//
// The cut selection is a greedy heaviest-first descent entirely determined
// by the recorded trace: subtree weights are op-byte counts (a proxy for
// simulated work), each step cuts the heaviest remaining child edge on the
// spine (the continuation chain of the piece root) of the heaviest piece,
// and every tie breaks structurally: earliest piece in cut order, then
// first in spine order, then lowest child slot — never by node index, so
// the pieces do not depend on the order a recording numbered its nodes.
// No map iteration, no randomness: the same trace and K always yield the
// same pieces, whatever the host parallelism — the foundation of the
// shard-count invariance guarantee.

import (
	"fmt"
	"sort"

	"repro/internal/job"
)

// Piece is one partition element: a root job replaying a disjoint portion
// of the trace.
type Piece struct {
	// Root replays the piece under sim.Run / sim.RunStream.
	Root job.Job
	// Node is the trace node index the piece is rooted at (diagnostics).
	Node int32
	// Weight is the piece's op-byte weight — the bytes of encoded ops it
	// replays, plus one per strand — the load measure LPT assignment uses.
	Weight int64
}

// Partition is a deterministic split of a trace into pieces. Piece 0 is
// rooted at the trace root; subsequent pieces appear in cut order.
type Partition struct {
	Pieces []Piece
}

// PartitionStream splits a trace into at most k pieces. The piece jobs
// take their scripts from the trace's byte source — resident arena or
// frame window — exactly like the unpartitioned Root.
func PartitionStream(t *StreamTrace, k int) (*Partition, error) {
	if k < 1 {
		return nil, fmt.Errorf("dagtrace: partition into %d pieces", k)
	}
	nodes, children, root := t.nodes, t.childIdx, t.root
	weight := subtreeWeights(nodes, children)
	if k == 1 || len(nodes) < 2 {
		return &Partition{Pieces: []Piece{{
			Root: t.Root(), Node: root, Weight: weight[root],
		}}}, nil
	}

	// pieces[i] = (root node, remaining weight); cutSlots[n] lists the
	// child-table slots cut from node n, in cut order.
	type piece struct {
		node   int32
		weight int64
	}
	pieces := []piece{{node: root, weight: weight[root]}}
	cutSlots := make(map[int32][]int32)

	cut := func(s []int32, slot int32) bool {
		for _, c := range s {
			if c == slot {
				return true
			}
		}
		return false
	}
	for len(pieces) < k {
		// Heaviest piece first (ties: earliest piece), heaviest un-cut
		// child edge on its spine (ties: first in spine order, lowest
		// slot).
		order := make([]int, len(pieces))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool {
			return pieces[order[x]].weight > pieces[order[y]].weight
		})
		bestPiece, bestNode, bestSlot := -1, int32(-1), int32(-1)
		var bestW int64
		for _, pi := range order {
			for n := pieces[pi].node; n >= 0; n = nodes[n].cont {
				nd := &nodes[n]
				for slot := nd.childOff; slot < nd.childEnd; slot++ {
					if cut(cutSlots[n], slot) {
						continue
					}
					if w := weight[children[slot]]; bestPiece == -1 || w > bestW {
						bestPiece, bestNode, bestSlot, bestW = pi, n, slot, w
					}
				}
			}
			if bestPiece != -1 {
				break
			}
		}
		if bestPiece == -1 {
			break // nothing left to cut; fewer than k pieces
		}
		cutSlots[bestNode] = append(cutSlots[bestNode], bestSlot)
		pieces[bestPiece].weight -= bestW
		pieces = append(pieces, piece{node: children[bestSlot], weight: bestW})
	}

	// A node needs a wrapper when its own fork changed or when any node
	// down its continuation chain did (the wrapper redirects cont to the
	// wrapped successor). Children and continuations always have higher
	// indices than their parent, so one reverse pass settles both.
	wrapped := make(map[int32]*partJob)
	for i := int32(len(nodes)) - 1; i >= 0; i-- {
		nd := &nodes[i]
		contWrapped := nd.cont >= 0 && wrapped[nd.cont] != nil
		if len(cutSlots[i]) == 0 && !contWrapped {
			continue
		}
		pj := &partJob{streamJob: &t.jobs[i]}
		if nd.cont >= 0 {
			if cw := wrapped[nd.cont]; cw != nil {
				pj.cont = cw
			} else {
				pj.cont = &t.jobs[nd.cont]
			}
		}
		for slot := nd.childOff; slot < nd.childEnd; slot++ {
			if cut(cutSlots[i], slot) {
				continue
			}
			ci := children[slot]
			if cw := wrapped[ci]; cw != nil {
				pj.kids = append(pj.kids, cw)
			} else {
				pj.kids = append(pj.kids, &t.jobs[ci])
			}
		}
		wrapped[i] = pj
	}

	p := &Partition{Pieces: make([]Piece, len(pieces))}
	for i, pc := range pieces {
		var r job.Job = &t.jobs[pc.node]
		if w := wrapped[pc.node]; w != nil {
			r = w
		}
		p.Pieces[i] = Piece{Root: r, Node: pc.node, Weight: pc.weight}
	}
	return p, nil
}

// partJob replays one trace node with a modified terminal fork: cut
// children removed and the continuation redirected to its own wrapper
// when the chain downstream changed. The embedded node job supplies the
// script and the recorded sizes, so inline execution, window leases, and
// space declarations all behave exactly as for an unpartitioned replay.
// Size and StrandSize still report the recorded (pre-cut) footprints: a
// cut can only shrink a task's true working set, so space-bounded
// schedulers stay sound, merely conservative, for partitioned pieces.
type partJob struct {
	*streamJob
	cont job.Job
	kids []job.Job
}

var _ job.StreamScripted = (*partJob)(nil)
var _ job.SBJob = (*partJob)(nil)

func (j *partJob) Run(ctx job.Ctx) { runScripted(ctx, j) }

func (j *partJob) ScriptFork() (cont job.Job, children []job.Job) { return j.cont, j.kids }

// subtreeWeights computes each node's subtree weight — op bytes plus one
// per strand, summed over the node, its children and its continuation
// chain — in one reverse pass (children and conts follow their parent in
// index order).
func subtreeWeights(nodes []node, children []int32) []int64 {
	w := make([]int64, len(nodes))
	for i := len(nodes) - 1; i >= 0; i-- {
		n := &nodes[i]
		t := n.opEnd - n.opOff + 1
		if n.cont >= 0 {
			t += w[n.cont]
		}
		for slot := n.childOff; slot < n.childEnd; slot++ {
			t += w[children[slot]]
		}
		w[i] = t
	}
	return w
}
