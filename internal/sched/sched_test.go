package sched

import (
	"testing"

	"repro/internal/job"
	"repro/internal/machine"
	"repro/internal/xrand"
)

// fakeEnv is a minimal Env for unit tests: locks serialize on a single
// global ordering, charges accumulate per worker.
type fakeEnv struct {
	m       *machine.Desc
	cost    CostModel
	locks   []int64
	clocks  []int64
	charges []int64
	rngs    []*xrand.Source
}

func newFakeEnv(m *machine.Desc) *fakeEnv {
	n := m.NumCores()
	e := &fakeEnv{m: m, cost: DefaultCosts(), clocks: make([]int64, n), charges: make([]int64, n), rngs: make([]*xrand.Source, n)}
	for i := range e.rngs {
		e.rngs[i] = xrand.New(uint64(i) + 1)
	}
	return e
}

func (e *fakeEnv) Machine() *machine.Desc { return e.m }
func (e *fakeEnv) Cost() CostModel        { return e.cost }
func (e *fakeEnv) NewLock() int {
	e.locks = append(e.locks, 0)
	return len(e.locks) - 1
}
func (e *fakeEnv) Lock(worker, id int, hold int64) {
	start := e.clocks[worker]
	if e.locks[id] > start {
		start = e.locks[id]
	}
	e.locks[id] = start + hold
	e.clocks[worker] = start + hold
}
func (e *fakeEnv) Charge(worker int, cycles int64) {
	e.clocks[worker] += cycles
	e.charges[worker] += cycles
}
func (e *fakeEnv) RNG(worker int) *xrand.Source { return e.rngs[worker] }

// mkStrand builds a detached strand with a sized task for scheduler tests.
func mkStrand(id uint64, size int64, parent *job.Task, kind job.Kind) *job.Strand {
	t := &job.Task{ID: id, Parent: parent, SizeBytes: size, AnchorLevel: -1, AnchorNode: -1}
	return &job.Strand{ID: id, Task: t, Kind: kind, SizeBytes: size}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		if s := New(name); s == nil {
			t.Errorf("New(%q) = nil", name)
		}
	}
	if New("nope") != nil {
		t.Error("New of unknown name should be nil")
	}
	if New("SB-D").Name() != "SB-D" {
		t.Error("SB-D name mismatch")
	}
}

func TestWSLocalLIFO(t *testing.T) {
	m := machine.Flat(2, 1<<16)
	ws := NewWS()
	ws.Setup(newFakeEnv(m))
	a, b, c := mkStrand(1, 64, nil, job.TaskStart), mkStrand(2, 64, nil, job.TaskStart), mkStrand(3, 64, nil, job.TaskStart)
	ws.Add(a, 0)
	ws.Add(b, 0)
	ws.Add(c, 0)
	// Local pops come from the bottom: LIFO.
	if got := ws.Get(0); got != c {
		t.Errorf("first local Get = %v, want c", got.ID)
	}
	if got := ws.Get(0); got != b {
		t.Errorf("second local Get = %v, want b", got.ID)
	}
}

func TestWSStealFromTop(t *testing.T) {
	m := machine.Flat(2, 1<<16)
	ws := NewWS()
	ws.Setup(newFakeEnv(m))
	a, b := mkStrand(1, 64, nil, job.TaskStart), mkStrand(2, 64, nil, job.TaskStart)
	ws.Add(a, 0)
	ws.Add(b, 0)
	// Worker 1 has an empty dequeue; with 2 workers the victim is 0.
	got := ws.Get(1)
	if got != a {
		t.Fatalf("steal took %d, want oldest strand a", got.ID)
	}
	if ws.TotalSteals() != 1 {
		t.Errorf("TotalSteals = %d, want 1", ws.TotalSteals())
	}
}

func TestWSGetEmptyReturnsNil(t *testing.T) {
	m := machine.Flat(4, 1<<16)
	ws := NewWS()
	ws.Setup(newFakeEnv(m))
	for i := 0; i < 10; i++ {
		if s := ws.Get(2); s != nil {
			t.Fatal("Get on empty system returned a strand")
		}
	}
}

func TestWSLockContentionCosts(t *testing.T) {
	m := machine.Flat(2, 1<<16)
	env := newFakeEnv(m)
	ws := NewWS()
	ws.Setup(env)
	ws.Add(mkStrand(1, 64, nil, job.TaskStart), 0)
	before := env.clocks[0]
	ws.Get(0)
	if env.clocks[0] <= before {
		t.Error("Get charged no time")
	}
}

func TestCilkCheaperThanWS(t *testing.T) {
	m := machine.Flat(2, 1<<16)
	envWS, envCilk := newFakeEnv(m), newFakeEnv(m)
	ws, cilk := NewWS(), NewCilk()
	ws.Setup(envWS)
	cilk.Setup(envCilk)
	ws.Add(mkStrand(1, 64, nil, job.TaskStart), 0)
	cilk.Add(mkStrand(1, 64, nil, job.TaskStart), 0)
	if envCilk.clocks[0] >= envWS.clocks[0] {
		t.Errorf("CilkPlus add cost %d not below WS cost %d", envCilk.clocks[0], envWS.clocks[0])
	}
}

func TestPWSVictimBias(t *testing.T) {
	// On the Xeon, worker 0's intra-socket steals must outnumber
	// inter-socket steals by roughly IntraSocketBias×(7/24).
	m := machine.Xeon7560()
	env := newFakeEnv(m)
	pws := NewPWS()
	pws.Setup(env)
	mySocket := m.SocketOf(m.LeafOf(0))
	intra, inter := 0, 0
	for i := 0; i < 20000; i++ {
		v := pws.victim(0)
		if v == 0 {
			t.Fatal("victim is self")
		}
		if m.SocketOf(m.LeafOf(v)) == mySocket {
			intra++
		} else {
			inter++
		}
	}
	// Expected ratio intra:inter = 10*7 : 24 ≈ 2.92; allow wide slack.
	ratio := float64(intra) / float64(inter)
	if ratio < 2.3 || ratio > 3.6 {
		t.Errorf("intra/inter steal ratio = %.2f, want ≈ 2.92", ratio)
	}
}

// TestVictimTickets pins the steal draw's ticket tables on the quick
// profile's Xeon (64 hyperthreads, cache sizes divided by 64) and on every
// Fig. 7 topology: under PWS each worker's table holds every same-socket
// victim IntraSocketBias times and every other victim once, under WS and
// CilkPlus every victim once, and no table holds its own worker. A table
// lists victims in worker order, so ticket r of a uniform table is the
// victim Appendix A's steal_choice returns for a draw of r.
func TestVictimTickets(t *testing.T) {
	machines := []*machine.Desc{machine.Scaled(machine.Xeon7560HT(), 64)}
	for _, cps := range []int{1, 2, 4, 8} {
		machines = append(machines, machine.XeonVariant(cps, false))
	}
	machines = append(machines, machine.XeonVariant(8, true))
	for _, m := range machines {
		for _, s := range []*WS{NewPWS(), NewWS(), NewCilk()} {
			s.Setup(newFakeEnv(m))
			n := m.NumCores()
			for i := 0; i < n; i++ {
				count := make([]int, n)
				for j, v := range s.tickets[i] {
					if j > 0 && v < s.tickets[i][j-1] {
						t.Fatalf("%s on %s: worker %d's tickets are not in worker order", s.Name(), m.Name, i)
					}
					count[v]++
				}
				for v, got := range count {
					want := 1
					switch {
					case v == i:
						want = 0
					case s.Name() == "PWS" && m.SocketOf(m.LeafOf(v)) == m.SocketOf(m.LeafOf(i)):
						want = IntraSocketBias
					}
					if got != want {
						t.Fatalf("%s on %s: worker %d holds %d tickets of victim %d, want %d", s.Name(), m.Name, i, got, v, want)
					}
				}
			}
		}
	}
}

func TestSBBefitLevels(t *testing.T) {
	m := machine.Xeon7560() // σM: L3 12MB, L2 128KB, L1 16KB at σ=0.5
	sb := NewSB(0.5, 0.2)
	sb.Setup(newFakeEnv(m))
	cases := []struct {
		size int64
		want int
	}{
		{8 << 10, 3},  // 8KB ≤ σ·32KB → L1
		{20 << 10, 2}, // 20KB: > σ·32KB, ≤ σ·256KB → L2
		{1 << 20, 1},  // 1MB → L3
		{12 << 20, 1}, // exactly σ·24MB → L3
		{13 << 20, 0}, // > σ·24MB → root
		{1 << 30, 0},  // huge → root
		{-1, -1},      // unannotated → inherit
	}
	for _, c := range cases {
		if got := sb.befit(c.size); got != c.want {
			t.Errorf("befit(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestSBParamValidation(t *testing.T) {
	for _, bad := range []struct{ s, m float64 }{{0, 0.2}, {1.5, 0.2}, {0.5, 0}, {0.5, 2}} {
		func() {
			defer func() { recover() }()
			NewSB(bad.s, bad.m)
			t.Errorf("NewSB(%v,%v) did not panic", bad.s, bad.m)
		}()
	}
}

func TestSBAnchorsAndOccupancy(t *testing.T) {
	// TwoSocket: 2 sockets × 2 cores, L2 256KB shared, L1 4KB per core.
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sb := NewSB(0.5, 0.2)
	sb.Setup(env)

	// A 64KB task: σM(L2)=128KB befits level 1; parent = root.
	s := mkStrand(1, 64<<10, nil, job.TaskStart)
	sb.Add(s, 0)
	if s.Task.AnchorLevel != -1 {
		t.Fatal("maximal task anchored at Add; must anchor at Get")
	}
	got := sb.Get(0)
	if got != s {
		t.Fatal("Get did not return the queued task")
	}
	if s.Task.AnchorLevel != 1 || s.Task.AnchorNode != 0 {
		t.Fatalf("anchor = (%d,%d), want (1,0)", s.Task.AnchorLevel, s.Task.AnchorNode)
	}
	if occ := sb.Occupancy(1, 0); occ < 64<<10 {
		t.Errorf("L2-0 occupancy = %d, want >= %d (task charge)", occ, 64<<10)
	}
	// Strand occupancy at L1 below the anchor: min(µ·4KB, 64KB) = 819B.
	if occ := sb.Occupancy(2, 0); occ <= 0 {
		t.Errorf("L1-0 strand occupancy = %d, want > 0", occ)
	}
	// Done releases strand occupancy; TaskEnd releases the anchor.
	sb.Done(s, 0)
	if occ := sb.Occupancy(2, 0); occ != 0 {
		t.Errorf("L1-0 occupancy after Done = %d, want 0", occ)
	}
	sb.TaskEnd(s.Task, 0)
	if occ := sb.Occupancy(1, 0); occ != 0 {
		t.Errorf("L2-0 occupancy after TaskEnd = %d, want 0", occ)
	}
}

func TestSBBoundednessRejects(t *testing.T) {
	// Two 100KB tasks befit a 128KB-σM L2 (256KB cache, σ=0.5); the bound
	// M=256KB admits two (200KB) but not three.
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sb := NewSB(0.5, 0.2)
	sb.Setup(env)
	var strands []*job.Strand
	for i := uint64(1); i <= 3; i++ {
		s := mkStrand(i, 100<<10, nil, job.TaskStart)
		sb.Add(s, 0)
		strands = append(strands, s)
	}
	// Worker 0 (socket 0) can anchor two tasks...
	a := sb.Get(0)
	b := sb.Get(0)
	if a == nil || b == nil {
		t.Fatal("first two tasks not schedulable")
	}
	// ...but its socket's L2 is now at 200KB + strand terms; the third
	// task (100KB) must be rejected on this path.
	if c := sb.Get(0); c != nil {
		t.Fatalf("third task anchored; occupancy %d, cap %d", sb.Occupancy(1, 0), 256<<10)
	}
	if sb.BoundRejects == 0 {
		t.Error("no bound rejections recorded")
	}
	// A core on the other socket anchors it to its own L2.
	if c := sb.Get(2); c == nil {
		t.Fatal("socket-1 core could not anchor the third task")
	} else if c.Task.AnchorNode != 1 {
		t.Errorf("third task anchored to node %d, want 1", c.Task.AnchorNode)
	}
	// Finishing task a frees space for a fourth task on socket 0.
	sb.Done(a, 0)
	sb.TaskEnd(a.Task, 0)
	d := mkStrand(4, 100<<10, nil, job.TaskStart)
	sb.Add(d, 0)
	if got := sb.Get(0); got != d {
		t.Fatal("freed space not reusable")
	}
}

func TestSBNonMaximalChildAnchorsWithParent(t *testing.T) {
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sb := NewSB(0.5, 0.2)
	sb.Setup(env)
	ps := mkStrand(1, 100<<10, nil, job.TaskStart)
	sb.Add(ps, 0)
	if sb.Get(0) != ps {
		t.Fatal("parent not scheduled")
	}
	// Child of similar size befits the same level: non-maximal, anchored
	// at Add to the parent's cache, no extra occupancy.
	before := sb.Occupancy(1, 0)
	cs := mkStrand(2, 90<<10, ps.Task, job.TaskStart)
	sb.Add(cs, 0)
	if cs.Task.AnchorLevel != 1 || cs.Task.AnchorNode != 0 {
		t.Fatalf("child anchor = (%d,%d), want parent's (1,0)", cs.Task.AnchorLevel, cs.Task.AnchorNode)
	}
	if after := sb.Occupancy(1, 0); after != before {
		t.Errorf("non-maximal child changed occupancy %d -> %d", before, after)
	}
}

func TestSBContinuationGoesToAnchor(t *testing.T) {
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sb := NewSB(0.5, 0.2)
	sb.Setup(env)
	ps := mkStrand(1, 100<<10, nil, job.TaskStart)
	sb.Add(ps, 0)
	if sb.Get(0) != ps {
		t.Fatal("parent not scheduled")
	}
	// Continuation spawned (e.g. by the last finishing child on worker 3):
	// it must be queued at the task's anchor (socket 0), not at worker 3's
	// cluster, so a socket-0 core retrieves it.
	cont := &job.Strand{ID: 2, Task: ps.Task, Kind: job.Continuation, SizeBytes: 100 << 10}
	sb.Add(cont, 3)
	if got := sb.Get(1); got != cont {
		t.Fatalf("socket-0 core did not find the continuation, got %v", got)
	}
}

func TestSBUnannotatedInheritsAnchor(t *testing.T) {
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sb := NewSB(0.5, 0.2)
	sb.Setup(env)
	ps := mkStrand(1, 100<<10, nil, job.TaskStart)
	sb.Add(ps, 0)
	sb.Get(0)
	cs := mkStrand(2, -1, ps.Task, job.TaskStart)
	sb.Add(cs, 0)
	if cs.Task.AnchorLevel != 1 {
		t.Errorf("unannotated child anchor level = %d, want parent's 1", cs.Task.AnchorLevel)
	}
}

func TestSBDeepTaskOnRootPath(t *testing.T) {
	// A tiny task whose parent is root-anchored skips levels: it charges
	// occupancy at every cache between its anchor and the root.
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sb := NewSB(0.5, 0.2)
	sb.Setup(env)
	s := mkStrand(1, 1<<10, nil, job.TaskStart) // 1KB befits L1 (σM=2KB)
	sb.Add(s, 0)
	if got := sb.Get(0); got != s {
		t.Fatal("small task not scheduled")
	}
	if s.Task.AnchorLevel != 2 {
		t.Fatalf("anchor level = %d, want 2 (L1)", s.Task.AnchorLevel)
	}
	// Skip-level charge at L2 (level 1) too.
	if occ := sb.Occupancy(1, 0); occ < 1<<10 {
		t.Errorf("skip-level L2 occupancy = %d, want >= 1KB", occ)
	}
	if occ := sb.Occupancy(2, 0); occ < 1<<10 {
		t.Errorf("anchor L1 occupancy = %d, want >= 1KB", occ)
	}
	sb.Done(s, 0)
	sb.TaskEnd(s.Task, 0)
	if sb.Occupancy(1, 0) != 0 || sb.Occupancy(2, 0) != 0 {
		t.Error("occupancy not fully released")
	}
}

func TestSBDDistributedTopBucket(t *testing.T) {
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sbd := NewSBD(0.5, 0.2)
	sbd.Setup(env)
	// Anchor a parent at socket 0's L2, then add two continuations from
	// different cores of that socket: they land on different child queues.
	ps := mkStrand(1, 100<<10, nil, job.TaskStart)
	sbd.Add(ps, 0)
	if sbd.Get(0) != ps {
		t.Fatal("parent not scheduled")
	}
	c0 := &job.Strand{ID: 2, Task: ps.Task, Kind: job.Continuation, SizeBytes: 64}
	c1 := &job.Strand{ID: 3, Task: ps.Task, Kind: job.Continuation, SizeBytes: 64}
	sbd.Add(c0, 0)
	sbd.Add(c1, 1)
	// Each core finds its own queue's strand first.
	if got := sbd.Get(1); got != c1 {
		t.Errorf("core 1 got %d, want its own continuation 3", got.ID)
	}
	// Core 1 can then steal core 0's.
	if got := sbd.Get(1); got != c0 {
		t.Errorf("core 1 steal got %v, want continuation 2", got)
	}
}

func TestSBDGetFallsThroughToDeepBuckets(t *testing.T) {
	m := machine.TwoSocket(2, 256<<10, 4<<10)
	env := newFakeEnv(m)
	sbd := NewSBD(0.5, 0.2)
	sbd.Setup(env)
	s := mkStrand(1, 1<<10, nil, job.TaskStart) // befits L1: deep bucket at root
	sbd.Add(s, 0)
	if got := sbd.Get(0); got != s {
		t.Fatal("SB-D did not find task in a deep bucket")
	}
}
