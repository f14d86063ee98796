package dagtrace

import (
	"testing"

	"repro/internal/job"
	"repro/internal/mem"
)

// opSink is a minimal job.Ctx that consumes ops without simulating, so the
// alloc measurement isolates the replay decode path itself.
type opSink struct {
	accesses int64
	cycles   int64
	forks    int64
}

func (c *opSink) Access(a mem.Addr, write bool) {
	c.accesses += int64(a)
	if write {
		c.accesses++
	}
}
func (c *opSink) Work(cycles int64)                            { c.cycles += cycles }
func (c *opSink) Fork(job.Job, ...job.Job)                     { c.forks++ }
func (c *opSink) ForkFuture(job.Job, *job.Future, job.Job)     {}
func (c *opSink) ForkAwait(job.Job, []*job.Future, ...job.Job) {}

// TestReplayOpsAllocFree pins AllocsPerRun=0 on the replay inner loop: the
// decode of a recorded strand script must not allocate, box, or escape
// anything per op.
func TestReplayOpsAllocFree(t *testing.T) {
	var ops []byte
	addr, rng := int64(0), uint64(0x243f6a8885a308d3)
	for i := 0; i < 4096; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		switch i % 3 {
		case 0:
			delta := int64(rng%65536) - 32768
			addr += delta
			ops = appendUvarint(ops, zigzag(delta)<<opTagBits|opRead)
		case 1:
			ops = appendUvarint(ops, zigzag(64)<<opTagBits|opWrite)
		case 2:
			ops = appendUvarint(ops, uint64(rng%1000+1)<<opTagBits|opWork)
		}
	}
	sink := &opSink{}
	allocs := testing.AllocsPerRun(50, func() {
		replayOps(sink, ops, 0, int64(len(ops)))
	})
	if allocs != 0 {
		t.Fatalf("replayOps allocates %.1f objects per run, want 0", allocs)
	}
}

// TestReplayJobRunAllocFree extends the guarantee to the full replayed
// strand — script, decode and the terminal fork over prebuilt child
// slices — for both byte sources: the in-memory op region, and a window
// large enough to keep every frame cached, whose recycled leases allocate
// nothing once warm.
func TestReplayJobRunAllocFree(t *testing.T) {
	tr, windowed, _ := writeFramed(t, 512, 4096, 1<<20)
	for _, v := range []struct {
		name string
		st   *StreamTrace
	}{{"in memory", tr}, {"windowed", windowed}} {
		sink := &opSink{}
		allocs := testing.AllocsPerRun(50, func() {
			for i := range v.st.jobs {
				v.st.jobs[i].Run(sink)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: streamJob.Run allocates %.1f objects per run, want 0", v.name, allocs)
		}
	}
}
