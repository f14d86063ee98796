package dagtrace

import (
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// recordTestTrace records the standard test program for cache tests.
func recordTestTrace(t *testing.T, n int) *Trace {
	t.Helper()
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	sp := mem.NewSpace(m.Links, m.Links)
	rec := NewRecorder()
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 7, Listener: rec,
	}, testProgram(sp, n)); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestStreamCacheSingleFlight pins the grid sharing discipline: of N
// concurrent callers for one key, exactly one records; every other
// caller blocks until the file lands and replays the same path.
func TestStreamCacheSingleFlight(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordTestTrace(t, 1<<10)
	const callers = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		records int
		paths   = map[string]bool{}
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, record, err := c.GetOrReserve("k")
			if err != nil {
				t.Error(err)
				return
			}
			if record {
				if rec, err = c.Fill("k", tr); err != nil {
					t.Error(err)
					return
				}
			}
			mu.Lock()
			if record {
				records++
			}
			paths[rec.Path] = true
			mu.Unlock()
			st, err := rec.Open(0, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer st.Close()
			if st.TaskCount != tr.TaskCount {
				t.Errorf("cached file has %d tasks, recording %d", st.TaskCount, tr.TaskCount)
			}
		}()
	}
	wg.Wait()
	if records != 1 {
		t.Fatalf("got %d recordings, want exactly 1", records)
	}
	if len(paths) != 1 {
		t.Fatalf("callers saw %d distinct paths, want 1", len(paths))
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", s, callers-1)
	}
}

// TestStreamCacheResident pins the directory-less mode: concurrent
// callers of one key share a single recording through one zero-copy
// resident view; Drop releases a filled key so it records again; a failed
// recording — ErrUnsupported included — reaches the callers waiting on it
// and releases the key; and Quarantine evicts a resident entry like a
// file-backed one.
func TestStreamCacheResident(t *testing.T) {
	c, err := NewStreamCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordTestTrace(t, 1<<10)
	const callers = 8
	views := make([]*StreamTrace, callers)
	var records atomic.Int32
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, record, err := c.GetOrReserve("k")
			if err == nil && record {
				records.Add(1)
				rec, err = c.Fill("k", tr)
			}
			if err != nil {
				t.Error(err)
				return
			}
			if rec.Path != "" {
				t.Errorf("resident recording has a file %q", rec.Path)
			}
			if views[i], err = rec.Open(0, nil); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := records.Load(); n != 1 {
		t.Fatalf("got %d recordings, want exactly 1", n)
	}
	for i, v := range views {
		if v == nil || v != views[0] {
			t.Fatalf("caller %d got view %p, want the one shared view %p", i, v, views[0])
		}
	}
	if &views[0].ops[0] != &tr.ops[0] {
		t.Fatal("resident view copied the recording's op arena")
	}
	replay(t, views[0], machine.TwoSocket(4, 1<<16, 1<<12), "sb", 7, nil)
	if s := c.Stats(); s.Misses != 1 || s.Hits != callers-1 || s.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, no disk hits", s, callers-1)
	}

	c.Drop("k")
	if _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("after Drop: record=%v err=%v, want a fresh recording slot", record, err)
	}
	waiter := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		close(registered)
		_, _, err := c.GetOrReserve("k")
		waiter <- err
	}()
	// As in TestStreamCacheFail: the waiter must be blocked on this
	// reservation before the failure publishes, or it would re-record.
	<-registered
	time.Sleep(50 * time.Millisecond)
	c.Fail("k", ErrUnsupported)
	if err := <-waiter; !errors.Is(err, ErrUnsupported) {
		t.Fatalf("waiter got %v, want ErrUnsupported", err)
	}
	if s := c.Stats(); s.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", s)
	}
	if _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("after Fail: record=%v err=%v, want a fresh recording slot", record, err)
	}
	if _, err := c.Fill("k", tr); err != nil {
		t.Fatal(err)
	}

	if !c.Quarantine("k") {
		t.Fatal("refused to quarantine a resident recording")
	}
	if s := c.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", s)
	}
	if _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("after Quarantine: record=%v err=%v, want re-record", record, err)
	}
	c.Fail("k", errors.New("cleanup"))
}

// TestStreamCacheAdoptsDisk checks that a fresh cache over an existing
// directory adopts (and revalidates) a previous process's file instead
// of re-recording.
func TestStreamCacheAdoptsDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	tr := recordTestTrace(t, 1<<10)
	if _, record, _ := c1.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	r1, err := c1.Fill("k", tr)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	r2, record, err := c2.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if record || r2.Path != r1.Path {
		t.Fatalf("adoption: path=%q record=%v, want %q false", r2.Path, record, r1.Path)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}
}

// TestStreamCacheEvictsCorrupt checks the spill discipline on a damaged
// file: it is removed, counted, and the key falls back to re-recording.
func TestStreamCacheEvictsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := NewStreamCache(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	p := c.path("k")
	if err := os.WriteFile(p, []byte("not a framed trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, record, err := c.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if !record {
		t.Fatal("corrupt file was adopted instead of re-recorded")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("corrupt file still on disk (stat err %v)", err)
	}
	if s := c.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt and 1 miss", s)
	}
}

// TestStreamCacheFail checks that a failed recording unblocks waiters
// with the recorder's error rather than deadlocking them.
func TestStreamCacheFail(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, record, _ := c.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	boom := errors.New("kernel exploded")
	done := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		close(registered)
		_, _, err := c.GetOrReserve("k")
		done <- err
	}()
	// Let the waiter block on the reservation before it fails: a waiter
	// arriving after the failure would (correctly) re-record instead.
	<-registered
	time.Sleep(50 * time.Millisecond)
	c.Fail("k", boom)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("waiter got %v, want the recording error", err)
	}
	if s := c.Stats(); s.Fallbacks != 1 {
		t.Fatalf("stats = %+v, want 1 fallback", s)
	}
	// Fail releases the reservation: the key is recordable again, not
	// wedged on the stale failure.
	if _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("post-Fail GetOrReserve: record=%v err=%v, want a fresh recording slot", record, err)
	}
	if _, err := c.Fill("k", recordTestTrace(t, 1<<10)); err != nil {
		t.Fatalf("recording after a released failure: %v", err)
	}
}

// TestStreamCacheFillWriteError injects a failing writer (the disk-full
// / I/O-error path) and pins the contract from both sides: the recorder
// and every waiter observe a typed *WriteError, no file is published,
// and the single-flight reservation is released so the key re-records —
// and succeeds — once the writer recovers.
func TestStreamCacheFillWriteError(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("no space left on device")
	c.writeFn = func(t *Trace, path string, frameSize int64) error {
		// Simulate a torn write: bytes land, then the device fills.
		os.WriteFile(path, []byte("partial"), 0o644)
		return diskFull
	}
	tr := recordTestTrace(t, 1<<10)
	if _, record, _ := c.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	waiter := make(chan error, 1)
	registered := make(chan struct{})
	go func() {
		close(registered)
		_, _, err := c.GetOrReserve("k")
		waiter <- err
	}()
	// As in TestStreamCacheFail: the waiter must be blocked on this
	// reservation before the failure publishes, or it would re-record.
	<-registered
	time.Sleep(50 * time.Millisecond)
	_, err = c.Fill("k", tr)
	var werr *WriteError
	if !errors.As(err, &werr) {
		t.Fatalf("Fill returned %T (%v), want *WriteError", err, err)
	}
	if werr.Key != "k" || !errors.Is(err, diskFull) {
		t.Fatalf("WriteError = %+v, want key %q wrapping the disk error", werr, "k")
	}
	if werr := <-waiter; !errors.As(werr, new(*WriteError)) {
		t.Fatalf("waiter got %v, want the *WriteError", werr)
	}
	if _, statErr := os.Stat(c.path("k")); !os.IsNotExist(statErr) {
		t.Fatalf("torn file survived the failed Fill (stat err %v)", statErr)
	}

	// Reservation released: with a healthy writer the key records fine.
	c.writeFn = nil
	if _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("post-failure GetOrReserve: record=%v err=%v, want a fresh recording slot", record, err)
	}
	rec, err := c.Fill("k", tr)
	if err != nil {
		t.Fatalf("recording after writer recovery: %v", err)
	}
	st, err := rec.Open(0, nil)
	if err != nil {
		t.Fatalf("recovered file does not open: %v", err)
	}
	st.Close()
}

// TestStreamCacheQuarantine pins the supervisor's evict-and-re-record
// path: quarantining a published recording removes entry and file, is
// counted, and the next GetOrReserve records from scratch; an in-flight
// recording and an absent key are both refused.
func TestStreamCacheQuarantine(t *testing.T) {
	c, err := NewStreamCache(t.TempDir(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if c.Quarantine("nothing") {
		t.Fatal("quarantined a key that was never recorded")
	}
	tr := recordTestTrace(t, 1<<10)
	if _, record, _ := c.GetOrReserve("k"); !record {
		t.Fatal("cold cache did not ask for a recording")
	}
	// In flight: the reservation is live, nothing published to distrust.
	if c.Quarantine("k") {
		t.Fatal("quarantined an in-flight recording")
	}
	rec, err := c.Fill("k", tr)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Quarantine("k") {
		t.Fatal("refused to quarantine a published recording")
	}
	if _, err := os.Stat(rec.Path); !os.IsNotExist(err) {
		t.Fatalf("quarantined file still on disk (stat err %v)", err)
	}
	if s := c.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", s)
	}
	if _, record, err := c.GetOrReserve("k"); err != nil || !record {
		t.Fatalf("post-quarantine GetOrReserve: record=%v err=%v, want re-record", record, err)
	}
	c.Fail("k", errors.New("cleanup"))
}

// TestBudgetAdmit pins the degraded-mode admission rule: an idle bucket
// admits anything (one cell must always run), a busy bucket admits only
// what fits, and nil admits everything.
func TestBudgetAdmit(t *testing.T) {
	var nilB *Budget
	if !nilB.Admit(1 << 40) {
		t.Fatal("nil budget rejected an admission")
	}
	b := NewBudget(1 << 10)
	if !b.Admit(1 << 20) {
		t.Fatal("idle bucket rejected an oversized admission (single cells must always run)")
	}
	b.charge(1 << 9)
	if !b.Admit(1 << 8) {
		t.Fatal("bucket rejected an admission that fits")
	}
	if b.Admit(1 << 10) {
		t.Fatal("busy bucket admitted an overdraft")
	}
	b.credit(1 << 9)
	if !b.Admit(1 << 20) {
		t.Fatal("drained bucket rejected an admission")
	}
}

// TestBudgetSharedAccounting replays two streams off one tiny shared
// budget: the bucket must force both windows down under pressure, its
// high-water mark must be visible, and after both streams close every
// token must be back (the runtime lease-leak check).
func TestBudgetSharedAccounting(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	_, _, path := writeFramed(t, 1<<10, 1<<12, 0)
	b := NewBudget(1 << 13) // 8KB across both streams: constant pressure
	var sts []*StreamTrace
	for i := 0; i < 2; i++ {
		st, err := OpenStreamBudget(path, 1<<20, b)
		if err != nil {
			t.Fatal(err)
		}
		sts = append(sts, st)
	}
	var fps []string
	for _, st := range sts {
		replay(t, st, m, "sb", 7, nil)
		fp, err := st.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	if fps[0] != fps[1] {
		t.Fatalf("budget pressure changed trace fingerprints: %s vs %s", fps[0], fps[1])
	}
	if b.PeakBytes() <= 0 {
		t.Fatal("no peak recorded on the shared budget")
	}
	for _, st := range sts {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if used := b.Used(); used != 0 {
		t.Fatalf("budget has %d bytes still charged after both streams closed", used)
	}
}
