package dagtrace

import (
	"errors"
	"fmt"
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
func recordTestTrace(t *testing.T, n int) *StreamTrace {
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

// recordInto records the standard test program of n elements into the
// recorder of key's reservation and publishes it, as Runner.record does:
// Fill on success, Fail on a recording error.
func recordInto(t *testing.T, c *StreamCache, key string, into *Recorder, n int) (Recording, error) {
	t.Helper()
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	if err := Record(into, testProgram(mem.NewSpace(m.Links, m.Links), n), m.Block()); err != nil {
		c.Fail(key, err)
		return Recording{}, err
	}
	return c.Fill(key)
}

// noFile fails t when path exists.
func noFile(t *testing.T, path, what string) {
	t.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("%s: %s still on disk (stat err %v)", what, path, err)
	}
}

// TestStreamCacheSingleFlight pins the grid sharing discipline: of N
// concurrent callers for one key, exactly one records; every other
// caller blocks until the file lands and replays the same path.
func TestStreamCacheSingleFlight(t *testing.T) {
	c, err := NewStreamCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.frameSize = 1 << 12
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
			rec, into, err := c.GetOrReserve("k")
			if err != nil {
				t.Error(err)
				return
			}
			if into != nil {
				if rec, err = recordInto(t, c, "k", into, 1<<10); err != nil {
					t.Error(err)
					return
				}
			}
			mu.Lock()
			if into != nil {
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
// callers of one key share a single recording, the very StreamTrace its
// recorder finished with; Retain keeps the keys it is given and releases
// every other filled key, so that key records again, but never an
// in-flight one; a failed recording — ErrUnsupported included — reaches the callers
// waiting on it and releases the key; and Quarantine evicts an in-memory
// entry like a file-backed one.
func TestStreamCacheResident(t *testing.T) {
	c, err := NewStreamCache("")
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
			rec, into, err := c.GetOrReserve("k")
			if err == nil && into != nil {
				records.Add(1)
				rec, err = recordInto(t, c, "k", into, 1<<10)
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
	if views[0].r != nil || int64(len(views[0].ops)) != tr.OpBytes() {
		t.Fatal("directory-less recording does not hold its op region in memory")
	}
	replay(t, views[0], machine.TwoSocket(4, 1<<16, 1<<12), "sb", 7, nil)
	if s := c.Stats(); s.Misses != 1 || s.Hits != callers-1 || s.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, no disk hits", s, callers-1)
	}

	c.Retain([]string{"other", "k"})
	if v, into, err := c.GetOrReserve("k"); err != nil || into != nil || v.resident != views[0] {
		t.Fatalf("after Retain of k: into=%v err=%v, want the resident recording", into, err)
	}
	c.Retain([]string{"other"})
	if _, into, err := c.GetOrReserve("k"); err != nil || into == nil {
		t.Fatalf("after Retain without k: into=%v err=%v, want a fresh recording slot", into, err)
	}
	// The reservation just made is in flight: Retain must leave it, so the
	// waiter below blocks on it instead of reserving the key afresh.
	c.Retain(nil)
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
	_, into, err := c.GetOrReserve("k")
	if err != nil || into == nil {
		t.Fatalf("after Fail: into=%v err=%v, want a fresh recording slot", into, err)
	}
	if _, err := recordInto(t, c, "k", into, 1<<10); err != nil {
		t.Fatal(err)
	}

	if !c.Quarantine("k") {
		t.Fatal("refused to quarantine a resident recording")
	}
	if s := c.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", s)
	}
	if _, into, err := c.GetOrReserve("k"); err != nil || into == nil {
		t.Fatalf("after Quarantine: into=%v err=%v, want re-record", into, err)
	}
	c.Fail("k", errors.New("cleanup"))
}

// TestStreamCacheAdoptsDisk checks that a fresh cache over an existing
// directory adopts (and revalidates) a previous process's file instead
// of re-recording, and that a cache whose Retain released a key adopts
// the key's file again.
func TestStreamCacheAdoptsDisk(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewStreamCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.frameSize = 1 << 12
	_, into, _ := c1.GetOrReserve("k")
	if into == nil {
		t.Fatal("cold cache did not ask for a recording")
	}
	r1, err := recordInto(t, c1, "k", into, 1<<10)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := NewStreamCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2.frameSize = 1 << 12
	r2, into, err := c2.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if into != nil || r2.Path != r1.Path {
		t.Fatalf("adoption: path=%q record=%v, want %q false", r2.Path, into != nil, r1.Path)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit", s)
	}

	c1.Retain(nil)
	r3, into, err := c1.GetOrReserve("k")
	if err != nil || into != nil || r3.Path != r1.Path {
		t.Fatalf("after Retain without k: path=%q record=%v err=%v, want %q adopted", r3.Path, into != nil, err, r1.Path)
	}
	if s := c1.Stats(); s.Misses != 1 || s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want the one recording and 1 disk hit", s)
	}
}

// TestStreamCacheEvictsCorrupt checks the spill discipline on a damaged
// file: it is removed, counted, and the key falls back to re-recording.
func TestStreamCacheEvictsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := NewStreamCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.frameSize = 1 << 12
	p := c.path("k")
	if err := os.WriteFile(p, []byte("not a framed trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, into, err := c.GetOrReserve("k")
	if err != nil {
		t.Fatal(err)
	}
	if into == nil {
		t.Fatal("corrupt file was adopted instead of re-recorded")
	}
	noFile(t, p, "corrupt file")
	if s := c.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 corrupt and 1 miss", s)
	}
	c.Fail("k", errors.New("cleanup"))
}

// TestStreamCacheEvictsStale: a file an older build wrote (format v2 or
// v3) at a key's path is stale, not corrupt: it is evicted without
// counting in Stats.Corrupt, and the key re-records into a file a fresh
// cache adopts.
func TestStreamCacheEvictsStale(t *testing.T) {
	for _, version := range []byte{2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewStreamCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			c.frameSize = 1 << 12
			p := c.path("k")
			stale := append([]byte(streamMagic), version, 0, 0, 0)
			stale = append(stale, make([]byte, 256)...)
			if err := os.WriteFile(p, stale, 0o644); err != nil {
				t.Fatal(err)
			}
			_, into, err := c.GetOrReserve("k")
			if err != nil || into == nil {
				t.Fatalf("stale file: into=%v err=%v, want a fresh recording", into, err)
			}
			noFile(t, p, "stale file")
			if s := c.Stats(); s.Corrupt != 0 || s.Misses != 1 {
				t.Fatalf("stats = %+v, want no corrupt file and 1 miss", s)
			}
			if _, err := recordInto(t, c, "k", into, 1<<10); err != nil {
				t.Fatal(err)
			}
			c2, err := NewStreamCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, into, err := c2.GetOrReserve("k"); err != nil || into != nil {
				t.Fatalf("re-recorded file not adopted: into=%v err=%v", into, err)
			}
		})
	}
}

// TestStreamCacheFail checks that a failed recording unblocks waiters
// with the recorder's error rather than deadlocking them, and removes the
// partly written file.
func TestStreamCacheFail(t *testing.T) {
	c, err := NewStreamCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, into, _ := c.GetOrReserve("k"); into == nil {
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
	noFile(t, c.path("k")+".tmp", "failed recording's temporary file")
	// Fail releases the reservation: the key is recordable again, not
	// wedged on the stale failure.
	_, into, err := c.GetOrReserve("k")
	if err != nil || into == nil {
		t.Fatalf("post-Fail GetOrReserve: into=%v err=%v, want a fresh recording slot", into, err)
	}
	if _, err := recordInto(t, c, "k", into, 1<<10); err != nil {
		t.Fatalf("recording after a released failure: %v", err)
	}
}

var errDiskFull = errors.New("no space left on device")

// fullDisk is a trace file on a device that fills after left more bytes:
// the write that crosses the limit lands in part, then fails.
type fullDisk struct {
	*os.File
	left int
}

func (d *fullDisk) Write(b []byte) (int, error) { return d.WriteAt(b, -1) }

// WriteAt writes at off, or at the file offset when off < 0.
func (d *fullDisk) WriteAt(b []byte, off int64) (int, error) {
	k, err := min(len(b), d.left), error(nil)
	d.left -= k
	if off < 0 {
		_, err = d.File.Write(b[:k])
	} else {
		_, err = d.File.WriteAt(b[:k], off)
	}
	if err == nil && k < len(b) {
		err = errDiskFull
	}
	return k, err
}

// TestStreamCacheFillWriteError injects a device that fills up (the
// disk-full / I/O-error path) while a recording streams into its file,
// while Fill completes it, and when the file is created, and pins the
// contract from both sides: the recorder and every waiter observe a typed
// *WriteError, no file is left, and the single-flight reservation is
// released so the key re-records — and succeeds — once the writer
// recovers.
func TestStreamCacheFillWriteError(t *testing.T) {
	c, err := NewStreamCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.frameSize = 1 << 12
	p := c.path("k")
	opBytes := recordTestTrace(t, 1<<10).OpBytes()
	if opBytes < 3*c.frameSize {
		t.Fatalf("test recording holds %d op bytes, too few to fail mid-recording", opBytes)
	}
	for _, tc := range []struct {
		name   string
		create func(string) (traceFile, error)
	}{
		{"while recording", func(name string) (traceFile, error) {
			f, err := os.Create(name)
			return &fullDisk{File: f, left: prefixLen + 2*int(c.frameSize) + 100}, err
		}},
		{"in Fill", func(name string) (traceFile, error) {
			f, err := os.Create(name)
			return &fullDisk{File: f, left: prefixLen + int(opBytes) + 10}, err
		}},
		{"at create", func(string) (traceFile, error) { return nil, errDiskFull }},
	} {
		c.create = tc.create
		_, into, err := c.GetOrReserve("k")
		if tc.name == "at create" {
			if into != nil || !errors.As(err, new(*WriteError)) || !errors.Is(err, errDiskFull) {
				t.Fatalf("%s: GetOrReserve = %v, %v; want a *WriteError wrapping the disk error", tc.name, into, err)
			}
			continue
		}
		if err != nil || into == nil {
			t.Fatalf("%s: GetOrReserve: into=%v err=%v, want a recording slot", tc.name, into, err)
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
		_, err = recordInto(t, c, "k", into, 1<<10)
		var werr *WriteError
		if !errors.As(err, &werr) {
			t.Fatalf("%s: recording returned %T (%v), want *WriteError", tc.name, err, err)
		}
		if werr.Key != "k" || werr.Path != p || !errors.Is(err, errDiskFull) {
			t.Fatalf("%s: WriteError = %+v, want key %q, path %q, wrapping the disk error", tc.name, werr, "k", p)
		}
		if werr := <-waiter; !errors.As(werr, new(*WriteError)) {
			t.Fatalf("%s: waiter got %v, want the *WriteError", tc.name, werr)
		}
		noFile(t, p, tc.name+": failed recording")
		noFile(t, p+".tmp", tc.name+": failed recording's temporary file")
	}

	// Reservation released: with a healthy writer the key records fine.
	c.create = nil
	_, into, err := c.GetOrReserve("k")
	if err != nil || into == nil {
		t.Fatalf("post-failure GetOrReserve: into=%v err=%v, want a fresh recording slot", into, err)
	}
	rec, err := recordInto(t, c, "k", into, 1<<10)
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
	c, err := NewStreamCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.frameSize = 1 << 12
	if c.Quarantine("nothing") {
		t.Fatal("quarantined a key that was never recorded")
	}
	_, into, _ := c.GetOrReserve("k")
	if into == nil {
		t.Fatal("cold cache did not ask for a recording")
	}
	// In flight: the reservation is live, nothing published to distrust.
	if c.Quarantine("k") {
		t.Fatal("quarantined an in-flight recording")
	}
	rec, err := recordInto(t, c, "k", into, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Quarantine("k") {
		t.Fatal("refused to quarantine a published recording")
	}
	noFile(t, rec.Path, "quarantined file")
	if s := c.Stats(); s.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", s)
	}
	if _, into, err := c.GetOrReserve("k"); err != nil || into == nil {
		t.Fatalf("post-quarantine GetOrReserve: into=%v err=%v, want re-record", into, err)
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
		st, err := OpenStream(path, 1<<20, b)
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
