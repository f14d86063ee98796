package dagtrace

// StreamCache is the trace cache: a single-flight store of recordings
// shared by the cells of an experiment grid. A recording depends only on
// the computation key (kernel, scale, seed, machine geometry — never the
// scheduler or bandwidth under test), so an S-scheduler × B-bandwidth
// grid resolves K kernel keys into K recordings instead of K·S·B: the
// first cell of a key records, every other cell blocks until the
// recording is published and then replays it.
//
// Where a published recording lives is the cache's one setting. Without
// a directory it stays in memory behind one Resident view that every
// cell replays zero-copy. With a directory it is a DGTS file and nothing
// op-sized stays resident here: each cell opens the file through its own
// bounded window. Files are content-addressed by key hash, written
// atomically by WriteFramed, and revalidated (metadata checksum) when an
// existing file is adopted from a previous process — a corrupt or
// truncated file is evicted and counted, and its key falls back to
// re-recording.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Stats reports cache effectiveness. A Hit is a cell that replayed a
// published recording — from this process or adopted from disk, which
// DiskHits also counts — instead of executing kernel closures; a Miss is
// a reservation that had to record; a Fallback is a cell whose awaited
// recording failed (ErrUnsupported, a kernel error, a write error) and
// which therefore runs live. Corrupt counts files that failed validation
// (truncated or bit-rotted) and were evicted from disk; each also counts
// as a Miss, since its cell falls back to re-recording.
type Stats struct {
	Hits      int64
	DiskHits  int64
	Misses    int64
	Fallbacks int64
	Corrupt   int64
	// Quarantined counts recordings evicted on suspicion by Quarantine (a
	// failing grid cell distrusting its shared trace before a retry), as
	// opposed to Corrupt's checksum failures.
	Quarantined int64
}

// HitRate is hits over all resolutions, in [0,1]; 0 when nothing ran.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Fallbacks
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// StreamCache is a single-flight cache of recordings.
type StreamCache struct {
	dir       string // "" keeps recordings resident
	frameSize int64  // 0 = DefaultFrameSize

	// writeFn frames a trace to disk; tests inject failing writers to
	// exercise the disk-full / I/O-error paths. nil means WriteFramed.
	writeFn func(t *Trace, path string, frameSize int64) error

	mu      sync.Mutex
	entries map[string]*streamEntry
	stats   Stats
}

// Recording is a published recording: a DGTS file when the cache has a
// directory, else a resident view.
type Recording struct {
	// Path is the recording's DGTS file; empty for a resident recording.
	Path     string
	resident *StreamTrace
}

// Open returns a view that replays the recording: the shared resident
// view itself, or a new stream over Path whose frame window holds
// windowBytes and charges budget (see OpenStreamBudget). Close the view
// when its replay is done.
func (r Recording) Open(windowBytes int64, budget *Budget) (*StreamTrace, error) {
	if r.resident != nil {
		return r.resident, nil
	}
	return OpenStreamBudget(r.Path, windowBytes, budget)
}

// WriteError is the typed failure of framing a recording to the cache's
// directory — disk full, permissions, any I/O fault. Fill returns it and
// publishes it to the key's waiters, but the single-flight reservation
// itself is released: a later GetOrReserve re-records instead of
// inheriting a permanently wedged key.
type WriteError struct {
	Key  string // cache key of the recording
	Path string // content-addressed destination file
	Err  error  // underlying write failure
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("dagtrace: stream cache fill %s (key %q): %v", e.Path, e.Key, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

type streamEntry struct {
	ready chan struct{} // closed by Fill/Fail
	done  bool          // set under StreamCache.mu before ready closes
	rec   Recording
	err   error
}

// NewStreamCache returns a cache storing recordings as DGTS files under
// dir, creating it as needed, or keeping them resident when dir is
// empty. frameSize 0 selects DefaultFrameSize for the files it writes.
func NewStreamCache(dir string, frameSize int64) (*StreamCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("dagtrace: stream cache: %w", err)
		}
	}
	return &StreamCache{dir: dir, frameSize: frameSize, entries: make(map[string]*streamEntry)}, nil
}

// Dir returns the cache's directory; empty when recordings stay resident.
func (c *StreamCache) Dir() string { return c.dir }

// GetOrReserve resolves key. Exactly one caller per key observes
// record=true and MUST follow up with Fill (on a successful recording)
// or Fail; every other caller blocks until then and receives the
// published recording, or the recording's failure as err — a cell that
// gets an error runs live.
func (c *StreamCache) GetOrReserve(key string) (rec Recording, record bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		c.mu.Lock()
		if e.err == nil {
			c.stats.Hits++
		} else {
			c.stats.Fallbacks++
		}
		c.mu.Unlock()
		return e.rec, false, e.err
	}
	e := &streamEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	if rec, ok := c.adoptDisk(key); ok {
		c.publish(key, rec, nil)
		c.mu.Lock()
		c.stats.Hits++
		c.stats.DiskHits++
		c.mu.Unlock()
		return rec, false, nil
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return Recording{}, true, nil
}

// Fill publishes a finished recording under key, unblocking the key's
// waiters: behind one resident view, or framed to the key's
// content-addressed file when the cache has a directory. A write failure
// (disk full, I/O error) comes back as a *WriteError: the error is
// published as this reservation's outcome (waiters see the same failure
// the recorder does — there is no file to fall back to), a half-written
// file is removed, and the reservation is released so the key stays
// recordable once the disk recovers.
func (c *StreamCache) Fill(key string, t *Trace) (Recording, error) {
	if c.dir == "" {
		rec := Recording{resident: Resident(t)}
		c.publish(key, rec, nil)
		return rec, nil
	}
	p := c.path(key)
	write := c.writeFn
	if write == nil {
		write = WriteFramed
	}
	if err := write(t, p, c.frameSize); err != nil {
		werr := &WriteError{Key: key, Path: p, Err: err}
		os.Remove(p) // WriteFramed is tmp+rename, but an injected writer may tear
		c.publish(key, Recording{}, werr)
		return Recording{}, werr
	}
	rec := Recording{Path: p}
	c.publish(key, rec, nil)
	return rec, nil
}

// Fail publishes a recording failure for a reservation made by
// GetOrReserve, unblocking its waiters with the error. Like a failed
// Fill, the reservation is released: the failure poisons exactly the
// callers who were already waiting on this attempt, and the next
// GetOrReserve starts a fresh recording.
func (c *StreamCache) Fail(key string, err error) {
	if err == nil {
		panic("dagtrace: StreamCache.Fail with nil error")
	}
	c.publish(key, Recording{}, err)
}

func (c *StreamCache) publish(key string, rec Recording, err error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.done {
		c.mu.Unlock()
		panic("dagtrace: stream-cache publish without matching GetOrReserve reservation")
	}
	e.rec, e.err, e.done = rec, err, true
	if err != nil {
		// Release the single-flight reservation on failure: current waiters
		// hold e and still observe the error, but the key must not stay
		// wedged — a retry (freed disk, transient fault) re-records.
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.ready)
}

// Drop evicts key's published recording from memory, bounding a grid's
// memory to the recordings still in use; its file, if any, survives and
// is adopted again by a later GetOrReserve. Dropping an unfilled or
// absent key is a no-op.
func (c *StreamCache) Drop(key string) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok && e.done {
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// Quarantine evicts a key's published recording — cache entry and
// content-addressed file both — so the next GetOrReserve re-records from
// scratch. The grid supervisor calls it between attempts of a failing
// cell: a replay error may mean the shared recording itself is suspect,
// and retrying against the same bytes would fail the same way. A key
// whose recording is still in flight is left alone (there is nothing
// cached to distrust yet) and Quarantine reports false; evictions are
// counted in Stats.Quarantined.
func (c *StreamCache) Quarantine(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e != nil && !e.done {
		return false
	}
	delete(c.entries, key)
	removed := c.dir != "" && os.Remove(c.path(key)) == nil
	if e != nil || removed {
		c.stats.Quarantined++
		return true
	}
	return false
}

// Stats returns a snapshot of the cache counters.
func (c *StreamCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// path maps a key to its file; keys embed machine geometry and profile
// scales and are not filename-safe, so hash them.
func (c *StreamCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".dgts")
}

// adoptDisk checks for a framed file left by a previous process and
// validates its metadata before adopting it. A file that fails to parse
// (truncated write, bit rot) is evicted so it cannot fail again,
// counted in Stats.Corrupt, and the key falls back to re-recording.
// Frame-body corruption deeper than the metadata checksum is caught at
// replay time by the window's per-frame checksums.
func (c *StreamCache) adoptDisk(key string) (Recording, bool) {
	if c.dir == "" {
		return Recording{}, false
	}
	p := c.path(key)
	st, err := OpenStream(p, 0)
	if err != nil {
		if !os.IsNotExist(err) {
			fmt.Fprintf(os.Stderr, "dagtrace: evicting corrupt framed trace %s (key %q): %v\n", p, key, err)
			os.Remove(p)
			c.mu.Lock()
			c.stats.Corrupt++
			c.mu.Unlock()
		}
		return Recording{}, false
	}
	st.Close()
	return Recording{Path: p}, true
}
