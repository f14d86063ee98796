package dagtrace

// StreamCache is the trace cache: a single-flight store of recordings
// shared by the cells of an experiment grid. A recording depends only on
// the computation key (kernel, scale, seed, machine geometry — never the
// scheduler or bandwidth under test), so an S-scheduler × B-bandwidth
// grid resolves K kernel keys into K recordings instead of K·S·B: the
// first cell of a key records, every other cell blocks until the
// recording is published and then replays it.
//
// Where a published recording lives is the cache's one setting. Without a
// directory it stays in memory: the StreamTrace its Recorder finished
// with, which every cell replays zero-copy. With a directory it is a DGTS
// file and nothing op-sized stays resident here: the recording streams
// into the file as its strands finish, and each cell opens the file
// through its own bounded window. The two hold the same op region. Files
// are content-addressed by key hash, published atomically (tmp + rename),
// and revalidated (metadata checksum) when an existing file is adopted
// from a previous process — a corrupt or truncated file is evicted and
// counted, a file in an older format version is evicted as stale, and
// either way the key re-records.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
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
	dir string // "" keeps recordings resident
	// frameSize is the frame size of the files the cache writes; 0 (the
	// default) selects DefaultFrameSize. Only tests set it.
	frameSize int64

	// create opens a recording's temporary file; tests inject failing
	// files to exercise the disk-full / I/O-error paths. nil means
	// os.Create.
	create func(name string) (traceFile, error)

	mu      sync.Mutex
	entries map[string]*streamEntry
	stats   Stats
}

// Recording is a published recording: a DGTS file when the cache has a
// directory, else the recording itself, held in memory.
type Recording struct {
	// Path is the recording's DGTS file; empty for a resident recording.
	Path     string
	resident *StreamTrace
}

// Open returns a view that replays the recording: the shared in-memory
// recording itself, or a new stream over Path whose frame window holds
// windowBytes and charges budget (see OpenStream). Close the view
// when its replay is done.
func (r Recording) Open(windowBytes int64, budget *Budget) (*StreamTrace, error) {
	if r.resident != nil {
		return r.resident, nil
	}
	return OpenStream(r.Path, windowBytes, budget)
}

type streamEntry struct {
	ready chan struct{} // closed by Fill/Fail
	done  bool          // set under StreamCache.mu before ready closes
	rec   Recording
	err   error
	// into is the reservation's recorder, touched only by its holder.
	into *Recorder
}

// NewStreamCache returns a cache storing recordings as DGTS files under
// dir, creating it as needed, or keeping them resident when dir is
// empty. The files it writes use DefaultFrameSize.
func NewStreamCache(dir string) (*StreamCache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("dagtrace: stream cache: %w", err)
		}
	}
	return &StreamCache{dir: dir, entries: make(map[string]*streamEntry)}, nil
}

// Dir returns the cache's directory; empty when recordings stay resident.
func (c *StreamCache) Dir() string { return c.dir }

// GetOrReserve resolves key. Exactly one caller per key gets a non-nil
// Recorder: it holds the key's reservation, records the computation into
// it (Record, or a live run with it as Listener) and MUST follow up with
// Fill or Fail. With a directory the Recorder writes the key's file as
// it records. Every other caller blocks until then and receives the
// published recording, or the recording's failure as err — a cell that
// gets an error runs live. A file that cannot be created fails the
// reservation at once with a *WriteError, for the caller and the waiters.
func (c *StreamCache) GetOrReserve(key string) (rec Recording, into *Recorder, err error) {
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
		return e.rec, nil, e.err
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
		return rec, nil, nil
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	e.into = NewRecorder()
	if c.dir != "" {
		if e.into.out, err = createFrames(c.path(key), key, c.frameSize, c.create); err != nil {
			c.publish(key, Recording{}, err)
			return Recording{}, nil, err
		}
	}
	return Recording{}, e.into, nil
}

// Fill finishes the recording made into key's Recorder and publishes it,
// unblocking the key's waiters: as the recording the Recorder finished
// with, held in memory, or — with a directory — by completing the key's
// file (metadata block, prefix) and renaming it into place. A recording
// that fails its structural check is published as a failure like Fail's; a
// write failure (disk full, I/O error) comes back as a *WriteError,
// published to the waiters too, with the temporary file removed. Either
// way the reservation is released, so the key stays recordable once the
// cause is gone.
func (c *StreamCache) Fill(key string) (Recording, error) {
	into := c.reservation(key).into
	tr, err := into.finish()
	var rec Recording
	switch out := into.out; {
	case out == nil:
		rec.resident = tr
	case err != nil:
		out.abort()
	default:
		if err = out.commit(tr); err == nil {
			rec.Path = out.path
		}
	}
	c.publish(key, rec, err)
	return rec, err
}

// Fail publishes a recording failure for a reservation made by
// GetOrReserve, unblocking its waiters with the error and removing a
// partly written file. Like a failed Fill, the reservation is released:
// the failure poisons exactly the callers who were already waiting on
// this attempt, and the next GetOrReserve starts a fresh recording.
func (c *StreamCache) Fail(key string, err error) {
	if err == nil {
		panic("dagtrace: StreamCache.Fail with nil error")
	}
	if out := c.reservation(key).into.out; out != nil {
		out.abort()
	}
	c.publish(key, Recording{}, err)
}

// reservation returns key's unpublished entry, which its caller holds.
func (c *StreamCache) reservation(key string) *streamEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil || e.done || e.into == nil {
		panic("dagtrace: stream-cache publish without matching GetOrReserve reservation")
	}
	return e
}

func (c *StreamCache) publish(key string, rec Recording, err error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil || e.done {
		c.mu.Unlock()
		panic("dagtrace: stream-cache publish without matching GetOrReserve reservation")
	}
	e.rec, e.err, e.done, e.into = rec, err, true, nil
	if err != nil {
		// Release the single-flight reservation on failure: current waiters
		// hold e and still observe the error, but the key must not stay
		// wedged — a retry (freed disk, transient fault) re-records.
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.ready)
}

// Retain evicts from memory every published recording whose key is not
// in keys, bounding the cache to the recordings a grid is about to use:
// those stay resident for it, however many grids before it recorded them.
// An evicted recording's file, if any, survives and is adopted again by a
// later GetOrReserve. A recording still in flight is never evicted.
func (c *StreamCache) Retain(keys []string) {
	keep := make(map[string]bool, len(keys))
	for _, k := range keys {
		keep[k] = true
	}
	c.mu.Lock()
	for k, e := range c.entries {
		if e.done && !keep[k] {
			delete(c.entries, k)
		}
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
// validates its metadata before adopting it. A file in an older format
// version (a previous build's) is evicted as stale; one that fails to
// parse (truncated write, bit rot) is evicted as corrupt and counted in
// Stats.Corrupt. Either way it cannot fail again, and the key falls back
// to re-recording. Frame-body corruption deeper than the metadata
// checksum is caught at replay time by the window's per-frame checksums.
func (c *StreamCache) adoptDisk(key string) (Recording, bool) {
	if c.dir == "" {
		return Recording{}, false
	}
	p := c.path(key)
	st, err := OpenStream(p, 0, nil)
	var stale *VersionError
	switch {
	case err == nil:
		st.Close()
		return Recording{Path: p}, true
	case os.IsNotExist(err):
	case errors.As(err, &stale) && stale.Version < streamVersion:
		fmt.Fprintf(os.Stderr, "dagtrace: evicting stale framed trace %s (key %q): format version %d, this build writes version %d; re-recording\n",
			p, key, stale.Version, streamVersion)
		os.Remove(p)
	default:
		fmt.Fprintf(os.Stderr, "dagtrace: evicting corrupt framed trace %s (key %q): %v\n", p, key, err)
		os.Remove(p)
		c.mu.Lock()
		c.stats.Corrupt++
		c.mu.Unlock()
	}
	return Recording{}, false
}
