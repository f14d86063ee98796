package dagtrace

// Replayable recordings: the windowed decoder that replays a framed file
// (frames.go) in O(window) memory, and the in-memory op region a Recorder
// finishes with. Resident decode state of a windowed replay is (window
// budget) + (bytes leased to in-flight strands), independent of the
// trace's total op volume.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"repro/internal/job"
	"repro/internal/sim"
)

// DefaultWindowBytes is the frame-window budget NewStream applies when the
// caller passes 0.
const DefaultWindowBytes = 16 << 20

// VersionError reports a framed trace in another version of the format,
// such as the v2 files of older builds: stale rather than corrupt.
type VersionError struct{ Version uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("dagtrace: framed-trace format version %d, this build reads version %d", e.Version, streamVersion)
}

// StreamTrace is a recording, ready for replay. Its op region — every
// strand's script, in the order the strands finished — lives in one of
// two places: in memory, where the Recorder that made it left it
// (Recorder.Finish, a directory-less StreamCache), or in the frames of a
// DGTS file read through a bounded window (NewStream, OpenStream). The
// node table, and so every replay and fingerprint, is the same in both.
// It is safe for concurrent replays: the frame window is mutex-guarded
// and every other field is immutable after construction.
type StreamTrace struct {
	// TaskCount and StrandCount are the recorded run's totals; a replay
	// must reproduce them exactly (see CheckResult). AccessOps and WorkOps
	// count the recorded memory accesses and compute charges.
	TaskCount   uint64
	StrandCount uint64
	AccessOps   int64
	WorkOps     int64

	nodes    []node
	childIdx []int32
	root     int32
	jobs     []streamJob
	kids     []job.Job

	// ops is the op region of a recording held in memory; nil when r is
	// set.
	ops []byte

	r         io.ReaderAt // nil for a recording held in memory
	closer    io.Closer   // non-nil when OpenStream owns the file handle
	frameSize int64
	frameBuf  int64 // min(frameSize, opBytes): the largest actual frame
	frameSum  []uint64
	opBytes   int64

	win window
}

// buildJobs allocates the per-node replay jobs and the prebuilt child
// slices their forks hand to the engine.
func (t *StreamTrace) buildJobs() {
	t.jobs = make([]streamJob, len(t.nodes))
	for i := range t.jobs {
		t.jobs[i] = streamJob{t: t, n: int32(i)}
	}
	t.kids = make([]job.Job, len(t.childIdx))
	for i, ci := range t.childIdx {
		t.kids[i] = &t.jobs[ci]
	}
}

// OpenStream opens a framed trace file for windowed replay. windowBytes
// bounds the bytes of decoded frames held resident (0 selects
// DefaultWindowBytes; it is clamped up to one frame). A non-nil budget is
// a shared Budget the window additionally charges its resident and leased
// bytes against, so the streams of concurrently replaying grid cells share
// one memory high-water mark. Close releases the file handle when replay
// is done.
func OpenStream(path string, windowBytes int64, budget *Budget) (*StreamTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	t, err := newStream(f, fi.Size(), windowBytes, budget)
	if err != nil {
		f.Close()
		return nil, err
	}
	t.closer = f
	return t, nil
}

// NewStream builds a StreamTrace over an arbitrary ReaderAt holding a
// framed trace of the given total size, with no shared budget (see
// OpenStream). The metadata block is read and verified here; frames are
// read on demand.
func NewStream(r io.ReaderAt, size, windowBytes int64) (*StreamTrace, error) {
	return newStream(r, size, windowBytes, nil)
}

func newStream(r io.ReaderAt, size, windowBytes int64, budget *Budget) (*StreamTrace, error) {
	var prefix [prefixLen]byte
	if size < prefixLen+metaHeaderLen+8 {
		return nil, fmt.Errorf("dagtrace: framed trace truncated (%d bytes)", size)
	}
	if _, err := r.ReadAt(prefix[:], 0); err != nil {
		return nil, fmt.Errorf("dagtrace: framed trace prefix: %w", err)
	}
	if string(prefix[:4]) != streamMagic {
		return nil, fmt.Errorf("dagtrace: bad framed-trace magic")
	}
	if v := binary.LittleEndian.Uint32(prefix[4:]); v != streamVersion {
		return nil, &VersionError{Version: v}
	}
	metaOff := binary.LittleEndian.Uint64(prefix[8:])
	if metaOff < prefixLen || metaOff > uint64(size-metaHeaderLen-8) || uint64(size)-metaOff > 1<<31 {
		return nil, fmt.Errorf("dagtrace: implausible framed-trace metadata offset %d in a %d-byte file", metaOff, size)
	}
	meta := make([]byte, uint64(size)-metaOff)
	if _, err := r.ReadAt(meta, int64(metaOff)); err != nil {
		return nil, fmt.Errorf("dagtrace: framed trace metadata: %w", err)
	}
	body, sum := meta[:len(meta)-8], binary.LittleEndian.Uint64(meta[len(meta)-8:])
	h := fnv.New64a()
	h.Write(prefix[:])
	h.Write(body)
	if h.Sum64() != sum {
		return nil, fmt.Errorf("dagtrace: framed-trace metadata checksum mismatch")
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(body[4+8*i:]) }
	t := &StreamTrace{
		root:        int32(binary.LittleEndian.Uint32(body)),
		TaskCount:   field(0),
		StrandCount: field(1),
		AccessOps:   int64(field(2)),
		WorkOps:     int64(field(3)),
		r:           r,
	}
	nodeN, childN, opN, frameSize, frameN := field(4), field(5), field(6), int64(field(7)), field(8)
	const maxCount = 1 << 31
	if nodeN > maxCount || childN > maxCount || opN != metaOff-prefixLen {
		return nil, fmt.Errorf("dagtrace: implausible framed-trace header (%d nodes, %d children, %d op bytes before offset %d)", nodeN, childN, opN, metaOff)
	}
	if frameSize <= 0 {
		return nil, fmt.Errorf("dagtrace: framed trace frame size %d", frameSize)
	}
	if want := (int64(opN) + frameSize - 1) / frameSize; frameN != uint64(want) {
		return nil, fmt.Errorf("dagtrace: frame count %d disagrees with %d op bytes at frame size %d", frameN, opN, frameSize)
	}
	// Every node costs at least six varint bytes, every child index at
	// least one, every frame checksum exactly eight — so the claimed counts
	// must fit inside the metadata block. This bounds every allocation
	// below by the actual input size, whatever the header claims.
	if 6*nodeN+childN+8*frameN+metaHeaderLen > uint64(len(body)) {
		return nil, fmt.Errorf("dagtrace: framed-trace counts exceed metadata block")
	}
	if t.root < 0 || uint64(t.root) >= nodeN {
		return nil, fmt.Errorf("dagtrace: root %d out of range", t.root)
	}
	t.frameSize = frameSize
	t.opBytes = int64(opN)
	// No frame holds more than opBytes, however large the nominal frame
	// size; allocate frame buffers at the effective bound.
	t.frameBuf = min(frameSize, t.opBytes)

	rest := body[metaHeaderLen:]
	next := func() (uint64, error) {
		v, k := binary.Uvarint(rest)
		if k <= 0 {
			return 0, fmt.Errorf("dagtrace: framed trace truncated mid-varint")
		}
		rest = rest[k:]
		return v, nil
	}
	t.nodes = make([]node, nodeN)
	var childOff int32
	var opSum uint64
	for i := range t.nodes {
		n := &t.nodes[i]
		var vals [6]uint64
		for j := range vals {
			v, err := next()
			if err != nil {
				return nil, err
			}
			vals[j] = v
		}
		n.taskSize = unzigzag(vals[0])
		n.strandSize = unzigzag(vals[1])
		if vals[2] > nodeN {
			return nil, fmt.Errorf("dagtrace: node %d continuation %d out of range", i, vals[2]-1)
		}
		n.cont = int32(vals[2]) - 1
		if vals[3] > childN-uint64(childOff) {
			return nil, fmt.Errorf("dagtrace: node %d child span exceeds the %d child indices", i, childN)
		}
		n.childOff = childOff
		childOff += int32(vals[3])
		n.childEnd = childOff
		if off, l := vals[4], vals[5]; off > opN || l > opN-off {
			return nil, fmt.Errorf("dagtrace: node %d op span [%d,+%d) leaves the %d-byte op region", i, off, l, opN)
		}
		n.opOff = int64(vals[4])
		n.opEnd = n.opOff + int64(vals[5])
		opSum += vals[5]
	}
	if uint64(childOff) != childN || opSum != opN {
		return nil, fmt.Errorf("dagtrace: node totals disagree with framed header (%d/%d children, %d/%d op bytes)",
			childOff, childN, opSum, opN)
	}
	t.childIdx = make([]int32, childN)
	for i := range t.childIdx {
		v, err := next()
		if err != nil {
			return nil, err
		}
		if v >= nodeN {
			return nil, fmt.Errorf("dagtrace: child index %d out of range", v)
		}
		t.childIdx[i] = int32(v)
	}
	if uint64(len(rest)) != frameN*8 {
		return nil, fmt.Errorf("dagtrace: frame table holds %d bytes, want %d", len(rest), frameN*8)
	}
	t.frameSum = make([]uint64, frameN)
	for i := range t.frameSum {
		t.frameSum[i] = binary.LittleEndian.Uint64(rest[i*8:])
	}

	t.buildJobs()
	t.win.init(windowBytes, t.frameBuf, int64(frameN), budget)
	return t, nil
}

// Close drops the window's cached frames — crediting them back to a
// shared Budget, so the tokens of a finished grid cell immediately fund
// its neighbours — and releases the file handle held by OpenStream. A
// StreamTrace built over a caller-owned ReaderAt (NewStream) closes no
// file, but still settles its window.
func (t *StreamTrace) Close() error {
	t.win.drop()
	if t.closer != nil {
		return t.closer.Close()
	}
	return nil
}

// Root returns the job that replays the trace: running it under sim.Run
// re-executes the recorded computation — identical spawn tree, identical
// per-strand address streams — under whatever machine, scheduler, cost
// model and seed the new configuration supplies.
func (t *StreamTrace) Root() job.Job { return &t.jobs[t.root] }

// OpBytes returns the total size of the op stream.
func (t *StreamTrace) OpBytes() int64 { return t.opBytes }

// PeakResidentBytes reports the high-water mark of decoder-resident op
// bytes: cached frames plus buffers leased to in-flight strands. The
// bounded-memory contract of windowed replay is exactly that this stays
// O(window + concurrent strands × strand script size), independent of
// OpBytes. A recording held in memory has no window and reports 0.
func (t *StreamTrace) PeakResidentBytes() int64 {
	t.win.mu.Lock()
	defer t.win.mu.Unlock()
	return t.win.peak
}

// FrameLoads reports how many frames the window has read from the file so
// far, over every replay of this view; a replay that streams the file in
// order loads each frame once. A recording held in memory reports 0.
func (t *StreamTrace) FrameLoads() int64 {
	t.win.mu.Lock()
	defer t.win.mu.Unlock()
	return t.win.loads
}

// CheckResult verifies that a replay run executed the full recorded
// computation: task and strand counts must match the live run's, and the
// number of simulated accesses (every access hits or misses the innermost
// cache level exactly once) must equal the recorded op count. Replayed
// cells assert this instead of Kernel.Verify — the trace carries no data
// values to verify, only the access structure, and this pins exactly that.
// It first surfaces any frame I/O or corruption error the window hit
// while the replay ran (a failed fetch replays an empty script, which the
// count check would reject — the error here names the root cause) and
// any script lease still outstanding.
func (t *StreamTrace) CheckResult(res *sim.Result) error {
	if err := t.win.fetchErr(); err != nil {
		return err
	}
	if leaked := t.win.outstanding(); leaked != 0 {
		return fmt.Errorf("dagtrace: replay finished with %d op bytes still leased from the window (script lease leak)", leaked)
	}
	if res.Tasks != t.TaskCount || res.Strands != t.StrandCount {
		return fmt.Errorf("dagtrace: replay executed %d tasks / %d strands, trace recorded %d / %d",
			res.Tasks, res.Strands, t.TaskCount, t.StrandCount)
	}
	if res.Hier != nil {
		inner := res.Machine.NumLevels() - 1
		if got := res.Hier.HitsAt(inner) + res.Hier.MissesAt(inner); got != t.AccessOps {
			return fmt.Errorf("dagtrace: replay performed %d accesses, trace recorded %d", got, t.AccessOps)
		}
	}
	return nil
}

// Fingerprint returns a hex SHA-256 over the trace's canonical content —
// counts, node table (each node's op length included, so the split of the
// op stream across strands counts), child lists, then each node's op
// bytes in node order. It hashes content, not layout — the order of the
// op region does not enter it — so a recording fingerprints the same in
// memory and in a file, whoever wrote the file; recording a replay run
// must reproduce it too. The golden suites assert both.
// A windowed view reads the op bytes through a private window, so
// fingerprinting neither disturbs nor counts toward the replay window.
func (t *StreamTrace) Fingerprint() (string, error) {
	h := sha256.New()
	var buf [8 * 5]byte
	binary.LittleEndian.PutUint64(buf[0:], t.TaskCount)
	binary.LittleEndian.PutUint64(buf[8:], t.StrandCount)
	binary.LittleEndian.PutUint64(buf[16:], uint64(t.AccessOps))
	binary.LittleEndian.PutUint64(buf[24:], uint64(t.root))
	h.Write(buf[:32])
	for i := range t.nodes {
		n := &t.nodes[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(n.taskSize))
		binary.LittleEndian.PutUint64(buf[8:], uint64(n.strandSize))
		binary.LittleEndian.PutUint64(buf[16:], uint64(n.cont))
		binary.LittleEndian.PutUint64(buf[24:], uint64(int64(n.childEnd)-int64(n.childOff)))
		binary.LittleEndian.PutUint64(buf[32:], uint64(n.opEnd-n.opOff))
		h.Write(buf[:])
	}
	for _, ci := range t.childIdx {
		binary.LittleEndian.PutUint32(buf[:4], uint32(ci))
		h.Write(buf[:4])
	}
	var w window
	var ops []byte
	if t.r != nil {
		w.init(DefaultWindowBytes, t.frameBuf, int64(len(t.frameSum)), nil)
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		if t.r == nil {
			h.Write(t.ops[n.opOff:n.opEnd])
			continue
		}
		var err error
		if ops, err = w.read(t, ops[:0], n.opOff, n.opEnd); err != nil {
			return "", err
		}
		h.Write(ops)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readFrame reads and verifies frame f into buf (which must hold
// frameSize bytes), returning the valid prefix.
func (t *StreamTrace) readFrame(f int64, buf []byte) ([]byte, error) {
	lo := f * t.frameSize
	hi := lo + t.frameSize
	if hi > t.opBytes {
		hi = t.opBytes
	}
	data := buf[:hi-lo]
	if _, err := t.r.ReadAt(data, prefixLen+lo); err != nil {
		return nil, fmt.Errorf("dagtrace: frame %d read: %w", f, err)
	}
	h := fnv.New64a()
	h.Write(data)
	if h.Sum64() != t.frameSum[f] {
		return nil, fmt.Errorf("dagtrace: frame %d checksum mismatch (corrupt trace file)", f)
	}
	return data, nil
}

// --- the frame window ------------------------------------------------------

// window is the bounded decode cache of a StreamTrace: at most budget
// bytes of verified frames stay resident, evicted least-recently-used;
// strand scripts are copied out into leased buffers recycled through a
// free list. All state is guarded by mu — replays from concurrent
// simulations (grid cells, shards) share one window.
type window struct {
	mu        sync.Mutex
	budget    int64
	frameSize int64
	// shared, when non-nil, is the grid-wide token bucket this window
	// charges every resident or leased byte against; an overdrawn bucket
	// forces eviction down to the one-frame minimum (see Budget).
	shared *Budget

	// frames[f] is the cached content of frame f (nil when absent);
	// lastUse[f] its LRU stamp; resident lists the cached frame indices
	// (kept sorted by insertion; eviction scans it — the window holds a
	// handful of frames, so a scan beats heap bookkeeping).
	frames   [][]byte
	lastUse  []uint64
	resident []int64
	clock    uint64

	residentBytes int64
	leasedBytes   int64
	peak          int64
	// loads counts the frames read from the file into the window; how far
	// it exceeds the frame count shows how poorly a replay's fetch order
	// fits the file's node order.
	loads int64

	// free recycles lease buffers; spare recycles evicted frame buffers.
	free  [][]byte
	spare [][]byte

	err error // first fetch failure, surfaced by CheckResult
}

func (w *window) init(budget, frameSize, frameN int64, shared *Budget) {
	if budget <= 0 {
		budget = DefaultWindowBytes
	}
	if budget < frameSize {
		budget = frameSize
	}
	w.budget = budget
	w.frameSize = frameSize
	w.shared = shared
	w.frames = make([][]byte, frameN)
	w.lastUse = make([]uint64, frameN)
}

// drop evicts every cached frame and credits the shared bucket with the
// window's whole residue; called by StreamTrace.Close so a finished
// replay's tokens return to the grid. Recycled lease and frame buffers
// are dropped too — a closed stream leases nothing again.
//
//schedlint:lease release
func (w *window) drop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shared.credit(w.residentBytes)
	w.residentBytes = 0
	for _, f := range w.resident {
		w.frames[f] = nil
	}
	w.resident = w.resident[:0]
	w.free, w.spare = nil, nil
}

func (w *window) fetchErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// outstanding returns the bytes currently leased to in-flight strands.
// After a replay completes it must be zero — every Script lease must
// have reached ReleaseScript — and CheckResult enforces exactly that,
// the runtime counterpart of the static leaseleak analysis.
func (w *window) outstanding() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.leasedBytes
}

// emptyScript is the non-nil zero-length script of op-less strands: it
// keeps the engine's inline path armed (which keys on a non-nil script)
// without a lease.
var emptyScript = []byte{}

// fetch copies op bytes [off, end) into a leased buffer. On I/O failure or
// frame corruption it records the error and returns an empty script — the
// replay then under-executes and CheckResult reports the recorded error.
//
//schedlint:lease acquire
func (t *StreamTrace) fetch(off, end int64) []byte {
	if end <= off {
		return emptyScript
	}
	w := &t.win
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := w.lease(end - off)
	out, err := w.read(t, buf[:0], off, end)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		w.unlease(buf)
		return emptyScript
	}
	if w.residentBytes+w.leasedBytes > w.peak {
		w.peak = w.residentBytes + w.leasedBytes
	}
	return out
}

// read appends op bytes [off, end) of t to out, frame by frame through
// the window (callers hold mu, or own the window).
func (w *window) read(t *StreamTrace, out []byte, off, end int64) ([]byte, error) {
	for off < end {
		f := off / t.frameSize
		data, err := w.frame(t, f)
		if err != nil {
			return out, err
		}
		lo := off - f*t.frameSize
		hi := min(int64(len(data)), end-f*t.frameSize)
		out = append(out, data[lo:hi]...)
		off += hi - lo
	}
	return out, nil
}

// release returns a buffer obtained from fetch to the lease pool.
//
//schedlint:lease release
func (t *StreamTrace) release(buf []byte) {
	if cap(buf) == 0 {
		return // emptyScript
	}
	w := &t.win
	w.mu.Lock()
	w.unlease(buf)
	w.mu.Unlock()
}

// lease returns a buffer with at least span capacity, recycling the free
// list (callers hold mu).
func (w *window) lease(span int64) []byte {
	for i := len(w.free) - 1; i >= 0; i-- {
		if int64(cap(w.free[i])) >= span {
			buf := w.free[i]
			w.free = append(w.free[:i], w.free[i+1:]...)
			w.leasedBytes += int64(cap(buf))
			w.shared.charge(int64(cap(buf)))
			return buf[:span]
		}
	}
	// Round up so a handful of buffer sizes serves every strand.
	c := int64(1024)
	for c < span {
		c *= 2
	}
	w.leasedBytes += c
	w.shared.charge(c)
	return make([]byte, span, c)
}

func (w *window) unlease(buf []byte) {
	w.leasedBytes -= int64(cap(buf))
	w.shared.credit(int64(cap(buf)))
	w.free = append(w.free, buf[:0])
}

// frame returns the verified content of frame f, loading (and LRU-
// evicting) as needed. Callers hold mu.
func (w *window) frame(t *StreamTrace, f int64) ([]byte, error) {
	w.clock++
	if data := w.frames[f]; data != nil {
		w.lastUse[f] = w.clock
		return data, nil
	}
	var buf []byte
	if n := len(w.spare); n > 0 {
		buf = w.spare[n-1][:w.frameSize]
		w.spare = w.spare[:n-1]
	} else {
		buf = make([]byte, w.frameSize)
	}
	data, err := t.readFrame(f, buf)
	if err != nil {
		w.spare = append(w.spare, buf)
		return nil, err
	}
	w.frames[f] = data
	w.lastUse[f] = w.clock
	w.loads++
	w.resident = append(w.resident, f)
	w.residentBytes += int64(len(data))
	w.shared.charge(int64(len(data)))
	for (w.residentBytes > w.budget || w.shared.over()) && len(w.resident) > 1 {
		// Evict the least-recently-used frame, never the one just loaded.
		oldest, oi := int64(-1), -1
		for i, rf := range w.resident {
			if rf == f {
				continue
			}
			if oi == -1 || w.lastUse[rf] < w.lastUse[oldest] {
				oldest, oi = rf, i
			}
		}
		if oi == -1 {
			break
		}
		w.residentBytes -= int64(len(w.frames[oldest]))
		w.shared.credit(int64(len(w.frames[oldest])))
		w.spare = append(w.spare, w.frames[oldest][:0])
		w.frames[oldest] = nil
		w.resident = append(w.resident[:oi], w.resident[oi+1:]...)
	}
	if w.residentBytes+w.leasedBytes > w.peak {
		w.peak = w.residentBytes + w.leasedBytes
	}
	return data, nil
}
