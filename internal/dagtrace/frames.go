package dagtrace

// The framed on-disk form of a recording (format v3, "DGTS") and its one
// writer.
//
// A recording held in memory keeps every strand's op bytes resident; at
// paper scale (×1 inputs, 100M-element class) that reaches gigabytes. The
// framed form splits the op stream into fixed-size frames, each
// independently checksummed, and keeps only a small metadata block (node
// table, child lists, frame checksums) that is O(strands). Replay leases
// each strand's op bytes through a bounded frame window (stream.go).
//
// Layout (all integers little-endian; varints as in internal/opcode):
//
//	prefix:   magic "DGTS" | version u32 | metaOff u64
//	frames:   raw op bytes, from offset 16 up to metaOff
//	metadata: root u32
//	          taskCount u64 | strandCount u64 | accessOps u64 | workOps u64
//	          nodeCount u64 | childCount u64 | opBytes u64 | frameSize u64 | frameCount u64
//	          nodes: per node taskSize/strandSize (zigzag uvarint), cont+1,
//	                 child count, op offset, op length (uvarint each)
//	          childIdx: uvarint each
//	          frame table: fnv-1a u64 checksum per frame
//	          fnv-1a u64 checksum over the prefix and every metadata byte above
//
// Frame f holds op bytes [f*frameSize, min((f+1)*frameSize, opBytes)) of
// the op region: the recorder's op region, strands in the order they
// finished, each node naming its own op offset. The metadata block trails
// the frames because a recording that streams into its file (a Recorder a
// directory StreamCache hands out) writes each strand's ops as the strand
// finishes, before the node table is complete; the prefix, rewritten
// last, points at the block. Only the prefix and the metadata block are
// read (and their checksum verified) at open time; each frame is verified
// against its table entry when it enters the window.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
)

const (
	streamMagic   = "DGTS"
	streamVersion = 3

	// DefaultFrameSize is the frame granularity of the files this package
	// writes when the caller passes 0: large enough to amortize ReadAt and
	// checksum cost, small enough that a 1 MiB window (the degraded-mode
	// floor) still holds 16 frames. A replay fetches scripts from as many
	// places in the file as its schedule has subtrees in flight, and a
	// window of a few large frames reloads them over and over.
	DefaultFrameSize = 64 << 10

	// prefixLen is the size of the fixed prefix: magic(4) + version(4) +
	// metaOff(8). The frames start right after it.
	prefixLen = 4 + 4 + 8
	// metaHeaderLen is the fixed-size start of the metadata block: root(4)
	// + nine u64 fields.
	metaHeaderLen = 4 + 9*8
)

// WriteError is the typed failure of writing a framed trace: disk full,
// permissions, any I/O fault. A StreamCache hands it to the recorder and
// to every waiter of the key, but releases the key's reservation: a later
// GetOrReserve records again instead of inheriting a wedged key.
type WriteError struct {
	Key  string // cache key of the recording; empty for WriteFramed
	Path string // destination file
	Err  error  // underlying write failure
}

func (e *WriteError) Error() string {
	if e.Key == "" {
		return fmt.Sprintf("dagtrace: write %s: %v", e.Path, e.Err)
	}
	return fmt.Sprintf("dagtrace: write %s (key %q): %v", e.Path, e.Key, e.Err)
}

func (e *WriteError) Unwrap() error { return e.Err }

// traceFile is what a frameWriter writes through: an *os.File, or a
// test's failing stand-in.
type traceFile interface {
	io.Writer
	io.WriterAt
	io.Closer
}

// frameWriter writes one framed trace front to back: a placeholder prefix,
// the op bytes in frames written (and checksummed) as they fill, then at
// commit the metadata block and the real prefix. It writes to path+".tmp"
// and commit renames that to path, so a reader never sees a partial file.
type frameWriter struct {
	f         traceFile
	key, path string
	frameSize int64
	frame     []byte   // the frame being filled
	sums      []uint64 // checksums of the frames written so far
	n         int64    // op bytes appended so far
	err       error    // first failure, a *WriteError
}

// createFrames starts a framed trace destined for path. create opens the
// temporary file; nil means os.Create. key names the recording in errors.
func createFrames(path, key string, frameSize int64, create func(string) (traceFile, error)) (*frameWriter, error) {
	if frameSize <= 0 {
		frameSize = DefaultFrameSize
	}
	if create == nil {
		create = func(name string) (traceFile, error) { return os.Create(name) }
	}
	w := &frameWriter{key: key, path: path, frameSize: frameSize}
	f, err := create(path + ".tmp")
	if err != nil {
		return nil, w.wrap(err)
	}
	w.f = f
	w.frame = make([]byte, 0, frameSize)
	var prefix [prefixLen]byte // rewritten by commit
	w.write(prefix[:])
	if w.err != nil {
		w.abort()
		return nil, w.err
	}
	return w, nil
}

func (w *frameWriter) wrap(err error) error { return &WriteError{Key: w.key, Path: w.path, Err: err} }

func (w *frameWriter) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.f.Write(b); err != nil {
		w.err = w.wrap(err)
	}
}

// append adds ops to the op region and returns the offset they start at.
// Each frame is checksummed and written as it fills; a write failure is
// latched in w.err.
func (w *frameWriter) append(ops []byte) int64 {
	off := w.n
	w.n += int64(len(ops))
	for len(ops) > 0 {
		k := copy(w.frame[len(w.frame):cap(w.frame)], ops)
		w.frame = w.frame[:len(w.frame)+k]
		ops = ops[k:]
		if len(w.frame) == cap(w.frame) {
			w.flush()
		}
	}
	return off
}

// flush checksums and writes the frame being filled.
func (w *frameWriter) flush() {
	if len(w.frame) == 0 {
		return
	}
	h := fnv.New64a()
	h.Write(w.frame)
	w.sums = append(w.sums, h.Sum64())
	w.write(w.frame)
	w.frame = w.frame[:0]
}

// commit completes the file with t's node table, child lists and counts
// (t's op offsets index the op region this writer wrote) and publishes it
// at path. On failure the temporary file is removed.
func (w *frameWriter) commit(t *StreamTrace) error {
	w.flush()
	var prefix [prefixLen]byte
	copy(prefix[:], streamMagic)
	binary.LittleEndian.PutUint32(prefix[4:], streamVersion)
	binary.LittleEndian.PutUint64(prefix[8:], uint64(prefixLen+w.n))
	meta := make([]byte, 0, metaHeaderLen+len(t.nodes)*8+len(t.childIdx)*3+len(w.sums)*8+8)
	meta = binary.LittleEndian.AppendUint32(meta, uint32(t.root))
	for _, v := range []uint64{
		t.TaskCount, t.StrandCount, uint64(t.AccessOps), uint64(t.WorkOps),
		uint64(len(t.nodes)), uint64(len(t.childIdx)), uint64(w.n), uint64(w.frameSize), uint64(len(w.sums)),
	} {
		meta = binary.LittleEndian.AppendUint64(meta, v)
	}
	for i := range t.nodes {
		n := &t.nodes[i]
		meta = appendUvarint(meta, zigzag(n.taskSize))
		meta = appendUvarint(meta, zigzag(n.strandSize))
		meta = appendUvarint(meta, uint64(n.cont+1))
		meta = appendUvarint(meta, uint64(n.childEnd-n.childOff))
		meta = appendUvarint(meta, uint64(n.opOff))
		meta = appendUvarint(meta, uint64(n.opEnd-n.opOff))
	}
	for _, ci := range t.childIdx {
		meta = appendUvarint(meta, uint64(ci))
	}
	for _, s := range w.sums {
		meta = binary.LittleEndian.AppendUint64(meta, s)
	}
	h := fnv.New64a()
	h.Write(prefix[:])
	h.Write(meta)
	meta = binary.LittleEndian.AppendUint64(meta, h.Sum64())
	w.write(meta)
	if w.err == nil {
		if _, err := w.f.WriteAt(prefix[:], 0); err != nil {
			w.err = w.wrap(err)
		}
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = w.wrap(err)
	}
	if w.err == nil {
		if err := os.Rename(w.path+".tmp", w.path); err != nil {
			w.err = w.wrap(err)
		}
	}
	if w.err != nil {
		os.Remove(w.path + ".tmp")
	}
	return w.err
}

// abort closes and removes the temporary file of a trace that will not be
// committed.
func (w *frameWriter) abort() {
	w.f.Close()
	os.Remove(w.path + ".tmp")
}

// WriteFramed writes a recording held in memory (Recorder.Finish) to
// path in the framed form, atomically (tmp + rename), through the writer
// a recording that streams into its file uses. The op region goes out as
// it is, so the file is byte for byte the one the same recording would
// have streamed into at this frame size. frameSize 0 selects
// DefaultFrameSize. A write failure is a *WriteError.
func WriteFramed(t *StreamTrace, path string, frameSize int64) error {
	if t.r != nil {
		return fmt.Errorf("dagtrace: WriteFramed of a recording already in a file")
	}
	w, err := createFrames(path, "", frameSize, nil)
	if err != nil {
		return err
	}
	w.append(t.ops)
	return w.commit(t)
}
