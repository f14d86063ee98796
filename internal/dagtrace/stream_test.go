package dagtrace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// writeFramed records the standard test program in memory, frames it to
// disk with the given frame size, and reopens it with the given window
// budget. It returns the recording held in memory and the reopened file.
func writeFramed(t *testing.T, n int, frameSize, window int64) (*StreamTrace, *StreamTrace, string) {
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
	path := filepath.Join(t.TempDir(), "trace.dgts")
	if err := WriteFramed(tr, path, frameSize); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(path, window, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return tr, st, path
}

// TestStreamRoundTrip pins the framed codec: writing a trace with a frame
// size small enough to force many frames and reopening it must preserve
// the in-memory recording's canonical fingerprint bit for bit, and the
// windowed replay must produce the same simulation result as the
// in-memory replay.
func TestStreamRoundTrip(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, st, _ := writeFramed(t, 512, 512, 4096)
	if st.TaskCount != tr.TaskCount || st.StrandCount != tr.StrandCount ||
		st.AccessOps != tr.AccessOps || st.WorkOps != tr.WorkOps || st.OpBytes() != tr.OpBytes() {
		t.Fatalf("windowed counts %d/%d/%d/%d/%d differ from in-memory %d/%d/%d/%d/%d",
			st.TaskCount, st.StrandCount, st.AccessOps, st.WorkOps, st.OpBytes(),
			tr.TaskCount, tr.StrandCount, tr.AccessOps, tr.WorkOps, tr.OpBytes())
	}
	if sfp, rfp := fingerprint(t, st), fingerprint(t, tr); sfp != rfp {
		t.Fatalf("windowed fingerprint differs:\nin memory: %s\nwindowed:  %s", rfp, sfp)
	}
	for _, sn := range []string{"ws", "sb"} {
		a := replay(t, tr, m, sn, 7, nil)
		b := replay(t, st, m, sn, 7, nil)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: windowed replay fingerprint differs from in-memory replay", sn)
		}
	}
}

// TestStreamBoundedWindow is the bounded-memory contract: replaying
// through a window far smaller than the op stream must stay within a
// fixed resident budget AND still produce a bit-identical result. The
// budget below covers the window itself plus the scripts leased by the
// (at most NumCores) in-flight strands; the point is that it does not
// scale with OpBytes.
func TestStreamBoundedWindow(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	const frameSize, window = 256, 1024
	tr, st, _ := writeFramed(t, 2048, frameSize, window)
	if st.OpBytes() < 8*window {
		t.Fatalf("trace op stream too small (%d bytes) to exercise a %d-byte window", st.OpBytes(), window)
	}
	a := replay(t, tr, m, "ws", 7, nil)
	b := replay(t, st, m, "ws", 7, nil)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("windowed replay fingerprint differs from in-memory replay")
	}
	// Budget: the window itself + one lease per core, each rounded up to
	// the 1KiB lease quantum (strand scripts here are far smaller).
	budget := int64(window) + int64(m.NumCores())*1024
	if peak := st.PeakResidentBytes(); peak > budget {
		t.Fatalf("peak decoder-resident bytes %d exceed budget %d (op stream %d bytes)",
			peak, budget, st.OpBytes())
	}
	if st.PeakResidentBytes() >= st.OpBytes() {
		t.Fatalf("peak resident %d not below op stream size %d; window is not bounding memory",
			st.PeakResidentBytes(), st.OpBytes())
	}
	// Every frame enters the window at least once; a recording held in
	// memory has no window to load into.
	if frames := (st.OpBytes() + frameSize - 1) / frameSize; st.FrameLoads() < frames {
		t.Fatalf("windowed replay loaded %d frames, fewer than the %d its op stream spans", st.FrameLoads(), frames)
	}
	if n := tr.FrameLoads(); n != 0 {
		t.Fatalf("in-memory recording reports %d frame loads", n)
	}
}

// TestStreamWindowReuse replays the same StreamTrace twice (grid cells
// share one streamed trace) and requires identical results both times —
// the window's eviction state must not leak into simulation results.
func TestStreamWindowReuse(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	_, st, _ := writeFramed(t, 512, 256, 1024)
	a := replay(t, st, m, "sb", 7, nil)
	b := replay(t, st, m, "sb", 7, nil)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("second replay through the same window differs from the first")
	}
}

// TestStreamDetectsFrameCorruption flips a byte inside the frame region;
// open succeeds (metadata is intact) but the replay must fail CheckResult
// with the frame checksum error rather than silently replaying garbage.
func TestStreamDetectsFrameCorruption(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	_, st, path := writeFramed(t, 512, 256, 1024)
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[binary.LittleEndian.Uint64(data[8:])-5] ^= 0x5a // inside the last frame, before the metadata
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStream(path, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sp := mem.NewSpace(m.Links, m.Links)
	res, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.New("ws"), Seed: 7,
	}, st2.Root())
	if err != nil {
		t.Fatal(err)
	}
	cerr := st2.CheckResult(res)
	if cerr == nil {
		t.Fatal("replay of corrupt frames passed CheckResult")
	}
	if !strings.Contains(cerr.Error(), "checksum") {
		t.Fatalf("corrupt frame reported as %q, want a checksum error", cerr)
	}
}

// TestStreamRejectsMetaCorruption flips every byte of the prefix and of
// the trailing metadata block, and truncates the file at several points;
// NewStream must reject each mutation (and never panic).
func TestStreamRejectsMetaCorruption(t *testing.T) {
	_, st, path := writeFramed(t, 512, 256, 1024)
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metaOff := int(binary.LittleEndian.Uint64(data[8:]))
	if metaOff <= prefixLen || metaOff >= len(data) {
		t.Fatalf("metadata offset %d outside the %d-byte file's frames", metaOff, len(data))
	}
	for _, n := range []int{0, prefixLen - 1, prefixLen, metaOff / 2, metaOff, metaOff + 1, (metaOff + len(data)) / 2, len(data) - 1} {
		if _, err := NewStream(bytes.NewReader(data[:n]), int64(n), 0); err == nil {
			t.Errorf("framed trace truncated to %d of %d bytes opened without error", n, len(data))
		}
	}
	for i := 0; i < len(data); i++ {
		if i == prefixLen {
			i = metaOff // the frames are checked as they load
		}
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := NewStream(bytes.NewReader(mut), int64(len(mut)), 0); err == nil {
			t.Fatalf("corruption at byte %d (metadata at %d) went undetected", i, metaOff)
		}
	}
}

// TestStreamRejectsSpanOutsideOpRegion: a node whose op span leaves the op
// region is rejected at open, even in a file whose checksums hold.
func TestStreamRejectsSpanOutsideOpRegion(t *testing.T) {
	ops := []byte{byte(opWork) | 1<<opTagBits, byte(opWork) | 2<<opTagBits, byte(opWork) | 3<<opTagBits}
	for _, span := range [][2]int64{{3, 4}, {2, 5}, {4, 4}} {
		tr := &StreamTrace{
			TaskCount: 2, StrandCount: 2,
			nodes: []node{
				{taskSize: -1, strandSize: -1, opOff: 0, opEnd: 3 - (span[1] - span[0]), cont: -1, childOff: 0, childEnd: 1},
				{taskSize: -1, strandSize: -1, opOff: span[0], opEnd: span[1], cont: -1, childOff: 1, childEnd: 1},
			},
			ops:      ops,
			childIdx: []int32{1},
		}
		path := filepath.Join(t.TempDir(), "span.dgts")
		if err := WriteFramed(tr, path, 0); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStream(path, 0, nil)
		if err == nil {
			st.Close()
			t.Fatalf("node span [%d,%d) of a 3-byte op region accepted", span[0], span[1])
		}
		if !strings.Contains(err.Error(), "op region") {
			t.Fatalf("span [%d,%d) rejected with %q, want an op-region error", span[0], span[1], err)
		}
	}
}

// TestRecordIntoFileMatchesWriteFramed: a recording has one layout. One
// program recorded straight into a cache's file, and recorded in memory
// then written by WriteFramed at the same frame size, give the same file
// byte for byte; the file replays like the in-memory recording under
// every scheduler.
func TestRecordIntoFileMatchesWriteFramed(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	c, err := NewStreamCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.frameSize = 256
	_, into, err := c.GetOrReserve("k")
	if err != nil || into == nil {
		t.Fatalf("cold cache: into=%v err=%v, want a recorder", into, err)
	}
	sp := mem.NewSpace(m.Links, m.Links)
	if err := Record(into, testProgram(sp, 2048), m.Block()); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Fill("k")
	if err != nil {
		t.Fatal(err)
	}
	tr := recordSeq(t, m, 2048)
	path := filepath.Join(t.TempDir(), "mem.dgts")
	if err := WriteFramed(tr, path, 256); err != nil {
		t.Fatal(err)
	}
	direct, err := os.ReadFile(rec.Path)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if frames := tr.OpBytes() / 256; frames < 4 {
		t.Fatalf("recording spans %d frames, too few to compare frame layouts", frames)
	}
	if !bytes.Equal(direct, framed) {
		t.Fatalf("recorded into a file (%d bytes) and written from memory (%d bytes): the files differ", len(direct), len(framed))
	}

	st, err := rec.Open(1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if fingerprint(t, st) != fingerprint(t, tr) {
		t.Fatal("the file and the in-memory recording fingerprint differently")
	}
	for _, sn := range []string{"ws", "pws", "cilk", "sb", "sbd", "pdf"} {
		if replay(t, st, m, sn, 7, nil).Fingerprint() != replay(t, tr, m, sn, 7, nil).Fingerprint() {
			t.Errorf("%s: replaying the file differs from replaying the in-memory recording", sn)
		}
	}
}

// TestLiveRecordIntoFile: a live run with a cache's recorder as its
// listener streams into the file too — strands finish concurrently and
// share the recycled op buffers — and yields the recording the same run
// gives an in-memory recorder.
func TestLiveRecordIntoFile(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	c, err := NewStreamCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.frameSize = 256
	_, into, err := c.GetOrReserve("k")
	if err != nil || into == nil {
		t.Fatalf("cold cache: into=%v err=%v, want a recorder", into, err)
	}
	sp := mem.NewSpace(m.Links, m.Links)
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 7, Listener: into,
	}, testProgram(sp, 512)); err != nil {
		t.Fatal(err)
	}
	rec, err := c.Fill("k")
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.Open(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, _ := record(t, m, "ws", 7)
	if fingerprint(t, st) != fingerprint(t, tr) {
		t.Fatal("live recording into a file differs from the same run recorded in memory")
	}
}

// FuzzFramedDecode hammers NewStream with mutated framed traces:
// truncations, corrupt varints and forged headers must all surface as
// errors (or decode to a consistent trace), never as panics or
// out-of-bounds allocations. When the mutant decodes, its fingerprint
// must be computable — exercising the frame checksum path too. The seeds
// come from both writers: WriteFramed, and a recording streamed into its
// file.
func FuzzFramedDecode(f *testing.F) {
	m := machine.TwoSocket(2, 1<<14, 1<<12)
	sp := mem.NewSpace(m.Links, m.Links)
	rec := NewRecorder()
	if _, err := sim.Run(sim.Config{
		Machine: m, Space: sp, Scheduler: sched.NewWS(), Seed: 3, Listener: rec,
	}, testProgram(sp, 96)); err != nil {
		f.Fatal(err)
	}
	tr, err := rec.Finish()
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	for i, frameSize := range []int64{64, 1024, DefaultFrameSize} {
		path := filepath.Join(dir, "seed.dgts")
		if err := WriteFramed(tr, path, frameSize); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if i == 0 {
			f.Add(data[:len(data)/2])
			f.Add(data[:prefixLen+metaHeaderLen+8])
		}
	}
	c, err := NewStreamCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	c.frameSize = 64
	_, into, err := c.GetOrReserve("seed")
	if err != nil {
		f.Fatal(err)
	}
	if err := Record(into, testProgram(mem.NewSpace(m.Links, m.Links), 96), m.Block()); err != nil {
		f.Fatal(err)
	}
	direct, err := c.Fill("seed")
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(direct.Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := NewStream(bytes.NewReader(data), int64(len(data)), 4096)
		if err != nil {
			return
		}
		if _, err := st.Fingerprint(); err != nil {
			return // frame corruption detected — fine
		}
	})
}
