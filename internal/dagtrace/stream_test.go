package dagtrace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// writeFramed records the standard test program, frames it to disk with
// the given frame size, and reopens it with the given window budget.
func writeFramed(t *testing.T, n int, frameSize, window int64) (*Trace, *StreamTrace, string) {
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
	st, err := OpenStream(path, window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return tr, st, path
}

// TestStreamRoundTrip pins the framed codec: writing a trace with a frame
// size small enough to force many frames and reopening it must preserve
// the resident view's canonical fingerprint bit for bit, and the windowed
// replay must produce the same simulation result as the resident replay.
func TestStreamRoundTrip(t *testing.T) {
	m := machine.TwoSocket(4, 1<<16, 1<<12)
	tr, st, _ := writeFramed(t, 512, 512, 4096)
	res := Resident(tr)
	if st.TaskCount != res.TaskCount || st.StrandCount != res.StrandCount ||
		st.AccessOps != res.AccessOps || st.WorkOps != res.WorkOps || st.OpBytes() != res.OpBytes() {
		t.Fatalf("windowed counts %d/%d/%d/%d/%d differ from resident %d/%d/%d/%d/%d",
			st.TaskCount, st.StrandCount, st.AccessOps, st.WorkOps, st.OpBytes(),
			res.TaskCount, res.StrandCount, res.AccessOps, res.WorkOps, res.OpBytes())
	}
	if sfp, rfp := fingerprint(t, st), fingerprint(t, res); sfp != rfp {
		t.Fatalf("windowed fingerprint differs:\nresident: %s\nwindowed: %s", rfp, sfp)
	}
	for _, sn := range []string{"ws", "sb"} {
		a := replay(t, res, m, sn, 7, nil)
		b := replay(t, st, m, sn, 7, nil)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("%s: windowed replay fingerprint differs from resident replay", sn)
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
	a := replay(t, Resident(tr), m, "ws", 7, nil)
	b := replay(t, st, m, "ws", 7, nil)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("windowed replay fingerprint differs from resident replay")
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
	// Every frame enters the window at least once; a resident view has no
	// window to load into.
	if frames := (st.OpBytes() + frameSize - 1) / frameSize; st.FrameLoads() < frames {
		t.Fatalf("windowed replay loaded %d frames, fewer than the %d its op stream spans", st.FrameLoads(), frames)
	}
	if n := Resident(tr).FrameLoads(); n != 0 {
		t.Fatalf("resident view reports %d frame loads", n)
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
	data[len(data)-5] ^= 0x5a // inside the last frame
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStream(path, 1024)
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

// TestStreamRejectsMetaCorruption flips bytes across the metadata block
// and requires NewStream to reject each mutation (and never panic).
func TestStreamRejectsMetaCorruption(t *testing.T) {
	_, st, path := writeFramed(t, 512, 256, 1024)
	metaEnd := int(st.dataOff)
	st.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStream(bytes.NewReader(data[:metaEnd/2]), int64(metaEnd/2), 0); err == nil {
		t.Error("truncated framed trace opened without error")
	}
	for i := 0; i < metaEnd; i += 13 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := NewStream(bytes.NewReader(mut), int64(len(mut)), 0); err == nil {
			t.Fatalf("metadata corruption at byte %d went undetected", i)
		}
	}
}

// FuzzFramedDecode hammers NewStream with mutated framed traces:
// truncations, corrupt varints and forged headers must all surface as
// errors (or decode to a consistent trace), never as panics or
// out-of-bounds allocations. When the mutant decodes, its fingerprint
// must be computable — exercising the frame checksum path too.
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
			f.Add(data[:streamHeaderLen+8])
		}
	}
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
