package core

import (
	"os"
	"strings"
	"testing"

	"repro/internal/machine"
)

func testSession() *Session {
	return &Session{Machine: machine.Scaled(machine.Xeon7560(), 256), Seed: 3}
}

func TestRunKernelAllBenchmarks(t *testing.T) {
	s := testSession()
	for _, b := range Benchmarks() {
		o := BenchOpts{N: 20000, Cutoff: 512}
		if b == "matmul" {
			o = BenchOpts{N: 64}
		}
		res, err := s.RunKernel("ws", b, o)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if res.L3Misses() <= 0 || res.WallCycles <= 0 {
			t.Errorf("%s: empty metrics", b)
		}
		if res.Kernel == nil {
			t.Errorf("%s: kernel not attached", b)
		}
	}
}

// TestBenchmarksListTheTable: Benchmarks names every entry of the table
// NewKernel builds from, once each.
func TestBenchmarksListTheTable(t *testing.T) {
	names := Benchmarks()
	seen := map[string]bool{}
	for _, b := range names {
		if _, ok := benches[b]; !ok || seen[b] {
			t.Errorf("Benchmarks lists %q: in table %v, repeated %v", b, ok, seen[b])
		}
		seen[b] = true
	}
	if len(seen) != len(benches) {
		t.Errorf("Benchmarks lists %d names, the table has %d", len(seen), len(benches))
	}
}

func TestRunKernelWithTraceValidation(t *testing.T) {
	s := testSession()
	s.Trace = true
	res, err := s.RunKernel("sb", "rrm", BenchOpts{N: 20000, Cutoff: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || len(res.Trace.Strands) == 0 {
		t.Fatal("trace not recorded")
	}
}

func TestRunKernelUnknownNames(t *testing.T) {
	s := testSession()
	if _, err := s.RunKernel("nope", "rrm", BenchOpts{N: 1000}); err == nil || !strings.Contains(err.Error(), "scheduler") {
		t.Errorf("unknown scheduler not rejected: %v", err)
	}
	if _, err := s.RunKernel("ws", "nope", BenchOpts{N: 1000}); err == nil || !strings.Contains(err.Error(), "benchmark") {
		t.Errorf("unknown benchmark not rejected: %v", err)
	}
	if _, err := (&Session{}).RunKernel("ws", "rrm", BenchOpts{}); err == nil {
		t.Error("nil machine not rejected")
	}
}

// TestCheckBenchRejectsBadSizes: a name or size NewKernel cannot build
// is an error from CheckBench and from NewKernel alike, before anything
// is allocated — never a constructor panic or a silent default.
func TestCheckBenchRejectsBadSizes(t *testing.T) {
	m := testSession().Machine
	for _, tc := range []struct {
		name string
		n    int
		ok   bool
	}{
		{"rrm", 0, true},
		{"RRM", 2000, true},
		{"qsort", 1000, true},
		{"matmul", 0, true},
		{"matmul", 64, true},
		{"matmul", 100, false}, // not a power of two
		{"matmul", 16, false},  // the default base 32 does not divide it
		{"rrm", -5, false},
		{"wset", -1, false},
		{"nope", 1000, false},
	} {
		err := CheckBench(tc.name, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("CheckBench(%q, %d) = %v, want ok=%v", tc.name, tc.n, err, tc.ok)
		}
		if tc.ok {
			continue
		}
		sp := SpaceFor(m, 0, 0)
		if k, err := NewKernel(tc.name, sp, m, BenchOpts{N: tc.n}); err == nil || k != nil {
			t.Errorf("NewKernel(%q, %d) = %v, %v; want an error", tc.name, tc.n, k, err)
		}
		if fp := sp.Footprint(); fp != 0 {
			t.Errorf("NewKernel(%q, %d) allocated %d bytes before failing", tc.name, tc.n, fp)
		}
	}
}

func TestBandwidthRestriction(t *testing.T) {
	full := testSession()
	quarter := testSession()
	quarter.LinksUsed = 1
	a, err := full.RunKernel("ws", "rrm", BenchOpts{N: 30000, Cutoff: 512})
	if err != nil {
		t.Fatal(err)
	}
	b, err := quarter.RunKernel("ws", "rrm", BenchOpts{N: 30000, Cutoff: 512})
	if err != nil {
		t.Fatal(err)
	}
	if b.StallCycles <= a.StallCycles {
		t.Errorf("restricted bandwidth did not increase stalls (%d vs %d)", b.StallCycles, a.StallCycles)
	}
}

func TestMachineByName(t *testing.T) {
	cases := []struct {
		name  string
		cores int
	}{
		{"xeon7560", 32}, {"xeon", 32}, {"xeon7560ht", 64},
		{"4x2", 8}, {"4x4ht", 32}, {"flat8", 8},
	}
	for _, c := range cases {
		d, err := MachineByName(c.name, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d.NumCores() != c.cores {
			t.Errorf("%s: cores = %d, want %d", c.name, d.NumCores(), c.cores)
		}
	}
	// Each number is parsed whole and range-checked: trailing input and
	// out-of-range core counts are errors, never a silently different
	// machine or a panic inside the preset.
	for _, bad := range []string{"bogus", "4xzz", "4x0", "4x9", "4x-1", "4x", "4x2abc", "4x2.5", "4x2 ", "4xht",
		"flat0", "flat-2", "flat", "flat16x", "flat1.5"} {
		if d, err := MachineByName(bad, 1); err == nil {
			t.Errorf("MachineByName(%q) accepted as %s", bad, d.Name)
		}
	}
	scaled, err := MachineByName("xeon", 16)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Levels[1].Size != (24<<20)/16 {
		t.Errorf("scaling not applied: %d", scaled.Levels[1].Size)
	}
}

func TestMachineByNameLoadsJSON(t *testing.T) {
	d := machine.TwoSocket(2, 1<<18, 1<<12)
	path := t.TempDir() + "/m.json"
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := MachineByName(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCores() != 4 {
		t.Errorf("loaded machine cores = %d", got.NumCores())
	}
}

func TestMachineByNameLoadsFigConfig(t *testing.T) {
	cfg := `int num_levels = 2;
int fan_outs[2] = {1,4};
long long int sizes[2] = {0, 1<<18};
int block_sizes[2] = {64,64};`
	path := t.TempDir() + "/m.cfg"
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := MachineByName(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumCores() != 4 {
		t.Errorf("cores = %d", d.NumCores())
	}
}
