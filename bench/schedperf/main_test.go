package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary serve as the harness's child process, so
// the smoke test measures children exactly as the command does.
func TestMain(m *testing.M) {
	if name := os.Getenv(childEnv); name != "" {
		os.Exit(childMain(name, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload once through the harness — child
// processes, rusage, golden check — as `schedperf -smoke` does.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	t.Setenv("TMPDIR", t.TempDir())
	if code := harnessMain([]string{"-smoke"}); code != 0 {
		t.Fatalf("schedperf -smoke exited %d", code)
	}
}

// TestCheckOtherSeed pins the determinism check used for seeds that have
// no goldens: the first run's digests become the reference.
func TestCheckOtherSeed(t *testing.T) {
	w, _ := lookupWorkload("fullgrid_quick")
	h := &harness{seed: defaultSeed + 1, first: map[string][]string{}}
	first := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	if bad := h.check(w, first); bad != 0 {
		t.Fatalf("first run: %d failed cells, want 0", bad)
	}
	second := append([]string(nil), first...)
	second[2], second[5] = "x", "y"
	if bad := h.check(w, second); bad != 2 {
		t.Errorf("second run: %d failed cells, want 2", bad)
	}
	if bad := h.check(w, first[:3]); bad != w.cells {
		t.Errorf("short run: %d failed cells, want all %d", bad, w.cells)
	}
}
