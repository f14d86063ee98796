package serve

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/machine"
)

func testMachine() *machine.Desc { return machine.TwoSocket(4, 1<<16, 1<<12) }

func testMix(t *testing.T) *Mix {
	t.Helper()
	m, err := NewMix(
		MixEntry{Kernel: "rrm", N: 2000, Weight: 2},
		MixEntry{Kernel: "quicksort", N: 3000, Weight: 1},
	)
	if err != nil {
		t.Fatalf("NewMix: %v", err)
	}
	return m
}

// TestServeDeterminism is the regression test for the serving pipeline's
// determinism: the same seed and configuration must yield byte-identical
// metrics — every job timestamp, every sample, every counter — across two
// independent runs, for every scheduler in the paper's lineup.
func TestServeDeterminism(t *testing.T) {
	for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
		t.Run(sc, func(t *testing.T) {
			run := func() string {
				// Arrival processes and admission policies are stateful and
				// single-use: construct everything fresh per run.
				rep, err := Run(Config{
					Machine:   testMachine(),
					Scheduler: sc,
					Arrivals: NewPoisson(PoissonConfig{
						MeanGap: 20_000,
						MaxJobs: 6,
						Mix:     testMix(t),
						Seed:    42,
					}),
					Admission:   NewBoundedQueue(3, -1),
					Seed:        7,
					SampleEvery: 100_000,
				})
				if err != nil {
					t.Fatalf("Run(%s): %v", sc, err)
				}
				return rep.Fingerprint()
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("%s: two identically-configured runs diverged:\n--- run 1 ---\n%s--- run 2 ---\n%s", sc, a, b)
			}
		})
	}
}

// TestServeDrainsBelowSaturation checks liveness: at an arrival rate well
// below saturation every request completes and the admission queue drains.
func TestServeDrainsBelowSaturation(t *testing.T) {
	rep, err := Run(Config{
		Machine:   testMachine(),
		Scheduler: "ws",
		Arrivals: NewPoisson(PoissonConfig{
			MeanGap: 2_000_000,
			MaxJobs: 8,
			Mix:     testMix(t),
			Seed:    1,
		}),
		Seed: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Arrivals != 8 || rep.Completed != 8 || rep.Dropped != 0 || rep.StillQueued != 0 {
		t.Fatalf("below saturation want 8/8 completed, 0 dropped, 0 queued; got %s", rep)
	}
	for _, j := range rep.Jobs {
		if !(j.Arrival <= j.Admitted && j.Admitted <= j.Start && j.Start < j.End) {
			t.Errorf("job %d has inconsistent lifecycle: arr=%d adm=%d start=%d end=%d",
				j.Tag, j.Arrival, j.Admitted, j.Start, j.End)
		}
	}
	if rep.Latency.P99 < rep.Latency.P50 || rep.Latency.Max < rep.Latency.P99 {
		t.Errorf("quantiles out of order: %+v", rep.Latency)
	}
	if rep.ThroughputPerSec <= 0 {
		t.Errorf("throughput not positive: %v", rep.ThroughputPerSec)
	}
}

// burstTrace returns n near-simultaneous arrivals (one cycle apart).
func burstTrace(t *testing.T, n int) *Trace {
	t.Helper()
	var as []Arrival
	for i := 0; i < n; i++ {
		as = append(as, Arrival{
			Time: int64(i),
			Spec: JobSpec{Kernel: "rrm", N: 1500, Seed: uint64(i + 1)},
		})
	}
	return NewTrace(as)
}

func TestServeBoundedQueue(t *testing.T) {
	rep, err := Run(Config{
		Machine:   testMachine(),
		Scheduler: "ws",
		Arrivals:  burstTrace(t, 4),
		Admission: NewBoundedQueue(1, 1),
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One slot, one queue entry: job 0 runs, job 1 waits, jobs 2 and 3 drop.
	if rep.Completed != 2 || rep.Dropped != 2 || rep.StillQueued != 0 {
		t.Fatalf("queue(1,1) on 4-burst: want 2 completed / 2 dropped / 0 queued, got %s", rep)
	}
	var done []JobRecord
	for _, j := range rep.Jobs {
		if j.Completed() {
			done = append(done, j)
		}
	}
	if len(done) != 2 || done[1].Admitted < done[0].End {
		t.Fatalf("MaxInFlight=1 violated: %+v", done)
	}
	if done[1].QueueDelay() <= 0 {
		t.Errorf("queued job should have waited, delay=%d", done[1].QueueDelay())
	}
}

func TestServeTokenBucket(t *testing.T) {
	rep, err := Run(Config{
		Machine:   testMachine(),
		Scheduler: "ws",
		Arrivals:  burstTrace(t, 5),
		// The interval is far beyond the run length: only the initial burst
		// of two tokens admits anything.
		Admission: NewTokenBucket(1<<40, 2),
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Admitted != 2 || rep.Completed != 2 || rep.Dropped != 3 {
		t.Fatalf("token(huge,2) on 5-burst: want 2 admitted / 3 dropped, got %s", rep)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	tb := NewTokenBucket(100, 2)
	if !tb.Admit(0, 0) || !tb.Admit(0, 0) {
		t.Fatal("bucket should start with its full burst")
	}
	if tb.Admit(50, 0) {
		t.Fatal("no token should accrue before one interval")
	}
	if !tb.Admit(100, 0) {
		t.Fatal("one token should accrue after one interval")
	}
	if tb.Admit(150, 0) {
		t.Fatal("token already spent; next accrues at 200")
	}
	if !tb.Admit(1_000_000, 0) || !tb.Admit(1_000_000, 0) {
		t.Fatal("long idle should refill to burst")
	}
	if tb.Admit(1_000_000, 0) {
		t.Fatal("refill must cap at burst")
	}
}

func TestServeClosedLoop(t *testing.T) {
	const conc = 2
	rep, err := Run(Config{
		Machine:   testMachine(),
		Scheduler: "ws",
		Arrivals: NewClosedLoop(ClosedLoopConfig{
			Concurrency: conc,
			TotalJobs:   6,
			Think:       1000,
			Mix:         testMix(t),
			Seed:        5,
		}),
		Seed: 5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Arrivals != 6 || rep.Completed != 6 || rep.Dropped != 0 {
		t.Fatalf("closed loop: want all 6 completed, got %s", rep)
	}
	// The concurrency invariant: never more than conc jobs between admission
	// and completion at once.
	for _, j := range rep.Jobs {
		overlap := 0
		for _, o := range rep.Jobs {
			if o.Admitted <= j.Admitted && j.Admitted < o.End {
				overlap++
			}
		}
		if overlap > conc {
			t.Fatalf("closed loop exceeded concurrency %d at t=%d (%d in flight)", conc, j.Admitted, overlap)
		}
	}
}

func TestServeSamplerRecordsOccupancy(t *testing.T) {
	m := testMachine()
	rep, err := Run(Config{
		Machine:   m,
		Scheduler: "sb",
		Arrivals: NewPoisson(PoissonConfig{
			MeanGap: 50_000,
			MaxJobs: 4,
			Mix:     testMix(t),
			Seed:    9,
		}),
		Seed:        9,
		SampleEvery: 20_000,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	sockets := m.NodesAt(1)
	prev := int64(-1)
	anyOcc := false
	for _, s := range rep.Samples {
		if s.Time <= prev {
			t.Fatalf("sample times not strictly increasing: %d after %d", s.Time, prev)
		}
		prev = s.Time
		if len(s.L3Occ) != sockets {
			t.Fatalf("sample has %d occupancy entries, machine has %d sockets", len(s.L3Occ), sockets)
		}
		for _, occ := range s.L3Occ {
			if occ > 0 {
				anyOcc = true
			}
		}
	}
	if !anyOcc {
		t.Error("space-bounded run never showed cache occupancy in any sample")
	}
}

func TestServeConfigErrors(t *testing.T) {
	mix := testMix(t)
	arr := func() ArrivalProcess {
		return NewPoisson(PoissonConfig{MeanGap: 1000, MaxJobs: 1, Mix: mix, Seed: 1})
	}
	if _, err := Run(Config{Scheduler: "ws", Arrivals: arr()}); err == nil {
		t.Error("missing machine not rejected")
	}
	if _, err := Run(Config{Machine: testMachine(), Scheduler: "ws"}); err == nil {
		t.Error("missing arrivals not rejected")
	}
	if _, err := Run(Config{Machine: testMachine(), Scheduler: "bogus", Arrivals: arr()}); err == nil {
		t.Error("unknown scheduler not rejected")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("rrm:2000,quicksort:3000:2")
	if err != nil {
		t.Fatalf("ParseMix: %v", err)
	}
	if got := m.String(); !strings.Contains(got, "rrm:2000") || !strings.Contains(got, "quicksort:3000:2") {
		t.Errorf("round-trip lost entries: %q", got)
	}
	for _, bad := range []string{"", "nope:100", "rrm:x", "rrm:100:0", "rrm", "rrm:-5", "matmul:100"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) should fail", bad)
		}
	}
}

// TestNewMixChecksLikeNewKernel: NewMix accepts every name and size
// core.NewKernel builds, aliases included, and rejects the sizes it
// cannot build before any job runs.
func TestNewMixChecksLikeNewKernel(t *testing.T) {
	if _, err := NewMix(MixEntry{Kernel: "qsort", N: 1000, Weight: 1}, MixEntry{Kernel: "matmul", N: 64, Weight: 1}); err != nil {
		t.Errorf("NewMix rejected kernels core.NewKernel builds: %v", err)
	}
	for _, e := range []MixEntry{{Kernel: "matmul", N: 100, Weight: 1}, {Kernel: "rrm", N: -5, Weight: 1}} {
		if _, err := NewMix(e); err == nil {
			t.Errorf("NewMix(%+v) should fail", e)
		}
	}
}

func TestParseAdmission(t *testing.T) {
	cases := map[string]string{
		"always":      "always",
		"queue:4:16":  "queue(4,16)",
		"token:500:8": "token(500,8)",
	}
	for in, want := range cases {
		a, err := ParseAdmission(in)
		if err != nil {
			t.Fatalf("ParseAdmission(%q): %v", in, err)
		}
		if a.Name() != want {
			t.Errorf("ParseAdmission(%q).Name() = %q, want %q", in, a.Name(), want)
		}
	}
	for _, bad := range []string{"nope", "queue:0:4", "queue:4", "token:0:1", "token:5:0"} {
		if _, err := ParseAdmission(bad); err == nil {
			t.Errorf("ParseAdmission(%q) should fail", bad)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	orig := []Arrival{
		{Time: 0, Spec: JobSpec{Kernel: "rrm", N: 1000, Seed: 11}},
		{Time: 2500, Spec: JobSpec{Kernel: "quicksort", N: 2000, Seed: 12}},
		{Time: 9000, Spec: JobSpec{Kernel: "matmul", N: 32, Seed: 13}},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ParseTrace(&buf, 0)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(got) != len(orig) {
		t.Fatalf("round trip: %d arrivals, want %d", len(got), len(orig))
	}
	for i := range orig {
		if got[i] != orig[i] {
			t.Errorf("arrival %d: got %+v, want %+v", i, got[i], orig[i])
		}
	}
}

func TestParseTraceValidation(t *testing.T) {
	in := "# comment line\n\n100 rrm 2000\n50 quicksort 1000 77\n"
	got, err := ParseTrace(strings.NewReader(in), 99)
	if err != nil {
		t.Fatalf("ParseTrace: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 arrivals, got %d", len(got))
	}
	if got[0].Spec.Seed != 99+seedStep {
		t.Errorf("default seed not derived for seedless line: %+v", got[0])
	}
	if got[1].Spec.Seed != 77 {
		t.Errorf("explicit seed not kept: %+v", got[1])
	}
	for _, bad := range []string{"abc rrm 100", "10 bogus 100", "10 rrm", "10 rrm x"} {
		if _, err := ParseTrace(strings.NewReader(bad), 1); err == nil {
			t.Errorf("ParseTrace(%q) should fail", bad)
		}
	}
}

func TestPoissonMeanGap(t *testing.T) {
	p := NewPoisson(PoissonConfig{MeanGap: 10_000, MaxJobs: 4000, Mix: testMix(t), Seed: 8})
	var last int64
	n := 0
	for {
		a, ok := p.Next()
		if !ok {
			break
		}
		if a.Time < last {
			t.Fatalf("arrival times must be nondecreasing: %d after %d", a.Time, last)
		}
		last = a.Time
		n++
	}
	if n != 4000 {
		t.Fatalf("want 4000 arrivals, got %d", n)
	}
	mean := float64(last) / float64(n)
	if mean < 8_000 || mean > 12_000 {
		t.Errorf("empirical mean gap %.0f far from configured 10000", mean)
	}
}
