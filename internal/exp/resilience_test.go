package exp

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Golden fingerprint hashes for faulted runs: the quick profile's RRM cell
// under each scheduler × scenario at intensity 60, seed 99. They pin the
// exact perturbed schedule — when a fault fires, which core it hits, how
// the scheduler migrates work — so fault injection is as reproducible as
// the unperturbed simulator. Regenerate with
// GOLDEN_UPDATE=1 go test ./internal/exp -run FaultGolden -v.
var goldenFaultFingerprints = map[string]string{
	"fault60/stragglers/ws":  "a6f00ef72fc2ba528c80568cbe357119344b109c82813b7abd8dd1e26b2478fe",
	"fault60/stragglers/pws": "2c073c840bc1fa2716faf6235001a00dead049d7d0ec78c89e31c84170b4aeeb",
	"fault60/stragglers/sb":  "e2087afddccc9bdcdbfa359688155f9fa85355bfefc5b0763caee3ea3c156f33",
	"fault60/stragglers/sbd": "3301c49c0e82b8e858aa141ce631498a2f39aad41412af1e2a0aa3679609305a",
	"fault60/coreloss/ws":    "a289dde7cda5609e775e005a1cc3ca4b8ac7e554fd6342f0aa93f15b4c774e6d",
	"fault60/coreloss/pws":   "4f17a8f593b974840b00f36c6000dda601793891addaf772d32fad4c67be4439",
	"fault60/coreloss/sb":    "9960c2a0a8d1be923818125ae29c014ad77720ef6bb5f22e0c3d44399727bd9d",
	"fault60/coreloss/sbd":   "7ef2367196d7927c1f4714587708d06d3b8d219d1524182e33916e0ee17b77e7",
	"fault60/bandwidth/ws":   "6dc39d0f79fac13c940a351d52e20aa8fa3ab2e82e91eb6e962c120aad76f87a",
	"fault60/bandwidth/pws":  "9483e32e57fbec020e553ca712bb603df44342541ee01061c7a0a4339f0a0f8d",
	"fault60/bandwidth/sb":   "160446f99787ac22d80282db3ba310d6d4ad0c74294bd3ed31dcf9e9c725687e",
	"fault60/bandwidth/sbd":  "afafef2cc673e55c1f5be45bc31cf713adc741d73ab951fca81fe369d3fbdbab",
	"fault60/flush/ws":       "05bd45f5cb17fd28bcebd0bd0a3da02c5accc24d92f730739cf43ae703ffa4d2",
	"fault60/flush/pws":      "879db35b66303d7d9dc9217a08ad8c80ccd2336246cb691fe37b69efecb177ab",
	"fault60/flush/sb":       "69cae5272af402355fa04ee95aa4215a4d40680d73286e5070139785fe35f762",
	"fault60/flush/sbd":      "0e851dd533c141cb7ff749a6ad4755a77b5eb15af5a5243ac7ad221c2f39b46a",
}

// faultHorizon runs the unperturbed RRM baseline under sc and returns its
// result; the wall clock is the horizon fault scenarios are laid out on.
func runRRM(t *testing.T, sc string, plan *fault.Plan) *sim.Result {
	t.Helper()
	p := Quick()
	m := p.MachineHT()
	sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
	kern := p.RRMFactory()(sp, m, p.Seed)
	res, err := sim.Run(sim.Config{
		Machine:   m,
		Space:     sp,
		Scheduler: sched.New(sc),
		Seed:      p.Seed,
		Faults:    plan,
	}, kern.Root())
	if err != nil {
		t.Fatalf("run %s: %v", sc, err)
	}
	if err := kern.Verify(); err != nil {
		t.Fatalf("verify %s: %v", sc, err)
	}
	return res
}

// TestFaultZeroIntensity is the no-op equivalence gate: a zero-intensity
// scenario compiles to an empty plan, and running with it must reproduce
// the unperturbed golden fingerprints bit for bit — fault support may not
// perturb unfaulted runs.
func TestFaultZeroIntensity(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	for _, scen := range fault.ScenarioNames() {
		plan, err := fault.Scenario(scen, m, 0, 0, 1)
		if err != nil {
			t.Fatalf("scenario %s: %v", scen, err)
		}
		if !plan.Empty() {
			t.Fatalf("scenario %s at intensity 0: plan not empty", scen)
		}
	}
	plan, _ := fault.Scenario("stragglers", m, 0, 0, 1)
	for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
		res := runRRM(t, sc, plan)
		checkGolden(t, "rrm/"+sc, res.Fingerprint())
		if res.Migrations != 0 || res.FaultEvents != 0 || res.OfflineCycles != 0 {
			t.Errorf("%s: empty plan produced fault diagnostics %d/%d/%d",
				sc, res.Migrations, res.FaultEvents, res.OfflineCycles)
		}
	}
}

// TestFaultGoldenDeterminism pins faulted fingerprints (and, run twice in
// the same process, doubles as a rerun-determinism check: the second run
// must hash identically to the first).
func TestFaultGoldenDeterminism(t *testing.T) {
	m := Quick().MachineHT()
	horizon := runRRM(t, "ws", nil).WallCycles
	for _, scen := range fault.ScenarioNames() {
		plan, err := fault.Scenario(scen, m, 60, horizon, 99)
		if err != nil {
			t.Fatalf("scenario %s: %v", scen, err)
		}
		for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
			t.Run(scen+"/"+sc, func(t *testing.T) {
				first := runRRM(t, sc, plan)
				fp := first.Fingerprint()
				if again := runRRM(t, sc, plan).Fingerprint(); again != fp {
					t.Fatalf("faulted run not deterministic: fingerprints differ across reruns")
				}
				key := "fault60/" + scen + "/" + sc
				got := hashFingerprint(fp)
				if os.Getenv("GOLDEN_UPDATE") != "" {
					t.Logf("golden %q: %q", key, got)
					return
				}
				want, ok := goldenFaultFingerprints[key]
				if !ok {
					t.Fatalf("no golden fault fingerprint recorded for %q (got %s)", key, got)
				}
				if got != want {
					t.Errorf("%s: fingerprint hash %s != golden %s — perturbed schedule drifted", key, got, want)
				}
			})
		}
	}
}

// TestFaultReplayGolden replays one sequential RRM recording under every
// fault60 plan and scheduler and requires the live runs' golden
// fingerprints: faults, straggler dilation included, act on a replayed
// strand exactly as on the live code that was recorded.
func TestFaultReplayGolden(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	kern := p.RRMFactory()(mem.NewSpacePaged(m.Links, m.Links, p.PageSize()), m, p.Seed)
	tr, err := recordMem(kern.Root(), m.Block())
	if err != nil {
		t.Fatal(err)
	}
	replay := func(sc string, plan *fault.Plan) *sim.Result {
		t.Helper()
		res, err := sim.Run(sim.Config{
			Machine:   m,
			Space:     mem.NewSpacePaged(m.Links, m.Links, p.PageSize()),
			Scheduler: sched.New(sc),
			Seed:      p.Seed,
			Faults:    plan,
		}, tr.Root())
		if err != nil {
			t.Fatalf("replay %s: %v", sc, err)
		}
		if err := tr.CheckResult(res); err != nil {
			t.Fatalf("replay %s: %v", sc, err)
		}
		return res
	}
	schedulers := []string{"ws", "pws", "sb", "sbd"}
	if raceDetectorEnabled {
		// One scheduler per family keeps the matrix inside the race
		// detector's budget, as in TestLiveReplayEquivalence.
		schedulers = []string{"ws", "sb"}
	}
	horizon := replay("ws", nil).WallCycles
	for _, scen := range fault.ScenarioNames() {
		plan, err := fault.Scenario(scen, m, 60, horizon, 99)
		if err != nil {
			t.Fatalf("scenario %s: %v", scen, err)
		}
		for _, sc := range schedulers {
			key := "fault60/" + scen + "/" + sc
			if got := hashFingerprint(replay(sc, plan).Fingerprint()); got != goldenFaultFingerprints[key] {
				t.Errorf("%s: replay fingerprint hash %s != golden %s", key, got, goldenFaultFingerprints[key])
			}
		}
	}
}

// TestCoreOfflineSurvival takes a core down permanently (coreloss at
// intensity 100 never brings the first victim back) and requires every
// scheduler to finish the program with no lost strands: the run completes,
// the kernel's output verifies, and the strand count matches the
// unperturbed DAG (faults are machine-side and may not change the
// program's decomposition).
func TestCoreOfflineSurvival(t *testing.T) {
	m := Quick().MachineHT()
	base := runRRM(t, "ws", nil)
	horizon := base.WallCycles
	plan, err := fault.Scenario("coreloss", m, 100, horizon, 7)
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	permanent := false
	for _, o := range plan.Outages {
		if o.Up <= o.Down {
			permanent = true
		}
	}
	if !permanent {
		t.Fatalf("coreloss at intensity 100 should contain a permanent outage")
	}
	for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
		sc := sc
		t.Run(sc, func(t *testing.T) {
			res := runRRM(t, sc, plan)
			if res.Strands != base.Strands {
				t.Errorf("strand count changed under faults: %d != %d", res.Strands, base.Strands)
			}
			if res.FaultEvents == 0 {
				t.Errorf("no fault events applied")
			}
			if res.OfflineCycles == 0 {
				t.Errorf("no offline cycles recorded despite permanent core loss")
			}
			if res.WallCycles <= base.WallCycles && sc == "ws" {
				// Losing cores can only slow the same schedule down for the
				// baseline scheduler that set the horizon.
				t.Errorf("wall did not grow under permanent core loss: %d <= %d", res.WallCycles, base.WallCycles)
			}
		})
	}
}

// trimmedResilience is the resilience grid the tests sweep: two
// schedulers × two scenarios at one intensity.
var trimmedResilience = ResilienceConfig{
	Kernel:      "RRM",
	Schedulers:  []string{"ws", "sb"},
	Scenarios:   []string{"coreloss", "bandwidth"},
	Intensities: []int{50},
}

// TestResilienceSweepCSV exercises the full sweep on a trimmed grid and
// the CSV export, and pins the CSV's SHA-256.
func TestResilienceSweepCSV(t *testing.T) {
	points, err := NewRunner(Quick(), io.Discard).ResilienceSweep(trimmedResilience)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for _, pt := range points {
		if pt.Slowdown < 1.0 {
			t.Errorf("%s/%s@%d: slowdown %.3f < 1 — faults should not speed runs up",
				pt.Scheduler, pt.Scenario, pt.Intensity, pt.Slowdown)
		}
		if pt.FaultEvents == 0 {
			t.Errorf("%s/%s@%d: no fault events fired", pt.Scheduler, pt.Scenario, pt.Intensity)
		}
	}
	path := filepath.Join(t.TempDir(), "resilience.csv")
	if err := WriteResilienceCSV(path, points); err != nil {
		t.Fatalf("csv: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != len(points)+1 {
		t.Fatalf("csv has %d rows, want %d", len(recs), len(points)+1)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "e5b810be2a3a826656b6c9d8760406221416981d91a8c7935467ebe2365f43de"
	if got := hashFingerprint(string(data)); got != want {
		t.Errorf("resilience CSV SHA-256 %s, want %s: simulated results drifted", got, want)
	}
}
