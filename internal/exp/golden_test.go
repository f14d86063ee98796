package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dagtrace"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Golden fingerprint hashes for the quick profile, one per (kernel,
// scheduler) cell plus one serving stream. They pin the exact observable
// behaviour of the simulator — wall clock, per-worker time buckets, every
// cache's hit/miss/eviction counters, DRAM accounting — so that hot-path
// optimisations (cache-access fast path, chunk batching, strand pooling)
// are provably semantics-preserving: any drift, however small, fails here.
//
// Regenerate with GOLDEN_UPDATE=1 go test ./internal/exp -run Golden -v
// and paste the printed values — but only after convincing yourself the
// change is *supposed* to alter simulated behaviour.
var goldenFingerprints = map[string]string{
	"rrm/ws":        "5ae0d0b253741f4a0882973fd2326d1baefdb0db32164815e4b0ca950ab90d4b",
	"rrm/pws":       "f4936277a6daee14edb6dc3ca3952bfd79857db3b4423d4392884eb7c1d7581f",
	"rrm/sb":        "819a71fa7d028cf9031846678d601696ecb64b45aa1a59875417470ad7699dc2",
	"rrm/sbd":       "ef34bf8add65a4a2cf75dcf327c32c9bada45e9ab2e4c956b478ff135eabf25d",
	"quicksort/ws":  "187bc6a79e8efa27c85f2497967a899dfd0138d2adfe50e493c2b175682ddce7",
	"quicksort/pws": "26023c98f91a9c1acce61e292c152110cb3fe03ec9b3916f052c95c1b6eb189f",
	"quicksort/sb":  "6894c20ab5059c734276dc95cf6cfeba79bdda7d967a6ba92ad6052bd52dc67e",
	"quicksort/sbd": "6b5311363816ebe236c872f872668135ceecf846d8580c920c2148f40550ff0d",
	"serving/sb":    "4f2afe90be7e0eab7cf9cca297654d18155494acfd1d19398395568eadd9eab7",
	"cluster/sweep": "ecaf6f256e496b0425551a8c0206b9fe385c94146bacdec79ef91bbb4a4b8462",
}

func hashFingerprint(fp string) string {
	sum := sha256.Sum256([]byte(fp))
	return hex.EncodeToString(sum[:])
}

// checkGolden compares a fingerprint against its pinned hash, dumping the
// full fingerprint to a temp file on mismatch so divergences can be
// diffed line by line.
func checkGolden(t *testing.T, key, fp string) {
	t.Helper()
	got := hashFingerprint(fp)
	if os.Getenv("GOLDEN_UPDATE") != "" {
		t.Logf("golden %q: %q", key, got)
		return
	}
	want, ok := goldenFingerprints[key]
	if !ok {
		t.Fatalf("no golden fingerprint recorded for %q (got %s)", key, got)
	}
	if got != want {
		path := filepath.Join(t.TempDir(), "fingerprint.txt")
		_ = os.WriteFile(path, []byte(fp), 0o644)
		t.Errorf("%s: fingerprint hash %s != golden %s — simulated behaviour changed; full fingerprint dumped to %s", key, got, want, path)
	}
}

// TestGoldenDeterminism runs the quick profile's RRM and quicksort cells
// under all four paper schedulers and requires byte-identical Result
// fingerprints across code changes.
func TestGoldenDeterminism(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	kernels := []struct {
		name string
		mk   KernelFactory
	}{
		{"rrm", p.RRMFactory()},
		{"quicksort", p.QuicksortFactory()},
	}
	for _, k := range kernels {
		for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
			t.Run(k.name+"/"+sc, func(t *testing.T) {
				sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
				kern := k.mk(sp, m, p.Seed)
				res, err := sim.Run(sim.Config{
					Machine:   m,
					Space:     sp,
					Scheduler: sched.New(sc),
					Seed:      p.Seed,
				}, kern.Root())
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if err := kern.Verify(); err != nil {
					t.Fatalf("verify: %v", err)
				}
				checkGolden(t, k.name+"/"+sc, res.Fingerprint())
			})
		}
	}
}

// goldenTraces pins the sequential recording of every quick-profile
// kernel by its trace fingerprint: task and strand sizes, fork shape, the
// split of work into strands and every access with its address and order.
// These DAGs are what every schedule runs, so a kernel refactor that moves
// any of them fails here even where no scheduler golden covers the kernel.
var goldenTraces = []struct{ kernel, fingerprint string }{
	{"RRM", "61253287317be2c72e31ec06e92be9faf6b59d7651e6ce4de8575f63e844582e"},
	{"RRG", "189481e7f617f72732cb9eb2ad86cb9f4aee70af1339d59062c1861dcad51f91"},
	{"Quicksort", "e0de74932f6482be20bb8ea006c93fe03ba0c10e8e1a7c3a204ab15b45a2379f"},
	{"Samplesort", "f8b5b1135120a47cb9f2b227349c282f31a41516f7f3298bce6aa1bcee69ee60"},
	{"AwareSamplesort", "ae135beed868678af32557b53ea7708a8d6d85e019280c22c7dc67b3cdf81215"},
	{"Quad-Tree", "5c45ae6132cd25f54c66b578f7b640c2613169640d0b98d553cffb9914a1476e"},
	{"MatMul", "89f7682d9747bf707e5534e4e0f93e26b6bd26e7c4213d69bf87febb4199e0de"},
}

// TestGoldenTraces records each quick-profile kernel the way Runner.record
// does and requires its trace fingerprint to match the pinned value.
func TestGoldenTraces(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	for _, g := range goldenTraces {
		t.Run(g.kernel, func(t *testing.T) {
			mk, err := p.FullKernelFactory(g.kernel)
			if err != nil {
				t.Fatal(err)
			}
			k := mk(mem.NewSpacePaged(m.Links, m.Links, p.PageSize()), m, p.Seed)
			tr, err := dagtrace.Record(k.Root(), m.Block())
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			if err := k.Verify(); err != nil {
				t.Fatalf("verify: %v", err)
			}
			got, err := dagtrace.Resident(tr).Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got != g.fingerprint {
				t.Errorf("%s trace fingerprint %s != golden %s: the kernel's DAG changed", g.kernel, got, g.fingerprint)
			}
		})
	}
}

// TestLiveReplayEquivalence is the soundness gate for record-once/
// replay-everywhere: for every kernel in the quick profile, record the
// computation sequentially with dagtrace.Record — the recorder every
// production path uses — and live under ws, then require that replaying
// each capture under EVERY scheduler produces a Result fingerprint
// bit-identical to a live run of the kernel's closures under that
// scheduler. It also pins the auxiliary identities the design rests on:
// a live recording run matches the plain live run (attaching the
// recorder perturbs nothing), and re-recording a replay the way the trace
// was recorded reproduces the original trace (replay is a fixed point of
// record). Live recordings under sb and cilk are checked too for the
// race-trimmed kernels: a file recorded live under sb by an earlier
// version must keep replaying identically.
func TestLiveReplayEquivalence(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	kernels := []struct {
		name string
		mk   KernelFactory
	}{
		{"rrm", p.RRMFactory()},
		{"rrg", p.RRGFactory()},
		{"quicksort", p.QuicksortFactory()},
		{"samplesort", p.SamplesortFactory()},
		{"awaresamplesort", p.AwareSamplesortFactory()},
		{"quadtree", p.QuadtreeFactory()},
		{"matmul", p.MatMulFactory()},
	}
	schedulers := []string{"ws", "pws", "cilk", "sb", "sbd", "pdf"}
	if raceDetectorEnabled {
		// The full matrix is ~100 simulated runs and exceeds the package
		// test timeout under the race detector's slowdown. Keep one
		// data-parallel and one fork-heavy kernel and one scheduler per
		// family; the full matrix runs in the regular suite and in
		// `make bench-replay`.
		trimmed := kernels[:0:0]
		for _, k := range kernels {
			if k.name == "rrm" || k.name == "quicksort" {
				trimmed = append(trimmed, k)
			}
		}
		kernels = trimmed
		schedulers = []string{"ws", "sb"}
	}
	recorders := func(kernel string) []string {
		if kernel == "rrm" || kernel == "quicksort" {
			return []string{"ws", "sb", "cilk"}
		}
		return []string{"ws"}
	}
	live := func(t *testing.T, k KernelFactory, sc string, l sim.Listener) *sim.Result {
		t.Helper()
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		kern := k(sp, m, p.Seed)
		res, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: sched.New(sc), Seed: p.Seed, Listener: l,
		}, kern.Root())
		if err != nil {
			t.Fatalf("live %s: %v", sc, err)
		}
		if err := kern.Verify(); err != nil {
			t.Fatalf("live %s: verify: %v", sc, err)
		}
		return res
	}
	replay := func(t *testing.T, st *dagtrace.StreamTrace, sc string, l sim.Listener) *sim.Result {
		t.Helper()
		sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
		res, err := sim.Run(sim.Config{
			Machine: m, Space: sp, Scheduler: sched.New(sc), Seed: p.Seed, Listener: l,
		}, st.Root())
		if err != nil {
			t.Fatalf("replay %s: %v", sc, err)
		}
		if err := st.CheckResult(res); err != nil {
			t.Fatalf("replay %s: %v", sc, err)
		}
		return res
	}
	fingerprint := func(t *testing.T, st *dagtrace.StreamTrace) string {
		t.Helper()
		fp, err := st.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	for _, k := range kernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			liveFP := map[string]string{}
			liveOf := func(sc string) string {
				if _, ok := liveFP[sc]; !ok {
					liveFP[sc] = live(t, k.mk, sc, nil).Fingerprint()
				}
				return liveFP[sc]
			}
			// check requires every replay of tr to match the live run, and
			// rerecord's capture of a replay to reproduce tr.
			check := func(how string, tr *dagtrace.Trace, rerecord func(*dagtrace.StreamTrace) *dagtrace.Trace) {
				t.Helper()
				st := dagtrace.Resident(tr)
				for _, sc := range schedulers {
					if replay(t, st, sc, nil).Fingerprint() != liveOf(sc) {
						t.Errorf("%s recorded %s: %s replay fingerprint differs from live", k.name, how, sc)
					}
				}
				if fingerprint(t, st) != fingerprint(t, dagtrace.Resident(rerecord(st))) {
					t.Errorf("%s: re-recording a replay %s does not reproduce the trace", k.name, how)
				}
			}

			sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
			kern := k.mk(sp, m, p.Seed)
			tr, err := dagtrace.Record(kern.Root(), m.Block())
			if err != nil {
				t.Fatalf("sequential recording: %v", err)
			}
			if err := kern.Verify(); err != nil {
				t.Fatalf("sequential recording: verify: %v", err)
			}
			check("sequentially", tr, func(st *dagtrace.StreamTrace) *dagtrace.Trace {
				tr2, err := dagtrace.Record(st.Root(), m.Block())
				if err != nil {
					t.Fatalf("re-recording a replay sequentially: %v", err)
				}
				return tr2
			})

			for _, rs := range recorders(k.name) {
				rec := dagtrace.NewRecorder()
				recRes := live(t, k.mk, rs, rec)
				tr, err := rec.Finish()
				if err != nil {
					t.Fatalf("recording under %s: %v", rs, err)
				}
				if recRes.Fingerprint() != liveOf(rs) {
					t.Fatalf("recording run under %s diverged from plain live run", rs)
				}
				check("under "+rs, tr, func(st *dagtrace.StreamTrace) *dagtrace.Trace {
					rec2 := dagtrace.NewRecorder()
					replay(t, st, rs, rec2)
					tr2, err := rec2.Finish()
					if err != nil {
						t.Fatalf("re-recording %s replay: %v", rs, err)
					}
					return tr2
				})
			}
		})
	}
}

// TestGoldenServing pins an online-serving (RunStream) fingerprint as
// well: injections, admission queueing and fast-forward idle gaps take
// engine paths the batch cells never touch, and the chunk-batching fast
// path must leave them untouched too.
func TestGoldenServing(t *testing.T) {
	mix, err := serve.NewMix(
		serve.MixEntry{Kernel: "rrm", N: 2000, Weight: 2},
		serve.MixEntry{Kernel: "quicksort", N: 3000, Weight: 1},
	)
	if err != nil {
		t.Fatalf("NewMix: %v", err)
	}
	rep, err := serve.Run(serve.Config{
		Machine:   Quick().MachineHT(),
		Scheduler: "sb",
		Arrivals: serve.NewPoisson(serve.PoissonConfig{
			MeanGap: 50_000,
			MaxJobs: 8,
			Mix:     mix,
			Seed:    42,
		}),
		Admission:   serve.NewBoundedQueue(4, -1),
		Seed:        7,
		SampleEvery: 200_000,
	})
	if err != nil {
		t.Fatalf("serve.Run: %v", err)
	}
	checkGolden(t, "serving/sb", rep.Fingerprint())
}
