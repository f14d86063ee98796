package exp

import (
	"testing"

	"repro/internal/job"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/sim"
)

type nopListener struct{}

func (nopListener) StrandSpawned(s *job.Strand)      {}
func (nopListener) StrandStarted(s *job.Strand)      {}
func (nopListener) StrandEnded(s *job.Strand)        {}
func (nopListener) TaskEnded(t *job.Task, now int64) {}

func TestScratchFastPathEquivalence(t *testing.T) {
	p := Quick()
	m := p.MachineHT()
	for _, k := range []struct {
		name string
		mk   KernelFactory
	}{{"rrm", p.RRMFactory()}, {"quicksort", p.QuicksortFactory()}} {
		for _, sc := range []string{"ws", "pws", "sb", "sbd"} {
			run := func(sampler bool, listener bool) string {
				sp := mem.NewSpacePaged(m.Links, m.Links, p.PageSize())
				kern := k.mk(sp, m, p.Seed)
				cfg := sim.Config{Machine: m, Space: sp, Scheduler: sched.New(sc), Seed: p.Seed}
				if sampler {
					cfg.Sampler = func(int64) {}
					cfg.SampleEvery = 1 << 40 // armed (disables batching) but never fires... actually fires at 2^40; huge
				}
				if listener {
					cfg.Listener = nopListener{}
				}
				res, err := sim.Run(cfg, kern.Root())
				if err != nil {
					t.Fatalf("%s/%s: %v", k.name, sc, err)
				}
				return res.Fingerprint()
			}
			base := run(false, false)
			if got := run(true, false); got != base {
				t.Errorf("%s/%s: sampler-armed (batching disabled) fingerprint differs", k.name, sc)
			}
			if got := run(false, true); got != base {
				t.Errorf("%s/%s: listener-set (pooling disabled) fingerprint differs", k.name, sc)
			}
		}
	}
}
