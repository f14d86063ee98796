package exp

import (
	"fmt"
	"strconv"

	"repro/internal/machine"
	"repro/internal/serve"
)

// SaturationConfig parameterizes an arrival-rate sweep of the serving
// subsystem: each (scheduler, rate) point runs one open-loop Poisson
// serving simulation and records the tail-latency summary. Sweeping the
// rate from well below to past the machine's service capacity exposes the
// saturation knee where queueing delay takes over end-to-end latency.
type SaturationConfig struct {
	// Machine is the PMH to serve on. Required.
	Machine *machine.Desc
	// Schedulers to sweep (names for sched.New). Required.
	Schedulers []string
	// RatesPerSec are the offered arrival rates in jobs per simulated
	// second (at the machine clock). Required, typically log-spaced.
	RatesPerSec []float64
	// DurationSec bounds each run's arrival horizon in simulated seconds
	// (0 = unbounded; MaxJobs must then be set).
	DurationSec float64
	// MaxJobs bounds the number of arrivals per run (0 = unbounded;
	// DurationSec must then be set). Capping it keeps the past-saturation
	// points tractable: open-loop load with no bound grows without limit.
	MaxJobs int
	// Mix is the workload served. Required.
	Mix *serve.Mix
	// Admission is a serve.ParseAdmission spec applied to every point
	// ("" = always admit). Parsed fresh per run: policies are stateful.
	Admission string
	// Seed is the base seed; every point derives its own from it so that
	// repeated sweeps are reproducible.
	Seed uint64
	// SampleEvery forwards the time-series sampling interval (0 = off).
	SampleEvery int64
}

// SaturationPoint is one (scheduler, rate) cell of the sweep.
type SaturationPoint struct {
	Scheduler  string
	RatePerSec float64
	Report     *serve.Report
}

// MeanGapFor converts an offered rate in jobs/sec into the mean
// inter-arrival gap in cycles at m's clock.
func MeanGapFor(m *machine.Desc, ratePerSec float64) float64 {
	return m.ClockGHz * 1e9 / ratePerSec
}

// SaturationSweep runs the full grid. Points are generated in the given
// scheduler-major, rate-minor order, each from an independent arrival
// stream, so the sweep itself is deterministic.
func SaturationSweep(cfg SaturationConfig) ([]SaturationPoint, error) {
	if cfg.Machine == nil || cfg.Mix == nil {
		return nil, fmt.Errorf("exp: saturation sweep requires a Machine and a Mix")
	}
	if len(cfg.Schedulers) == 0 || len(cfg.RatesPerSec) == 0 {
		return nil, fmt.Errorf("exp: saturation sweep requires schedulers and rates")
	}
	if cfg.DurationSec <= 0 && cfg.MaxJobs <= 0 {
		return nil, fmt.Errorf("exp: saturation sweep requires DurationSec or MaxJobs")
	}
	var horizon int64
	if cfg.DurationSec > 0 {
		horizon = int64(cfg.DurationSec * cfg.Machine.ClockGHz * 1e9)
	}
	var out []SaturationPoint
	for si, sc := range cfg.Schedulers {
		for ri, rate := range cfg.RatesPerSec {
			if rate <= 0 {
				return nil, fmt.Errorf("exp: bad arrival rate %v", rate)
			}
			adm, err := serve.ParseAdmission(cfg.Admission)
			if err != nil {
				return nil, err
			}
			rep, err := serve.Run(serve.Config{
				Machine:   cfg.Machine,
				Scheduler: sc,
				Arrivals: serve.NewPoisson(serve.PoissonConfig{
					MeanGap: MeanGapFor(cfg.Machine, rate),
					Horizon: horizon,
					MaxJobs: cfg.MaxJobs,
					Mix:     cfg.Mix,
					Seed:    cfg.Seed + uint64(si*len(cfg.RatesPerSec)+ri),
				}),
				Admission:   adm,
				Seed:        cfg.Seed,
				SampleEvery: cfg.SampleEvery,
			})
			if err != nil {
				return nil, fmt.Errorf("exp: %s at %g jobs/s: %w", sc, rate, err)
			}
			out = append(out, SaturationPoint{Scheduler: sc, RatePerSec: rate, Report: rep})
		}
	}
	return out, nil
}

// WriteSaturationCSV exports sweep points for external plotting, latencies
// in simulated seconds.
func WriteSaturationCSV(path string, points []SaturationPoint) error {
	records := [][]string{{
		"scheduler", "rate_per_sec", "arrivals", "admitted", "dropped", "completed", "still_queued",
		"latency_p50_s", "latency_p95_s", "latency_p99_s", "latency_mean_s",
		"queue_delay_p99_s", "service_p50_s", "throughput_per_sec", "wall_s",
	}}
	for _, p := range points {
		r := p.Report
		records = append(records, []string{
			p.Scheduler, fmtF(p.RatePerSec),
			strconv.Itoa(r.Arrivals), strconv.Itoa(r.Admitted), strconv.Itoa(r.Dropped),
			strconv.Itoa(r.Completed), strconv.Itoa(r.StillQueued),
			fmtF(r.Seconds(r.Latency.P50)), fmtF(r.Seconds(r.Latency.P95)),
			fmtF(r.Seconds(r.Latency.P99)), fmtF(r.Seconds(r.Latency.Mean)),
			fmtF(r.Seconds(r.QueueDelay.P99)), fmtF(r.Seconds(r.Service.P50)),
			fmtF(r.ThroughputPerSec), fmtF(r.Result.WallSeconds()),
		})
	}
	return writeCSV(path, records)
}
