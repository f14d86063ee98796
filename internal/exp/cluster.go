package exp

import (
	"fmt"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/serve"
)

// ClusterConfig parameterizes a cluster-serving sweep: the cross product
// of routing policies, autoscaler settings, and tenant mixes, each cell
// one multi-machine cluster run over an independent Poisson stream. The
// grid exposes the questions the cluster subsystem exists to answer —
// what locality-aware routing buys over load-only routing, and what the
// autoscaler's cold starts cost at each tenant mix.
type ClusterConfig struct {
	// Machine is the per-machine PMH. Required.
	Machine *machine.Desc
	// Machines is the fleet size for every cell. Required.
	Machines int
	// Scheduler is the per-machine scheduler name.
	Scheduler string
	// Routings are the routing policies to sweep. Required.
	Routings []string
	// Scales are cluster.ParseScale specs; "" is a fixed full fleet.
	// Default {""}.
	Scales []string
	// TenantMixes are cluster.ParseTenants specs; "" is single-tenant.
	// Default {""}.
	TenantMixes []string
	// Mix is the workload served. Required.
	Mix *serve.Mix
	// RatePerSec is the offered arrival rate per cell (jobs per simulated
	// second). Required.
	RatePerSec float64
	// MaxJobs bounds each cell's arrivals. Required.
	MaxJobs int
	// Admission is the per-machine admission spec ("" = always).
	Admission string
	// Seed is the base seed; each cell derives its arrival seed from it.
	Seed uint64
}

// ClusterPoint is one (routing, scale, tenants) cell.
type ClusterPoint struct {
	Routing string
	// Scale and Tenants echo the cell's specs ("" = fixed fleet /
	// single-tenant).
	Scale   string
	Tenants string
	Report  *cluster.Report
}

// ClusterSweep runs the full grid in routing-major, scale-middle,
// tenant-minor order, each cell from an independent arrival stream, so
// the sweep is deterministic end to end.
func ClusterSweep(cfg ClusterConfig) ([]ClusterPoint, error) {
	if cfg.Machine == nil || cfg.Mix == nil {
		return nil, fmt.Errorf("exp: cluster sweep requires a Machine and a Mix")
	}
	if cfg.Machines < 1 || len(cfg.Routings) == 0 {
		return nil, fmt.Errorf("exp: cluster sweep requires Machines >= 1 and routing policies")
	}
	if cfg.RatePerSec <= 0 || cfg.MaxJobs <= 0 {
		return nil, fmt.Errorf("exp: cluster sweep requires RatePerSec and MaxJobs")
	}
	scales := cfg.Scales
	if len(scales) == 0 {
		scales = []string{""}
	}
	mixes := cfg.TenantMixes
	if len(mixes) == 0 {
		mixes = []string{""}
	}
	var out []ClusterPoint
	cell := 0
	for _, routing := range cfg.Routings {
		for _, scaleSpec := range scales {
			for _, tenantSpec := range mixes {
				scale, err := cluster.ParseScale(scaleSpec)
				if err != nil {
					return nil, err
				}
				tenants, err := cluster.ParseTenants(tenantSpec)
				if err != nil {
					return nil, err
				}
				rep, err := cluster.Run(cluster.Config{
					Machine:   cfg.Machine,
					Machines:  cfg.Machines,
					Scheduler: cfg.Scheduler,
					Arrivals: serve.NewPoisson(serve.PoissonConfig{
						MeanGap: MeanGapFor(cfg.Machine, cfg.RatePerSec),
						MaxJobs: cfg.MaxJobs,
						Mix:     cfg.Mix,
						Seed:    cfg.Seed + uint64(cell),
					}),
					Routing:   routing,
					Admission: cfg.Admission,
					Tenants:   tenants,
					Scale:     scale,
					Seed:      cfg.Seed,
				})
				if err != nil {
					return nil, fmt.Errorf("exp: cluster cell %s/%q/%q: %w", routing, scaleSpec, tenantSpec, err)
				}
				out = append(out, ClusterPoint{Routing: routing, Scale: scaleSpec, Tenants: tenantSpec, Report: rep})
				cell++
			}
		}
	}
	return out, nil
}

// ClusterSweepFingerprint folds every cell's full fingerprint into one
// canonical string, for golden pinning.
func ClusterSweepFingerprint(points []ClusterPoint) string {
	var b []byte
	for _, p := range points {
		b = append(b, fmt.Sprintf("=== cell routing=%s scale=%q tenants=%q ===\n", p.Routing, p.Scale, p.Tenants)...)
		b = append(b, p.Report.Fingerprint()...)
	}
	return string(b)
}

// Cluster runs the cluster sweep at the runner's profile scale: every
// routing policy crossed with {fixed fleet, autoscaled} and {single
// tenant, gold/free tenant mix}, a wset-dominated workload so routing
// locality shows up in the cache counters. It prints one table row per
// cell and returns the points for CSV export.
func (r *Runner) Cluster() ([]ClusterPoint, error) {
	p := r.P
	m := p.MachineHT()
	mix, err := serve.NewMix(
		serve.MixEntry{Kernel: "wset", N: p.ClusterWSetN, Weight: 3},
		serve.MixEntry{Kernel: "rrm", N: p.ClusterRRMN, Weight: 1},
	)
	if err != nil {
		return nil, err
	}
	cfg := ClusterConfig{
		Machine:     m,
		Machines:    p.ClusterMachines,
		Scheduler:   "sb",
		Routings:    []string{"rr", "least", "qdepth", "affinity"},
		Scales:      []string{"", clusterScaleSpec(m)},
		TenantMixes: []string{"", clusterTenantSpec(m)},
		Mix:         mix,
		RatePerSec:  p.ClusterRate,
		MaxJobs:     p.ClusterJobs,
		Admission:   "queue:4:-1",
		Seed:        p.Seed,
	}
	points, err := ClusterSweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(r.Out, "\nCluster: %d machines, %d arrivals/cell, %s mix, sb per machine\n",
		cfg.Machines, cfg.MaxJobs, mix)
	fmt.Fprintf(r.Out, "%-9s %-18s %-22s %9s %9s %10s %10s %10s %12s %6s\n",
		"routing", "scale", "tenants", "routed", "shed", "p50(ms)", "p99(ms)", "tput/s", "l3miss", "ups")
	msOf := func(cycles float64) float64 { return cycles / (m.ClockGHz * 1e6) }
	for _, pt := range points {
		rep := pt.Report
		fmt.Fprintf(r.Out, "%-9s %-18s %-22s %9d %9d %10.3f %10.3f %10.4g %12d %6d\n",
			pt.Routing, orDash(pt.Scale), orDash(pt.Tenants), rep.Routed, rep.QuotaShed,
			msOf(rep.Latency.P50), msOf(rep.Latency.P99), rep.ThroughputPerSec,
			rep.L3Misses, rep.ScaleUps)
	}
	return points, nil
}

// clusterScaleSpec builds the profile's autoscaler setting: epochs of one
// simulated millisecond, scale out above 6 outstanding jobs per machine,
// in below 2, floor of one machine.
func clusterScaleSpec(m *machine.Desc) string {
	epoch := int64(m.ClockGHz * 1e6) // 1 simulated ms in cycles
	return fmt.Sprintf("%d:6:2:1", epoch)
}

// clusterTenantSpec builds the profile's tenant mix: a 3:1 gold/free
// split where the free tenant is token-limited to roughly half its
// unthrottled share.
func clusterTenantSpec(m *machine.Desc) string {
	interval := int64(m.ClockGHz * 1e6 / 25) // one token per 40 simulated µs
	return fmt.Sprintf("gold:3;free:1:token:%d:4", interval)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// WriteClusterCSV exports the sweep in tidy form: one "fleet" row per
// cell with the aggregate metrics, then one row per tenant with that
// tenant's slice. Latencies in simulated seconds.
func WriteClusterCSV(path string, m *machine.Desc, points []ClusterPoint) error {
	records := [][]string{{
		"routing", "scale", "tenant_mix", "scope", "machines",
		"arrivals", "quota_shed", "routed", "completed", "dropped", "timed_out",
		"latency_p50_s", "latency_p95_s", "latency_p99_s", "latency_mean_s",
		"throughput_per_sec", "wall_s", "l3_misses", "dram_accesses",
		"scale_ups", "scale_downs",
	}}
	sec := func(cycles float64) string { return fmtF(cycles / (m.ClockGHz * 1e9)) }
	for _, p := range points {
		r := p.Report
		records = append(records, []string{
			p.Routing, p.Scale, p.Tenants, "fleet", strconv.Itoa(r.Machines),
			strconv.Itoa(r.Arrivals), strconv.Itoa(r.QuotaShed), strconv.Itoa(r.Routed),
			strconv.Itoa(r.Completed), strconv.Itoa(r.Dropped), strconv.Itoa(r.TimedOut),
			sec(r.Latency.P50), sec(r.Latency.P95), sec(r.Latency.P99), sec(r.Latency.Mean),
			fmtF(r.ThroughputPerSec), sec(float64(r.WallCycles)),
			strconv.FormatInt(r.L3Misses, 10), strconv.FormatInt(r.DRAMAccesses, 10),
			strconv.Itoa(r.ScaleUps), strconv.Itoa(r.ScaleDowns),
		})
		for i := range r.Tenants {
			tn := &r.Tenants[i]
			records = append(records, []string{
				p.Routing, p.Scale, p.Tenants, "tenant:" + tn.Name, strconv.Itoa(r.Machines),
				strconv.Itoa(tn.Arrivals), strconv.Itoa(tn.Shed), strconv.Itoa(tn.Arrivals - tn.Shed),
				strconv.Itoa(tn.Completed), "", "",
				sec(tn.Latency.P50), sec(tn.Latency.P95), sec(tn.Latency.P99), sec(tn.Latency.Mean),
				"", "", "", "", "", "",
			})
		}
	}
	return writeCSV(path, records)
}
