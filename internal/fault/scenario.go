// Scenario generators: named, seeded fault plans parameterised by an
// intensity knob, the vocabulary of exp.Runner.ResilienceSweep. All
// randomness (which cores straggle, phase jitter) comes from an xrand
// stream seeded by the caller, so a (scenario, machine, intensity,
// horizon, seed) tuple always yields the same Plan and therefore the same
// simulated run.
package fault

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/machine"
	"repro/internal/xrand"
)

// ScenarioNames lists the built-in fault scenarios in a fixed order.
func ScenarioNames() []string {
	return []string{"stragglers", "coreloss", "bandwidth", "flush"}
}

// Scenario builds the named fault plan against machine m. intensity runs
// 0..100 (0 = no perturbation: the returned plan is empty, so runs
// reproduce unperturbed fingerprints exactly). horizon is the expected
// run length in cycles — typically the unperturbed wall time — used to
// place fault phases inside the run; it must be positive when intensity
// is. seed feeds the xrand stream that picks victim cores and jitters
// phase boundaries.
func Scenario(name string, m *machine.Desc, intensity int, horizon int64, seed uint64) (*Plan, error) {
	if intensity < 0 || intensity > 100 {
		return nil, fmt.Errorf("fault: scenario intensity %d outside [0,100]", intensity)
	}
	if intensity == 0 {
		return &Plan{}, nil
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("fault: scenario %q needs a positive horizon, got %d", name, horizon)
	}
	rng := xrand.New(seed)
	cores := m.NumCores()
	p := &Plan{}
	switch name {
	case "stragglers":
		// A fraction of cores slows by 100+3*intensity percent (i=100 →
		// 4x) over a window covering the middle half of the horizon, with
		// per-core jittered starts.
		k := 1 + cores*intensity/200 // up to half the cores
		if k > cores {
			k = cores
		}
		victims := pickCores(rng, cores, k)
		for _, c := range victims {
			start := horizon/8 + int64(rng.Intn(int(horizon/8)+1))
			p.Stragglers = append(p.Stragglers, Straggler{
				Core:    c,
				Start:   start,
				End:     start + horizon/2,
				Percent: 100 + 3*int64(intensity),
			})
		}
	case "coreloss":
		// Up to half the cores go down in the middle half of the run and
		// come back for the tail; at full intensity one victim never
		// returns.
		k := 1 + (cores/2-1)*intensity/100
		if k >= cores {
			k = cores - 1
		}
		victims := pickCores(rng, cores, k)
		for i, c := range victims {
			down := horizon/4 + int64(rng.Intn(int(horizon/8)+1))
			up := down + horizon/2
			if intensity == 100 && i == 0 {
				up = 0 // never returns
			}
			p.Outages = append(p.Outages, Outage{Core: c, Down: down, Up: up})
		}
	case "bandwidth":
		// Alternate nominal and degraded bandwidth over four phases; the
		// degraded level generalises the paper's {75,50,25}% knob:
		// intensity 25 → 75% bandwidth, 75 → 25%, 100 → 5% (floor).
		degraded := int64(100 - intensity)
		if degraded < 5 {
			degraded = 5
		}
		seg := horizon / 4
		for i := int64(0); i < 4; i++ {
			pct := int64(100)
			if i%2 == 1 {
				pct = degraded
			}
			p.Bandwidth = append(p.Bandwidth, BandwidthPhase{Start: i * seg, Percent: pct})
		}
	case "flush":
		// Periodic whole-level flushes of the outermost caches: 1 + i/10
		// flushes spread over the middle of the run.
		n := 1 + intensity/10
		for i := 0; i < n; i++ {
			t := horizon/8 + int64(i)*(horizon*3/4)/int64(n) + int64(rng.Intn(int(horizon/16)+1))
			p.Flushes = append(p.Flushes, Flush{Time: t, Level: 1, Node: -1})
		}
	default:
		return nil, fmt.Errorf("fault: unknown scenario %q (have %v)", name, ScenarioNames())
	}
	if _, err := p.Compile(m); err != nil {
		return nil, err
	}
	return p, nil
}

// pickCores draws k distinct cores from [0, cores) via a partial
// Fisher-Yates shuffle, returning them in draw order.
func pickCores(rng *xrand.Source, cores, k int) []int {
	ids := make([]int, cores)
	for i := range ids {
		ids[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(cores-i)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids[:k]
}

// ParseSpec parses a "<scenario>:<intensity>" command-line spec (e.g.
// "bandwidth:50") into a plan against m, using horizon and seed as in
// Scenario.
func ParseSpec(spec string, m *machine.Desc, horizon int64, seed uint64) (*Plan, error) {
	name, val, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("fault: spec %q must be <scenario>:<intensity>", spec)
	}
	intensity, err := strconv.Atoi(val)
	if err != nil {
		return nil, fmt.Errorf("fault: bad intensity in spec %q: %v", spec, err)
	}
	return Scenario(name, m, intensity, horizon, seed)
}
