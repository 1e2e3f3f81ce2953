package serving

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func scaleCfg(racks, rackNodes int, cross float64, seed uint64) Config {
	return Config{Workload: Scale, Racks: racks, RackNodes: rackNodes,
		CrossFrac: cross, Util: 0.7, Requests: 120, Seed: seed}
}

// TestScaleDeterminism: a config and seed fully determine every
// reported value on the hierarchical fabric too — delegation, spine
// bandwidth overrides, and background tenants included.
func TestScaleDeterminism(t *testing.T) {
	cfg := scaleCfg(2, 8, 0.5, 7)
	a, b := run(t, cfg), run(t, cfg)
	if a.OfferedRPS != b.OfferedRPS || a.AchievedRPS != b.AchievedRPS ||
		a.ServiceNS != b.ServiceNS || a.MaxQueue != b.MaxQueue {
		t.Fatalf("scalar results differ across identical runs:\n%+v\n%+v", a, b)
	}
	if a.Lat.String() != b.Lat.String() || a.Lat.Sum() != b.Lat.Sum() {
		t.Fatalf("latency histograms differ across identical runs:\n%v\n%v", a.Lat, b.Lat)
	}
}

// TestScaleCrossRackPenalty: pushing the working set across the
// oversubscribed spine visibly inflates the latency distribution — the
// central measurement of the serving-scale sweep.
func TestScaleCrossRackPenalty(t *testing.T) {
	local := run(t, scaleCfg(2, 8, 0, 11))
	crossed := run(t, scaleCfg(2, 8, 1, 11))
	if crossed.Lat.Quantile(50) <= local.Lat.Quantile(50) {
		t.Fatalf("cross-rack p50 %d not above rack-local p50 %d",
			crossed.Lat.Quantile(50), local.Lat.Quantile(50))
	}
	if crossed.ServiceNS <= local.ServiceNS {
		t.Fatalf("cross-rack service time %.0fns not above rack-local %.0fns",
			crossed.ServiceNS, local.ServiceNS)
	}
}

// TestScaleFullerRacksLoadSpine: at the same cross-rack fraction,
// bigger racks put proportionally more background tenants behind the
// same two uplinks, so the tail worsens with rack size — the
// oversubscription effect the rack-size axis exists to measure.
func TestScaleFullerRacksLoadSpine(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-rack scenarios")
	}
	small := run(t, scaleCfg(2, 8, 1, 13))
	big := run(t, scaleCfg(2, 32, 1, 13))
	if big.Lat.Quantile(99) <= small.Lat.Quantile(99) {
		t.Fatalf("32-node racks p99 %v not above 8-node racks p99 %v at full cross traffic",
			sim.Dur(big.Lat.Quantile(99)), sim.Dur(small.Lat.Quantile(99)))
	}
}

// TestScaleConfigErrors: invalid scale configurations fail loudly.
func TestScaleConfigErrors(t *testing.T) {
	bad := []Config{
		{Workload: Scale, Racks: 1, RackNodes: 8, Util: 0.5, Requests: 10},
		{Workload: Scale, Racks: 2, RackNodes: 9, Util: 0.5, Requests: 10},
		{Workload: Scale, Racks: 2, RackNodes: 8, CrossFrac: -0.1, Util: 0.5, Requests: 10},
		{Workload: Scale, Racks: 2, RackNodes: 8, CrossFrac: 1.1, Util: 0.5, Requests: 10},
		{Workload: Scale, Racks: 2, RackNodes: 8, CrossFrac: math.NaN(), Util: 0.5, Requests: 10},
	}
	for _, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("Run(%+v) succeeded, want error", cfg)
		}
	}
}
