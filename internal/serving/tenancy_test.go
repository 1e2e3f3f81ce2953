package serving

import (
	"reflect"
	"testing"

	"repro/internal/tenancy"
)

// The tenancy scenario's contract: the admission plane holds the
// Latency class whole (zero rejected sessions) by making the
// Preemptible class absorb the pressure (preemptions and rejections
// land there), with every offered session accounted exactly once.
func TestTenancyLatencyClassHeldWhole(t *testing.T) {
	res, err := Run(Config{Workload: Tenancy, Util: 0.9, Requests: 240, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var offered int
	for _, c := range tenancy.Classes() {
		offered += res.PerClass[c].Offered
	}
	if offered != 240 {
		t.Fatalf("offered across classes = %d, want 240", offered)
	}
	lat := res.PerClass[tenancy.Latency]
	if lat.Offered == 0 {
		t.Fatal("no Latency-class sessions offered; class mix broken")
	}
	if lat.Rejected != 0 {
		t.Fatalf("Latency class lost %d of %d sessions; admission must never reject it here", lat.Rejected, lat.Offered)
	}
	if res.Preemptions == 0 {
		t.Fatal("no preemptions under a saturated pool; the pressure valve never engaged")
	}
	if res.HolderPreemptions == 0 {
		t.Fatal("holders never observed their evictions on the event stream")
	}
	pre := res.PerClass[tenancy.Preemptible]
	if pre.Rejected == 0 {
		t.Fatal("Preemptible class absorbed no rejections despite a saturated class budget")
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("Jain fairness = %v, want in (0, 1]", res.Fairness)
	}
	// The point of the class lattice: the Latency class completes a
	// strictly larger fraction of its load than the Preemptible class.
	latRatio := float64(lat.Completed) / float64(lat.Offered)
	preRatio := float64(pre.Completed) / float64(pre.Offered)
	if latRatio <= preRatio {
		t.Fatalf("Latency completion ratio %v <= Preemptible %v; the lattice inverted", latRatio, preRatio)
	}
}

// Same seed, same everything: the scenario must be deterministic.
func TestTenancyDeterministic(t *testing.T) {
	cfg := Config{Workload: Tenancy, Util: 0.8, Requests: 120, Seed: 7}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs diverged:\n%+v\nvs\n%+v", a, b)
	}
}
