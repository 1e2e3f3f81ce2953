package serving

import (
	"testing"
)

func inferRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	cfg.Workload = Inference
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestInferenceNoFaultBaseline: with the fault axis off, the inference
// farm is a plain open-loop serving run over leased devices — no
// crashes, no device failovers, every request completes.
func TestInferenceNoFaultBaseline(t *testing.T) {
	r := inferRun(t, Config{Nodes: 8, Util: 0.7, Requests: 200, Seed: 1})
	if r.Crashes != 0 || r.DevFailovers != 0 {
		t.Fatalf("control cell saw faults: crashes=%d failovers=%d", r.Crashes, r.DevFailovers)
	}
	if r.Lat.N() != 200 {
		t.Fatalf("latency histogram has %d entries, want 200", r.Lat.N())
	}
	if r.OfferedRPS <= 0 || r.ServiceNS <= 0 {
		t.Fatalf("calibration produced offered=%v svc=%v", r.OfferedRPS, r.ServiceNS)
	}
}

// TestInferenceSurvivesDonorChurn is the scenario-level acceptance
// check: rolling crashes walk the accelerator/NIC donor farm, the MN
// retargets each orphaned device lease onto a survivor, the handles
// replay their in-flight chunks — and every request still completes.
// The outages surface in the latency tail, not as losses.
func TestInferenceSurvivesDonorChurn(t *testing.T) {
	r := inferRun(t, Config{Nodes: 8, Util: 0.7, Requests: 500, Fault: FaultFast, Seed: 1})
	if r.Crashes == 0 {
		t.Fatal("fast churn injected no crashes")
	}
	if r.DevFailovers == 0 {
		t.Fatal("no device lease was ever re-placed despite donor crashes")
	}
	if r.Lat.N() != 500 {
		t.Fatalf("latency histogram has %d entries, want 500 (requests lost?)", r.Lat.N())
	}
	p50, p999 := r.Lat.Quantile(50), r.Lat.Quantile(99.9)
	if p999 <= p50 {
		t.Fatalf("tail not above median: p50=%d p999=%d", p50, p999)
	}
	// The extreme tail carries the failover stalls: at least a heartbeat
	// timeout long.
	if p999 < int64(churnBeatTimeout) {
		t.Fatalf("p999 %dns under the detection timeout; outages never reached the tail", p999)
	}
}

// TestInferenceHierCrossRackCostsService: on the rack/spine fabric,
// pushing the accelerator leases cross-rack puts every request's data
// motion on the oversubscribed spine — service time must rise
// monotonically with the cross-rack fraction.
func TestInferenceHierCrossRackCostsService(t *testing.T) {
	base := Config{Util: 0.7, Requests: 120, Racks: 2, RackNodes: 8, Seed: 1}
	local := base
	local.CrossFrac = 0
	cross := base
	cross.CrossFrac = 1
	rl, rc := inferRun(t, local), inferRun(t, cross)
	if rc.ServiceNS <= rl.ServiceNS {
		t.Fatalf("cross-rack leases did not cost service time: %.0fns all-cross vs %.0fns all-local",
			rc.ServiceNS, rl.ServiceNS)
	}
	if rl.Lat.N() != 120 || rc.Lat.N() != 120 {
		t.Fatalf("hier cells lost requests: %d / %d of 120", rl.Lat.N(), rc.Lat.N())
	}
}

// TestInferenceDeterministic: two runs with the same config are
// bit-equal — the property the harness shard/merge machinery and the
// bench-regression gate stand on.
func TestInferenceDeterministic(t *testing.T) {
	cfg := Config{Workload: Inference, Nodes: 8, Util: 0.7, Requests: 300, Fault: FaultFast, Seed: 7}
	a := inferRun(t, cfg)
	b := inferRun(t, cfg)
	if a.Lat.String() != b.Lat.String() {
		t.Fatalf("latency histograms differ:\n%s\nvs\n%s", a.Lat, b.Lat)
	}
	if a.AchievedRPS != b.AchievedRPS || a.Crashes != b.Crashes || a.DevFailovers != b.DevFailovers {
		t.Fatalf("scalar results differ: %+v vs %+v", a, b)
	}
	// A different shard seed is a genuinely different trial...
	cfg.Seed = 8
	c := inferRun(t, cfg)
	if a.Lat.String() == c.Lat.String() {
		t.Fatal("different seeds produced identical latency histograms")
	}
	// ...but the fault history is the cell's, not the shard's.
	if a.Crashes != c.Crashes {
		t.Fatalf("fault history varied across shards: %d vs %d crashes", a.Crashes, c.Crashes)
	}
}

// TestInferenceConfigValidation: bad configs surface as errors.
func TestInferenceConfigValidation(t *testing.T) {
	bad := []Config{
		{Workload: Inference, Nodes: 2, Util: 0.7, Requests: 10},                  // no donor diversity
		{Workload: Inference, Nodes: 8, Util: 0.7, Requests: 10, Fault: "storm"},  // unknown fault rate
		{Workload: Inference, Nodes: 8, Util: 0.7, Requests: 10, Policy: "bogus"}, // unknown policy
		{Workload: Inference, Util: 0.7, Requests: 10, Racks: 1, RackNodes: 8},    // single rack
		{Workload: Inference, Util: 0.7, Requests: 10, Racks: 2, RackNodes: 8, CrossFrac: 1.5},
		{Workload: Inference, Util: 0.7, Requests: 10, Racks: 2, RackNodes: 8, Fault: FaultFast}, // chaos is flat-only
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}
