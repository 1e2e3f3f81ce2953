package serving

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

func churnRun(t *testing.T, cfg ChurnConfig) *ChurnResult {
	t.Helper()
	r, err := RunChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestChurnNoFaultBaseline: with the fault axis off, the scenario is a
// plain open-loop serving run — no crashes, no recoveries, no SLO
// misses, no unavailability.
func TestChurnNoFaultBaseline(t *testing.T) {
	r := churnRun(t, ChurnConfig{Nodes: 4, Util: 0.7, Requests: 300, Seed: 1})
	if r.Crashes != 0 || r.Recoveries != 0 {
		t.Fatalf("control cell saw faults: crashes=%d recoveries=%d", r.Crashes, r.Recoveries)
	}
	if r.Failed != 0 {
		t.Fatalf("control cell missed %d deadlines", r.Failed)
	}
	if r.UnavailNS != 0 {
		t.Fatalf("control cell charged %dns unavailability", r.UnavailNS)
	}
	if r.Lat.N() != 300 {
		t.Fatalf("latency histogram has %d entries, want 300", r.Lat.N())
	}
	if r.GoodputRPS != r.AchievedRPS {
		t.Fatalf("goodput %v != achieved %v with zero failures", r.GoodputRPS, r.AchievedRPS)
	}
}

// TestChurnSurvivesRollingCrashes is the scenario-level acceptance
// check: donors crash mid-stream, leases fail over, and every request
// still completes — the outages show up as SLO misses and
// unavailability, not as losses.
func TestChurnSurvivesRollingCrashes(t *testing.T) {
	r := churnRun(t, ChurnConfig{Nodes: 8, Util: 0.7, Requests: 1500, Fault: FaultFast, Seed: 1})
	if r.Crashes == 0 {
		t.Fatal("fast churn injected no crashes")
	}
	if r.Recoveries == 0 {
		t.Fatal("no lease was ever re-placed despite donor crashes")
	}
	if r.Lat.N() != 1500 {
		t.Fatalf("latency histogram has %d entries, want 1500 (requests lost?)", r.Lat.N())
	}
	if r.Failed == 0 || r.UnavailNS == 0 {
		t.Fatalf("outages left no trace: failed=%d unavail=%dns", r.Failed, r.UnavailNS)
	}
	if r.GoodputRPS >= r.AchievedRPS {
		t.Fatalf("goodput %v not below achieved %v despite SLO misses", r.GoodputRPS, r.AchievedRPS)
	}
	if r.RecoverMeanNS <= 0 {
		t.Fatal("no recovery latency recorded")
	}
	// Recovery is hot-plug dominated: one hot-plug op (2ms) plus RPCs,
	// well under 2x.
	if hp := float64(2 * sim.Millisecond); r.RecoverMeanNS > 2*hp {
		t.Fatalf("mean recovery %vns is beyond 2 hot-plug ops", r.RecoverMeanNS)
	}
	if r.DeadAccesses != 0 {
		t.Fatalf("%d accesses hit a revoked window; rolling churn should always leave a donor", r.DeadAccesses)
	}
	p50, p999 := r.Lat.Quantile(50), r.Lat.Quantile(99.9)
	if p999 <= p50 {
		t.Fatalf("tail not above median: p50=%d p999=%d", p50, p999)
	}
	// The extreme tail carries the outage stalls: at least a heartbeat
	// timeout long.
	if p999 < int64(churnBeatTimeout) {
		t.Fatalf("p999 %dns under the detection timeout; outages never reached the tail", p999)
	}
}

// TestChurnDeterministic: two runs with the same config are bit-equal —
// the property the harness shard/merge machinery stands on — and so is
// a run with every observability hook attached, as venice-serve runs
// it: the hooks work outside virtual time.
func TestChurnDeterministic(t *testing.T) {
	cfg := ChurnConfig{Nodes: 4, Util: 0.7, Requests: 400, Fault: FaultFast, Seed: 7}
	a := churnRun(t, cfg)
	b := churnRun(t, cfg)
	if a.Lat.String() != b.Lat.String() {
		t.Fatalf("latency histograms differ:\n%s\nvs\n%s", a.Lat, b.Lat)
	}
	if a.GoodputRPS != b.GoodputRPS || a.Failed != b.Failed || a.UnavailNS != b.UnavailNS ||
		a.Crashes != b.Crashes || a.Recoveries != b.Recoveries || a.RecoverMeanNS != b.RecoverMeanNS {
		t.Fatalf("scalar results differ: %+v vs %+v", a, b)
	}

	hooked := cfg
	reg := &obs.Registry{}
	col := &obs.Collector{Reg: reg, Traces: obs.NewTraceStore(0), Events: obs.NewBroadcaster()}
	var cl *core.Cluster
	steps, observed := 0, 0
	hooked.OnCluster = func(c *core.Cluster) {
		cl = c
		col.Attach(c)
		obs.SnapshotFlat(c)
	}
	hooked.Throttle = func() {
		if steps++; steps%64 == 0 {
			obs.SnapshotFlat(cl)
			col.MirrorScoreboard("mn_stats", "MN scoreboard.", &cl.MN.Stats)
		}
	}
	hooked.Observe = func(sim.Dur) { observed++ }
	h := churnRun(t, hooked)
	if !reflect.DeepEqual(a, h) {
		t.Fatalf("hooks moved the result:\nbare   %+v\nhooked %+v", a, h)
	}
	if observed != cfg.Requests {
		t.Fatalf("Observe saw %d latencies, want %d", observed, cfg.Requests)
	}
	// A different shard seed is a genuinely different trial.
	cfg.Seed = 8
	c := churnRun(t, cfg)
	if a.Lat.String() == c.Lat.String() {
		t.Fatal("different seeds produced identical latency histograms")
	}
	// But the fault history is the cell's, not the shard's.
	if a.Crashes != c.Crashes {
		t.Fatalf("fault history varied across shards: %d vs %d crashes", a.Crashes, c.Crashes)
	}
}

// TestChurnConfigValidation: bad configs surface as errors.
func TestChurnConfigValidation(t *testing.T) {
	if _, err := RunChurn(ChurnConfig{Nodes: 4, Util: 0.7}); err == nil {
		t.Fatal("zero requests accepted")
	}
	if _, err := RunChurn(ChurnConfig{Nodes: 4, Requests: 10}); err == nil {
		t.Fatal("zero util accepted")
	}
	if _, err := RunChurn(ChurnConfig{Nodes: 4, Util: math.NaN(), Requests: 10}); err == nil {
		t.Fatal("NaN util accepted")
	}
	if _, err := RunChurn(ChurnConfig{Nodes: 2, Util: 0.5, Requests: 10}); err == nil {
		t.Fatal("2-node churn accepted (no donor diversity)")
	}
	if _, err := RunChurn(ChurnConfig{Nodes: 4, Util: 0.5, Requests: 10, Fault: "storm"}); err == nil {
		t.Fatal("unknown fault rate accepted")
	}
	if _, err := RunChurn(ChurnConfig{Nodes: 4, Util: 0.5, Requests: 10, Policy: "bogus"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
