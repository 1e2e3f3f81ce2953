package serving

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// run executes a config, failing the test on error.
func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	if r.Lat.N() != int64(cfg.Requests) {
		t.Fatalf("recorded %d latencies, want %d", r.Lat.N(), cfg.Requests)
	}
	return r
}

func kvCfg(nodes int, util float64, seed uint64) Config {
	return Config{Workload: KV, Nodes: nodes, Util: util, Requests: 200, Seed: seed}
}

func tierCfg(tenants int, policy string, util float64, seed uint64) Config {
	return Config{Workload: Tier, Nodes: 8, Util: util, Requests: 160,
		Tenants: tenants, Policy: policy, Seed: seed}
}

// TestServingDeterminism: a config and seed fully determine every
// reported value — the property the harness's byte-identity rests on.
func TestServingDeterminism(t *testing.T) {
	for _, cfg := range []Config{
		kvCfg(4, 0.8, 7),
		{Workload: KV, Nodes: 2, Util: 0.9, Requests: 150, Seed: 7,
			Arrivals: ArrivalSpec{Kind: MMPP}},
	} {
		a, b := run(t, cfg), run(t, cfg)
		if a.OfferedRPS != b.OfferedRPS || a.AchievedRPS != b.AchievedRPS ||
			a.ServiceNS != b.ServiceNS || a.MaxQueue != b.MaxQueue {
			t.Fatalf("scalar results differ across identical runs:\n%+v\n%+v", a, b)
		}
		if a.Lat.String() != b.Lat.String() || a.Lat.Sum() != b.Lat.Sum() {
			t.Fatalf("latency histograms differ across identical runs:\n%v\n%v", a.Lat, b.Lat)
		}
	}
}

// TestServingSeedsAreShards: different seeds give different streams
// (they would be useless as shards otherwise).
func TestServingSeedsAreShards(t *testing.T) {
	a := run(t, kvCfg(4, 0.8, 1))
	b := run(t, kvCfg(4, 0.8, 2))
	if a.Lat.Sum() == b.Lat.Sum() {
		t.Fatalf("distinct seeds produced identical latency sums (%d)", a.Lat.Sum())
	}
	if a.OfferedRPS != b.OfferedRPS {
		t.Fatalf("offered load should not depend on the shard seed: %v vs %v", a.OfferedRPS, b.OfferedRPS)
	}
}

// TestServingOpenLoopThroughput: at moderate utilization the open loop
// delivers roughly its offered rate, and the quantiles are ordered.
func TestServingOpenLoopThroughput(t *testing.T) {
	r := run(t, kvCfg(4, 0.5, 3))
	if ratio := r.AchievedRPS / r.OfferedRPS; ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("achieved %.0f rps vs offered %.0f rps (ratio %.2f) at util 0.5",
			r.AchievedRPS, r.OfferedRPS, ratio)
	}
	p50, p99 := r.Lat.Quantile(50), r.Lat.Quantile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("quantiles disordered: p50=%d p99=%d", p50, p99)
	}
}

// TestServingLoadMovesTail: pushing utilization toward saturation
// inflates the tail far more than the median — the queueing behavior
// closed-loop experiments cannot show.
func TestServingLoadMovesTail(t *testing.T) {
	low := run(t, kvCfg(4, 0.4, 5))
	high := run(t, kvCfg(4, 0.95, 5))
	if high.Lat.Quantile(99) <= low.Lat.Quantile(99) {
		t.Fatalf("p99 did not grow with load: %d @0.95 vs %d @0.4",
			high.Lat.Quantile(99), low.Lat.Quantile(99))
	}
}

// TestServingScaleOut: more nodes serve proportionally more offered
// load at the same per-server utilization.
func TestServingScaleOut(t *testing.T) {
	small := run(t, kvCfg(2, 0.8, 9))
	big := run(t, kvCfg(8, 0.8, 9))
	if big.OfferedRPS < 3*small.OfferedRPS {
		t.Fatalf("8-node mesh offers %.0f rps, want >= 3x the 2-node %.0f rps",
			big.OfferedRPS, small.OfferedRPS)
	}
}

// TestServingBurstinessFattensTail: MMPP arrivals at the same mean rate
// produce a worse tail than Poisson.
func TestServingBurstinessFattensTail(t *testing.T) {
	base := kvCfg(2, 0.9, 11)
	pois := run(t, base)
	burst := base
	burst.Arrivals = ArrivalSpec{Kind: MMPP}
	mmpp := run(t, burst)
	if mmpp.Lat.Quantile(99) <= pois.Lat.Quantile(99) {
		t.Fatalf("MMPP p99 %d not above Poisson p99 %d at util 0.9",
			mmpp.Lat.Quantile(99), pois.Lat.Quantile(99))
	}
}

// TestServingTenantPressureMovesTail: co-located tenants leasing and
// hammering remote memory through the same fabric visibly fatten the
// serving tier's tail.
func TestServingTenantPressureMovesTail(t *testing.T) {
	if testing.Short() {
		t.Skip("tier scenario pair is the slowest serving test")
	}
	quiet := run(t, tierCfg(0, "distance", 0.9, 13))
	loud := run(t, tierCfg(3, "distance", 0.9, 13))
	if loud.Lat.Quantile(99) <= quiet.Lat.Quantile(99) {
		t.Fatalf("tenant pressure did not move p99: %d with tenants vs %d without",
			loud.Lat.Quantile(99), quiet.Lat.Quantile(99))
	}
}

// TestServingPoliciesPlaceLeases: every sharing policy completes the
// scenario and reports a full histogram (placement differences are
// reported, not asserted — EXPERIMENTS.md records the observed
// ordering).
func TestServingPoliciesPlaceLeases(t *testing.T) {
	if testing.Short() {
		t.Skip("three tier scenarios")
	}
	for _, pol := range []string{"distance", "most-idle", "traffic-aware"} {
		r := run(t, tierCfg(2, pol, 0.8, 17))
		t.Logf("%s: p50=%v p99=%v offered=%.0f rps", pol,
			sim.Dur(r.Lat.Quantile(50)), sim.Dur(r.Lat.Quantile(99)), r.OfferedRPS)
	}
}

// TestServingConfigErrors: invalid configurations fail loudly instead
// of producing silent garbage.
func TestServingConfigErrors(t *testing.T) {
	bad := []Config{
		{Workload: "nope", Nodes: 4, Util: 0.5, Requests: 10},
		{Workload: KV, Nodes: 3, Util: 0.5, Requests: 10},
		{Workload: KV, Nodes: 4, Util: 0, Requests: 10},
		{Workload: KV, Nodes: 4, Util: 0.5, Requests: 0},
		{Workload: Tier, Nodes: 2, Util: 0.5, Requests: 10},
		{Workload: Tier, Nodes: 8, Util: 0.5, Requests: 10, Policy: "bogus"},
		{Workload: KV, Nodes: 2, Util: 0.5, Requests: 10,
			Arrivals: ArrivalSpec{Kind: "weibull"}},
		{Workload: KV, Nodes: 2, Util: math.NaN(), Requests: 10},         // panicked in the generator
		{Workload: KV, Nodes: 2, Util: math.Inf(1), Requests: 10},        // ran with OfferedRPS +Inf
		{Workload: Tier, Nodes: 8, Util: 0.5, Requests: 10, Tenants: -1}, // panicked in borrowWindows
		{Workload: Tenancy, Util: 0.5},
	}
	for _, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("Run(%+v) succeeded, want error", cfg)
		}
	}
}

// TestRunHooksReachEveryWorkload runs each of the six workloads bare
// and with all three observability hooks set. The hooks run outside
// virtual time, so the hooked result must equal the bare one field for
// field. Observe must see each completed request once (each completed
// session, for tenancy), Throttle must be called between engine steps,
// and OnCluster must reach churn, its one reader, and no other workload.
func TestRunHooksReachEveryWorkload(t *testing.T) {
	for _, cfg := range []Config{
		{Workload: KV, Nodes: 2, Util: 0.6, Requests: 80},
		{Workload: Tier, Nodes: 4, Util: 0.6, Requests: 40, Tenants: 1},
		{Workload: Scale, Racks: 2, RackNodes: 8, CrossFrac: 0.5, Util: 0.6, Requests: 40},
		{Workload: Inference, Nodes: 4, Util: 0.6, Requests: 60, Fault: FaultFast},
		{Workload: Churn, Nodes: 4, Util: 0.7, Requests: 200, Fault: FaultFast},
		{Workload: Tenancy, Util: 0.8, Requests: 60},
	} {
		t.Run(string(cfg.Workload), func(t *testing.T) {
			cfg.Seed = 3
			bare, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hooked := cfg
			var cl *core.Cluster
			steps, observed := 0, 0
			hooked.OnCluster = func(c *core.Cluster) { cl = c }
			hooked.Throttle = func() {
				if steps++; cl != nil && steps%64 == 0 {
					obs.SnapshotFlat(cl)
				}
			}
			hooked.Observe = func(sim.Dur) { observed++ }
			h, err := Run(hooked)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, h) {
				t.Fatalf("hooks moved the result:\nbare   %+v\nhooked %+v", bare, h)
			}
			want := cfg.Requests
			if cfg.Workload == Tenancy {
				want = 0
				for _, cs := range h.PerClass {
					want += cs.Completed
				}
			}
			if observed != want || int64(observed) != h.Lat.N() {
				t.Fatalf("Observe saw %d latencies, want %d (histogram holds %d)", observed, want, h.Lat.N())
			}
			if steps == 0 {
				t.Fatal("Throttle was never called")
			}
			if (cl != nil) != (cfg.Workload == Churn) {
				t.Fatalf("OnCluster reached = %v, want it on churn only", cl != nil)
			}
		})
	}
}
