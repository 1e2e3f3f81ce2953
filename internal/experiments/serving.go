package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/serving"
	"repro/internal/sim"
)

// The serving experiment family goes beyond the paper's closed-loop
// figures: an open-loop load generator (seeded Poisson/MMPP arrivals)
// drives the key-value and cache-tier workloads across the mesh and
// reports the end-to-end latency distribution — p50/p90/p99/p999 —
// per offered load × node count × sharing policy cell.

// Requests per shard, by workload. Tier cells are dearer per request
// (cluster + warm phase), so they run a shorter measured window.
const (
	servingKVRequests    = 320
	servingTierRequests  = 240
	servingSmokeRequests = 200
)

func kvCell(nodes int, util float64) cell[serving.Config] {
	return cell[serving.Config]{
		ID:     fmt.Sprintf("kv/n%d/u%.2f", nodes, util),
		Cfg:    serving.Config{Workload: serving.KV, Nodes: nodes, Util: util, Requests: servingKVRequests},
		Shards: 2,
	}
}

func tierCell(label, policy string, nodes, tenants int, util float64, arr serving.ArrivalSpec) cell[serving.Config] {
	return cell[serving.Config]{
		ID: fmt.Sprintf("tier/%s/n%d/u%.2f", label, nodes, util),
		Cfg: serving.Config{Workload: serving.Tier, Nodes: nodes, Util: util,
			Requests: servingTierRequests, Tenants: tenants, Policy: policy, Arrivals: arr},
		Shards: 2,
	}
}

// servingCellsFull is the registered sweep: offered load × node count
// for the kv tier, offered load × sharing policy (plus a node-count
// point, a no-pressure baseline, and an MMPP burst point) for the
// cache tier.
func servingCellsFull() []cell[serving.Config] {
	var cells []cell[serving.Config]
	for _, nodes := range []int{2, 4, 8} {
		for _, util := range []float64{0.6, 0.9} {
			cells = append(cells, kvCell(nodes, util))
		}
	}
	// The policy axis enumerates the registry, so a newly registered
	// policy joins the sweep without touching this file.
	for _, pol := range monitor.PolicyNames() {
		for _, util := range []float64{0.6, 0.9} {
			cells = append(cells, tierCell(pol, pol, 8, 3, util, serving.ArrivalSpec{}))
		}
	}
	cells = append(cells,
		tierCell("distance", "distance", 4, 3, 0.9, serving.ArrivalSpec{}),
		tierCell("quiet", "distance", 8, 0, 0.9, serving.ArrivalSpec{}),
		tierCell("distance-mmpp", "distance", 8, 3, 0.9, serving.ArrivalSpec{Kind: serving.MMPP}),
	)
	return cells
}

// servingCellsShort is the reduced matrix the tests use: the extremes
// the qualitative findings need (scale-out, load, pressure), with one
// multi-shard cell so the exact-merge path stays exercised.
func servingCellsShort() []cell[serving.Config] {
	return []cell[serving.Config]{
		kvCell(2, 0.9),
		kvCell(8, 0.9),
		tierCell("distance", "distance", 8, 3, 0.9, serving.ArrivalSpec{}),
		tierCell("quiet", "distance", 8, 0, 0.9, serving.ArrivalSpec{}),
	}
}

// servingSmokeCells is the single cheapest cell — the pinned subset the
// bench-regression CI gate regenerates on every push.
func servingSmokeCells() []cell[serving.Config] {
	c := kvCell(2, 0.6)
	c.Cfg.Requests = servingSmokeRequests
	c.Shards = 1
	return []cell[serving.Config]{c}
}

// servingSweep renders the latency-vs-throughput table; the flat
// serving sweep and the rack-scale sweep share it.
var servingSweep = sweep[serving.Config, ServingCellResult]{
	title:   "Serving — open-loop latency vs offered load (end-to-end, queueing included)",
	columns: []string{"cell", "arrivals", "offered rps", "achieved rps", "p50", "p90", "p99", "p999"},
	seed:    9000,
	run:     servingTrial,
	fold:    foldServing,
}

// servingTrial runs one shard, exporting the scenario's scalars plus
// the latency histogram.
func servingTrial(cfg serving.Config, seed uint64) (harness.Values, error) {
	cfg.Seed = seed
	r, err := serving.Run(cfg)
	if err != nil {
		return nil, err
	}
	v := harness.Values{
		"offered_rps":  r.OfferedRPS,
		"achieved_rps": r.AchievedRPS,
		"svc_ns":       r.ServiceNS,
	}
	putHist(v, "", r.Lat)
	return v, nil
}

// ServingCellResult is one assembled sweep cell.
type ServingCellResult struct {
	ID          string
	Arrivals    string
	OfferedRPS  float64
	AchievedRPS float64
	P50         sim.Dur
	P90         sim.Dur
	P99         sim.Dur
	P999        sim.Dur
	Hist        *sim.LatencyHist
}

// ServingResult is the assembled serving (or rack-scale) sweep.
type ServingResult = SweepResult[ServingCellResult]

func foldServing(c cell[serving.Config], shards []harness.Values, t *Table) (ServingCellResult, error) {
	merged, err := mergeHist(shards, "")
	if err != nil {
		return ServingCellResult{}, err
	}
	r := ServingCellResult{
		ID:          c.ID,
		Arrivals:    c.Cfg.Arrivals.String(),
		OfferedRPS:  get(shards[0], "offered_rps"),
		AchievedRPS: sum(shards, "achieved_rps") / float64(c.Shards),
		P50:         sim.Dur(merged.Quantile(50)),
		P90:         sim.Dur(merged.Quantile(90)),
		P99:         sim.Dur(merged.Quantile(99)),
		P999:        sim.Dur(merged.Quantile(99.9)),
		Hist:        merged,
	}
	t.AddRow(r.ID, r.Arrivals, fmt.Sprintf("%.0f", r.OfferedRPS),
		fmt.Sprintf("%.0f", r.AchievedRPS),
		r.P50.String(), r.P90.String(), r.P99.String(), r.P999.String())
	return r, nil
}

// ServingSmoke runs the single-cell CI subset.
func ServingSmoke() *ServingResult { return runRegistered("serving-smoke").(*ServingResult) }

// ServingPressure runs the single pressured cache-tier cell — three
// co-located tenants leasing and hammering remote memory while the
// tier serves at 0.9 utilization (the benchmark entry point).
func ServingPressure() *ServingResult {
	cells := []cell[serving.Config]{tierCell("distance", "distance", 8, 3, 0.9, serving.ArrivalSpec{})}
	return runSpec("serving-pressure", servingSweep.spec("Serving — pressured tier cell", cells)).(*ServingResult)
}
