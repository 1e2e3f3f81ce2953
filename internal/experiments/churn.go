package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/monitor"
	"repro/internal/serving"
	"repro/internal/sim"
)

// The serving-churn experiment family measures availability under donor
// churn: the chaos subsystem rolls crashes through the donor population
// while the Monitor Node's recovery half re-places leases onto
// survivors, and the open-loop load reports what users would see —
// goodput against an SLO deadline, unavailability windows, recovery
// latency, and the tail. Cells sweep mesh size × fault rate × sharing
// policy. Shards vary only the arrival/offset seed; the fault history is
// the cell's (chaos draws from a fixed internal seed), so shard
// histograms merge exactly and any -parallel renders identical bytes.

const (
	churnRequests      = 1500
	churnSmokeRequests = 800
)

func churnCellOf(label, policy string, nodes int, fault serving.FaultRate, requests, shards int) cell {
	return cell{
		ID: fmt.Sprintf("churn/%s/n%d/%s", label, nodes, fault),
		Cfg: serving.Config{Workload: serving.Churn, Nodes: nodes, Util: 0.7, Requests: requests,
			Policy: policy, Fault: fault},
		Shards: shards,
	}
}

// churnCellsFull is the registered sweep: mesh size × fault rate under
// the prototype's distance policy, plus the policy axis at the hardest
// point.
func churnCellsFull() []cell {
	var cells []cell
	for _, nodes := range []int{4, 8} {
		for _, fault := range []serving.FaultRate{serving.FaultNone, serving.FaultSlow, serving.FaultFast} {
			cells = append(cells, churnCellOf("distance", "distance", nodes, fault, churnRequests, 2))
		}
	}
	// The policy axis enumerates the MN's policies table ("distance"
	// already swept above), so new policies join the hardest point
	// automatically.
	for _, pol := range monitor.PolicyNames() {
		if pol == "distance" {
			continue
		}
		cells = append(cells, churnCellOf(pol, pol, 8, serving.FaultFast, churnRequests, 2))
	}
	return cells
}

// churnCellsShort is the reduced matrix the tests use: the control, the
// cliff, and the scale-out comparison, with one multi-shard cell.
func churnCellsShort() []cell {
	return []cell{
		churnCellOf("distance", "distance", 4, serving.FaultNone, churnRequests, 1),
		churnCellOf("distance", "distance", 4, serving.FaultFast, churnRequests, 2),
		churnCellOf("distance", "distance", 8, serving.FaultFast, churnRequests, 1),
	}
}

// churnSmokeCells is the pinned single-cell subset the bench-regression
// CI gate regenerates on every push — deliberately a faulted cell, so
// the gate exercises detection, failover, and replay, not just serving.
func churnSmokeCells() []cell {
	c := churnCellOf("distance", "distance", 4, serving.FaultFast, churnSmokeRequests, 1)
	c.ID = "churn-smoke/n4/fast"
	return []cell{c}
}

// churnSweep renders the availability-under-churn table.
var churnSweep = sweep[ChurnCellResult]{
	title: "Serving churn — availability under donor crash/restart (open-loop, SLO deadline 50x service)",
	columns: []string{"cell", "offered rps", "goodput rps", "failed", "unavail",
		"crashes", "recov", "recov mean", "p50", "p99", "p999"},
	seed:   9100,
	values: churnValues,
	fold:   foldChurn,
}

// churnValues exports one shard.
func churnValues(cfg serving.Config, r *serving.Result) harness.Values {
	v := harness.Values{
		"offered_rps":     r.OfferedRPS,
		"achieved_rps":    r.AchievedRPS,
		"goodput_rps":     r.GoodputRPS,
		"svc_ns":          r.ServiceNS,
		"failed":          float64(r.Failed),
		"requests":        float64(cfg.Requests),
		"unavail_ns":      float64(r.UnavailNS),
		"crashes":         float64(r.Crashes),
		"recoveries":      float64(r.Recoveries),
		"recover_mean_ns": r.RecoverMeanNS,
		"dead_accesses":   float64(r.DeadAccesses),
	}
	putHist(v, "", r.Lat)
	return v
}

// ChurnCellResult is one assembled sweep cell.
type ChurnCellResult struct {
	ID            string
	Fault         serving.FaultRate
	OfferedRPS    float64
	GoodputRPS    float64
	FailedFrac    float64
	UnavailMS     float64 // mean per-shard unavailability, ms
	Crashes       int64   // fullest shard view
	Recoveries    int64   // summed over shards
	RecoverMeanNS float64
	P50           sim.Dur
	P99           sim.Dur
	P999          sim.Dur
	Hist          *sim.LatencyHist
}

// ChurnResult is the assembled sweep.
type ChurnResult = SweepResult[ChurnCellResult]

func foldChurn(c cell, shards []harness.Values, t *Table) (ChurnCellResult, error) {
	merged, err := mergeHist(shards, "")
	if err != nil {
		return ChurnCellResult{}, err
	}
	n := float64(c.Shards)
	r := ChurnCellResult{
		ID:         c.ID,
		Fault:      c.Cfg.Fault,
		OfferedRPS: get(shards[0], "offered_rps"),
		GoodputRPS: sum(shards, "goodput_rps") / n,
		FailedFrac: sum(shards, "failed") / sum(shards, "requests"),
		UnavailMS:  sum(shards, "unavail_ns") / n / 1e6,
		Crashes:    maxOf(shards, "crashes"),
		Recoveries: int64(sum(shards, "recoveries")),
		P50:        sim.Dur(merged.Quantile(50)),
		P99:        sim.Dur(merged.Quantile(99)),
		P999:       sim.Dur(merged.Quantile(99.9)),
		Hist:       merged,
	}
	if r.Recoveries > 0 {
		var weighted float64
		for _, v := range shards {
			weighted += get(v, "recover_mean_ns") * get(v, "recoveries")
		}
		r.RecoverMeanNS = weighted / float64(r.Recoveries)
	}
	t.AddRow(r.ID,
		fmt.Sprintf("%.0f", r.OfferedRPS),
		fmt.Sprintf("%.0f", r.GoodputRPS),
		fmt.Sprintf("%.1f%%", 100*r.FailedFrac),
		fmt.Sprintf("%.2fms", r.UnavailMS),
		fmt.Sprintf("%d", r.Crashes),
		fmt.Sprintf("%d", r.Recoveries),
		fmt.Sprintf("%.2fms", r.RecoverMeanNS/1e6),
		r.P50.String(), r.P99.String(), r.P999.String())
	return r, nil
}
