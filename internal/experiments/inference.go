package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/serving"
	"repro/internal/sim"
)

// The serving-inference experiment family measures the device plane
// under open-loop serving load: an inference farm computes on leased
// remote accelerators and egresses over a bond of leased remote NICs.
// Cells sweep load and fault rate on the flat mesh (rolling crashes
// through the donor farm exercise device-lease failover and chunk
// replay) and rack count × cross-rack fraction on the rack/spine
// fabrics (cross-delegated accelerator leases put the request's data
// motion on the oversubscribed spine). Shards vary only the
// arrival/lease-pick seed; chaos history and every placement are the
// cell's, so shard histograms merge exactly and any -parallel renders
// identical bytes.

const (
	inferRequests      = 600
	inferHierRequests  = 400
	inferSmokeRequests = 300
)

// inferFlatCell builds a flat-mesh cell.
func inferFlatCell(nodes int, util float64, fault serving.FaultRate, requests, shards int) cell[serving.Config] {
	id := fmt.Sprintf("infer/flat/n%d/%s/u%02.0f", nodes, fault, util*100)
	return cell[serving.Config]{
		ID: id,
		Cfg: serving.Config{Workload: serving.Inference, Nodes: nodes, Util: util,
			Requests: requests, Fault: fault},
		Shards: shards,
	}
}

// inferHierCell builds a rack/spine cell.
func inferHierCell(racks int, crossFrac float64, requests, shards int) cell[serving.Config] {
	return cell[serving.Config]{
		ID: fmt.Sprintf("infer/hier/r%d/cf%02.0f", racks, crossFrac*100),
		Cfg: serving.Config{Workload: serving.Inference, Util: 0.7, Requests: requests,
			Racks: racks, RackNodes: 8, CrossFrac: crossFrac},
		Shards: shards,
	}
}

// inferCellsFull is the registered sweep: the load axis on the healthy
// flat mesh, the fault axis at the operating point, and rack count ×
// cross-rack fraction on the hierarchy.
func inferCellsFull() []cell[serving.Config] {
	var cells []cell[serving.Config]
	for _, util := range []float64{0.5, 0.7, 0.9} {
		cells = append(cells, inferFlatCell(8, util, serving.FaultNone, inferRequests, 1))
	}
	for _, fault := range []serving.FaultRate{serving.FaultSlow, serving.FaultFast} {
		cells = append(cells, inferFlatCell(8, 0.7, fault, inferRequests, 2))
	}
	cells = append(cells, inferFlatCell(4, 0.7, serving.FaultFast, inferRequests, 1))
	for _, racks := range []int{2, 4} {
		for _, cf := range []float64{0, 0.5} {
			cells = append(cells, inferHierCell(racks, cf, inferHierRequests, 1))
		}
	}
	return cells
}

// inferSmokeCells is the pinned single-cell subset the bench-regression
// CI gate regenerates on every push — a faulted cell, so the gate
// exercises device-lease failover and chunk replay, not just serving.
func inferSmokeCells() []cell[serving.Config] {
	c := inferFlatCell(8, 0.7, serving.FaultFast, inferSmokeRequests, 1)
	c.ID = "inference-smoke/n8/fast"
	return []cell[serving.Config]{c}
}

// inferSweep renders the device-plane serving table.
var inferSweep = sweep[serving.Config, InferenceCellResult]{
	title: "Serving inference — leased accelerators + bonded NIC egress (open-loop)",
	columns: []string{"cell", "offered rps", "achieved rps", "svc",
		"crashes", "failovers", "p50", "p99", "p999"},
	seed: 9200,
	run:  inferTrial,
	fold: foldInference,
}

// inferTrial runs one shard.
func inferTrial(cfg serving.Config, seed uint64) (harness.Values, error) {
	cfg.Seed = seed
	r, err := serving.Run(cfg)
	if err != nil {
		return nil, err
	}
	v := harness.Values{
		"offered_rps":   r.OfferedRPS,
		"achieved_rps":  r.AchievedRPS,
		"svc_ns":        r.ServiceNS,
		"requests":      float64(cfg.Requests),
		"max_queue":     float64(r.MaxQueue),
		"crashes":       float64(r.Crashes),
		"dev_failovers": float64(r.DevFailovers),
	}
	putHist(v, "", r.Lat)
	return v, nil
}

// InferenceCellResult is one assembled sweep cell.
type InferenceCellResult struct {
	ID           string
	OfferedRPS   float64
	AchievedRPS  float64
	ServiceNS    float64
	Crashes      int64 // fullest shard view
	DevFailovers int64 // fullest shard view
	P50          sim.Dur
	P99          sim.Dur
	P999         sim.Dur
	Hist         *sim.LatencyHist
}

// InferenceResult is the assembled sweep.
type InferenceResult = SweepResult[InferenceCellResult]

func foldInference(c cell[serving.Config], shards []harness.Values, t *Table) (InferenceCellResult, error) {
	merged, err := mergeHist(shards, "")
	if err != nil {
		return InferenceCellResult{}, err
	}
	r := InferenceCellResult{
		ID:           c.ID,
		OfferedRPS:   get(shards[0], "offered_rps"),
		AchievedRPS:  sum(shards, "achieved_rps") / float64(c.Shards),
		ServiceNS:    get(shards[0], "svc_ns"),
		Crashes:      maxOf(shards, "crashes"),
		DevFailovers: maxOf(shards, "dev_failovers"),
		P50:          sim.Dur(merged.Quantile(50)),
		P99:          sim.Dur(merged.Quantile(99)),
		P999:         sim.Dur(merged.Quantile(99.9)),
		Hist:         merged,
	}
	t.AddRow(r.ID,
		fmt.Sprintf("%.0f", r.OfferedRPS),
		fmt.Sprintf("%.0f", r.AchievedRPS),
		fmt.Sprintf("%.2fms", r.ServiceNS/1e6),
		fmt.Sprintf("%d", r.Crashes),
		fmt.Sprintf("%d", r.DevFailovers),
		r.P50.String(), r.P99.String(), r.P999.String())
	return r, nil
}
