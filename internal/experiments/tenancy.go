package experiments

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// The serving-tenancy experiment family measures the admission plane
// under a class-mixed, flash-crowd session load: thousands of tenant
// identities in three SLO classes compete for an oversubscribed lease
// pool, and the sweep reports — per class — goodput, tail latency, and
// SLO-miss rate, alongside the preemption traffic that keeps the
// Latency class whole. Cells sweep offered load; shards vary only the
// arrival/class-mix seed, so shard histograms merge exactly and any
// -parallel renders identical bytes.

const (
	tenancyRequests      = 400
	tenancySmokeRequests = 240
)

// tenancySweepCell builds one load cell.
func tenancySweepCell(util float64, requests, shards int) cell {
	return cell{
		ID:     fmt.Sprintf("tenancy/u%03.0f", util*100),
		Cfg:    serving.Config{Workload: serving.Tenancy, Util: util, Requests: requests},
		Shards: shards,
	}
}

// tenancyCellsFull is the registered sweep: below saturation the plane
// barely intervenes; at and past saturation the preemption and queue
// paths carry the Latency class through.
func tenancyCellsFull() []cell {
	return []cell{
		tenancySweepCell(0.5, tenancyRequests, 1),
		tenancySweepCell(0.8, tenancyRequests, 2),
		tenancySweepCell(1.1, tenancyRequests, 2),
	}
}

// tenancySmokeCells is the pinned single-cell subset the
// bench-regression CI gate regenerates on every push — the saturated
// operating point, so the gate exercises queueing and preemption, not
// just admission bookkeeping.
func tenancySmokeCells() []cell {
	c := tenancySweepCell(0.9, tenancySmokeRequests, 1)
	c.ID = "tenancy-smoke/u90"
	return []cell{c}
}

// tenancySweep renders one row per SLO class per cell.
var tenancySweep = sweep[TenancyCellResult]{
	title: "Serving tenancy — SLO classes under flash-crowd admission (open-loop)",
	columns: []string{"cell", "class", "offered", "goodput",
		"slo-miss", "p50", "p99", "preempts", "fairness"},
	seed:   9300,
	values: tenancyValues,
	fold:   foldTenancy,
}

// tenancyValues exports one shard. Per-class metrics are exported
// under a class-name prefix ("latency_offered", "standard_lat_b042",
// ...).
func tenancyValues(cfg serving.Config, r *serving.Result) harness.Values {
	v := harness.Values{
		"svc_ns":          r.ServiceNS,
		"offered_rps":     r.OfferedRPS,
		"requests":        float64(cfg.Requests),
		"preemptions":     float64(r.Preemptions),
		"degrades":        float64(r.Degrades),
		"queue_admits":    float64(r.QueueAdmits),
		"holder_acquires": float64(r.HolderAcquires),
		"holder_preempts": float64(r.HolderPreemptions),
	}
	for _, cl := range tenancy.Classes() {
		cs, pfx := r.PerClass[cl], cl.String()+"_"
		v[pfx+"offered"] = float64(cs.Offered)
		v[pfx+"completed"] = float64(cs.Completed)
		v[pfx+"rejected"] = float64(cs.Rejected)
		v[pfx+"slo_miss"] = float64(cs.SLOMiss)
		v[pfx+"deadline_ns"] = float64(cs.Deadline)
		putHist(v, pfx, cs.Lat)
	}
	return v
}

// TenancyClassResult is one class's merged ledger within a cell.
type TenancyClassResult struct {
	Class     tenancy.Class
	Offered   int64
	Completed int64
	Rejected  int64
	SLOMiss   int64
	P50       sim.Dur
	P99       sim.Dur
	Hist      *sim.LatencyHist
}

// Goodput is the fraction of offered sessions that completed.
func (c TenancyClassResult) Goodput() float64 {
	if c.Offered == 0 {
		return 0
	}
	return float64(c.Completed) / float64(c.Offered)
}

// SLOMissRate is the fraction of completed sessions past deadline.
func (c TenancyClassResult) SLOMissRate() float64 {
	if c.Completed == 0 {
		return 0
	}
	return float64(c.SLOMiss) / float64(c.Completed)
}

// TenancyCellResult is one assembled sweep cell.
type TenancyCellResult struct {
	ID          string
	OfferedRPS  float64
	ServiceNS   float64
	Preemptions int64
	Degrades    int64
	QueueAdmits int64
	// Fairness is the Jain index over the shard-merged per-class
	// completion ratios.
	Fairness float64
	PerClass [tenancy.NumClasses]TenancyClassResult
}

// TenancyResult is the assembled sweep.
type TenancyResult = SweepResult[TenancyCellResult]

// foldTenancy merges each class's shard ledgers and folds the
// admission-plane counters.
func foldTenancy(c cell, shards []harness.Values, t *Table) (TenancyCellResult, error) {
	r := TenancyCellResult{
		ID:          c.ID,
		OfferedRPS:  get(shards[0], "offered_rps"),
		ServiceNS:   get(shards[0], "svc_ns"),
		Preemptions: int64(sum(shards, "preemptions")),
		Degrades:    int64(sum(shards, "degrades")),
		QueueAdmits: int64(sum(shards, "queue_admits")),
	}
	var ratios []float64
	for _, cl := range tenancy.Classes() {
		pfx := cl.String() + "_"
		h, err := mergeHist(shards, pfx)
		if err != nil {
			return TenancyCellResult{}, err
		}
		pc := &r.PerClass[cl]
		*pc = TenancyClassResult{
			Class:     cl,
			Offered:   int64(sum(shards, pfx+"offered")),
			Completed: int64(sum(shards, pfx+"completed")),
			Rejected:  int64(sum(shards, pfx+"rejected")),
			SLOMiss:   int64(sum(shards, pfx+"slo_miss")),
			P50:       sim.Dur(h.Quantile(50)),
			P99:       sim.Dur(h.Quantile(99)),
			Hist:      h,
		}
		if pc.Offered > 0 {
			ratios = append(ratios, pc.Goodput())
		}
	}
	r.Fairness = tenancy.Jain(ratios)
	for i, cl := range tenancy.Classes() {
		pc := r.PerClass[cl]
		id, preempts, fair := "", "", ""
		if i == 0 { // cell-level columns only on the first class row
			id = r.ID
			preempts = fmt.Sprintf("%d", r.Preemptions)
			fair = fmt.Sprintf("%.3f", r.Fairness)
		}
		t.AddRow(id, cl.String(),
			fmt.Sprintf("%d", pc.Offered),
			fmt.Sprintf("%.3f", pc.Goodput()),
			fmt.Sprintf("%.3f", pc.SLOMissRate()),
			pc.P50.String(), pc.P99.String(), preempts, fair)
	}
	return r, nil
}
