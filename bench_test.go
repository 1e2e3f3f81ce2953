// Package repro's root benchmarks regenerate every table and figure of
// the paper's evaluation, one testing.B benchmark per artifact. Each
// iteration rebuilds the full system from scratch and reruns the
// experiment; custom metrics report the headline numbers next to the
// paper's values (recorded in EXPERIMENTS.md).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/tenancy"
)

// BenchmarkFig3 regenerates Fig. 3 (remote memory over commodity
// interconnects). Reported metric: the Ethernet configuration's
// normalized execution time (paper: 42x).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig3Result](b, "fig3")
		b.ReportMetric(r.Normalized[0], "eth-slowdown-x")
		b.ReportMetric(r.Normalized[3], "ldst-slowdown-x")
	}
}

// BenchmarkFig5 regenerates Fig. 5 (QPair/CRMA, on/off-chip, sync/async).
// Reported metrics: on-chip CRMA normalized time for both workloads
// (paper: PageRank 2.12, BerkeleyDB 2.48).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig5Result](b, "fig5")
		b.ReportMetric(r.PageRank[4], "pr-oncrma-x")
		b.ReportMetric(r.BerkeleyDB[4], "bdb-oncrma-x")
	}
}

// BenchmarkFig6 regenerates Fig. 6 (one-level router overhead).
// Reported metric: on-chip CRMA overhead percent (paper: ~16-23%).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig6Result](b, "fig6")
		b.ReportMetric(r.PageRank[4], "pr-oncrma-ovh-%")
		b.ReportMetric(r.BerkeleyDB[4], "bdb-oncrma-ovh-%")
	}
}

// BenchmarkFig14 regenerates Fig. 14 (Redis memory sweep). Reported
// metrics: end-to-end speedup across the sweep (paper: 15.7x) and the
// final miss rate (paper: ~5%).
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig14Result](b, "fig14")
		n := len(r.Sizes)
		b.ReportMetric(float64(r.RemoteTime[0])/float64(r.RemoteTime[n-1]), "sweep-speedup-x")
		b.ReportMetric(r.RemoteMiss[n-1]*100, "final-miss-%")
	}
}

// BenchmarkFig15 regenerates Fig. 15 (direct vs swap remote memory).
// Reported metrics: the in-memory DB's CRMA-vs-RDMA advantage (the
// random-access story) and grep's RDMA-vs-CRMA advantage (the
// contiguous-access inversion).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig15Result](b, "fig15")
		b.ReportMetric(r.CRMA[0]/r.RDMA[0], "db-crma-over-rdma-x")
		b.ReportMetric(r.RDMA[2]/r.CRMA[2], "grep-rdma-over-crma-x")
	}
}

// BenchmarkFig16a regenerates Fig. 16a (remote accelerators). Reported
// metric: LA+3RA speedup for the large dataset (paper: near-linear ~4x).
func BenchmarkFig16a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig16aResult](b, "fig16a")
		b.ReportMetric(r.Large[len(r.Large)-1], "la3ra-large-x")
		b.ReportMetric(r.Small[len(r.Small)-1], "la3ra-small-x")
	}
}

// BenchmarkFig16b regenerates Fig. 16b (remote NICs). Reported metrics:
// bond utilization with 3 remote NICs (paper: ~40% @4B, ~85% @256B).
func BenchmarkFig16b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig16bResult](b, "fig16b")
		last := len(r.Remotes) - 1
		b.ReportMetric(100*r.Tiny[last]/4, "4B-util-%")
		b.ReportMetric(100*r.Normal[last]/4, "256B-util-%")
	}
}

// BenchmarkFig17 regenerates Fig. 17 (channel multi-modality). Reported
// metrics: the runner-up's normalized score per pattern (paper: 14.5,
// 23.7, 57.7).
func BenchmarkFig17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig17Result](b, "fig17")
		b.ReportMetric(r.RDMA[0], "db-rdma-norm")
		b.ReportMetric(r.CRMA[1], "cc-crma-norm")
		b.ReportMetric(r.CRMA[2], "iperf-crma-norm")
	}
}

// BenchmarkFig18 regenerates Fig. 18 (credits over CRMA). Reported
// metrics: bandwidth improvement at the extremes (paper: 51% at 4B,
// 28% at 128B).
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.Fig18Result](b, "fig18")
		b.ReportMetric(r.Improvement[0], "4B-improvement-%")
		b.ReportMetric(r.Improvement[len(r.Improvement)-1], "128B-improvement-%")
	}
}

// BenchmarkServing regenerates the open-loop serving smoke cell (the
// bench-regression CI gate's subset). Reported metrics: the cell's
// end-to-end latency percentiles and achieved throughput.
func BenchmarkServing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := &runID[*experiments.ServingResult](b, "serving-smoke").Cells[0]
		b.ReportMetric(float64(c.P50)/1e3, "p50-us")
		b.ReportMetric(float64(c.P90)/1e3, "p90-us")
		b.ReportMetric(float64(c.P99)/1e3, "p99-us")
		b.ReportMetric(float64(c.P999)/1e3, "p999-us")
		b.ReportMetric(c.AchievedRPS/1e3, "krps")
	}
}

// BenchmarkServingTier regenerates one pressured cache-tier cell: the
// co-located-tenant scenario whose tail the sharing policy moves.
func BenchmarkServingTier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ServingPressure()
		c := &r.Cells[0]
		b.ReportMetric(float64(c.P99)/1e3, "p99-us")
		b.ReportMetric(float64(c.P999)/1e3, "p999-us")
		b.ReportMetric(c.AchievedRPS/1e3, "krps")
	}
}

// BenchmarkServingChurn regenerates the availability-under-churn smoke
// cell: the donor crash/restart scenario the bench-regression gate
// pins. Reported metrics: goodput under faults and recovery tail.
func BenchmarkServingChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := &runID[*experiments.ChurnResult](b, "churn-smoke").Cells[0]
		b.ReportMetric(c.GoodputRPS/1e3, "goodput-krps")
		b.ReportMetric(c.UnavailMS, "unavail-ms")
		b.ReportMetric(float64(c.P99)/1e3, "p99-us")
	}
}

// BenchmarkServingScale regenerates the rack-scale serving smoke cell
// (multi-rack spine fabric). Reported metrics: the cell's end-to-end
// tail and achieved throughput.
func BenchmarkServingScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := &runID[*experiments.ServingResult](b, "scale-smoke").Cells[0]
		b.ReportMetric(float64(c.P99)/1e3, "p99-us")
		b.ReportMetric(c.AchievedRPS/1e3, "krps")
	}
}

// BenchmarkServingInference regenerates the inference smoke cell:
// open-loop serving on leased accelerators and bonded NIC egress under
// rolling donor crashes. Reported metrics: the cell's tail and achieved
// throughput.
func BenchmarkServingInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := &runID[*experiments.InferenceResult](b, "inference-smoke").Cells[0]
		b.ReportMetric(float64(c.P99)/1e3, "p99-us")
		b.ReportMetric(c.AchievedRPS/1e3, "krps")
	}
}

// BenchmarkServingTenancy regenerates the tenancy smoke cell: SLO-class
// admission, queueing and preemption under a saturated flash crowd.
// Reported metrics: the Latency class's tail and the offered session
// rate.
func BenchmarkServingTenancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := &runID[*experiments.TenancyResult](b, "tenancy-smoke").Cells[0]
		b.ReportMetric(float64(c.PerClass[tenancy.Latency].P99)/1e3, "latency-p99-us")
		b.ReportMetric(c.OfferedRPS/1e3, "offered-krps")
	}
}

// runID runs the spec registered under id and returns its assembled
// result.
func runID[R harness.Artifact](b *testing.B, id string) R {
	art, _, err := harness.RunID(id, harness.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return art.(R)
}

// BenchmarkCost regenerates the §7.3 hardware cost table. Reported
// metric: Venice's share of an 8-core Haswell-EP die (paper: ~2%).
func BenchmarkCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.CostTable()
		if len(t.Rows) == 0 {
			b.Fatal("empty cost table")
		}
	}
}

// BenchmarkValidation regenerates the §4.2 prototype-vs-Xeon check.
func BenchmarkValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.ValidationResult](b, "validation")
		b.ReportMetric(r.Ratios[0], "bdb-proto-over-xeon-x")
	}
}

// BenchmarkAblationMSHR sweeps the core's miss-level parallelism — the
// design choice that makes CRMA streaming viable at all.
func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.AblationMSHRResult](b, "ablation-mshr")
		b.ReportMetric(float64(r.Times[0])/float64(r.Times[len(r.Times)-1]), "mlp-gain-x")
	}
}

// BenchmarkAblationReadahead sweeps the swap readahead window — what
// makes RDMA-swap win the contiguous patterns of Figs. 15 and 17.
func BenchmarkAblationReadahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.AblationReadaheadResult](b, "ablation-readahead")
		b.ReportMetric(float64(r.Times[0])/float64(r.Times[len(r.Times)-1]), "readahead-gain-x")
	}
}

// BenchmarkAblationWindow sweeps the QPair credit window under both
// credit paths.
func BenchmarkAblationWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.AblationWindowResult](b, "ablation-window")
		gain := (r.CRMAMBps[0] - r.QPairMBps[0]) / r.QPairMBps[0]
		b.ReportMetric(100*gain, "smallest-window-gain-%")
	}
}

// BenchmarkAblationGranularity locates the CRMA/RDMA crossover size.
func BenchmarkAblationGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runID[*experiments.AblationGranularityResult](b, "ablation-granularity")
		cross := float64(r.Sizes[len(r.Sizes)-1])
		for j := range r.Sizes {
			if r.RDMA[j] < r.CRMA[j] {
				cross = float64(r.Sizes[j])
				break
			}
		}
		b.ReportMetric(cross, "crossover-bytes")
	}
}
