package experiments

import "repro/internal/harness"

// The registration order is the paper's presentation order (what
// venice-bench runs with no arguments), followed by the exploratory
// ablations.
func init() {
	harness.Register("table1", table1Spec())
	harness.Register("fig3", fig3Spec())
	harness.Register("fig5", fig5Spec())
	harness.Register("fig6", fig6Spec(fig5Configs))
	harness.Register("fig14", fig14Spec())
	harness.Register("fig15", fig15Spec(fig15Workloads))
	harness.Register("fig16a", fig16aSpec())
	harness.Register("fig16b", fig16bSpec())
	harness.Register("fig17", fig17Spec())
	harness.Register("fig18", fig18Spec())
	harness.Register("cost", costSpec())
	harness.Register("validation", validationSpec())
	harness.Register("serving", servingSweep.spec("Serving — open-loop load × node count × sharing policy sweep", servingCellsFull()))
	harness.Register("serving-smoke", servingSweep.spec("Serving — smoke cell (bench-regression CI gate)", servingSmokeCells()))
	harness.Register("serving-scale", servingSweep.spec("Serving at rack scale — node count × rack size × cross-rack fraction", servingScaleCells()))
	harness.Register("scale-smoke", servingSweep.spec("Serving at rack scale — smoke cell (bench-regression CI gate)", scaleSmokeCells()))
	harness.Register("serving-churn", churnSweep.spec("Serving churn — mesh size × fault rate × sharing policy", churnCellsFull()))
	harness.Register("churn-smoke", churnSweep.spec("Serving churn — smoke cell (bench-regression CI gate)", churnSmokeCells()))
	harness.Register("serving-inference", inferSweep.spec("Serving inference — load × fault rate × rack count × cross-rack fraction", inferCellsFull()))
	harness.Register("inference-smoke", inferSweep.spec("Serving inference — smoke cell (bench-regression CI gate)", inferSmokeCells()))
	harness.Register("migrate-smoke", migrateSmokeSpec())
	harness.Register("engine-smoke", engineSmokeSpec())
	harness.Register("serving-tenancy", tenancySweep.spec("Serving tenancy — SLO classes × offered load", tenancyCellsFull()))
	harness.Register("tenancy-smoke", tenancySweep.spec("Serving tenancy — smoke cell (bench-regression CI gate)", tenancySmokeCells()))
	harness.Register("ablation-mshr", ablationMSHRSpec(ablationMSHRs))
	harness.Register("ablation-readahead", ablationReadaheadSpec())
	harness.Register("ablation-window", ablationWindowSpec())
	harness.Register("ablation-granularity", ablationGranularitySpec())
}
