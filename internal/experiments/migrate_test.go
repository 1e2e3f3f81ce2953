package experiments

import "testing"

// TestMigrateFindings asserts the experiment's two acceptance claims at
// the qualitative level: telemetry + migration beats frozen distance
// placement on the pressured tier's tail, and spare pools collapse
// recovery latency on the churn cell.
func TestMigrateFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("full migrate-smoke cells are the acceptance run; skipped under -short")
	}
	r := runSpec("migrate-smoke", migrateSmokeSpec()).(*MigrateResult)
	base, hot := r.Serving.Cell("tier/distance/n8/u0.90"), r.Serving.Cell("tier/telemetry/n8/u0.90")
	if base == nil || hot == nil {
		t.Fatal("serving comparison cells missing")
	}
	if hot.P99 >= base.P99 {
		t.Fatalf("telemetry+migration p99 %v not below distance p99 %v", hot.P99, base.P99)
	}
	cold, warm := r.Churn.Cell("churn/cold/n4/fast"), r.Churn.Cell("churn/spares/n4/fast")
	if cold == nil || warm == nil {
		t.Fatal("churn comparison cells missing")
	}
	if warm.RecoverMeanNS >= cold.RecoverMeanNS/10 {
		t.Fatalf("spare-pool recovery mean %vns not an order of magnitude under cold %vns",
			warm.RecoverMeanNS, cold.RecoverMeanNS)
	}
	if warm.GoodputRPS <= cold.GoodputRPS {
		t.Fatalf("spare pools did not recover goodput: %v vs %v", warm.GoodputRPS, cold.GoodputRPS)
	}
	t.Logf("\n%s", r.String())
}
