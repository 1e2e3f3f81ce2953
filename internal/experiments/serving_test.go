package experiments

import (
	"testing"

	"repro/internal/serving"
)

// servingTestCells picks the matrix by -short, like the other
// experiment tests.
func servingTestCells(t *testing.T) []cell[serving.Config] {
	if testing.Short() {
		return servingCellsShort()
	}
	return servingCellsFull()
}

// TestServingFindings asserts the scenario's qualitative findings on
// the assembled sweep: open-loop delivery near the offered rate,
// scale-out across the mesh, and the co-located-tenant pressure that
// fattens the cache tier's tail.
func TestServingFindings(t *testing.T) {
	r := runCells(t, servingSweep, servingTestCells(t))
	for _, c := range r.Cells {
		if c.Hist.N() == 0 {
			t.Fatalf("cell %s recorded no latencies", c.ID)
		}
		if !(c.P50 <= c.P90 && c.P90 <= c.P99 && c.P99 <= c.P999) {
			t.Fatalf("cell %s quantiles disordered: %v %v %v %v", c.ID, c.P50, c.P90, c.P99, c.P999)
		}
	}
	// Scale-out: the 8-node mesh offers and achieves several times the
	// 2-node throughput at the same per-server utilization.
	small, big := r.Cell("kv/n2/u0.90"), r.Cell("kv/n8/u0.90")
	if small == nil || big == nil {
		t.Fatal("kv scale cells missing from sweep")
	}
	if big.AchievedRPS < 3*small.AchievedRPS {
		t.Fatalf("8-node kv tier achieves %.0f rps, want >= 3x the 2-node %.0f rps",
			big.AchievedRPS, small.AchievedRPS)
	}
	// Co-located tenant pressure moves the cache tier's tail.
	quiet, loud := r.Cell("tier/quiet/n8/u0.90"), r.Cell("tier/distance/n8/u0.90")
	if quiet == nil || loud == nil {
		t.Fatal("tier pressure cells missing from sweep")
	}
	if loud.P99 <= quiet.P99 {
		t.Fatalf("tenant pressure did not move the tier p99: %v with tenants vs %v quiet",
			loud.P99, quiet.P99)
	}
	if !testing.Short() {
		// Load moves the tail disproportionately: at 0.9 utilization the
		// kv p99 is further from its p50 than at 0.6.
		lo, hi := r.Cell("kv/n8/u0.60"), r.Cell("kv/n8/u0.90")
		if float64(hi.P99)/float64(hi.P50) <= float64(lo.P99)/float64(lo.P50) {
			t.Fatalf("p99/p50 did not widen with load: %.2f @0.9 vs %.2f @0.6",
				float64(hi.P99)/float64(hi.P50), float64(lo.P99)/float64(lo.P50))
		}
		// Burstiness at the same mean rate fattens the extreme tail.
		pois, mmpp := r.Cell("tier/distance/n8/u0.90"), r.Cell("tier/distance-mmpp/n8/u0.90")
		if mmpp.P999 <= pois.P999 {
			t.Fatalf("MMPP p999 %v not above Poisson p999 %v", mmpp.P999, pois.P999)
		}
	}
	t.Logf("\n%s", r.Table.String())
}
