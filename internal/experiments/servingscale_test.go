package experiments

import (
	"testing"

	"repro/internal/serving"
)

// scaleTestCells is the reduced matrix: the smoke cell plus the
// cheapest two-rack full-cross cell, so both the delegation path and
// the multi-shard merge stay exercised.
func scaleTestCells() []cell[serving.Config] {
	extra := scaleCell(2, 8, 0)
	extra.Cfg.Requests = scaleSmokeRequests
	return append(scaleSmokeCells(), extra)
}

// TestScaleSweepFindings runs the reduced matrix once and checks the
// qualitative finding the full sweep reports: the cross-rack cell pays
// a visible median penalty over the rack-local one.
func TestScaleSweepFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("two rack-scale cells")
	}
	res := runCells(t, servingSweep, scaleTestCells())
	crossed := res.Cell("scale/n16/r8/x0.50")
	local := res.Cell("scale/n16/r8/x0.00")
	if crossed == nil || local == nil {
		t.Fatalf("cells missing from sweep:\n%s", res)
	}
	if crossed.P50 <= local.P50 {
		t.Fatalf("cross-rack p50 %v not above rack-local %v:\n%s", crossed.P50, local.P50, res)
	}
}
