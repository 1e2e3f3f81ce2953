package experiments

import "testing"

// churnTestCells picks the matrix by -short, like the other experiment
// tests.
func churnTestCells(t *testing.T) []cell {
	if testing.Short() {
		return churnCellsShort()
	}
	return churnCellsFull()
}

// TestChurnFindings asserts the sweep's qualitative findings: the
// control cell is clean, fault rate degrades goodput monotonically, the
// 8-node mesh absorbs churn the 4-node mesh cannot, and recovery is
// hot-plug dominated.
func TestChurnFindings(t *testing.T) {
	r := runCells(t, churnSweep, churnTestCells(t))
	for _, c := range r.Cells {
		if c.Hist.N() == 0 {
			t.Fatalf("cell %s recorded no latencies", c.ID)
		}
		if !(c.P50 <= c.P99 && c.P99 <= c.P999) {
			t.Fatalf("cell %s quantiles disordered: %v %v %v", c.ID, c.P50, c.P99, c.P999)
		}
		if c.Fault == "none" {
			if c.Crashes != 0 || c.FailedFrac != 0 || c.UnavailMS != 0 {
				t.Fatalf("control cell %s saw faults: %+v", c.ID, c)
			}
		} else {
			if c.Crashes == 0 || c.Recoveries == 0 {
				t.Fatalf("faulted cell %s shows no recovery activity: %+v", c.ID, c)
			}
			// Recovery latency is hot-plug dominated: ~2ms, under 4ms.
			if c.RecoverMeanNS <= 0 || c.RecoverMeanNS > 4e6 {
				t.Fatalf("cell %s recovery mean %vns out of the hot-plug-dominated range", c.ID, c.RecoverMeanNS)
			}
		}
	}
	// Churn costs goodput; the same fault rate costs the small mesh more.
	quiet, fast4 := r.Cell("churn/distance/n4/none"), r.Cell("churn/distance/n4/fast")
	fast8 := r.Cell("churn/distance/n8/fast")
	if quiet == nil || fast4 == nil || fast8 == nil {
		t.Fatal("churn comparison cells missing from sweep")
	}
	if fast4.GoodputRPS >= quiet.GoodputRPS {
		t.Fatalf("fast churn did not cost goodput: %v faulted vs %v quiet", fast4.GoodputRPS, quiet.GoodputRPS)
	}
	if fast8.GoodputRPS <= fast4.GoodputRPS {
		t.Fatalf("8-node mesh did not absorb churn better: %v vs %v on 4 nodes",
			fast8.GoodputRPS, fast4.GoodputRPS)
	}
	if !testing.Short() {
		slow4 := r.Cell("churn/distance/n4/slow")
		if slow4.GoodputRPS <= fast4.GoodputRPS {
			t.Fatalf("goodput not monotone in fault rate: slow %v <= fast %v",
				slow4.GoodputRPS, fast4.GoodputRPS)
		}
	}
	t.Logf("\n%s", r.Table.String())
}
