package experiments

import (
	"testing"

	"repro/internal/serving"
)

// TestInferenceFindings asserts the sweep's qualitative findings on a
// small subset: the control cell is clean, the faulted cell shows both
// crashes and device-lease failovers without losing a request, and
// cross-rack accelerator leases cost service time on the oversubscribed
// spine.
func TestInferenceFindings(t *testing.T) {
	cells := []cell{
		inferFlatCell(8, 0.7, serving.FaultNone, 200, 1),
		inferFlatCell(8, 0.7, serving.FaultFast, 200, 2),
		inferHierCell(2, 0, 120, 1),
		inferHierCell(2, 1, 120, 1),
	}
	r := runCells(t, inferSweep, cells)
	for _, c := range r.Cells {
		if c.Hist.N() == 0 {
			t.Fatalf("cell %s recorded no latencies", c.ID)
		}
		if !(c.P50 <= c.P99 && c.P99 <= c.P999) {
			t.Fatalf("cell %s quantiles disordered: %v %v %v", c.ID, c.P50, c.P99, c.P999)
		}
	}
	quiet := r.Cell("infer/flat/n8/none/u70")
	fast := r.Cell("infer/flat/n8/fast/u70")
	local := r.Cell("infer/hier/r2/cf00")
	cross := r.Cell("infer/hier/r2/cf100")
	if quiet == nil || fast == nil || local == nil || cross == nil {
		t.Fatalf("comparison cells missing from %v", r.Cells)
	}
	if quiet.Crashes != 0 || quiet.DevFailovers != 0 {
		t.Fatalf("control cell saw faults: %+v", quiet)
	}
	if fast.Crashes == 0 || fast.DevFailovers == 0 {
		t.Fatalf("faulted cell shows no device-plane recovery: %+v", fast)
	}
	// Both shards of the faulted cell completed every request: the merged
	// histogram holds shards x requests entries.
	if n := fast.Hist.N(); n != 2*200 {
		t.Fatalf("faulted cell histogram has %d entries, want 400 (requests lost?)", n)
	}
	if cross.ServiceNS <= local.ServiceNS {
		t.Fatalf("cross-rack leases did not cost service time: %.0fns vs %.0fns",
			cross.ServiceNS, local.ServiceNS)
	}
	t.Logf("\n%s", r.Table.String())
}
