package experiments

import (
	"testing"

	"repro/internal/tenancy"
)

// TestTenancyFindings asserts the sweep's qualitative findings — the
// acceptance criteria of the tenancy plane — on a saturated cell: the
// Latency class is held whole (zero lost sessions, low SLO-miss rate)
// while the Preemptible class absorbs the pressure as preemptions and
// rejections.
func TestTenancyFindings(t *testing.T) {
	r := runCells(t, tenancySweep, []cell{tenancySweepCell(0.9, 240, 2)})
	c := r.Cell("tenancy/u090")
	if c == nil {
		t.Fatalf("cell missing from %v", r.Cells)
	}
	lat := c.PerClass[tenancy.Latency]
	pre := c.PerClass[tenancy.Preemptible]
	if lat.Offered == 0 || pre.Offered == 0 {
		t.Fatalf("class mix broken: latency %d, preemptible %d offered", lat.Offered, pre.Offered)
	}
	if lat.Rejected != 0 {
		t.Fatalf("Latency class lost %d of %d sessions", lat.Rejected, lat.Offered)
	}
	if rate := lat.SLOMissRate(); rate > 0.1 {
		t.Fatalf("Latency SLO-miss rate %.3f, want held under 0.1", rate)
	}
	if c.Preemptions == 0 {
		t.Fatal("saturated cell recorded no preemptions; the pressure valve never engaged")
	}
	if pre.Rejected == 0 {
		t.Fatal("Preemptible class absorbed no rejections despite saturation")
	}
	if lat.Goodput() <= pre.Goodput() {
		t.Fatalf("class lattice inverted: latency goodput %.3f <= preemptible %.3f",
			lat.Goodput(), pre.Goodput())
	}
	if c.Fairness <= 0 || c.Fairness > 1 {
		t.Fatalf("Jain fairness = %v, want in (0, 1]", c.Fairness)
	}
	for _, cl := range tenancy.Classes() {
		pc := c.PerClass[cl]
		if pc.Completed > 0 && pc.P50 > pc.P99 {
			t.Fatalf("class %s quantiles disordered: %v > %v", cl, pc.P50, pc.P99)
		}
	}
	t.Logf("\n%s", r.Table.String())
}
