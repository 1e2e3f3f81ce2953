package monitor

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func TestMostIdlePolicyPicksLargestDonor(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.Policy = policyNamed(t, "most-idle")
	c.eng.RunFor(1 * sim.Second)
	// Consume memory everywhere except node 2 (far from requester 7).
	for i := 1; i < 8; i++ {
		if i == 2 || i == 7 {
			continue
		}
		if err := c.nodes[i].MemMgr.Reserve(1 << 29); err != nil {
			t.Fatal(err)
		}
	}
	c.eng.RunFor(1 * sim.Second) // refresh RRT
	recipient := c.nodes[7]
	var resp *AllocResp
	recipient.Run("alloc", func(p *sim.Proc) {
		win := recipient.NextHotplugWindow(1 << 20)
		resp, _ = Alloc(p, recipient.EP, 0, AllocReq{Size: 1 << 20, WindowBase: win}, 0)
	})
	c.eng.RunFor(5 * sim.Second)
	if resp == nil || !resp.OK {
		t.Fatalf("alloc failed: %+v", resp)
	}
	// Node 2 (and node 0, the MN, which also has full memory) are the
	// most idle; distance-first would have picked a neighbor of 7.
	if resp.Donor != 2 && resp.Donor != 0 {
		t.Fatalf("most-idle policy chose %v, want the emptiest node", resp.Donor)
	}
}

func TestTrafficAwarePolicySpreadsDonors(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.Policy = policyNamed(t, "traffic-aware")
	c.eng.RunFor(1 * sim.Second)
	recipient := c.nodes[7]
	donors := make(map[fabric.NodeID]int)
	recipient.Run("allocs", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			win := recipient.NextHotplugWindow(64 << 20)
			resp, _ := Alloc(p, recipient.EP, 0, AllocReq{Size: 64 << 20, WindowBase: win}, 0)
			if !resp.OK {
				t.Errorf("alloc %d failed: %s", i, resp.Err)
				return
			}
			donors[resp.Donor]++
		}
	})
	c.eng.RunFor(20 * sim.Second)
	if len(donors) < 3 {
		t.Fatalf("traffic-aware policy reused donors: %v (want 3 distinct)", donors)
	}
}

func TestDistanceFirstReusesNearestDonor(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)
	recipient := c.nodes[7]
	donors := make(map[fabric.NodeID]int)
	recipient.Run("allocs", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			win := recipient.NextHotplugWindow(64 << 20)
			resp, _ := Alloc(p, recipient.EP, 0, AllocReq{Size: 64 << 20, WindowBase: win}, 0)
			if !resp.OK {
				t.Errorf("alloc %d failed: %s", i, resp.Err)
				return
			}
			donors[resp.Donor]++
		}
	})
	c.eng.RunFor(20 * sim.Second)
	// Distance-first never leaves the requester's immediate neighborhood
	// while neighbors have idle memory (equidistant ties rotate by idle).
	if len(donors) == 0 {
		t.Fatal("no allocations made")
	}
	for d := range donors {
		if hop := c.net.HopCount(7, d); hop != 1 {
			t.Fatalf("donor %v is %d hops away; distance-first must stay at hop 1", d, hop)
		}
	}
}

// policyNamed resolves a row of the policies table by name.
func policyNamed(t *testing.T, name string) *Policy {
	t.Helper()
	pol, ok := PolicyByName(name)
	if !ok {
		t.Fatalf("no policy named %q", name)
	}
	return pol
}

// TestPolicyRegistryEnumerates pins the policies table as the single
// source of truth: the sweep order every scenario and venice-bench
// -list read, and name resolution including the prototype default.
func TestPolicyRegistryEnumerates(t *testing.T) {
	want := []string{"distance", "most-idle", "traffic-aware", "spread", "coolest-path"}
	got := PolicyNames()
	if len(got) != len(want) {
		t.Fatalf("PolicyNames = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PolicyNames = %v, want %v (sweep order is frozen)", got, want)
		}
		pol, ok := PolicyByName(want[i])
		if !ok || pol != &policies[i] || pol.name != want[i] {
			t.Fatalf("PolicyByName(%q) = %v,%v", want[i], pol, ok)
		}
	}
	// The empty string selects the prototype default.
	if pol, ok := PolicyByName(""); !ok || pol.name != "distance" {
		t.Fatalf("PolicyByName(\"\") = %v,%v; want distance", pol, ok)
	}
	if _, ok := PolicyByName("bogus"); ok {
		t.Fatal("unknown policy name resolved")
	}
	// Callers mutating the returned slice must not corrupt the table.
	got[0] = "clobbered"
	if PolicyNames()[0] != "distance" {
		t.Fatal("PolicyNames exposes the table's own names")
	}
}

// TestTrafficAwareTelemetryVsBlindBranches: the same candidates order
// differently depending on whether the View carries telemetry. Blind,
// the donor-count proxy rules (near donor with no leases wins); with
// telemetry, the measured path bottleneck overrides it and the proxy is
// retired (no double counting).
func TestTrafficAwareTelemetryVsBlindBranches(t *testing.T) {
	load := map[fabric.NodeID]int{1: 0, 2: 3}
	cands := func() []*Registration {
		return []*Registration{
			{Node: 1, IdleBytes: 1 << 30},
			{Node: 2, IdleBytes: 1 << 30},
		}
	}
	blind := synthView(nil)
	blind.Load = load
	cs := cands()
	trafficAware := policyNamed(t, "traffic-aware")
	trafficAware.order(blind, 0, cs)
	if cs[0].Node != 1 {
		t.Fatalf("blind branch chose %v; want 1 (fewest live allocations)", cs[0].Node)
	}
	// Same shape, but the path to donor 1 measures hot: telemetry wins
	// over the (now-retired) donor-count proxy.
	hot := synthView(map[[2]fabric.NodeID]float64{{0, 1}: 0.9})
	hot.Load = load
	cs = cands()
	trafficAware.order(hot, 0, cs)
	if cs[0].Node != 2 {
		t.Fatalf("telemetry branch chose %v; want 2 (cool path beats busy donor count)", cs[0].Node)
	}
}

// TestTrafficAwareCommitTermBreaksTies: two equidistant donors with idle
// paths — the one whose path carries fewer committed leases wins. This
// is the placement-time complement to the sampling window: a grant made
// moments ago is invisible to telemetry but already known to the MN.
func TestTrafficAwareCommitTermBreaksTies(t *testing.T) {
	v := synthView(map[[2]fabric.NodeID]float64{{6, 7}: 0.0}) // telemetry on, paths idle
	v.commits = map[[2]fabric.NodeID]int{linkKey(0, 1): 2}
	cs := []*Registration{
		{Node: 1, IdleBytes: 1 << 30},
		{Node: 2, IdleBytes: 1 << 30},
	}
	policyNamed(t, "traffic-aware").order(v, 0, cs)
	if cs[0].Node != 2 {
		t.Fatalf("chose %v; want 2 (no committed leases on its path)", cs[0].Node)
	}
}

// TestCoolestPathDegradesToDistance: without telemetry every path reads
// unknown-as-idle and the ordering is distance-first; with telemetry the
// cooler, farther path wins.
func TestCoolestPathDegradesToDistance(t *testing.T) {
	// Node 6 sits 2 hops from 0 and no shortest 0->6 path crosses link
	// 0-1 (node 1 is not on any), so heating 0-1 cannot leak onto it.
	cands := func() []*Registration {
		return []*Registration{
			{Node: 1, IdleBytes: 1 << 30}, // 1 hop from 0
			{Node: 6, IdleBytes: 1 << 30}, // 2 hops from 0
		}
	}
	coolestPath := policyNamed(t, "coolest-path")
	blind := synthView(nil)
	cs := cands()
	coolestPath.order(blind, 0, cs)
	if cs[0].Node != 1 {
		t.Fatalf("blind coolest-path chose %v; want nearest donor 1", cs[0].Node)
	}
	hot := synthView(map[[2]fabric.NodeID]float64{{0, 1}: 0.8})
	hot.Load = map[fabric.NodeID]int{}
	cs = cands()
	coolestPath.order(hot, 0, cs)
	if cs[0].Node != 6 {
		t.Fatalf("hot coolest-path chose %v; want 6 behind the cool path", cs[0].Node)
	}
}
