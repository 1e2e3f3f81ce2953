package core

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
)

// grantStep is one pinned protocol step: the virtual time the Acquire
// (or Release) returned at, and the fabric's cumulative link bytes then.
type grantStep struct {
	op        string
	at        sim.Time
	linkBytes int64
}

// grantScript acquires and releases one lease of each MN-brokered kind
// in turn on pl, recording every step's completion time and cumulative
// link bytes. opts is appended to every request.
func grantScript(t *testing.T, pl Plane, eng *sim.Engine, net *fabric.Network, app *node.Node, opts ...Option) []grantStep {
	t.Helper()
	client := accel.NewClient(app)
	var steps []grantStep
	mark := func(op string, p *sim.Proc) {
		steps = append(steps, grantStep{op: op, at: p.Now(), linkBytes: net.TotalLinkStats().Bytes})
	}
	reqs := []struct {
		name string
		req  Request
	}{
		{"memory", NewRequest(Memory, app, 64<<20, opts...)},
		{"swap", NewRequest(Swap, app, 32<<20, opts...)},
		{"accel", NewRequest(Accel, app, 0, append([]Option{WithClient(client)}, opts...)...)},
		{"nic", NewRequest(NIC, app, 0, opts...)},
	}
	done := app.Run("grant-script", func(p *sim.Proc) {
		for _, r := range reqs {
			l, err := pl.Acquire(p, r.req)
			if err != nil {
				t.Errorf("acquire %s: %v", r.name, err)
				return
			}
			mark("acquire "+r.name, p)
			l.Release(p)
			mark("release "+r.name, p)
		}
	})
	for !done.Done() && eng.Step() {
	}
	if !done.Done() {
		t.Fatal("grant script wedged")
	}
	return steps
}

// TestGrantProtocolVirtualCost pins the virtual cost of the MN grant
// protocol: one lease of each kind acquired and released on a flat
// cluster, then one delegated cross-rack lease of each MN-brokered kind
// on a two-rack cluster. The wire sizes differ per resource (memory
// requests and responses carry a window and a donor base, device ones
// do not), so charging one size for every resource moves these times
// and byte counts.
func TestGrantProtocolVirtualCost(t *testing.T) {
	flat := NewCluster(Config{StartAgents: true, Seed: 3})
	t.Cleanup(flat.Close)
	advertiseFarm(t, flat.Node(2), flat.Agents[2])
	flat.RunFor(10 * sim.Millisecond)
	flatSteps := grantScript(t, flat, flat.Eng, flat.Net, flat.Node(7))

	hier := NewHierCluster(HierConfig{
		Racks: 2, RackX: 2, RackY: 2, RackZ: 1, Seed: 3,
		HeartbeatInterval: 100 * sim.Microsecond,
		RackBeatInterval:  200 * sim.Microsecond,
	})
	t.Cleanup(hier.Close)
	far := hier.Hier.RackNodes(1)[2]
	advertiseFarm(t, hier.Node(int(far)), hier.Agents[far])
	hier.RunFor(30 * sim.Millisecond)
	hierSteps := grantScript(t, hier, hier.Eng, hier.Net, hier.Node(int(hier.Hier.RackNodes(0)[1])),
		WithScope(monitor.ScopeRemoteRack))
	if got := hier.Root.Stats.Get("root.delegated"); got != 4 {
		t.Errorf("root delegated %d leases, want 4 (one per kind)", got)
	}

	// Every step must land on exactly this nanosecond and link byte
	// count.
	checkSteps(t, "flat", flatSteps, []grantStep{
		{"acquire memory", 14015178, 1440},
		{"release memory", 18029777, 1656},
		{"acquire swap", 20044955, 2232},
		{"release swap", 22059554, 2448},
		{"acquire accel", 22068338, 2592},
		{"release accel", 22077005, 2664},
		{"acquire nic", 22085789, 2808},
		{"release nic", 22094456, 2880},
	})
	checkSteps(t, "hier", hierSteps, []grantStep{
		{"acquire memory", 34012173, 174864},
		{"release memory", 38023858, 200088},
		{"acquire swap", 40036031, 213032},
		{"release swap", 42047716, 225808},
		{"acquire accel", 42056756, 226184},
		{"release accel", 42065475, 226288},
		{"acquire nic", 42074515, 226592},
		{"release nic", 42083234, 226696},
	})
}

// checkSteps compares a recorded grant script against its pinned steps.
func checkSteps(t *testing.T, plane string, got, want []grantStep) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: recorded %d steps, want %d: %+v", plane, len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s step %d: got {%q at %d, %d link bytes}, want {%q at %d, %d link bytes}",
				plane, i, got[i].op, got[i].at, got[i].linkBytes, want[i].op, want[i].at, want[i].linkBytes)
		}
	}
}

// TestSwapLeasesFromOneDonorReturnEveryRegion: a donor's agent keys its
// exports by (recipient, window), so two MN-brokered swap leases one
// recipient takes from the same donor must carry distinct windows.
// Releasing both then hands every region back — a shared window made
// the second export overwrite the first and leaked one region for good.
func TestSwapLeasesFromOneDonorReturnEveryRegion(t *testing.T) {
	topo := fabric.Mesh3D(2, 1, 1)
	c := NewCluster(Config{Topology: &topo, StartAgents: true})
	t.Cleanup(c.Close)
	c.RunFor(10 * sim.Millisecond)
	donor, app := c.Node(0), c.Node(1)
	idle := donor.MemMgr.Idle()
	done := app.Run("two-swaps", func(p *sim.Proc) {
		var leases []Lease
		for i := 0; i < 2; i++ {
			l, err := c.Acquire(p, NewRequest(Swap, app, 32<<20))
			if err != nil {
				t.Errorf("swap lease %d: %v", i, err)
				return
			}
			if l.Donor() != donor.ID {
				t.Errorf("swap lease %d granted by %v, want %v", i, l.Donor(), donor.ID)
			}
			leases = append(leases, l)
		}
		for _, l := range leases {
			l.Release(p)
		}
	})
	for !done.Done() && c.Eng.Step() {
	}
	if !done.Done() {
		t.Fatal("swap script wedged")
	}
	if got := donor.MemMgr.Idle(); got != idle {
		t.Errorf("donor idle after both releases = %d, want %d (%d bytes leaked)", got, idle, int64(idle)-int64(got))
	}
	if got := c.Agents[0].Stats.Get("hotreturn.stale"); got != 0 {
		t.Errorf("donor agent refused %d hot-returns as stale, want 0", got)
	}
}
