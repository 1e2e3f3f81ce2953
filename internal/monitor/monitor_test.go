package monitor

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
)

// cluster is an 8-node 3D mesh with agents on every node and the MN on
// node 0 — the prototype configuration.
type cluster struct {
	eng    *sim.Engine
	p      sim.Params
	net    *fabric.Network
	nodes  []*node.Node
	agents []*Agent
	mn     *Monitor
}

func newCluster(tb testing.TB, dram uint64) *cluster {
	tb.Helper()
	eng := sim.New()
	tb.Cleanup(eng.Close)
	p := sim.Default()
	topo := fabric.Mesh3D(2, 2, 2)
	net := fabric.NewNetwork(eng, &p, topo, sim.NewRNG(42))
	c := &cluster{eng: eng, p: p, net: net}
	for i := 0; i < topo.N; i++ {
		n := node.New(eng, &p, net, fabric.NodeID(i), dram)
		c.nodes = append(c.nodes, n)
		a := NewAgent(n.EP, n.MemMgr, net)
		c.agents = append(c.agents, a)
	}
	c.mn = New(c.nodes[0].EP, topo)
	for _, a := range c.agents {
		a.Start(0)
	}
	return c
}

func TestHeartbeatsPopulateRRT(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(sim.Dur(1) * sim.Second)
	for i := 0; i < 8; i++ {
		r, ok := c.mn.Registered(fabric.NodeID(i))
		if !ok {
			t.Fatalf("node %d missing from RRT", i)
		}
		if r.IdleBytes != 1<<30 {
			t.Fatalf("node %d idle = %d, want full DRAM", i, r.IdleBytes)
		}
		if r.Beats < 2 {
			t.Fatalf("node %d beats = %d, want >= 2", i, r.Beats)
		}
		if !c.mn.NodeAlive(fabric.NodeID(i)) {
			t.Fatalf("node %d not alive", i)
		}
	}
}

func TestTSTTracksLinkFailure(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)
	if !c.mn.LinkUp(0, 1) {
		t.Fatal("link 0-1 should start up")
	}
	c.net.SetLinkDown(2, 3, true)
	c.eng.RunFor(1 * sim.Second)
	if c.mn.LinkUp(2, 3) {
		t.Fatal("TST did not record the 2-3 failure")
	}
	if !c.mn.LinkUp(0, 1) {
		t.Fatal("healthy link marked down")
	}
	c.net.SetLinkDown(2, 3, false)
	c.eng.RunFor(1 * sim.Second)
	if !c.mn.LinkUp(2, 3) {
		t.Fatal("TST did not record the 2-3 recovery")
	}
}

func TestMemoryAllocationFlow(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second) // let RRT fill

	recipient := c.nodes[7]
	const size = 256 << 20
	var resp *AllocResp
	recipient.Run("alloc", func(p *sim.Proc) {
		win := recipient.NextHotplugWindow(size)
		resp = recipient.EP.Call(p, 0, kindAlloc, 64,
			&AllocReq{Size: size, WindowBase: win}).(*AllocResp)
	})
	c.eng.RunFor(5 * sim.Second)

	if resp == nil || !resp.OK {
		t.Fatalf("allocation failed: %+v", resp)
	}
	// Distance policy: the donor must be one of node 7's mesh neighbors
	// (3, 5, 6 in a 2x2x2 mesh).
	if hop := c.net.HopCount(7, resp.Donor); hop != 1 {
		t.Fatalf("donor %v is %d hops away, policy is nearest-first", resp.Donor, hop)
	}
	// The donor's memory manager shows the donation.
	donor := c.nodes[resp.Donor]
	if donor.MemMgr.Removed() != size {
		t.Fatalf("donor removed = %d, want %d", donor.MemMgr.Removed(), size)
	}
	// RAT has the row.
	allocs := c.mn.Allocations()
	if len(allocs) != 1 || allocs[0].Donor != resp.Donor || allocs[0].Size != size {
		t.Fatalf("RAT = %+v", allocs)
	}
}

func TestAllocationRetryOnStaleRRT(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)

	// Consume almost all memory on node 7's nearest neighbors *after*
	// their heartbeats, making the RRT stale.
	for _, id := range []fabric.NodeID{3, 5, 6} {
		if err := c.nodes[id].MemMgr.Reserve(1<<30 - 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	recipient := c.nodes[7]
	const size = 256 << 20
	var resp *AllocResp
	recipient.Run("alloc", func(p *sim.Proc) {
		win := recipient.NextHotplugWindow(size)
		resp = recipient.EP.Call(p, 0, kindAlloc, 64,
			&AllocReq{Size: size, WindowBase: win}).(*AllocResp)
	})
	c.eng.RunFor(10 * sim.Second)

	if resp == nil || !resp.OK {
		t.Fatalf("allocation failed despite distant donors: %+v", resp)
	}
	if hop := c.net.HopCount(7, resp.Donor); hop < 2 {
		t.Fatalf("donor %v should be a distant node after retries", resp.Donor)
	}
	if c.mn.Stats.Get("alloc.retries") == 0 {
		t.Fatal("no retries recorded despite stale RRT rows")
	}
}

func TestAllocationFailsWhenNothingFits(t *testing.T) {
	c := newCluster(t, 1<<26) // 64 MiB nodes
	c.eng.RunFor(1 * sim.Second)
	recipient := c.nodes[1]
	var resp *AllocResp
	recipient.Run("alloc", func(p *sim.Proc) {
		resp = recipient.EP.Call(p, 0, kindAlloc, 64,
			&AllocReq{Size: 1 << 30, WindowBase: 1 << 30}).(*AllocResp)
	})
	c.eng.RunFor(5 * sim.Second)
	if resp == nil || resp.OK {
		t.Fatalf("oversized allocation should fail, got %+v", resp)
	}
	if resp.Err == "" {
		t.Fatal("failure carries no error text")
	}
}

func TestFreeMemoryReturnsToDonor(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)
	recipient := c.nodes[7]
	const size = 128 << 20
	recipient.Run("alloc-free", func(p *sim.Proc) {
		win := recipient.NextHotplugWindow(size)
		resp := recipient.EP.Call(p, 0, kindAlloc, 64,
			&AllocReq{Size: size, WindowBase: win}).(*AllocResp)
		if !resp.OK {
			t.Errorf("alloc failed: %s", resp.Err)
			return
		}
		donor := c.nodes[resp.Donor]
		if donor.MemMgr.Removed() != size {
			t.Errorf("donation not recorded")
		}
		recipient.EP.Call(p, 0, kindFree, 16, &FreeReq{AllocID: resp.AllocID})
		if donor.MemMgr.Removed() != 0 {
			t.Errorf("donor still shows %d removed after free", donor.MemMgr.Removed())
		}
	})
	c.eng.RunFor(15 * sim.Second)
	if len(c.mn.Allocations()) != 0 {
		t.Fatalf("RAT not empty after free: %+v", c.mn.Allocations())
	}
}

func TestDeviceAllocation(t *testing.T) {
	c := newCluster(t, 1<<30)
	// Node 2 advertises two accelerators; node 4 one NIC.
	c.agents[2].Devices[DevAccelerator] = 2
	c.agents[4].Devices[DevNIC] = 1
	c.eng.RunFor(1 * sim.Second)

	requester := c.nodes[0]
	var acc1, acc2, acc3 *AllocResp
	var nic *AllocResp
	requester.Run("devs", func(p *sim.Proc) {
		acc1 = requester.EP.Call(p, 0, kindAlloc, 16, &AllocReq{Res: DevAccelerator}).(*AllocResp)
		acc2 = requester.EP.Call(p, 0, kindAlloc, 16, &AllocReq{Res: DevAccelerator}).(*AllocResp)
		acc3 = requester.EP.Call(p, 0, kindAlloc, 16, &AllocReq{Res: DevAccelerator}).(*AllocResp)
		nic = requester.EP.Call(p, 0, kindAlloc, 16, &AllocReq{Res: DevNIC}).(*AllocResp)
	})
	c.eng.RunFor(5 * sim.Second)
	if !acc1.OK || acc1.Donor != 2 || !acc2.OK || acc2.Donor != 2 {
		t.Fatalf("accelerator allocs: %+v %+v", acc1, acc2)
	}
	if acc3.OK {
		t.Fatal("third accelerator granted but only two exist")
	}
	if !nic.OK || nic.Donor != 4 {
		t.Fatalf("nic alloc: %+v", nic)
	}
	// Free one accelerator; it becomes grantable again.
	requester.Run("refree", func(p *sim.Proc) {
		requester.EP.Call(p, 0, kindFree, 16, &FreeReq{AllocID: acc1.AllocID})
		again := requester.EP.Call(p, 0, kindAlloc, 16, &AllocReq{Res: DevAccelerator}).(*AllocResp)
		if !again.OK {
			t.Error("freed accelerator not re-grantable")
		}
	})
	c.eng.RunFor(5 * sim.Second)
}

// TestRegisteredIsACopy checks that a row Registered hands out keeps
// the counts it was read with: the MN updates its own row's device map
// in place, on grants and on every heartbeat, never the caller's copy.
func TestRegisteredIsACopy(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.agents[2].Devices[DevAccelerator] = 2
	c.eng.RunFor(1 * sim.Second)
	held, ok := c.mn.Registered(2)
	if !ok || held.Devices[DevAccelerator] != 2 {
		t.Fatalf("node 2's row = %+v, want 2 accelerators", held)
	}
	var resp *AllocResp
	c.nodes[0].Run("grant", func(p *sim.Proc) {
		resp = c.nodes[0].EP.Call(p, 0, kindAlloc, 16, &AllocReq{Res: DevAccelerator}).(*AllocResp)
	})
	for _, d := range []sim.Dur{sim.Millisecond, sim.Second} {
		c.eng.RunFor(d)
		if resp == nil || !resp.OK || resp.Donor != 2 {
			t.Fatalf("grant = %+v, want one accelerator from node 2", resp)
		}
		if now, _ := c.mn.Registered(2); now.Devices[DevAccelerator] != 1 {
			t.Fatalf("after the grant the MN's row reads %d accelerators, want 1", now.Devices[DevAccelerator])
		}
		if got := held.Devices[DevAccelerator]; got != 2 {
			t.Fatalf("held row reads %d accelerators after the grant, want 2", got)
		}
	}
}

// TestHeartbeatCarriesDevicesAsSent checks that a beat reports the
// agent's device counts as of its send, even when Devices changes while
// the beat is in flight, and that the next beat reports the change.
func TestHeartbeatCarriesDevicesAsSent(t *testing.T) {
	c := newCluster(t, 1<<30)
	a := c.agents[7] // three hops from the MN; its first beat leaves at 8 ms
	a.Devices[DevNIC] = 1
	c.eng.RunUntil(sim.Time(0).Add(8 * sim.Millisecond))
	if _, ok := c.mn.Registered(7); ok {
		t.Fatal("test premise broken: node 7's first beat landed at its send instant")
	}
	a.Devices[DevNIC] = 5
	c.eng.RunFor(sim.Millisecond)
	if r, ok := c.mn.Registered(7); !ok || r.Devices[DevNIC] != 1 {
		t.Fatalf("first beat registered %+v, want the 1 NIC it was sent with", r)
	}
	c.eng.RunFor(a.Interval)
	if r, _ := c.mn.Registered(7); r.Devices[DevNIC] != 5 {
		t.Fatalf("next beat registered %d NICs, want 5", r.Devices[DevNIC])
	}
}

// TestHeartbeatSteadyStateAllocs is the heartbeat path's allocation
// gate. Once warm, a beat allocates its report and its link-probe slice:
// its two packets go back to their senders' lists, the MN serves it
// without a proc and copies the device counts into its own row, the
// call keeps its Completion, and an agent whose Devices has not changed
// resends the same snapshot.
func TestHeartbeatSteadyStateAllocs(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.agents[2].Devices[DevAccelerator] = 2
	c.agents[4].Devices[DevNIC] = 1
	for _, a := range c.agents {
		a.Interval = 100 * sim.Microsecond
	}
	c.eng.RunFor(20 * sim.Millisecond)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	beats := c.mn.Stats.Get("heartbeats")
	runtime.ReadMemStats(&before)
	c.eng.RunFor(20 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	beats = c.mn.Stats.Get("heartbeats") - beats
	if beats < 1000 {
		t.Fatalf("only %d beats in the window", beats)
	}
	// Mallocs counts the whole process, so allow one stray allocation
	// elsewhere per hundred beats; a warm beat itself makes exactly 2.
	if got := float64(after.Mallocs-before.Mallocs) / float64(beats); got > 2.01 {
		t.Fatalf("steady-state beat allocates %.3f objects, want <= 2", got)
	}
}

// BenchmarkHeartbeat measures one warm heartbeat round trip on the
// 8-node mesh: the report and its link probes, the MN's RRT and TST
// update, and the ack. Once the agents' own loops have stopped, one proc
// drives the beats, cycling through the agents.
func BenchmarkHeartbeat(b *testing.B) {
	c := newCluster(b, 1<<30)
	c.agents[2].Devices[DevAccelerator] = 2
	c.agents[4].Devices[DevNIC] = 1
	c.eng.RunFor(1 * sim.Second)
	for _, a := range c.agents {
		a.Stop()
	}
	c.eng.Run()
	beats := func(n int) {
		c.eng.Go("beats", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.agents[i%len(c.agents)].beat(p)
			}
		})
		c.eng.Run()
	}
	beats(1000)
	b.ReportAllocs()
	b.ResetTimer()
	beats(b.N)
}

func TestNodeDeathDetectedByMissedHeartbeats(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)
	if !c.mn.NodeAlive(5) {
		t.Fatal("node 5 should be alive")
	}
	c.agents[5].Stop()
	c.eng.RunFor(5 * sim.Second)
	if c.mn.NodeAlive(5) {
		t.Fatal("node 5 should be presumed dead after missed heartbeats")
	}
	// Dead nodes are not donor candidates.
	recipient := c.nodes[4] // node 5 is its neighbor
	var resp *AllocResp
	recipient.Run("alloc", func(p *sim.Proc) {
		win := recipient.NextHotplugWindow(1 << 20)
		resp = recipient.EP.Call(p, 0, kindAlloc, 64,
			&AllocReq{Size: 1 << 20, WindowBase: win}).(*AllocResp)
	})
	c.eng.RunFor(5 * sim.Second)
	if resp == nil || !resp.OK {
		t.Fatalf("alloc failed: %+v", resp)
	}
	if resp.Donor == 5 {
		t.Fatal("dead node chosen as donor")
	}
}

func TestDeviceKindString(t *testing.T) {
	if DevAccelerator.String() != "accelerator" || DevNIC.String() != "nic" {
		t.Fatal("device kind names wrong")
	}
	if Resource(9).String() != "unknown" {
		t.Fatal("unknown kind name wrong")
	}
}

// TestResourceMarshalsByName: RAT rows, and the /state snapshots built
// from them, spell each row's resource by name.
func TestResourceMarshalsByName(t *testing.T) {
	for res, want := range map[Resource]string{Memory: "memory", DevAccelerator: "accelerator", DevNIC: "nic"} {
		b, err := json.Marshal(Allocation{Kind: res})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"Kind":"`+want+`"`) {
			t.Errorf("%v row marshals as %s, want Kind %q", res, b, want)
		}
	}
}
