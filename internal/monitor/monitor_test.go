package monitor

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/transport"
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

// alloc runs one grant call from ep to the MN on node 0, in a record of
// its own, and returns the MN's answer; nil when none came.
func alloc(p *sim.Proc, ep *transport.Endpoint, req AllocReq) (*AllocResp, bool) {
	c := &AllocCall{Req: req}
	if !Alloc(p, ep, 0, c, 0) {
		return nil, false
	}
	return &c.Resp, true
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
		resp, _ = alloc(p, recipient.EP, AllocReq{Size: size, WindowBase: win})
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
		resp, _ = alloc(p, recipient.EP, AllocReq{Size: size, WindowBase: win})
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
		resp, _ = alloc(p, recipient.EP, AllocReq{Size: 1 << 30, WindowBase: 1 << 30})
	})
	c.eng.RunFor(5 * sim.Second)
	if resp == nil || resp.OK {
		t.Fatalf("oversized allocation should fail, got %+v", resp)
	}
	if resp.Rejected || resp.Granted != 0 {
		t.Fatalf("a no-donor decline of an undegraded request is %+v, want neither rejected nor degraded", resp)
	}
}

func TestFreeMemoryReturnsToDonor(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)
	recipient := c.nodes[7]
	const size = 128 << 20
	recipient.Run("alloc-free", func(p *sim.Proc) {
		win := recipient.NextHotplugWindow(size)
		resp, _ := alloc(p, recipient.EP, AllocReq{Size: size, WindowBase: win})
		if !resp.OK {
			t.Errorf("alloc failed: %+v", resp)
			return
		}
		donor := c.nodes[resp.Donor]
		if donor.MemMgr.Removed() != size {
			t.Errorf("donation not recorded")
		}
		Free(p, recipient.EP, 0, &FreeReq{AllocID: resp.AllocID})
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
		acc1, _ = alloc(p, requester.EP, AllocReq{Res: DevAccelerator})
		acc2, _ = alloc(p, requester.EP, AllocReq{Res: DevAccelerator})
		acc3, _ = alloc(p, requester.EP, AllocReq{Res: DevAccelerator})
		nic, _ = alloc(p, requester.EP, AllocReq{Res: DevNIC})
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
		Free(p, requester.EP, 0, &FreeReq{AllocID: acc1.AllocID})
		again, _ := alloc(p, requester.EP, AllocReq{Res: DevAccelerator})
		if !again.OK {
			t.Error("freed accelerator not re-grantable")
		}
	})
	c.eng.RunFor(5 * sim.Second)
}

// TestRegisteredIsACopy checks that a row Registered hands out keeps
// the counts it was read with: the MN updates its own row's device
// counts in place, on grants and on every heartbeat, never the caller's
// copy.
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
		resp, _ = alloc(p, c.nodes[0].EP, AllocReq{Res: DevAccelerator})
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

// TestAgentChainKeepsProcSlots pins where an agent's beat chain fires
// among other events at the same instants: its first tick, which a
// start event queues where a proc would have started; the continuation
// of its first beat, where the proc would have resumed from its call;
// and its next tick. At each instant an event queued at time 0, after
// Start ran but before its start event fired, chains two more, and each
// logs the beat packets node 1 has sent and the beats the agent has
// counted. The golden log was taken with the beat loop running in a
// proc; the chain must reproduce it. (Queuing the first tick straight
// from Start passes every other test and leaves the whole suite's
// output unchanged; this fails.)
func TestAgentChainKeepsProcSlots(t *testing.T) {
	want := []string{
		"tick-1 sent=0 beats=0", "tick-2 sent=1 beats=0", "tick-3 sent=1 beats=0",
		"ack-1 sent=1 beats=0", "ack-2 sent=1 beats=0", "ack-3 sent=1 beats=1",
		"next-1 sent=1 beats=1", "next-2 sent=2 beats=1", "next-3 sent=2 beats=1",
	}
	// The first run finds the instant the first beat's continuation
	// runs; the second surrounds the three instants with probes.
	var ack sim.Time
	agentSlotLog(t, func(eng *sim.Engine, a *Agent) {
		for a.Stats.Get("beats") == 0 && eng.Step() {
		}
		ack = eng.Now()
	})
	var got []string
	agentSlotLog(t, func(eng *sim.Engine, a *Agent) {
		link := a.Net.Link(1, 0)
		around := func(at sim.Time, name string) {
			note := func(i int) {
				got = append(got, fmt.Sprintf("%s-%d sent=%d beats=%d", name, i, link.Stats().Packets, a.Stats.Get("beats")))
			}
			eng.At(at, func() {
				note(1)
				eng.Schedule(0, func() {
					note(2)
					eng.Schedule(0, func() { note(3) })
				})
			})
		}
		eng.Schedule(0, func() {
			around(sim.Time(0).Add(2*sim.Millisecond), "tick") // node 1's first tick
			around(ack, "ack")
			around(ack.Add(a.Interval), "next")
		})
		eng.RunUntil(ack.Add(a.Interval + sim.Millisecond))
	})
	if !slices.Equal(got, want) {
		t.Fatalf("firing order:\n got %q\nwant %q", got, want)
	}
}

// agentSlotLog builds a Pair with the MN on node 0 and an agent on
// node 1, queues the agent's Start in an event at time 0, and hands the
// engine and agent to run, which drives the engine: an event run queues
// at time 0 fires after Start and before the start event Start queues.
func agentSlotLog(t *testing.T, run func(eng *sim.Engine, a *Agent)) {
	eng := sim.New()
	t.Cleanup(eng.Close)
	p := sim.Default()
	topo := fabric.Pair()
	net := fabric.NewNetwork(eng, &p, topo, sim.NewRNG(1))
	mn := node.New(eng, &p, net, 0, 1<<30)
	n := node.New(eng, &p, net, 1, 1<<30)
	New(mn.EP, topo)
	a := NewAgent(n.EP, n.MemMgr, net)
	eng.Schedule(0, func() { a.Start(0) })
	run(eng, a)
}

// TestHeartbeatSteadyStateAllocs is the heartbeat path's allocation
// gate. Once warm, an acked beat allocates nothing: the agent's beat
// loop is an event chain that refills one report and its probe slice,
// its call keeps its record and packets, the MN serves it without a
// proc, sets its row to the report's device counts less the units on
// loan (array arithmetic) and finds each link's TST row in the row's
// cache, and the report carries the agent's Devices by value.
//
// In the "late" row only node 1 beats, over a link slowed so that each
// beat outlasts its wait but lands before the next beat leaves: every
// beat times out, the MN folds its report, and the next beat refills
// that report instead of taking a fresh one.
func TestHeartbeatSteadyStateAllocs(t *testing.T) {
	for _, row := range []struct {
		name     string
		late     bool
		window   sim.Dur
		minBeats int64
	}{{"acked", false, 20 * sim.Millisecond, 1000}, {"late", true, 200 * sim.Millisecond, 900}} {
		t.Run(row.name, func(t *testing.T) {
			c := newCluster(t, 1<<30)
			c.agents[2].Devices[DevAccelerator] = 2
			c.agents[4].Devices[DevNIC] = 1
			for _, a := range c.agents {
				a.Interval = 100 * sim.Microsecond
			}
			if row.late {
				for i, a := range c.agents {
					if i != 1 {
						a.Stop()
					}
				}
				// A beat takes about 150 µs to serialize: it times out after
				// 100 µs, and the next leaves 200 µs after it.
				c.net.Link(1, 0).SetGbps(0.0055)
			}
			c.eng.RunFor(20 * sim.Millisecond)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			beats, lost := c.mn.Stats.Get("heartbeats"), c.agents[1].Stats.Get("beats.lost")
			runtime.ReadMemStats(&before)
			c.eng.RunFor(row.window)
			runtime.ReadMemStats(&after)
			beats = c.mn.Stats.Get("heartbeats") - beats
			lost = c.agents[1].Stats.Get("beats.lost") - lost
			if beats < row.minBeats {
				t.Fatalf("only %d beats in the window", beats)
			}
			if row.late && lost < beats-1 {
				t.Fatalf("test premise broken: %d of %d folded beats timed out", lost, beats)
			}
			// Mallocs counts the whole process, so allow one stray allocation
			// elsewhere per hundred beats; a warm beat itself makes none.
			if got := float64(after.Mallocs-before.Mallocs) / float64(beats); got > 0.01 {
				t.Fatalf("steady-state beat allocates %.3f objects, want 0", got)
			}
		})
	}
}

// TestTimedOutBeatReportIsNotReused: a beat whose wait times out may
// still be in flight, so the agent's next beat must not refill its
// report. Node 1's link to the MN is slowed so that one beat lands
// after its timeout and after the next beat leaves; the agent's idle
// bytes change in between. The MN must fold the late beat's own value.
func TestTimedOutBeatReportIsNotReused(t *testing.T) {
	c := newCluster(t, 1<<30)
	a, mm := c.agents[1], c.nodes[1].MemMgr
	a.Interval = 100 * sim.Microsecond
	c.eng.RunFor(20 * sim.Millisecond)
	// A beat now takes about 400 µs to serialize: it times out after
	// 100 µs, and the next one leaves 100 µs later.
	c.net.Link(1, 0).SetGbps(0.002)
	for a.Stats.Get("beats.lost") == 0 {
		c.eng.Step()
	}
	c.net.Link(1, 0).SetGbps(0)
	nextBeat := c.eng.Now().Add(a.Interval)
	sent := mm.Idle()
	if err := mm.Reserve(1 << 20); err != nil {
		t.Fatal(err)
	}
	reg, _ := c.mn.Registered(1)
	for beats := reg.Beats; reg.Beats == beats; reg, _ = c.mn.Registered(1) {
		c.eng.Step()
	}
	if c.eng.Now() <= nextBeat {
		t.Fatalf("test premise broken: the late beat landed at %v, before the next beat left at %v", c.eng.Now(), nextBeat)
	}
	if reg.IdleBytes != sent {
		t.Fatalf("the late beat registered %d idle bytes, want the %d it was sent with", reg.IdleBytes, sent)
	}
	c.eng.RunFor(sim.Millisecond)
	if reg, _ := c.mn.Registered(1); reg.IdleBytes != sent-1<<20 {
		t.Fatalf("the next beat registered %d idle bytes, want %d", reg.IdleBytes, sent-1<<20)
	}
}

// BenchmarkHeartbeat measures one warm heartbeat round trip on the
// 8-node mesh through the agents' own event chains: the report and its
// link probes, the MN's RRT and TST update, the ack, and the
// continuation that schedules the next tick. Each agent beats every
// 100 µs; the engine runs until b.N more beats have landed.
func BenchmarkHeartbeat(b *testing.B) {
	c := newCluster(b, 1<<30)
	c.agents[2].Devices[DevAccelerator] = 2
	c.agents[4].Devices[DevNIC] = 1
	for _, a := range c.agents {
		a.Interval = 100 * sim.Microsecond
	}
	c.eng.RunFor(20 * sim.Millisecond)
	want := c.mn.Stats.Get("heartbeats") + int64(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for c.mn.Stats.Get("heartbeats") < want {
		c.eng.RunFor(10 * sim.Microsecond)
	}
}

// BenchmarkGrant measures one warm distance-first memory grant and its
// free on the 8-node mesh, as RPCs to the MN from node 7: the donor
// walk, the donor agent's hot-remove and export, the RAT row, and the
// free's hot-return. Heartbeats run alongside at their default period.
// The caller keeps one grant record and one free record, so a warm
// grant and free allocate nothing.
func BenchmarkGrant(b *testing.B) {
	c := newCluster(b, 1<<30)
	c.eng.RunFor(sim.Second)
	recipient := c.nodes[7]
	const size = 1 << 20
	win := recipient.NextHotplugWindow(size)
	failed := false
	var call AllocCall
	var free FreeReq
	grants := func(n int) {
		done := recipient.Run("grants", func(p *sim.Proc) {
			for range n {
				call.Req = AllocReq{Size: size, WindowBase: win}
				if !Alloc(p, recipient.EP, 0, &call, 0) || !call.Resp.OK {
					failed = true
					return
				}
				free.AllocID = call.Resp.AllocID
				Free(p, recipient.EP, 0, &free)
			}
		})
		for !done.Done() {
			c.eng.RunFor(sim.Millisecond)
		}
	}
	grants(100)
	b.ReportAllocs()
	b.ResetTimer()
	grants(b.N)
	if failed {
		b.Fatal("a grant failed")
	}
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
		resp, _ = alloc(p, recipient.EP, AllocReq{Size: 1 << 20, WindowBase: win})
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
