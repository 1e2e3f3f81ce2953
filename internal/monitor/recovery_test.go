package monitor

import (
	"testing"

	"repro/internal/sim"
)

// allocFrom issues one raw AllocMem RPC from a node, installs the
// recipient-side CRMA window (the transport half the core layer's
// mountCRMA would do), and runs the engine until it settles.
func allocFrom(t *testing.T, c *cluster, node int, size uint64) *AllocResp {
	t.Helper()
	var resp *AllocResp
	recipient := c.nodes[node]
	recipient.Run("alloc", func(p *sim.Proc) {
		win := recipient.NextHotplugWindow(size)
		resp, _ = Alloc(p, recipient.EP, 0, AllocReq{Size: size, WindowBase: win}, 0)
		if resp.OK {
			if _, err := recipient.EP.CRMA.Map(win, size, resp.Donor, resp.DonorBase); err != nil {
				t.Errorf("mapping window: %v", err)
			}
		}
	})
	c.eng.RunFor(5 * sim.Second)
	if resp == nil || !resp.OK {
		t.Fatalf("allocation failed: %+v", resp)
	}
	return resp
}

// reserveAllOn takes a node's memory out of donor candidacy so tests can
// steer which donor the policy elects.
func reserveAllOn(t *testing.T, c *cluster, node int) {
	t.Helper()
	if err := c.nodes[node].MemMgr.Reserve(c.nodes[node].MemMgr.Idle()); err != nil {
		t.Fatal(err)
	}
}

// The 2x2x2 mesh routes statically, so crashing a node also severs every
// static route through it — crashing node 3 partitions node 7 from the
// MN, for example. The recovery tests pick victims that transit nobody's
// path to node 0 (5 and 6), or recipients adjacent to the MN, so they
// exercise exactly the failure they name. The churn scenario and chaos
// tests cover the messier partition dynamics.

// TestGrantTimeLivenessCrossCheck is the regression for handing out
// doomed leases: a donor that dies between the candidate scan and the
// hot-remove handshake must be skipped (bounded by GrantTimeout), not
// granted — and the MN must not wedge waiting for its answer forever.
func TestGrantTimeLivenessCrossCheck(t *testing.T) {
	c := newCluster(t, 1<<30)
	// Keep the MN (node 0, recipient 1's nearest candidate) out of donor
	// candidacy so dead node 3 tops the list.
	reserveAllOn(t, c, 0)
	c.eng.RunFor(1 * sim.Second)

	// Node 3 is now node 1's nearest candidate with memory. Kill it right
	// after its last heartbeat: the RRT still shows it alive and idle.
	c.agents[3].Crash()
	c.net.SetNodeDown(3, true)
	if !c.mn.NodeAlive(3) {
		t.Fatal("test premise broken: node 3 should still look alive")
	}

	resp := allocFrom(t, c, 1, 256<<20)
	if resp.Donor == 3 {
		t.Fatal("dead node 3 granted a doomed lease")
	}
	if c.mn.Stats.Get("alloc.grant_timeouts") == 0 {
		t.Fatal("no grant timeout recorded; the dead donor was never tried or the cross-check path is untested")
	}
}

// TestDonorDeathReplacesLease exercises the failover path end to end at
// the table level: the donor stops beating, the sweep declares it dead,
// and the lease moves to a surviving donor under the same allocation id.
func TestDonorDeathReplacesLease(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.StartRecovery()
	defer c.mn.StopRecovery()
	// Recipient 4 is adjacent to the MN; with node 0 reserved its nearest
	// donor is node 5, which no static route to the MN transits.
	reserveAllOn(t, c, 0)
	c.eng.RunFor(1 * sim.Second)

	resp := allocFrom(t, c, 4, 128<<20)
	first := resp.Donor
	if first != 5 {
		t.Fatalf("test premise broken: expected donor 5, got %v", first)
	}

	c.agents[first].Crash()
	c.net.SetNodeDown(first, true)
	c.eng.RunFor(10 * sim.Second) // timeout (3s) + sweep + failover

	a, ok := c.mn.Allocation(resp.AllocID)
	if !ok {
		t.Fatal("allocation vanished instead of failing over")
	}
	if a.Donor == first {
		t.Fatalf("lease still on dead donor %v", first)
	}
	if c.mn.Stats.Get("recover.deaths") == 0 || c.mn.Stats.Get("recover.replaced") == 0 {
		t.Fatalf("recovery stats missing: deaths=%d replaced=%d",
			c.mn.Stats.Get("recover.deaths"), c.mn.Stats.Get("recover.replaced"))
	}
	// The replacement donor actually holds a hot-removed region.
	if c.nodes[a.Donor].MemMgr.Removed() != 128<<20 {
		t.Fatalf("new donor %v shows %d removed bytes", a.Donor, c.nodes[a.Donor].MemMgr.Removed())
	}
}

// TestRecipientDeathReclaimsLease: when the lease HOLDER dies, the MN
// returns the donor's region to service instead of leaking it.
func TestRecipientDeathReclaimsLease(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.StartRecovery()
	defer c.mn.StopRecovery()
	c.eng.RunFor(1 * sim.Second)

	resp := allocFrom(t, c, 7, 128<<20)
	donor := c.nodes[resp.Donor]
	if donor.MemMgr.Removed() != 128<<20 {
		t.Fatal("donation not recorded")
	}

	c.agents[7].Crash()
	c.net.SetNodeDown(7, true)
	c.eng.RunFor(10 * sim.Second)

	if _, ok := c.mn.Allocation(resp.AllocID); ok {
		t.Fatal("orphaned lease still in the RAT")
	}
	if donor.MemMgr.Removed() != 0 {
		t.Fatalf("donor still shows %d removed bytes after reclaim", donor.MemMgr.Removed())
	}
	if c.mn.Stats.Get("recover.reclaimed") == 0 {
		t.Fatal("no reclaim recorded")
	}
}

// TestRebootInsideTimeoutStillRecovers: a crash-and-reboot faster than
// the heartbeat timeout loses the donated region all the same. The
// incarnation number on the returning heartbeats is what lets the MN
// catch it.
func TestRebootInsideTimeoutStillRecovers(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.StartRecovery()
	defer c.mn.StopRecovery()
	reserveAllOn(t, c, 0)
	c.eng.RunFor(1 * sim.Second)

	resp := allocFrom(t, c, 4, 128<<20)
	first := resp.Donor

	// Outage of ~1s, well under the 3s heartbeat timeout.
	c.agents[first].Crash()
	c.net.SetNodeDown(first, true)
	c.eng.RunFor(1 * sim.Second)
	c.net.SetNodeDown(first, false)
	c.agents[first].Restart()
	c.eng.RunFor(5 * sim.Second)

	a, ok := c.mn.Allocation(resp.AllocID)
	if !ok {
		t.Fatal("allocation vanished instead of failing over")
	}
	if a.Donor == first {
		t.Fatalf("lease still points at rebooted donor %v, whose memory is fresh", first)
	}
	// The rebooted node's memory map is clean — nothing left hot-removed.
	if c.nodes[first].MemMgr.Removed() != 0 {
		t.Fatalf("rebooted donor still shows %d removed bytes", c.nodes[first].MemMgr.Removed())
	}
	if c.mn.Stats.Get("recover.reboots_seen") == 0 {
		t.Fatal("incarnation bump never observed")
	}
}

// TestLostRelocateIsRetried: the failover commits on the MN while a
// link flap eats the relocate notice — the recipient would aim at the
// dead donor forever. The sweep must redeliver the notice once the path
// heals.
func TestLostRelocateIsRetried(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.StartRecovery()
	defer c.mn.StopRecovery()
	reserveAllOn(t, c, 0)
	c.eng.RunFor(1 * sim.Second)

	resp := allocFrom(t, c, 4, 128<<20) // donor 5 (nearest with memory)
	if resp.Donor != 5 {
		t.Fatalf("test premise broken: expected donor 5, got %v", resp.Donor)
	}

	// Crash the donor now; with the 3s timeout and 1.5s sweeps the death
	// lands ~4.5s later. Flap the MN<->recipient link across exactly that
	// window so the relocate notice is lost but the recipient is never
	// itself declared dead (the flap is well under the 3s timeout).
	c.agents[5].Crash()
	c.net.SetNodeDown(5, true)
	c.eng.Schedule(2900*sim.Millisecond, func() { c.net.SetLinkDown(0, 4, true) })
	c.eng.Schedule(3700*sim.Millisecond, func() { c.net.SetLinkDown(0, 4, false) })
	c.eng.RunFor(11 * sim.Second)

	a, ok := c.mn.Allocation(resp.AllocID)
	if !ok || a.Donor == 5 {
		t.Fatalf("lease not failed over: %+v (ok=%v)", a, ok)
	}
	if c.mn.Stats.Get("recover.relocate_lost") == 0 {
		t.Fatal("test premise broken: the relocate notice was never lost to the flap")
	}
	if c.mn.Stats.Get("recover.relocate_retried") == 0 {
		t.Fatal("lost relocate never retried")
	}
	if c.agents[4].Stats.Get("relocate.ok") == 0 {
		t.Fatal("recipient never received the relocation — its window still aims at the dead donor")
	}
}

// TestHeartbeatLossFalsePositive: a healthy donor whose heartbeats stop
// getting through is declared dead and its lease moved — the safe
// choice. When its beats resume un-rebooted, the MN settles the
// hot-returns it owes so the region does not leak.
func TestHeartbeatLossFalsePositive(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.StartRecovery()
	defer c.mn.StopRecovery()
	c.eng.RunFor(1 * sim.Second)

	resp := allocFrom(t, c, 7, 128<<20)
	first := resp.Donor

	c.agents[first].Mute(true)
	c.eng.RunFor(10 * sim.Second) // declared dead; lease re-placed

	a, ok := c.mn.Allocation(resp.AllocID)
	if !ok || a.Donor == first {
		t.Fatalf("lease not moved off the silent donor: %+v (ok=%v)", a, ok)
	}
	if c.nodes[first].MemMgr.Removed() == 0 {
		t.Fatal("test premise broken: silent donor should still hold the hot-removed region")
	}

	c.agents[first].Mute(false)
	c.eng.RunFor(5 * sim.Second)

	if c.nodes[first].MemMgr.Removed() != 0 {
		t.Fatalf("false-positive donor still shows %d removed bytes; orphan return never settled",
			c.nodes[first].MemMgr.Removed())
	}
	if c.mn.Stats.Get("recover.orphan_returns") == 0 {
		t.Fatal("no orphan return recorded")
	}
}
