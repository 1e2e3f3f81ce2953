package monitor

import (
	"testing"

	"repro/internal/sim"
)

// Spare-region pool tests: the pool's job is to convert failover's ~2 ms
// hot-plug into a single attach round trip, refill itself off the
// critical path, and degrade to the plain hot-plug when exhausted —
// never to change what recovers, only how fast.

// TestFailoverSpareAttachSkipsHotplug: with a matching spare parked on
// the replacement donor, failover's recorded latency stays under one
// hot-plug op, and the consumed spare is replaced asynchronously.
func TestFailoverSpareAttachSkipsHotplug(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.StartRecovery()
	defer c.mn.StopRecovery()
	reserveAllOn(t, c, 0) // keep the MN out of donor candidacy
	c.eng.RunFor(1 * sim.Second)
	c.mn.EnableSparePool(128<<20, 1)
	c.eng.RunFor(1 * sim.Second) // async carves complete
	if got := c.mn.SpareCount(6); got != 1 {
		t.Fatalf("node 6 pool = %d after provisioning, want 1", got)
	}
	if c.mn.Stats.Get("spare.carved") == 0 {
		t.Fatal("no carves recorded")
	}

	resp := allocFrom(t, c, 4, 128<<20)
	if resp.Donor != 5 {
		t.Fatalf("test premise broken: expected donor 5, got %v", resp.Donor)
	}
	c.agents[5].Crash()
	c.net.SetNodeDown(5, true)
	c.eng.RunFor(10 * sim.Second) // timeout + sweep + failover

	a, ok := c.mn.Allocation(resp.AllocID)
	if !ok || a.Donor == 5 {
		t.Fatalf("lease not failed over: %+v (ok=%v)", a, ok)
	}
	if got := c.mn.Stats.Get("recover.spare_attached"); got != 1 {
		t.Fatalf("spare attaches = %d, want 1", got)
	}
	if got := c.mn.Stats.Get("recover.replaced"); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
	// The whole point: the failover never paid the hot-plug.
	if ns := c.mn.Stats.Get("recover.ns"); ns >= int64(c.p.HotplugOp) {
		t.Fatalf("failover took %dns, want under one %v hot-plug op", ns, c.p.HotplugOp)
	}
	// The dead donor's parked spare was invalidated, and the consumed
	// one replaced off the recovery path.
	if c.mn.Stats.Get("spare.pruned") == 0 {
		t.Fatal("dead donor's spare never pruned")
	}
	if got := c.mn.SpareCount(a.Donor); got != 1 {
		t.Fatalf("replacement donor pool = %d after refill, want 1", got)
	}
}

// TestSparePoolExhaustionFallsBackToHotplug: two leases on one donor,
// one parked spare on the only viable replacement. The first failover
// drains the pool; the second must fall back to the ordinary hot-plug
// (the refill is still in flight) and still succeed.
func TestSparePoolExhaustionFallsBackToHotplug(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.mn.StartRecovery()
	defer c.mn.StopRecovery()
	c.eng.RunFor(1 * sim.Second)
	// Recipient 4's only 1-hop donor with idle memory is node 5: both
	// leases stack there.
	reserveAllOn(t, c, 0)
	reserveAllOn(t, c, 6)
	c.eng.RunFor(1 * sim.Second)
	a1 := allocFrom(t, c, 4, 128<<20)
	a2 := allocFrom(t, c, 4, 128<<20)
	if a1.Donor != 5 || a2.Donor != 5 {
		t.Fatalf("test premise broken: want both leases on 5, got %v and %v", a1.Donor, a2.Donor)
	}
	// Leave node 2 as the only replacement candidate (node 4 is the
	// recipient, excluded from its own donor walk) before provisioning,
	// so exactly one usable spare exists.
	reserveAllOn(t, c, 1)
	reserveAllOn(t, c, 3)
	reserveAllOn(t, c, 7)
	c.eng.RunFor(1 * sim.Second)
	c.mn.EnableSparePool(128<<20, 1)
	c.eng.RunFor(1 * sim.Second)
	if got := c.mn.SpareCount(2); got != 1 {
		t.Fatalf("node 2 pool = %d, want 1", got)
	}

	c.agents[5].Crash()
	c.net.SetNodeDown(5, true)
	c.eng.RunFor(10 * sim.Second)

	x1, ok1 := c.mn.Allocation(a1.AllocID)
	x2, ok2 := c.mn.Allocation(a2.AllocID)
	if !ok1 || !ok2 || x1.Donor != 2 || x2.Donor != 2 {
		t.Fatalf("leases not failed over to node 2: %+v (ok=%v), %+v (ok=%v)", x1, ok1, x2, ok2)
	}
	if got := c.mn.Stats.Get("recover.replaced"); got != 2 {
		t.Fatalf("failovers = %d, want 2", got)
	}
	// One attach, one fallback: the exhausted pool must not block the
	// second failover, and the second must have paid the hot-plug.
	if got := c.mn.Stats.Get("recover.spare_attached"); got != 1 {
		t.Fatalf("spare attaches = %d, want exactly 1 (pool had one spare)", got)
	}
	if ns := c.mn.Stats.Get("recover.ns"); ns < int64(c.p.HotplugOp) {
		t.Fatalf("total failover time %dns under one hot-plug op; the fallback never ran", ns)
	}
}

// TestMigrationRacingDestinationCrashKeepsLease: the migration's chosen
// destination donor dies mid hot-remove. The old placement still works,
// so the move must either abort back to it or land on another donor —
// the recipient's window stays continuously backed either way, and
// nothing leaks.
func TestMigrationRacingDestinationCrashKeepsLease(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(1 * sim.Second)
	reserveAllOn(t, c, 0)
	c.eng.RunFor(1 * sim.Second)
	resp := allocFrom(t, c, 4, 128<<20)
	if resp.Donor != 5 {
		t.Fatalf("test premise broken: expected donor 5, got %v", resp.Donor)
	}
	a := c.mn.rat[resp.AllocID]
	if a == nil {
		t.Fatal("allocation missing from RAT")
	}
	// Node 6 is the walk's first viable destination (node 0 is reserved,
	// node 5 is the old donor). Kill it one millisecond in — mid way
	// through its 2 ms hot-remove.
	c.eng.Schedule(1*sim.Millisecond, func() {
		c.agents[6].Crash()
		c.net.SetNodeDown(6, true)
	})
	var moved bool
	c.nodes[0].Run("migrate", func(p *sim.Proc) {
		moved = c.mn.migrateLease(p, c.mn.view(), a, 1.0, nil)
	})
	c.eng.RunFor(5 * sim.Second)

	if !moved {
		t.Fatal("migration gave up instead of walking past the dead destination")
	}
	x, ok := c.mn.Allocation(resp.AllocID)
	if !ok {
		t.Fatal("lease vanished during the race")
	}
	if x.Donor == 6 {
		t.Fatal("lease committed to the crashed destination")
	}
	if x.Donor == 5 {
		t.Fatal("lease still on the old donor despite moved=true")
	}
	// Zero lost completions at the table level: the recipient was
	// retargeted exactly once, onto a donor that really holds a region,
	// and the old donor got its region back.
	if got := c.agents[4].Stats.Get("relocate.ok"); got != 1 {
		t.Fatalf("recipient saw %d retargets, want 1", got)
	}
	if got := c.nodes[x.Donor].MemMgr.Removed(); got != 128<<20 {
		t.Fatalf("new donor %v shows %d removed bytes, want lease-backed region", x.Donor, got)
	}
	if got := c.nodes[5].MemMgr.Removed(); got != 0 {
		t.Fatalf("old donor still shows %d removed bytes; hot-return never landed", got)
	}
	if c.mn.Stats.Get("recover.grant_timeouts") == 0 {
		t.Fatal("test premise broken: the dead destination never timed out a hot-remove")
	}
	if got := c.mn.Stats.Get("migrate.moved"); got != 1 {
		t.Fatalf("migrate.moved = %d, want 1", got)
	}
}
