package core

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// The sharded plane parks every control message it cannot deliver and
// redelivers it on a later pass. No registered run loses one, so the
// bench gate never reaches these paths; the rows below lose one message
// of each kind and check that it still lands. In hierTestConfig's fabric
// node 2 (rack 0) borrows across the spine, each rack's sub-MN runs on
// the rack's first node, and that node's one uplink leads to the root
// MN's spine switch.

const outboxLease = 4 << 20

// outboxCluster builds cfg's fabric, takes the nodes drain picks (if
// any) out of donor candidacy before their first heartbeat, and lets
// the planes settle.
func outboxCluster(t *testing.T, cfg HierConfig, drain func(*HierCluster) []fabric.NodeID) *HierCluster {
	t.Helper()
	cl := NewHierCluster(cfg)
	t.Cleanup(cl.Close)
	if drain != nil {
		for _, id := range drain(cl) {
			mm := cl.Node(int(id)).MemMgr
			if err := mm.Reserve(mm.Idle()); err != nil {
				t.Fatal(err)
			}
		}
	}
	cl.RunFor(25 * sim.Millisecond)
	return cl
}

// borrowRemote has node 2 take a remote-rack lease.
func borrowRemote(t *testing.T, cl *HierCluster) *MemoryLease {
	t.Helper()
	n := cl.Node(2)
	var lease *MemoryLease
	stepUntil(t, cl, n.Run("borrow", func(p *sim.Proc) {
		var err error
		if lease, err = acquireMem(p, cl, n, outboxLease, WithScope(monitor.ScopeRemoteRack)); err != nil {
			t.Errorf("borrow: %v", err)
		}
	}))
	if lease == nil {
		t.FailNow()
	}
	return lease
}

// wantStat fails t unless sb counts want under key.
func wantStat(t *testing.T, who string, sb *monitor.Counters, key string, want int64) {
	t.Helper()
	if got := sb.Get(key); got != want {
		t.Fatalf("%s %s = %d, want %d", who, key, got, want)
	}
}

// wantWhole fails t unless node id has every byte of its memory back.
func wantWhole(t *testing.T, cl *HierCluster, id fabric.NodeID) {
	t.Helper()
	if n := cl.Node(int(id)); n.MemMgr.Idle() != n.DRAMBytes {
		t.Fatalf("node %v idle %d, want all %d back", id, n.MemMgr.Idle(), n.DRAMBytes)
	}
}

// TestHierOutbox loses one parked control message of each kind on the
// sharded plane: a sub-MN's upstream free and borrow cancel, and the
// root's delegate cancel. Each row checks the loss was counted, then
// that a later pass delivered the message and nothing stayed behind.
func TestHierOutbox(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"upstream-free", func(t *testing.T) {
			cl := outboxCluster(t, hierTestConfig(), nil)
			lease := borrowRemote(t, cl)
			sub0, root := cl.SubNode(0), cl.Root.Node()
			// Rack 0's sub-MN cannot reach the root while the lease is
			// released.
			cl.Net.SetLinkDown(sub0, root, true)
			stepUntil(t, cl, cl.Node(2).Run("release", lease.Release))
			wantStat(t, "rack-0 sub-MN", &cl.Subs[0].Stats, "free.upstream_lost", 1)
			cl.Net.SetLinkDown(sub0, root, false)
			cl.RunFor(200 * sim.Millisecond)
			wantStat(t, "rack-0 sub-MN", &cl.Subs[0].Stats, "free.upstream_retried", 1)
			if dels := cl.Root.Delegations(); len(dels) != 0 {
				t.Fatalf("delegation table not empty: %+v", dels)
			}
			wantWhole(t, cl, lease.Donor())
		}},
		{"borrow-cancel", func(t *testing.T) {
			cl := outboxCluster(t, hierTestConfig(), nil)
			sub0, root := cl.SubNode(0), cl.Root.Node()
			// The link fails while the donor is still hot-removing the
			// delegated grant (HotplugOp), so the root's answer is lost,
			// and stays down past the escalation's patience, so the first
			// cancel is lost too.
			cl.Eng.Schedule(sim.Millisecond, func() { cl.Net.SetLinkDown(sub0, root, true) })
			n := cl.Node(2)
			var err error
			stepUntil(t, cl, n.Run("borrow", func(p *sim.Proc) {
				_, err = acquireMem(p, cl, n, outboxLease, WithScope(monitor.ScopeRemoteRack))
			}))
			if err == nil {
				t.Fatal("test premise broken: the borrow's answer was not lost")
			}
			wantStat(t, "rack-0 sub-MN", &cl.Subs[0].Stats, "alloc.cancel_lost", 1)
			dels := cl.Root.Delegations()
			if len(dels) != 1 {
				t.Fatalf("test premise broken: %d delegations, want the orphaned one", len(dels))
			}
			cl.Net.SetLinkDown(sub0, root, false)
			cl.RunFor(200 * sim.Millisecond)
			wantStat(t, "rack-0 sub-MN", &cl.Subs[0].Stats, "alloc.cancel_retried", 1)
			wantStat(t, "root", &cl.Root.Stats, "root.borrows_cancelled", 1)
			if left := cl.Root.Delegations(); len(left) != 0 {
				t.Fatalf("delegation table not empty: %+v", left)
			}
			wantWhole(t, cl, dels[0].Donor)
		}},
		{"delegate-cancel", func(t *testing.T) {
			cl := outboxCluster(t, hierTestConfig(), nil)
			sub1, root := cl.SubNode(1), cl.Root.Node()
			// The root elects rack 1 first (equal racks tie-break by id).
			// Its sub-MN's uplink fails while the grant is hot-removing, so
			// the answer is lost: the root times out and delegates to rack
			// 2 instead.
			cl.Eng.Schedule(sim.Millisecond, func() { cl.Net.SetLinkDown(sub1, root, true) })
			lease := borrowRemote(t, cl)
			wantStat(t, "root", &cl.Root.Stats, "root.delegate_timeouts", 1)
			if r, _ := cl.Hier.RackOf(lease.Donor()); r != 2 {
				t.Fatalf("test premise broken: lease on rack %d, want 2", r)
			}
			orphans := cl.Subs[1].Allocations()
			if len(orphans) != 1 {
				t.Fatalf("test premise broken: rack-1 sub-MN holds %d rows, want the orphaned one", len(orphans))
			}
			cl.Net.SetLinkDown(sub1, root, false)
			cl.RunFor(10 * sim.Millisecond)
			wantStat(t, "root", &cl.Root.Stats, "root.delegates_cancelled", 1)
			if rows := cl.Subs[1].Allocations(); len(rows) != 0 {
				t.Fatalf("rack-1 sub-MN still holds an orphaned row: %+v", rows)
			}
			wantWhole(t, cl, orphans[0].Donor)
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// TestHierFreeWhileDonorRackSilent is the regression for the root
// dropping a delegate-free it could not deliver: the lease is released
// while the donor rack's sub-MN is off the fabric, so its rackbeats are
// stale. The free must wait for the rack to beat again, not leak the
// sub-MN's row and the region behind it.
func TestHierFreeWhileDonorRackSilent(t *testing.T) {
	// Draining rack 1's sub-MN node leaves rack 2 the most idle, and its
	// sub-MN node the recipient's nearest donor there.
	cl := outboxCluster(t, hierTestConfig(), func(cl *HierCluster) []fabric.NodeID {
		return []fabric.NodeID{cl.SubNode(1)}
	})
	lease := borrowRemote(t, cl)
	donor := lease.Donor()
	if donor != cl.SubNode(2) {
		t.Fatalf("test premise broken: donor %v, want rack-2 sub-MN %v", donor, cl.SubNode(2))
	}
	cl.Net.SetNodeDown(donor, true)
	cl.RunFor(3 * sim.Millisecond)
	stepUntil(t, cl, cl.Node(2).Run("release", lease.Release))
	cl.Net.SetNodeDown(donor, false)
	cl.RunFor(50 * sim.Millisecond)
	if rows := cl.Subs[2].Allocations(); len(rows) != 0 {
		t.Fatalf("rack-2 sub-MN still backs the released lease: %+v", rows)
	}
	wantWhole(t, cl, donor)
	if dels := cl.Root.Delegations(); len(dels) != 0 {
		t.Fatalf("delegation table not empty: %+v", dels)
	}
}
