package core

import (
	"fmt"
	"testing"

	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// hierTestConfig is the shared small fabric: 3 racks of 2x2x1 meshes
// behind 2 spines, beating every few hundred microseconds so tests run
// in milliseconds of virtual time.
func hierTestConfig() HierConfig {
	return HierConfig{
		Racks: 3, RackX: 2, RackY: 2, RackZ: 1,
		Seed:              7,
		HeartbeatInterval: 100 * sim.Microsecond,
		RackBeatInterval:  200 * sim.Microsecond,
	}
}

// stepUntil drives the engine until the completion fires (beat loops
// keep the queue alive forever, so Run would never return).
func stepUntil(t *testing.T, cl *HierCluster, done *sim.Completion) {
	t.Helper()
	for !done.Done() && cl.Eng.Step() {
	}
	if !done.Done() {
		t.Fatalf("scenario wedged with %d live procs", cl.Eng.LiveProcs())
	}
}

// TestHierBorrowScopes: a rack-local borrow stays in the rack, a
// remote-scoped borrow is delegated across the spine by the root MN,
// and both free cleanly through the same release path. The cross
// lease's tags (trace id, tenant, class, latency class) ride the
// borrow and the delegation: the donor rack's backing row and the
// root's delegation both carry them. No admission or migration runs
// here, so the tags change no timing.
func TestHierBorrowScopes(t *testing.T) {
	cl := NewHierCluster(hierTestConfig())
	defer cl.Close()
	cl.RunFor(25 * sim.Millisecond) // agents beat, sub-MNs rackbeat

	recipient := cl.Node(2) // rack 0, not the sub-MN node
	var local, cross *MemoryLease
	// tagged checks one hop's copy of the cross lease's tags.
	tagged := func(where string, tags monitor.Tags) {
		t.Helper()
		want := monitor.Tags{Trace: cross.Trace(), Tenant: 7, Class: tenancy.Standard, Latency: true}
		if tags != want {
			t.Errorf("%s carries tags %+v, want %+v", where, tags, want)
		}
	}
	done := recipient.Run("borrower", func(p *sim.Proc) {
		var err error
		if local, err = acquireMem(p, cl, recipient, 4<<20, WithScope(monitor.ScopeLocalRack)); err != nil {
			t.Errorf("local borrow: %v", err)
			return
		}
		if cross, err = acquireMem(p, cl, recipient, 4<<20, WithScope(monitor.ScopeRemoteRack),
			WithTenant(7, tenancy.Standard), WithLatencySensitive()); err != nil {
			t.Errorf("cross borrow: %v", err)
			return
		}
		rack, _ := cl.Hier.RackOf(cross.Donor())
		rows, dels := cl.Subs[rack].Allocations(), cl.Root.Delegations()
		if len(rows) != 1 || len(dels) != 1 {
			t.Errorf("donor rack %d holds %d rows and the root %d delegations, want 1 each", rack, len(rows), len(dels))
			return
		}
		tagged(fmt.Sprintf("rack %d's backing row", rack), rows[0].Tags)
		tagged("the delegation", dels[0].Tags)
		// Both windows are plain loads through the recipient's hierarchy.
		recipient.Mem.Read(p, local.WindowBase, 2048)
		recipient.Mem.Read(p, cross.WindowBase, 2048)
		local.Release(p)
		cross.Release(p)
	})
	stepUntil(t, cl, done)

	if r, ok := cl.Hier.RackOf(local.Donor()); !ok || r != 0 {
		t.Fatalf("ScopeLocalRack lease landed on %v (rack %d)", local.Donor(), r)
	}
	if r, ok := cl.Hier.RackOf(cross.Donor()); !ok || r == 0 {
		t.Fatalf("ScopeRemoteRack lease landed on %v (rack %d, want != 0)", cross.Donor(), r)
	}
	if got := cl.Root.Stats.Get("root.delegated"); got != 1 {
		t.Fatalf("root.delegated = %d, want 1", got)
	}
	if got := cl.Root.Stats.Get("root.freed"); got != 1 {
		t.Fatalf("root.freed = %d, want 1", got)
	}
	if dels := cl.Root.Delegations(); len(dels) != 0 {
		t.Fatalf("delegation table not empty after release: %+v", dels)
	}
	for r, sub := range cl.Subs {
		if allocs := sub.Allocations(); len(allocs) != 0 {
			t.Fatalf("rack %d sub-MN still holds %d RAT rows: %+v", r, len(allocs), allocs)
		}
	}
	// The cross-rack donor got its region back.
	if idle := cl.Node(int(cross.Donor())).MemMgr.Idle(); idle != cl.Node(int(cross.Donor())).DRAMBytes {
		t.Fatalf("cross donor %v idle %d after return, want full %d",
			cross.Donor(), idle, cl.Node(int(cross.Donor())).DRAMBytes)
	}
}

// TestSubMNSkipsAdmission: a sub-MN never runs the admission gate, even
// when its Admission field is set after the cluster started its
// rackbeat: the gate's preemption could revoke a delegated row without
// telling the root. Rack 0's sub-MN gets a policy that admits nothing,
// and a Preemptible-tagged rack-local acquire is still granted.
func TestSubMNSkipsAdmission(t *testing.T) {
	cl := NewHierCluster(hierTestConfig())
	defer cl.Close()
	sub := cl.Subs[0]
	sub.Admission = &tenancy.Config{}
	cl.RunFor(25 * sim.Millisecond)

	recipient := cl.Node(2) // rack 0, not the sub-MN node
	done := recipient.Run("borrower", func(p *sim.Proc) {
		l, err := acquireMem(p, cl, recipient, 4<<20, WithScope(monitor.ScopeLocalRack),
			WithTenant(1, tenancy.Preemptible))
		if err != nil {
			t.Errorf("rack-local preemptible acquire: %v", err)
			return
		}
		l.Release(p)
	})
	stepUntil(t, cl, done)
	if got := sub.Stats.Get("admit.rejected"); got != 0 {
		t.Fatalf("rack 0's sub-MN counted %d admission rejections, want 0", got)
	}
}

// TestHierStarvedRackEscalates: with ScopeAny, a rack whose donors are
// all drained escalates to the root instead of failing — the
// memory-starved path of the tentpole.
func TestHierStarvedRackEscalates(t *testing.T) {
	cl := NewHierCluster(hierTestConfig())
	defer cl.Close()
	// Drain every rack-0 node before the first heartbeats land.
	for _, id := range cl.Hier.RackNodes(0) {
		if err := cl.Node(int(id)).MemMgr.Reserve(cl.Node(int(id)).MemMgr.Idle()); err != nil {
			t.Fatal(err)
		}
	}
	cl.RunFor(25 * sim.Millisecond)

	recipient := cl.Node(1)
	var lease *MemoryLease
	done := recipient.Run("starved", func(p *sim.Proc) {
		var err error
		if lease, err = acquireMem(p, cl, recipient, 4<<20); err != nil {
			t.Errorf("borrow from starved rack: %v", err)
		}
	})
	stepUntil(t, cl, done)
	if lease == nil {
		t.Fatal("no lease")
	}
	if r, ok := cl.Hier.RackOf(lease.Donor()); !ok || r == 0 {
		t.Fatalf("starved-rack lease landed on %v (rack %d, want != 0)", lease.Donor(), r)
	}
	if got := cl.Subs[0].Stats.Get("alloc.delegated"); got != 1 {
		t.Fatalf("sub-MN alloc.delegated = %d, want 1", got)
	}
}
