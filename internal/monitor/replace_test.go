package monitor

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// replaceRig is one TestReplaceOutcomes row's cluster. Node 0 (the MN)
// donates nothing, so recipient 4's leases land on node 5 and a
// migration's first destination is node 6; recovery is on, and every
// lease event is recorded.
type replaceRig struct {
	*cluster
	events []LeaseEvent
}

func newReplaceRig(t *testing.T) *replaceRig {
	r := &replaceRig{cluster: newCluster(t, 1<<30)}
	r.mn.OnLease = func(ev LeaseEvent) { r.events = append(r.events, ev) }
	r.mn.StartRecovery()
	t.Cleanup(r.mn.StopRecovery)
	reserveAllOn(t, r.cluster, 0)
	r.eng.RunFor(1 * sim.Second)
	return r
}

// lease grants recipient 4 a 128 MiB window on node 5 and returns its
// RAT row.
func (r *replaceRig) lease(t *testing.T) Allocation {
	t.Helper()
	resp := allocFrom(t, r.cluster, 4, 128<<20)
	if resp.Donor != 5 {
		t.Fatalf("test premise broken: expected donor 5, got %v", resp.Donor)
	}
	a, _ := r.mn.Allocation(resp.AllocID)
	return a
}

// migrate runs migrateLease on row id from an MN proc, claiming the
// lease's path runs at curUtil; then, still inside the proc, it runs
// after (when non-nil) before any later event can land.
func (r *replaceRig) migrate(id int, curUtil float64, after func()) (moved bool) {
	a := r.mn.rat[id]
	r.nodes[0].Run("migrate", func(p *sim.Proc) {
		moved = r.mn.migrateLease(p, r.mn.view(), a, curUtil, nil)
		if after != nil {
			after()
		}
	})
	r.eng.RunFor(1 * sim.Second)
	return moved
}

// crash takes node n down and runs past its detection and recovery.
func (r *replaceRig) crash(n fabric.NodeID) {
	r.agents[n].Crash()
	r.net.SetNodeDown(n, true)
	r.eng.RunFor(10 * sim.Second)
}

// saw reports whether an event of type typ fired for row id.
func (r *replaceRig) saw(typ LeaseEventType, id int) bool {
	for _, ev := range r.events {
		if ev.Type == typ && ev.Alloc.ID == id {
			return true
		}
	}
	return false
}

// checkRemoved fails t unless donor holds want hot-removed bytes and
// every other node holds none.
func (r *replaceRig) checkRemoved(t *testing.T, donor int, want uint64) {
	t.Helper()
	for i, n := range r.nodes {
		exp := uint64(0)
		if i == donor {
			exp = want
		}
		if got := n.MemMgr.Removed(); got != exp {
			t.Errorf("node %d shows %d removed bytes, want %d", i, got, exp)
		}
	}
}

// TestReplaceOutcomes pins every exit of the re-placement walk that
// failover, device failover and migration share. The happy paths also
// run in the recovery, spare and migration tests and in the gated smoke
// cells; these rows cover the exits nothing else reaches, and the two
// races with a concurrent free, where the path that deletes the RAT row
// must release its backing — old and new — exactly once. After each
// row, every donor's count of leased device units must match the RAT.
func TestReplaceOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, r *replaceRig)
	}{
		{"failover/no-donor-revokes", func(t *testing.T, r *replaceRig) {
			a := r.lease(t)
			for _, n := range []int{1, 2, 3, 6, 7} {
				reserveAllOn(t, r.cluster, n)
			}
			r.crash(5)
			if _, ok := r.mn.Allocation(a.ID); ok {
				t.Fatal("row survived with no donor left to back it")
			}
			if got := r.agents[4].Stats.Get("revoked"); got != 1 {
				t.Fatalf("recipient saw %d revokes, want 1", got)
			}
			if !r.saw(LeaseRevoked, a.ID) {
				t.Fatal("no LeaseRevoked event")
			}
		}},
		{"failover/lost-revoke-retried", func(t *testing.T, r *replaceRig) {
			a := r.lease(t)
			for _, n := range []int{1, 2, 3, 6, 7} {
				reserveAllOn(t, r.cluster, n)
			}
			// The donor's death is swept 3 s after its crash; flap the MN's
			// link to the recipient across that sweep, as
			// TestLostRelocateIsRetried does, so the revoke is lost.
			r.eng.Schedule(2900*sim.Millisecond, func() { r.net.SetLinkDown(0, 4, true) })
			r.eng.Schedule(3700*sim.Millisecond, func() { r.net.SetLinkDown(0, 4, false) })
			r.agents[5].Crash()
			r.net.SetNodeDown(5, true)
			r.eng.RunFor(3800 * sim.Millisecond)
			if got := r.mn.Stats.Get("recover.revoke_lost"); got != 1 {
				t.Fatalf("test premise broken: recover.revoke_lost = %d, want 1", got)
			}
			if got := r.agents[4].Stats.Get("revoked"); got != 0 {
				t.Fatalf("test premise broken: the revoke landed %d times during the flap", got)
			}
			r.eng.RunFor(5 * sim.Second)
			if got := r.mn.Stats.Get("recover.revoke_retried"); got != 1 {
				t.Fatalf("recover.revoke_retried = %d, want 1", got)
			}
			if got := r.agents[4].Stats.Get("revoked"); got != 1 {
				t.Fatalf("recipient saw %d revokes, want 1", got)
			}
			if _, ok := r.mn.Allocation(a.ID); ok {
				t.Fatal("row survived with no donor left to back it")
			}
		}},
		{"device-failover/no-unit-drops", func(t *testing.T, r *replaceRig) {
			r.agents[5].Devices[DevAccelerator] = 1
			r.eng.RunFor(1 * sim.Second)
			var resp *AllocResp
			r.nodes[4].Run("alloc", func(p *sim.Proc) {
				resp, _ = Alloc(p, r.nodes[4].EP, 0, AllocReq{Res: DevAccelerator}, 0)
			})
			r.eng.RunFor(1 * sim.Second)
			if !resp.OK || resp.Donor != 5 {
				t.Fatalf("test premise broken: accelerator grant %+v", resp)
			}
			r.crash(5)
			if _, ok := r.mn.Allocation(resp.AllocID); ok {
				t.Fatal("device row survived with no unit left to back it")
			}
			if got := r.mn.Stats.Get("recover.devices_dropped"); got != 1 {
				t.Fatalf("recover.devices_dropped = %d, want 1", got)
			}
			if !r.saw(LeaseRevoked, resp.AllocID) {
				t.Fatal("no LeaseRevoked event")
			}
		}},
		{"migrate/lost-relocate-aborts", func(t *testing.T, r *replaceRig) {
			a := r.lease(t)
			// Flap the MN's link to the recipient across the relocate. The
			// destination's hot-remove and the abort's hot-return ride
			// 0–2–6, so only the relocate is lost.
			r.eng.Schedule(1*sim.Millisecond, func() { r.net.SetLinkDown(0, 4, true) })
			r.eng.Schedule(5*sim.Millisecond, func() { r.net.SetLinkDown(0, 4, false) })
			if r.migrate(a.ID, 1.0, nil) {
				t.Fatal("migration committed without a delivered relocate")
			}
			if got := r.agents[4].Stats.Get("relocate.ok"); got != 0 {
				t.Fatalf("test premise broken: the relocate landed %d times", got)
			}
			if got, _ := r.mn.Allocation(a.ID); got != a {
				t.Fatalf("old placement disturbed: %+v, want %+v", got, a)
			}
			if got := r.mn.Stats.Get("migrate.aborted"); got != 1 {
				t.Fatalf("migrate.aborted = %d, want 1", got)
			}
			if got := r.agents[6].Stats.Get("hotreturn.ok"); got != 1 {
				t.Fatalf("destination saw %d hot-returns, want the new region back", got)
			}
			r.checkRemoved(t, 5, 128<<20)
		}},
		{"migrate/no-cooler-donor", func(t *testing.T, r *replaceRig) {
			for _, ag := range r.agents {
				ag.Telemetry = true
			}
			r.eng.RunFor(1 * sim.Second) // every link sampled, all idle
			a := r.lease(t)
			// A path already at 0 has no destination cooler by the margin.
			if r.migrate(a.ID, 0, nil) {
				t.Fatal("migration moved a lease with no cooler donor")
			}
			if got := r.mn.Stats.Get("migrate.no_candidate"); got != 1 {
				t.Fatalf("migrate.no_candidate = %d, want 1", got)
			}
			if got, _ := r.mn.Allocation(a.ID); got != a {
				t.Fatalf("placement changed: %+v, want %+v", got, a)
			}
			r.checkRemoved(t, 5, 128<<20)
		}},
		{"failover/raced-free-returns-old-region", func(t *testing.T, r *replaceRig) {
			// Release unmaps the window before it sends mn.free: a relocate
			// landing in between is refused. The falsely dead donor's region
			// is still owed back.
			a := r.lease(t)
			e, _ := r.nodes[4].EP.CRMA.Lookup(a.RecipientBase)
			r.nodes[4].EP.CRMA.Unmap(e)
			r.agents[5].Mute(true)
			r.eng.RunFor(10 * sim.Second)
			if got := r.agents[4].Stats.Get("relocate.stale"); got != 1 {
				t.Fatalf("test premise broken: %d stale relocates, want 1", got)
			}
			r.nodes[4].Run("free", func(p *sim.Proc) { Free(p, r.nodes[4].EP, 0, a.ID) })
			r.agents[5].Mute(false)
			r.eng.RunFor(5 * sim.Second)
			if _, ok := r.mn.Allocation(a.ID); ok {
				t.Fatal("row survived its free")
			}
			r.checkRemoved(t, 5, 0)
		}},
		{"migrate/raced-free-releases-once", func(t *testing.T, r *replaceRig) {
			// The recipient frees the lease while the relocate is in flight:
			// the free returns the old region, so the migration must not.
			a := r.lease(t)
			rec := r.agents[4]
			rec.EP.HandleCall(kindRelocate, func(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
				if e, ok := rec.EP.CRMA.Lookup(a.RecipientBase); ok {
					rec.EP.CRMA.Unmap(e)
				}
				Free(p, rec.EP, 0, a.ID)
				return rec.onRelocate(from, req)
			})
			var mnIdle, agentIdle uint64
			moved := r.migrate(a.ID, 1.0, func() {
				mnIdle, agentIdle = r.mn.rrt[5].IdleBytes, r.nodes[5].MemMgr.Idle()
			})
			if moved {
				t.Fatal("migration committed a freed lease")
			}
			if got := r.agents[5].Stats.Get("hotreturn.stale"); got != 0 {
				t.Errorf("old donor saw %d stale hot-returns, want 0", got)
			}
			if mnIdle != agentIdle {
				t.Errorf("MN idle account for the old donor = %d, agent's = %d", mnIdle, agentIdle)
			}
			r.checkRemoved(t, 5, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReplaceRig(t)
			tc.run(t, r)
			if err := r.mn.AuditDevices(); err != nil {
				t.Error(err)
			}
		})
	}
}
