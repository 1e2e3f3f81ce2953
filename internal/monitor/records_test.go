package monitor

import (
	"runtime"
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// callLoop runs op n times in one proc on node from, stepping the
// engine (heartbeats and all) until the proc is done.
func callLoop(tb testing.TB, c *cluster, from, n int, op func(p *sim.Proc)) {
	tb.Helper()
	done := c.nodes[from].Run("call-loop", func(p *sim.Proc) {
		for range n {
			op(p)
		}
	})
	for !done.Done() && c.eng.Step() {
	}
	if !done.Done() {
		tb.Fatal("call loop parked")
	}
}

// TestGrantSteadyStateAllocs gates the MN's side of a warm memory grant
// and its free, called from node 7 with records the caller keeps: the
// donor walk's candidate slice, the hot-remove's and hot-return's region
// records and the RAT row come from the MN's lists, and the donor's
// export entry from its CRMA channel's, so the pair allocates nothing.
// Neither does a grant whose first donor declines: node 3, node 7's
// nearest donor, is made to look richest before each grant, and its
// agent declines, once for an address space too fragmented for the
// region and once for too little idle memory.
func TestGrantSteadyStateAllocs(t *testing.T) {
	c := newCluster(t, 8<<20)
	// Fragment node 3's address space: four 2 MiB regions fill it from
	// the top down, and returning the middle two leaves 4 MiB idle in
	// two 2 MiB holes below an exhausted carve cursor.
	mm := c.nodes[3].MemMgr
	c.nodes[3].Run("fragment", func(p *sim.Proc) {
		var bases [4]uint64
		for i := range bases {
			bases[i], _ = mm.HotRemove(p, 2<<20)
		}
		for _, b := range bases[1:3] {
			if err := mm.HotAddReturn(p, b, 2<<20); err != nil {
				t.Error(err)
			}
		}
	})
	c.eng.RunFor(sim.Second)
	const size = 1 << 20
	if mm.Idle() < size {
		t.Fatalf("test premise broken: node 3 has %d idle bytes, want at least %d", mm.Idle(), size)
	}
	recipient := c.nodes[7]
	var call AllocCall
	var free FreeReq
	failed := false
	grant := func(p *sim.Proc) {
		call.Req = AllocReq{Size: size, WindowBase: recipient.NextHotplugWindow(size)}
		if !Alloc(p, recipient.EP, 0, &call, 0) || !call.Resp.OK {
			failed = true
			return
		}
		free.AllocID = call.Resp.AllocID
		Free(p, recipient.EP, 0, &free)
	}
	declined := func(p *sim.Proc) {
		c.mn.rrt[3].IdleBytes = 1 << 40
		grant(p)
	}
	rows := []struct {
		name     string
		setup    func()
		op       func(p *sim.Proc)
		declines int64
	}{
		{"grant-free", func() {}, grant, 0},
		{"declined-address-space", func() {}, declined, 1},
		{"declined-idle", func() {
			if err := mm.Reserve(mm.Idle()); err != nil {
				t.Fatal(err)
			}
		}, declined, 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.setup()
			callLoop(t, c, 7, 100, row.op)
			const n = 1000
			d0 := c.agents[3].Stats.Get("hotremove.declined")
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			callLoop(t, c, 7, n, row.op)
			runtime.ReadMemStats(&after)
			if failed {
				t.Fatal("a grant failed")
			}
			if got := c.agents[3].Stats.Get("hotremove.declined") - d0; got != row.declines*n {
				t.Fatalf("test premise broken: node 3 declined %d hot-removes in %d grants, want %d", got, n, row.declines*n)
			}
			// The loop's proc and its Completion are two objects; Mallocs
			// counts the whole process, so allow one stray allocation
			// elsewhere per hundred grants.
			if got := float64(after.Mallocs-before.Mallocs-2) / n; got > 0.01 {
				t.Fatalf("a warm %s allocates %.3f objects, want 0", row.name, got)
			}
		})
	}
}

// TestTimedOutHotRemoveRecordIsNotReused: a hot-remove whose answer
// times out may still be held by the donor's agent, asleep in the
// hot-plug, which reads the record's window and writes its answer when
// it wakes. So the MN must not hand the record to a later call. Node 3,
// node 7's first candidate, hot-plugs slower than the MN waits; node 7
// then grants and frees other windows back to back, each call taking
// region records from the MN's list, until node 3's agent wakes. It
// must export the region to the window the timed-out call named, and
// the cancellation the MN parked must then find and return it.
func TestTimedOutHotRemoveRecordIsNotReused(t *testing.T) {
	c := newCluster(t, 1<<30)
	c.eng.RunFor(sim.Second)
	slow := *c.nodes[3].MemMgr.P
	slow.HotplugOp = 2 * grantTimeout(&c.p)
	c.nodes[3].MemMgr.P = &slow
	c.agents[3].Mute(true) // no beat restores its idle account meanwhile
	recipient, donor := c.nodes[7], c.agents[3]
	const size = 1 << 20
	first := recipient.NextHotplugWindow(size)
	var call AllocCall
	var free FreeReq
	var loops int
	done := recipient.Run("grants", func(p *sim.Proc) {
		call.Req = AllocReq{Size: size, WindowBase: first}
		if !Alloc(p, recipient.EP, 0, &call, 0) || !call.Resp.OK || call.Resp.Donor == 3 {
			t.Errorf("first grant: %+v, want one from a donor other than node 3", call.Resp)
			return
		}
		for donor.Stats.Get("hotremove.ok") == 0 {
			call.Req = AllocReq{Size: size, WindowBase: recipient.NextHotplugWindow(size)}
			if !Alloc(p, recipient.EP, 0, &call, 0) || !call.Resp.OK {
				t.Errorf("grant %d failed: %+v", loops, call.Resp)
				return
			}
			free.AllocID = call.Resp.AllocID
			Free(p, recipient.EP, 0, &free)
			loops++
		}
	})
	for !done.Done() && c.eng.Step() {
	}
	if got := c.mn.Stats.Get("alloc.grant_timeouts"); got != 1 || loops < 3 {
		t.Fatalf("test premise broken: %d hot-remove timeouts, %d grants while node 3 slept; want 1 and several", got, loops)
	}
	want := windowKey{recipient: 7, base: first}
	if len(donor.exports) != 1 || donor.exports[want] == nil {
		t.Fatalf("node 3 exported to %v, want only the timed-out call's window %v", donor.exports, want)
	}
	donor.Mute(false)
	c.nodes[0].Run("redeliver", c.mn.out.redeliver)
	c.eng.RunFor(sim.Second)
	if got := donor.Stats.Get("hotreturn.cancelled"); got != 1 || c.nodes[3].MemMgr.Removed() != 0 {
		t.Fatalf("the parked cancellation returned %d regions; node 3 still has %d bytes removed", got, c.nodes[3].MemMgr.Removed())
	}
}

// TestParkedHotReturnKeepsItsRegion: a free whose hot-return is lost
// parks the letter, and the letter holds the record naming the region.
// The MN must not hand that record to a later call. Node 7's lease on
// node 5 is freed while node 5 is down; node 7 then grants and frees
// other windows on node 6, each call taking region records from the
// MN's list. Once node 5 is back, the parked letter must return the
// region it was written for.
func TestParkedHotReturnKeepsItsRegion(t *testing.T) {
	c := newCluster(t, 1<<30)
	reserveAllOn(t, c, 3) // node 7's nearest donors are then 5, then 6
	c.eng.RunFor(sim.Second)
	recipient := c.nodes[7]
	const size = 1 << 20
	var call AllocCall
	var free FreeReq
	grant := func(p *sim.Proc, want fabric.NodeID) bool {
		call.Req = AllocReq{Size: size, WindowBase: recipient.NextHotplugWindow(size)}
		if !Alloc(p, recipient.EP, 0, &call, 0) || !call.Resp.OK || call.Resp.Donor != want {
			t.Errorf("grant: %+v, want one from node %v", call.Resp, want)
			return false
		}
		return true
	}
	done := recipient.Run("grants", func(p *sim.Proc) {
		if !grant(p, 5) {
			return
		}
		c.net.SetNodeDown(5, true)
		free.AllocID = call.Resp.AllocID
		Free(p, recipient.EP, 0, &free)
		c.mn.rrt[5].IdleBytes = 0 // later grants go to node 6
		for range 20 {
			if !grant(p, 6) {
				return
			}
			free.AllocID = call.Resp.AllocID
			Free(p, recipient.EP, 0, &free)
		}
	})
	for !done.Done() && c.eng.Step() {
	}
	if got := c.mn.Stats.Get("free.donor_unreachable"); got != 1 || len(c.mn.out.parked) != 1 {
		t.Fatalf("test premise broken: %d unreachable frees, %d parked letters; want 1 and 1", got, len(c.mn.out.parked))
	}
	c.net.SetNodeDown(5, false)
	c.nodes[0].Run("redeliver", c.mn.out.redeliver)
	c.eng.RunFor(sim.Second)
	if ok, stale := c.agents[5].Stats.Get("hotreturn.ok"), c.agents[5].Stats.Get("hotreturn.stale"); ok != 1 || stale != 0 {
		t.Fatalf("node 5 took back %d regions and refused %d returns, want 1 and 0", ok, stale)
	}
	if got := c.nodes[5].MemMgr.Removed(); got != 0 {
		t.Fatalf("node 5 still has %d bytes removed after the parked return", got)
	}
}

// TestRacedFreeRowIsNotReused: a re-placement walk reads its row after
// each blocking call, so a free that deletes the row meanwhile must not
// hand it back to the MN's list for the next grant. Here recipient 4
// frees the lease while the migration's relocate is in flight and, still
// inside the relocate, takes a new lease. The walk must find its own row
// gone and leave the new lease's row and region alone.
func TestRacedFreeRowIsNotReused(t *testing.T) {
	r := newReplaceRig(t)
	a := r.lease(t)
	rec := r.agents[4]
	const size = 1 << 20
	var next AllocCall
	rec.EP.HandleCall(kindRelocate, func(p *sim.Proc, from fabric.NodeID, req any) (any, int) {
		if e, ok := rec.EP.CRMA.Lookup(a.RecipientBase); ok {
			rec.EP.CRMA.Unmap(e)
		}
		Free(p, rec.EP, 0, &FreeReq{AllocID: a.ID})
		next.Req = AllocReq{Size: size, WindowBase: r.nodes[4].NextHotplugWindow(size)}
		if !Alloc(p, rec.EP, 0, &next, 0) || !next.Resp.OK {
			t.Errorf("grant inside the relocate: %+v", next.Resp)
		}
		return rec.onRelocate(from, req)
	})
	if r.migrate(a.ID, 1.0, nil) {
		t.Fatal("migration committed a freed lease")
	}
	if got := r.mn.Stats.Get("migrate.raced_free"); got != 1 {
		t.Fatalf("migrate.raced_free = %d, want 1", got)
	}
	b, ok := r.mn.Allocation(next.Resp.AllocID)
	if !ok || b.Donor != next.Resp.Donor || b.DonorBase != next.Resp.DonorBase || b.Size != size {
		t.Fatalf("the new lease's row is %+v (live %v), want its grant %+v", b, ok, next.Resp)
	}
	if got := r.nodes[b.Donor].MemMgr.Removed(); got < size {
		t.Fatalf("the new lease's donor %v holds %d removed bytes, want its region", b.Donor, got)
	}
}
