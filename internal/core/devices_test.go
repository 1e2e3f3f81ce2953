package core

import (
	"errors"
	"testing"

	"repro/internal/accel"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
)

// advertiseFarm installs a two-device accelerator service plus a
// shareable-NIC advertisement on one node — the standard donor shape the
// device-plane tests lease against.
func advertiseFarm(t *testing.T, n *node.Node, ag *monitor.Agent) {
	t.Helper()
	kernel := accel.FFT{MBps: 200}
	svc := accel.Serve(n,
		accel.New(n.Eng, n.P, kernel),
		accel.New(n.Eng, n.P, kernel))
	t.Cleanup(svc.Shutdown)
	ag.Devices[monitor.DevAccelerator] = 2
	ag.Devices[monitor.DevNIC] = 1
}

// deviceScript runs the shared acquisition script the grant-identity
// property compares across plane shapes: interleaved accelerator and NIC
// acquires with a mid-script release (so free-list reuse order is part
// of the property), every grant's donor recorded in order, everything
// released at the end. opts is appended to every request (the hier runs
// pin a placement scope; the flat run adds nothing).
func deviceScript(t *testing.T, pl Plane, eng *sim.Engine, app *node.Node, opts ...Option) []fabric.NodeID {
	t.Helper()
	client := accel.NewClient(app)
	var seq []fabric.NodeID
	done := app.Run("dev-script", func(p *sim.Proc) {
		var live []Lease
		acc := func() *AccelLease {
			req := NewRequest(Accel, app, 0, append([]Option{WithClient(client)}, opts...)...)
			l, err := pl.Acquire(p, req)
			if err != nil {
				t.Errorf("script accel acquire %d: %v", len(seq), err)
				return nil
			}
			seq = append(seq, l.Donor())
			live = append(live, l)
			return l.(*AccelLease)
		}
		nic := func() {
			l, err := pl.Acquire(p, NewRequest(NIC, app, 0, opts...))
			if err != nil {
				t.Errorf("script nic acquire %d: %v", len(seq), err)
				return
			}
			seq = append(seq, l.Donor())
			live = append(live, l)
		}
		acc()
		a2 := acc()
		nic()
		acc()
		if a2 == nil {
			return
		}
		// Return one unit mid-script: the next grant must re-walk the
		// refreshed table identically on every plane shape.
		a2.Release(p)
		acc()
		nic()
		auditDevices(t, pl)
		for i := len(live) - 1; i >= 0; i-- {
			if live[i] != a2 {
				live[i].Release(p)
			}
		}
		auditDevices(t, pl)
	})
	switch c := pl.(type) {
	case *Cluster:
		for !done.Done() && c.Eng.Step() {
		}
	case *HierCluster:
		for !done.Done() && c.Eng.Step() {
		}
	}
	if !done.Done() {
		t.Fatalf("device script wedged with %d live procs", eng.LiveProcs())
	}
	return seq
}

// auditDevices fails t if an MN of pl (the flat plane's, or each
// rack's sub-MN) counts device units on loan that its RAT rows do not
// show.
func auditDevices(t *testing.T, pl Plane) {
	t.Helper()
	var mns []*monitor.Monitor
	switch c := pl.(type) {
	case *Cluster:
		mns = append(mns, c.MN)
	case *HierCluster:
		mns = c.Subs
	}
	for _, m := range mns {
		if err := m.AuditDevices(); err != nil {
			t.Error(err)
		}
	}
}

// flatDeviceSeq builds the reference flat mesh — donors 2..6 advertising
// two accelerators and a NIC each — and runs the script from node 7.
func flatDeviceSeq(t *testing.T) []fabric.NodeID {
	t.Helper()
	c := NewCluster(Config{StartAgents: true, Seed: 7})
	t.Cleanup(c.Close)
	for i := 2; i <= 6; i++ {
		advertiseFarm(t, c.Node(i), c.Agents[i])
	}
	c.RunFor(1 * sim.Second)
	return deviceScript(t, c, c.Eng, c.Node(7))
}

// hierDeviceSeq builds a two-rack fabric whose rack 0 is the same 2x2x2
// mesh with the same donors (node ids coincide), plus a donor farm in
// rack 1, and runs the script twice from rack-0 node 7: once rack-local,
// once cross-rack (delegated through the root MN).
func hierDeviceSeq(t *testing.T) (local, cross []fabric.NodeID, cl *HierCluster) {
	t.Helper()
	cl = NewHierCluster(HierConfig{
		Racks: 2, RackX: 2, RackY: 2, RackZ: 2,
		Seed:              7,
		HeartbeatInterval: 100 * sim.Microsecond,
		RackBeatInterval:  200 * sim.Microsecond,
	})
	t.Cleanup(cl.Close)
	for i := 2; i <= 6; i++ {
		advertiseFarm(t, cl.Node(i), cl.Agents[i])
	}
	for _, id := range cl.Hier.RackNodes(1)[2:] {
		advertiseFarm(t, cl.Node(int(id)), cl.Agents[id])
	}
	cl.RunFor(25 * sim.Millisecond) // beats + rack beats carry the advertisements up
	app := cl.Node(7)
	local = deviceScript(t, cl, cl.Eng, app, WithScope(monitor.ScopeLocalRack))
	cross = deviceScript(t, cl, cl.Eng, app, WithScope(monitor.ScopeRemoteRack))
	return local, cross, cl
}

// TestDeviceGrantIdentityFlatHier is the device-plane placement
// property: under shared seeds and identical advertisements, rack-local
// device acquisition on the hierarchical plane walks to exactly the
// donors the flat plane picks (rack-0 node ids coincide with the flat
// mesh's), and cross-rack acquisition — root-delegated to another rack's
// sub-MN — is grant-identical across independently built planes. The CI
// race job runs this test under the detector.
func TestDeviceGrantIdentityFlatHier(t *testing.T) {
	flat := flatDeviceSeq(t)
	if len(flat) != 6 {
		t.Fatalf("flat script recorded %d grants, want 6", len(flat))
	}
	local1, cross1, cl1 := hierDeviceSeq(t)
	local2, cross2, _ := hierDeviceSeq(t)

	// Rack-local hier grants reproduce the flat plane's walk.
	if len(local1) != len(flat) {
		t.Fatalf("hier local script recorded %d grants, want %d", len(local1), len(flat))
	}
	for i := range flat {
		if local1[i] != flat[i] {
			t.Fatalf("grant %d: hier rack-local donor %v != flat donor %v (full: %v vs %v)",
				i, local1[i], flat[i], local1, flat)
		}
	}
	// Cross-rack grants leave the requester's rack...
	rackOf := func(id fabric.NodeID) int {
		r, ok := cl1.Hier.RackOf(id)
		if !ok {
			t.Fatalf("grant donor %v is a spine switch", id)
		}
		return r
	}
	for i, d := range cross1 {
		if rackOf(d) == 0 {
			t.Fatalf("cross grant %d landed in the requester's rack on %v", i, d)
		}
	}
	// ...and both scripts are grant-identical across plane builds.
	for i := range local1 {
		if local1[i] != local2[i] {
			t.Fatalf("rack-local grant %d not reproducible: %v vs %v", i, local1, local2)
		}
	}
	if len(cross1) != len(cross2) {
		t.Fatalf("cross scripts recorded %d vs %d grants", len(cross1), len(cross2))
	}
	for i := range cross1 {
		if cross1[i] != cross2[i] {
			t.Fatalf("cross-rack grant %d not reproducible: %v vs %v", i, cross1, cross2)
		}
	}
	// Every delegated lease was released through the delegated free path
	// and no rack kept a stale row.
	if got := cl1.Subs[0].Stats.Get("free.delegated"); got != int64(len(cross1)) {
		t.Fatalf("rack-0 sub-MN forwarded %d delegated frees, want %d", got, len(cross1))
	}
	for r, sub := range cl1.Subs {
		if n := len(sub.Allocations()); n != 0 {
			t.Fatalf("rack-%d RAT holds %d rows after the scripts, want 0", r, n)
		}
	}
}

// mixedBatch builds the canonical memory+accelerator+NIC batch the
// rollback tests drive through AcquireAll. memSize lets one case make
// the memory leg impossible.
func mixedBatch(app *node.Node, client *accel.Client, memSize uint64, opts ...Option) []Request {
	return []Request{
		NewRequest(Memory, app, memSize, opts...),
		NewRequest(Accel, app, 0, append([]Option{WithClient(client)}, opts...)...),
		NewRequest(NIC, app, 0, opts...),
	}
}

// eventShapes compresses an event list to "type/kind" strings for order
// assertions.
func eventShapes(evs []Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type.String() + "/" + ev.Kind.String()
	}
	return out
}

// TestAcquireAllMixedRollback: an all-or-nothing batch spanning memory
// AND device kinds unwinds completely no matter which position fails —
// the reverse rollback releases device leases (returning their units to
// the donor's RRT row) exactly like memory leases, the full capacity is
// re-acquirable immediately afterwards, and the event stream shows the
// grants released in reverse order.
func TestAcquireAllMixedRollback(t *testing.T) {
	cases := []struct {
		name    string
		failPos int
		// exhaust names the device kind a pre-acquired lease drains to 0
		// units so the batch fails at failPos (none for the memory case,
		// which fails on an impossible size instead).
		exhaust Kind
		want    []string // observed event order for the batch
	}{
		{"memory-first", 0, 0, []string{
			"acquire-failed/memory"}},
		{"accel-mid", 1, Accel, []string{
			"granted/memory", "acquire-failed/accelerator", "released/memory"}},
		{"nic-last", 2, NIC, []string{
			"granted/memory", "granted/accelerator", "acquire-failed/nic",
			"released/accelerator", "released/memory"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(Config{StartAgents: true, Seed: 7})
			defer c.Close()
			// One donor, one unit of each device kind: a single held lease
			// can exhaust a pool.
			donor := c.Node(3)
			kernel := accel.FFT{MBps: 200}
			svc := accel.Serve(donor, accel.New(c.Eng, c.P, kernel))
			defer svc.Shutdown()
			c.Agents[3].Devices[monitor.DevAccelerator] = 1
			c.Agents[3].Devices[monitor.DevNIC] = 1
			c.RunFor(1 * sim.Second)

			app := c.Node(7)
			client := accel.NewClient(app)
			var events []Event
			collecting := false
			c.Observe(func(ev Event) {
				if collecting {
					events = append(events, ev)
				}
			})
			done := app.Run("rollback", func(p *sim.Proc) {
				var held Lease
				if tc.exhaust != 0 {
					var err error
					req := NewRequest(tc.exhaust, app, 0)
					if tc.exhaust == Accel {
						req = req.With(WithClient(client))
					}
					if held, err = c.Acquire(p, req); err != nil {
						t.Errorf("exhausting %s pool: %v", tc.exhaust, err)
						return
					}
				}
				memSize := uint64(64 << 20)
				if tc.failPos == 0 {
					memSize = 16 << 30 // no 1 GiB node can back this
				}
				collecting = true
				leases, err := c.AcquireAll(p, mixedBatch(app, client, memSize)...)
				collecting = false
				if err == nil {
					t.Error("mixed batch succeeded despite the exhausted pool")
					return
				}
				if !errors.Is(err, ErrUnavailable) {
					t.Errorf("batch error %v is not ErrUnavailable", err)
				}
				if leases != nil {
					t.Errorf("failed batch returned leases: %v", leases)
				}
				// Rollback returned every unit: with the blocker gone the
				// full batch is immediately grantable.
				if held != nil {
					held.Release(p)
				}
				retry, err := c.AcquireAll(p, mixedBatch(app, client, 64<<20)...)
				if err != nil {
					t.Errorf("batch after rollback: %v (capacity not restored)", err)
					return
				}
				for i := len(retry) - 1; i >= 0; i-- {
					retry[i].Release(p)
				}
			})
			for !done.Done() && c.Eng.Step() {
			}
			if !done.Done() {
				t.Fatalf("rollback scenario wedged with %d live procs", c.Eng.LiveProcs())
			}
			got := eventShapes(events)
			if len(got) != len(tc.want) {
				t.Fatalf("batch event stream %v, want %v", got, tc.want)
			}
			for i := range tc.want {
				if got[i] != tc.want[i] {
					t.Fatalf("batch event stream %v, want %v", got, tc.want)
				}
			}
			if n := len(c.MN.Allocations()); n != 0 {
				t.Fatalf("RAT holds %d rows at the end, want 0", n)
			}
			reg, ok := c.MN.Registered(donor.ID)
			if !ok {
				t.Fatal("donor fell out of the RRT")
			}
			if reg.Devices[monitor.DevAccelerator] != 1 || reg.Devices[monitor.DevNIC] != 1 {
				t.Fatalf("donor device counts not restored: %v", reg.Devices)
			}
		})
	}
}

// TestAcquireAllRollbackReleasesDelegated is the hierarchical leg of the
// rollback contract: when a batch's accelerator lease was delegated
// across racks by the root MN and a later request fails, the reverse
// rollback must release the delegated lease through the cross-rack free
// path — the donor rack's RAT row clears, the unit is re-grantable, and
// nothing leaks in the root's delegation table.
func TestAcquireAllRollbackReleasesDelegated(t *testing.T) {
	cl := NewHierCluster(hierTestConfig())
	defer cl.Close()
	// One accelerator in rack 1, nothing anywhere else — and no NIC
	// advertised on any rack, so the batch's last request must fail.
	donor := cl.Node(6) // rack 1 (racks are 2x2x1 quads)
	svc := accel.Serve(donor, accel.New(cl.Eng, cl.P, accel.FFT{MBps: 200}))
	defer svc.Shutdown()
	cl.Agents[donor.ID].Devices[monitor.DevAccelerator] = 1
	cl.RunFor(25 * sim.Millisecond)

	app := cl.Node(2) // rack 0
	client := accel.NewClient(app)
	done := app.Run("deleg-rollback", func(p *sim.Proc) {
		_, err := cl.AcquireAll(p,
			NewRequest(Memory, app, 4<<20, WithScope(monitor.ScopeLocalRack)),
			NewRequest(Accel, app, 0, WithClient(client), WithScope(monitor.ScopeRemoteRack)),
			NewRequest(NIC, app, 0), // nobody advertises a NIC
		)
		if err == nil {
			t.Error("batch succeeded despite the NIC-less fabric")
			return
		}
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("batch error %v is not ErrUnavailable", err)
		}
		// The delegated unit came back: the same cross-rack accelerator is
		// grantable again (retry rides out free-path propagation).
		l, err := cl.Acquire(p, NewRequest(Accel, app, 0,
			WithClient(client), WithScope(monitor.ScopeRemoteRack),
			WithRetry(RetryPolicy{Attempts: 5, Backoff: sim.Millisecond})))
		if err != nil {
			t.Errorf("cross-rack re-acquire after rollback: %v", err)
			return
		}
		if l.Donor() != donor.ID {
			t.Errorf("re-acquire landed on %v, want the rolled-back donor %v", l.Donor(), donor.ID)
		}
		l.Release(p)
	})
	stepUntil(t, cl, done)
	if got := cl.Subs[0].Stats.Get("free.delegated"); got != 2 {
		t.Fatalf("rack-0 sub-MN forwarded %d delegated frees, want 2 (rollback + explicit release)", got)
	}
	for r, sub := range cl.Subs {
		if n := len(sub.Allocations()); n != 0 {
			t.Fatalf("rack-%d RAT holds %d rows after rollback, want 0", r, n)
		}
	}
}
