package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/accel"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// eventLine renders every field of a plane event.
func eventLine(ev Event) string {
	return fmt.Sprintf("%s %s at=%d trace=%d recipient=%d donor=%d old=%d size=%d window=%#x tenant=%d class=%s err=%q",
		ev.Type, ev.Kind, ev.At, ev.Trace, ev.Recipient, ev.Donor, ev.OldDonor,
		ev.Size, ev.Window, ev.Tenant, ev.Class, ev.Err)
}

// runOn runs fn as a process on n and steps eng until it returns.
func runOn(t *testing.T, eng *sim.Engine, n *node.Node, fn func(p *sim.Proc)) {
	t.Helper()
	done := n.Run("event-script", fn)
	for !done.Done() && eng.Step() {
	}
	if !done.Done() {
		t.Fatalf("event script wedged with %d live procs", eng.LiveProcs())
	}
}

// cycle acquires req on pl and releases it at once.
func cycle(t *testing.T, p *sim.Proc, pl Plane, req Request) {
	t.Helper()
	l, err := pl.Acquire(p, req)
	if err != nil {
		t.Errorf("acquire %s: %v", req.Kind, err)
		return
	}
	l.Release(p)
}

// TestLeaseEventStream pins every field and instant of the plane's
// lease-event stream: one lease of each kind on a flat cluster, a
// class-tagged lease, a request that fails validation, one delegated
// cross-rack lease of each MN-brokered kind, and a memory lease whose
// donor crashes under it, so the MN's failover reaches the stream.
func TestLeaseEventStream(t *testing.T) {
	var got []string
	record := func(ev Event) { got = append(got, eventLine(ev)) }

	flat := NewCluster(Config{StartAgents: true, Seed: 3})
	t.Cleanup(flat.Close)
	advertiseFarm(t, flat.Node(2), flat.Agents[2])
	flat.RunFor(10 * sim.Millisecond)
	flat.Observe(record)
	app := flat.Node(7)
	client := accel.NewClient(app)
	runOn(t, flat.Eng, app, func(p *sim.Proc) {
		for _, req := range []Request{
			NewRequest(Memory, app, 64<<20),
			NewRequest(Swap, app, 32<<20),
			NewRequest(Accel, app, 0, WithClient(client)),
			NewRequest(NIC, app, 0),
			NewRequest(Memory, app, 8<<20, WithTenant(42, tenancy.Standard)),
		} {
			cycle(t, p, flat, req)
		}
		if _, err := flat.Acquire(p, NewRequest(Memory, app, 0)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("zero-size acquire: err = %v, want ErrBadRequest", err)
		}
	})

	cfg := hierTestConfig()
	cfg.Racks = 2
	hier := NewHierCluster(cfg)
	t.Cleanup(hier.Close)
	far := hier.Hier.RackNodes(1)[2]
	advertiseFarm(t, hier.Node(int(far)), hier.Agents[far])
	hier.RunFor(30 * sim.Millisecond)
	hier.Observe(record)
	happ := hier.Node(int(hier.Hier.RackNodes(0)[1]))
	hclient := accel.NewClient(happ)
	remote := WithScope(monitor.ScopeRemoteRack)
	runOn(t, hier.Eng, happ, func(p *sim.Proc) {
		for _, req := range []Request{
			NewRequest(Memory, happ, 64<<20, remote),
			NewRequest(Swap, happ, 32<<20, remote),
			NewRequest(Accel, happ, 0, WithClient(hclient), remote),
			NewRequest(NIC, happ, 0, remote),
		} {
			cycle(t, p, hier, req)
		}
	})

	rec := NewCluster(Config{
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: 100 * sim.Microsecond,
		HeartbeatTimeout:  500 * sim.Microsecond,
		SweepInterval:     250 * sim.Microsecond,
	})
	t.Cleanup(rec.Close)
	if err := rec.Node(0).MemMgr.Reserve(rec.Node(0).MemMgr.Idle()); err != nil {
		t.Fatal(err)
	}
	rec.RunFor(20 * sim.Millisecond)
	rec.Observe(record)
	tenant := rec.Node(4)
	runOn(t, rec.Eng, tenant, func(p *sim.Proc) {
		l, err := rec.Acquire(p, NewRequest(Memory, tenant, 8<<20))
		if err != nil {
			t.Error(err)
			return
		}
		donor := l.Donor()
		rec.Eng.Schedule(sim.Millisecond, func() {
			rec.Net.SetNodeDown(donor, true)
			rec.Agents[donor].Crash()
		})
		p.Sleep(5 * sim.Millisecond)
		l.Release(p)
	})

	want := []string{
		`granted memory at=14015178 trace=1 recipient=7 donor=3 old=0 size=67108864 window=0x40000000 tenant=0 class=none err=""`,
		`released memory at=18029777 trace=1 recipient=7 donor=3 old=0 size=67108864 window=0x40000000 tenant=0 class=none err=""`,
		`granted swap at=20044955 trace=2 recipient=7 donor=3 old=0 size=33554432 window=0x0 tenant=0 class=none err=""`,
		`released swap at=22059554 trace=2 recipient=7 donor=3 old=0 size=33554432 window=0x0 tenant=0 class=none err=""`,
		`granted accelerator at=22068338 trace=3 recipient=7 donor=2 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`released accelerator at=22077005 trace=3 recipient=7 donor=2 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`granted nic at=22085789 trace=4 recipient=7 donor=2 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`released nic at=22094456 trace=4 recipient=7 donor=2 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`granted memory at=26109634 trace=5 recipient=7 donor=3 old=0 size=8388608 window=0x46000000 tenant=42 class=standard err=""`,
		`released memory at=30124233 trace=5 recipient=7 donor=3 old=0 size=8388608 window=0x46000000 tenant=0 class=none err=""`,
		`acquire-failed memory at=30124233 trace=6 recipient=7 donor=0 old=0 size=0 window=0x0 tenant=0 class=none err="invalid request: zero-size memory request"`,
		`granted memory at=34012173 trace=1 recipient=1 donor=5 old=0 size=67108864 window=0x40000000 tenant=0 class=none err=""`,
		`released memory at=38023858 trace=1 recipient=1 donor=5 old=0 size=67108864 window=0x40000000 tenant=0 class=none err=""`,
		`granted swap at=40036031 trace=2 recipient=1 donor=5 old=0 size=33554432 window=0x0 tenant=0 class=none err=""`,
		`released swap at=42047716 trace=2 recipient=1 donor=5 old=0 size=33554432 window=0x0 tenant=0 class=none err=""`,
		`granted accelerator at=42056756 trace=3 recipient=1 donor=6 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`released accelerator at=42065475 trace=3 recipient=1 donor=6 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`granted nic at=42074515 trace=4 recipient=1 donor=6 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`released nic at=42083234 trace=4 recipient=1 donor=6 old=0 size=1 window=0x0 tenant=0 class=none err=""`,
		`granted memory at=24009066 trace=1 recipient=4 donor=5 old=0 size=8388608 window=0x40000000 tenant=0 class=none err=""`,
		`failed-over memory at=27508989 trace=1 recipient=4 donor=6 old=5 size=8388608 window=0x40000000 tenant=0 class=none err=""`,
		`released memory at=33017887 trace=1 recipient=4 donor=5 old=0 size=8388608 window=0x40000000 tenant=0 class=none err=""`,
	}
	if len(got) != len(want) {
		t.Errorf("recorded %d events, want %d", len(got), len(want))
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("event %d:\n got %s\nwant %s", i, g, w)
		}
	}
}

// TestObserverListHoldsOnlyLive: every device lease watches the plane's
// stream while it lives, and its release must take the watch off the
// hub's list, not leave a dead slot behind for every later emit to
// walk.
func TestObserverListHoldsOnlyLive(t *testing.T) {
	c := NewCluster(Config{StartAgents: true, Seed: 3})
	t.Cleanup(c.Close)
	advertiseFarm(t, c.Node(2), c.Agents[2])
	c.RunFor(10 * sim.Millisecond)
	app := c.Node(7)
	client := accel.NewClient(app)
	runOn(t, c.Eng, app, func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			cycle(t, p, c, NewRequest(Accel, app, 0, WithClient(client)))
			cycle(t, p, c, NewRequest(NIC, app, 0))
		}
	})
	if n := len(c.hub.obs); n != 0 {
		t.Errorf("hub holds %d observers after every lease was released, want 0", n)
	}
}
