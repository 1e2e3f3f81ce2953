package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// TestRequestValidation is the table-driven contract of Acquire's input
// checking: requests that can never succeed fail fast with
// ErrBadRequest (never retried, never sent to the MN).
func TestRequestValidation(t *testing.T) {
	c := defaultCluster(t)
	on := c.Node(7)
	client := accel.NewClient(on)

	cases := []struct {
		name string
		req  Request
		want string // substring of the error
	}{
		{"bad kind", NewRequest(Kind(99), on, 4096), "unknown kind"},
		{"zero kind", Request{On: on, Size: 4096}, "unknown kind"},
		{"nil recipient", NewRequest(Memory, nil, 4096), "no recipient"},
		{"zero size memory", NewRequest(Memory, on, 0), "zero-size"},
		{"zero size swap", NewRequest(Swap, on, 0), "zero-size"},
		{"scope on flat plane", NewRequest(Memory, on, 4096, WithScope(monitor.ScopeLocalRack)), "flat plane"},
		{"device id on memory", NewRequest(Memory, on, 4096, WithDevice(1)), "device id"},
		{"device id on nic", NewRequest(NIC, on, 0, WithDevice(1)), "device id"},
		{"client on memory", NewRequest(Memory, on, 4096, WithClient(client)), "client"},
		{"accel without client", NewRequest(Accel, on, 0), "WithClient"},
		{"client on nic", NewRequest(NIC, on, 0, WithClient(client)), "client"},
		{"scope on accel", NewRequest(Accel, on, 0, WithClient(client), WithScope(monitor.ScopeRemoteRack)), "scope"},
	}
	var failures int
	c.Observe(func(ev Event) {
		if ev.Type == LeaseAcquireFailed {
			failures++
		}
	})
	done := on.Run("validate", func(p *sim.Proc) {
		for _, tc := range cases {
			_, err := c.Acquire(p, tc.req)
			if err == nil {
				t.Errorf("%s: Acquire succeeded, want error", tc.name)
				continue
			}
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s: error %v is not ErrBadRequest", tc.name, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		}
		// An explicit ScopeAny is the do-not-care default and must stay
		// valid on a flat plane, so plane-generic code can always set a
		// computed scope.
		lease, err := c.Acquire(p, NewRequest(Memory, on, 4096, WithScope(monitor.ScopeAny)))
		if err != nil {
			t.Errorf("explicit ScopeAny on flat plane: %v", err)
		} else {
			lease.Release(p)
		}
	})
	c.RunFor(30 * sim.Second)
	if !done.Done() {
		t.Fatal("validation proc wedged — a bad request reached the MN")
	}
	if failures != len(cases) {
		t.Fatalf("observer saw %d acquire-failed events, want %d", failures, len(cases))
	}
}

// TestAcquireAllRollback: a batch whose last request cannot be served
// grants nothing — the leases acquired before the failure are released
// (donor memory returned, RAT empty) before the error surfaces.
func TestAcquireAllRollback(t *testing.T) {
	c := defaultCluster(t)
	recipient := c.Node(7)
	var events []string
	c.Observe(func(ev Event) { events = append(events, ev.Type.String()) })
	done := recipient.Run("batch", func(p *sim.Proc) {
		leases, err := c.AcquireAll(p,
			NewRequest(Memory, recipient, 64<<20),
			NewRequest(Memory, recipient, 16<<30), // no 1 GiB node can back this
		)
		if err == nil {
			t.Error("batch should have failed on the oversized request")
			return
		}
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("batch error %v is not ErrUnavailable", err)
		}
		if leases != nil {
			t.Errorf("failed batch returned leases: %v", leases)
		}
	})
	c.RunFor(60 * sim.Second)
	if !done.Done() {
		t.Fatal("batch wedged")
	}
	if n := len(c.MN.Allocations()); n != 0 {
		t.Fatalf("RAT rows after rollback = %d, want 0", n)
	}
	want := []string{"granted", "acquire-failed", "released"}
	if len(events) != len(want) {
		t.Fatalf("event stream %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event stream %v, want %v", events, want)
		}
	}
}

// TestWithRetryRidesOutEmptyRRT: an Acquire issued before any heartbeat
// lands fails its first attempt (the RRT is empty) and succeeds on a
// backoff re-attempt once the agents have registered.
func TestWithRetryRidesOutEmptyRRT(t *testing.T) {
	c := NewCluster(Config{StartAgents: true})
	defer c.Close()
	recipient := c.Node(7)
	var lease Lease
	done := recipient.Run("eager", func(p *sim.Proc) {
		// No warm-up: the first attempt races the agents' first beats.
		var err error
		lease, err = c.Acquire(p, NewRequest(Memory, recipient, 32<<20,
			WithRetry(RetryPolicy{Attempts: 3, Backoff: 20 * sim.Millisecond, Factor: 2})))
		if err != nil {
			t.Errorf("retried acquire failed: %v", err)
		}
	})
	c.RunFor(60 * sim.Second)
	if !done.Done() {
		t.Fatal("retry wedged")
	}
	if lease == nil {
		t.Fatal("no lease")
	}
	if got := c.MN.Stats.Get("alloc.failures"); got < 1 {
		t.Fatalf("alloc.failures = %d, want >= 1 (the first attempt must have raced the beats)", got)
	}
	if got := c.MN.Stats.Get("alloc.memory"); got != 1 {
		t.Fatalf("alloc.memory = %d, want 1", got)
	}

	// The same race without a retry schedule surfaces ErrUnavailable.
	c2 := NewCluster(Config{StartAgents: true})
	defer c2.Close()
	r2 := c2.Node(7)
	done2 := r2.Run("impatient", func(p *sim.Proc) {
		if _, err := c2.Acquire(p, NewRequest(Memory, r2, 32<<20)); !errors.Is(err, ErrUnavailable) {
			t.Errorf("unretried racing acquire: err = %v, want ErrUnavailable", err)
		}
	})
	c2.RunFor(60 * sim.Second)
	if !done2.Done() {
		t.Fatal("unretried acquire wedged")
	}
}

// TestWithTimeoutBoundsUnreachableMN: with the MN's node down, an
// Acquire carrying WithTimeout fails with ErrTimeout instead of parking
// the requester forever.
func TestWithTimeoutBoundsUnreachableMN(t *testing.T) {
	c := defaultCluster(t)
	c.Net.SetNodeDown(c.MN.Node(), true)
	recipient := c.Node(7)
	done := recipient.Run("timeout", func(p *sim.Proc) {
		t0 := p.Now()
		_, err := c.Acquire(p, NewRequest(Memory, recipient, 32<<20,
			WithTimeout(2*sim.Millisecond)))
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if waited := p.Now().Sub(t0); waited < 2*sim.Millisecond || waited > 10*sim.Millisecond {
			t.Errorf("waited %v, want ~2ms", waited)
		}
	})
	for !done.Done() && c.Eng.Step() {
	}
	if !done.Done() {
		t.Fatal("timed-out acquire wedged")
	}
}

// TestObserverSeesFailover: the plane's event stream carries monitor
// recovery — killing a lease's donor surfaces one failed-over event
// with the old and new donor, without the scenario polling the RAT.
func TestObserverSeesFailover(t *testing.T) {
	c := NewCluster(Config{
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: 100 * sim.Microsecond,
		HeartbeatTimeout:  500 * sim.Microsecond,
		SweepInterval:     250 * sim.Microsecond,
	})
	defer c.Close()
	// The MN must not be elected donor: crashing a donor must not take
	// the control plane with it.
	if err := c.Node(0).MemMgr.Reserve(c.Node(0).MemMgr.Idle()); err != nil {
		t.Fatal(err)
	}
	c.RunFor(20 * sim.Millisecond)

	var got []Event
	c.Observe(func(ev Event) { got = append(got, ev) })
	recipient := c.Node(4)
	done := recipient.Run("tenant", func(p *sim.Proc) {
		lease, err := c.Acquire(p, NewRequest(Memory, recipient, 8<<20))
		if err != nil {
			t.Error(err)
			return
		}
		ml := lease.(*MemoryLease)
		donor := ml.Donor()
		c.Eng.Schedule(1*sim.Millisecond, func() {
			c.Net.SetNodeDown(donor, true)
			c.Agents[donor].Crash()
		})
		rng := sim.NewRNG(3)
		for i := 0; i < 200; i++ {
			off := rng.Uint64n(ml.Size-2048) &^ 63
			recipient.EP.CRMA.Fill(p, ml.WindowBase+off, 2048)
			p.Sleep(20 * sim.Microsecond)
		}
	})
	for !done.Done() && c.Eng.Step() {
	}
	if !done.Done() {
		t.Fatalf("tenant wedged with %d live procs", c.Eng.LiveProcs())
	}
	if len(got) < 2 {
		t.Fatalf("observer saw %d events, want granted + failed-over", len(got))
	}
	if got[0].Type != LeaseGranted || got[0].Kind != Memory {
		t.Fatalf("first event %+v, want memory granted", got[0])
	}
	var fo *Event
	for i := range got {
		if got[i].Type == LeaseFailedOver {
			fo = &got[i]
		}
	}
	if fo == nil {
		t.Fatalf("no failed-over event in %+v", got)
	}
	if fo.OldDonor != got[0].Donor {
		t.Fatalf("failed-over OldDonor %v, want crashed donor %v", fo.OldDonor, got[0].Donor)
	}
	if fo.Donor == fo.OldDonor || fo.Recipient != recipient.ID {
		t.Fatalf("failed-over event inconsistent: %+v", fo)
	}
	if got := c.MN.Stats.Get("recover.replaced"); got != 1 {
		t.Fatalf("recover.replaced = %d, want 1", got)
	}
}

// TestHierAcquireDevice: the unified surface opens device attachment on
// the rack-scale plane — an Accel request resolves through the
// recipient's rack sub-MN, which the old per-cluster entry points never
// offered.
func TestHierAcquireDevice(t *testing.T) {
	cl := NewHierCluster(hierTestConfig())
	defer cl.Close()
	donor := cl.Node(3) // rack 0
	dev := accel.New(cl.Eng, cl.P, accel.FFT{MBps: 200})
	svc := accel.Serve(donor, dev)
	defer svc.Shutdown()
	cl.Agents[donor.ID].Devices[monitor.DevAccelerator] = 1
	cl.RunFor(25 * sim.Millisecond)

	recipient := cl.Node(2) // rack 0
	client := accel.NewClient(recipient)
	done := recipient.Run("offload", func(p *sim.Proc) {
		l, err := cl.Acquire(p, NewRequest(Accel, recipient, 0, WithClient(client)))
		if err != nil {
			t.Errorf("hier accel acquire: %v", err)
			return
		}
		lease := l.(*AccelLease)
		if lease.Donor() != donor.ID {
			t.Errorf("donor = %v, want %v", lease.Donor(), donor.ID)
		}
		lease.Handle.Run(p, "fft", 1<<20)
		lease.Release(p)
	})
	stepUntil(t, cl, done)
	if dev.Stats.Tasks == 0 {
		t.Fatal("accelerator never ran")
	}
	if n := len(cl.Subs[0].Allocations()); n != 0 {
		t.Fatalf("rack-0 RAT rows after release = %d, want 0", n)
	}
}
