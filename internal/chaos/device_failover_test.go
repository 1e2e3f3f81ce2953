package chaos

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sim"
)

// TestKillAccelDonorMidRequest is the device-plane failover acceptance
// test: a tenant on node 1 leases a remote accelerator and streams tasks
// through it while chaos kills the donor mid-request. The monitor must
// re-place the lease onto a surviving donor with a free device, the
// handle must replay its in-flight chunks there, recovery must complete
// within a small multiple of the detection timeout, and not a single
// task may be lost: every submitted task completes exactly once. The
// lease's trace id must chain the whole story on the plane's event
// stream — granted, failed-over (old donor named), released.
func TestKillAccelDonorMidRequest(t *testing.T) {
	const (
		beat      = 100 * sim.Microsecond
		timeout   = 500 * sim.Microsecond
		sweep     = 250 * sim.Microsecond
		tasks     = 60
		taskBytes = 128 << 10
	)
	cl := core.NewCluster(core.Config{
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: beat,
		HeartbeatTimeout:  timeout,
		SweepInterval:     sweep,
		Seed:              77,
	})
	defer cl.Close()
	// Every node past the MN and the tenant hosts two accelerators and
	// advertises them: leasing one unit leaves every donor with failover
	// headroom, so a crash always has a live candidate.
	kernel := accel.FFT{MBps: 360, Setup: 10 * sim.Microsecond}
	for i := 2; i < len(cl.Nodes); i++ {
		svc := accel.Serve(cl.Node(i),
			accel.New(cl.Eng, cl.P, kernel), accel.New(cl.Eng, cl.P, kernel))
		defer svc.Shutdown()
		cl.Agents[i].Devices[monitor.DevAccelerator] = 2
	}
	cl.RunFor(20 * sim.Millisecond) // device advertisements ride the beats

	inj := New(cl.Eng, cl.Net, cl.Agents)
	tenant := cl.Node(1)
	client := accel.NewClient(tenant)
	var events []core.Event
	cl.Observe(func(ev core.Event) { events = append(events, ev) })

	var lease *core.AccelLease
	completed := 0
	var issuedAt, doneAt []sim.Time
	done := tenant.Run("tenant", func(p *sim.Proc) {
		l, err := cl.Acquire(p, core.NewRequest(core.Accel, tenant, 0, core.WithClient(client)))
		if err != nil {
			t.Errorf("accel acquire: %v", err)
			return
		}
		lease = l.(*core.AccelLease)
		donor := lease.Donor()
		// Kill the donor inside the first tasks' chunk pipeline; restart it
		// long after failover must have resolved.
		cl.Eng.Schedule(500*sim.Microsecond, func() { inj.KillNode(donor) })
		cl.Eng.Schedule(20*sim.Millisecond, func() { inj.RestartNode(donor) })

		for i := 0; i < tasks; i++ {
			issuedAt = append(issuedAt, p.Now())
			lease.Handle.Run(p, "fft", taskBytes)
			doneAt = append(doneAt, p.Now())
			completed++
		}
		// The lease has moved off the dead donor, which has rebooted and
		// beats again: each donor's count of units on loan, which its
		// beats re-debit, must match the RAT.
		if err := cl.MN.AuditDevices(); err != nil {
			t.Error(err)
		}
		lease.Release(p)
	})
	for !done.Done() && cl.Eng.Step() {
	}
	if !done.Done() {
		t.Fatalf("tenant wedged: %d/%d tasks completed, %d live procs",
			completed, tasks, cl.Eng.LiveProcs())
	}
	if err := cl.MN.AuditDevices(); err != nil {
		t.Error(err)
	}

	// Zero lost completions.
	if completed != tasks {
		t.Fatalf("completed %d of %d tasks", completed, tasks)
	}
	// The lease followed recovery onto a survivor and replayed in-flight
	// chunks there.
	if lease.Revoked() {
		t.Fatal("lease revoked — recovery found no replacement despite advertised headroom")
	}
	if lease.Handle.Replays == 0 {
		t.Fatal("no chunk was ever replayed — the crash never hit an in-flight task")
	}
	if got := cl.MN.Stats.Get("recover.devices_replaced"); got != 1 {
		t.Fatalf("recover.devices_replaced = %d, want 1", got)
	}
	if n := len(cl.MN.Allocations()); n != 0 {
		t.Fatalf("RAT holds %d rows after release, want 0", n)
	}

	// The trace chain: the lease's id strings its whole lifecycle
	// together on the plane's stream, in order.
	var chain []core.Event
	for _, ev := range events {
		if ev.Trace == lease.Trace() {
			chain = append(chain, ev)
		}
	}
	if len(chain) != 3 {
		t.Fatalf("trace %d chain has %d events, want granted/failed-over/released: %+v",
			lease.Trace(), len(chain), chain)
	}
	granted, failedOver, released := chain[0], chain[1], chain[2]
	if granted.Type != core.LeaseGranted || granted.Kind != core.Accel {
		t.Fatalf("chain[0] = %+v, want accelerator granted", granted)
	}
	if failedOver.Type != core.LeaseFailedOver {
		t.Fatalf("chain[1] = %+v, want failed-over", failedOver)
	}
	if failedOver.OldDonor != granted.Donor {
		t.Fatalf("failed-over OldDonor %v, want the crashed donor %v", failedOver.OldDonor, granted.Donor)
	}
	if failedOver.Donor == granted.Donor || failedOver.Donor != lease.Donor() {
		t.Fatalf("failed-over Donor %v inconsistent (crashed %v, lease now on %v)",
			failedOver.Donor, granted.Donor, lease.Donor())
	}
	if released.Type != core.LeaseReleased || released.Donor != lease.Donor() {
		t.Fatalf("chain[2] = %+v, want released on the replacement donor", released)
	}

	// Bounded recovery: the longest task stall covers detection (timeout
	// + sweep) plus the failover RPCs and one chunk-pipeline replay, with
	// slack — far under the ~19ms the donor stayed dead, so failover
	// restored service, not the repair.
	var worst sim.Dur
	for i := range doneAt {
		if d := doneAt[i].Sub(issuedAt[i]); d > worst {
			worst = d
		}
	}
	if bound := sim.Dur(timeout + sweep + 4*sim.Millisecond); worst > bound {
		t.Fatalf("worst task stall %v exceeds recovery bound %v", worst, bound)
	}
	if worst < sim.Dur(timeout) {
		t.Fatalf("worst stall %v is under the detection timeout %v — the fault never bit", worst, sim.Dur(timeout))
	}
}
