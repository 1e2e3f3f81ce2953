package tenancy_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// Admission-ordering contract, exercised end to end on the flat monitor
// plane (the one that admits) for both memory and device leases: under
// a saturated pool the MN must treat the classes in strict lattice
// order — Preemptible is rejected outright, Standard queues and then
// preempts its way in, Latency preempts immediately without ever
// queueing — and a queued request whose caller set a shorter
// WithTimeout surfaces ErrTimeout instead of hanging.

// orderRig is the pool under test: a flat cluster's MN leasing memory
// or NICs.
type orderRig struct {
	name  string
	plane core.Plane
	app   *node.Node
	stats *monitor.Counters
	eng   *sim.Engine
	// units is the pool size in leases; preemptibleUnits how many the
	// Preemptible budget admits.
	units, preemptibleUnits int
	// kind and size shape every lease; preemptKey is the scoreboard key
	// counting its evictions.
	kind       core.Kind
	size       uint64
	preemptKey string
	// stdPreempts/latPreempts, when non-zero, are the exact evictions
	// the Standard and the Latency grant each need.
	stdPreempts, latPreempts int64
	close                    func()
}

// orderPolicy is the pinned admission policy the ordering table runs
// under: no degradation (sizes stay exact), Standard the only class
// allowed to wait.
func orderPolicy() *tenancy.Config {
	return &tenancy.Config{
		PerClass: [tenancy.NumClasses]tenancy.Limits{
			tenancy.Preemptible: {ReserveFrac: 0.5, SLOMult: 16},
			tenancy.Standard:    {ReserveFrac: 0.75, MaxWait: sim.Millisecond, SLOMult: 8},
			tenancy.Latency:     {ReserveFrac: 1.0, SLOMult: 4},
		},
	}
}

const (
	orderNodeMem = uint64(32 << 20)
	orderLease   = uint64(8 << 20)
)

func flatRig(t *testing.T) *orderRig {
	t.Helper()
	return newFlatRig(t, 0)
}

// flatNICRig is the flat rig leasing NICs: six donors advertise two
// each. Standard's budget (0.75 of 12 units) needs four evictions from
// the full pool, Latency's one.
func flatNICRig(t *testing.T) *orderRig {
	t.Helper()
	rig := newFlatRig(t, 2)
	rig.name, rig.kind, rig.size, rig.preemptKey = "flat-nic", core.NIC, 0, "preempt.device"
	rig.units, rig.preemptibleUnits = 12, 6
	rig.stdPreempts, rig.latPreempts = 4, 1
	return rig
}

// newFlatRig builds the flat rig with nics NICs advertised on each
// donor (none for the memory case).
func newFlatRig(t *testing.T, nics int) *orderRig {
	t.Helper()
	topo := fabric.Mesh3D(2, 2, 2)
	cl := core.NewCluster(core.Config{
		Topology:     &topo,
		NodeMemBytes: orderNodeMem,
		StartAgents:  true,
		Admission:    orderPolicy(),
	})
	for _, i := range []int{0, 1} { // MN and app out of donor candidacy
		if err := cl.Node(i).MemMgr.Reserve(cl.Node(i).MemMgr.Idle()); err != nil {
			t.Fatalf("reserving node %d: %v", i, err)
		}
	}
	if nics > 0 {
		for i := 2; i < len(cl.Agents); i++ {
			cl.Agents[i].Devices[monitor.DevNIC] = nics
		}
	}
	cl.RunFor(10 * sim.Millisecond)
	return &orderRig{
		name: "flat", plane: cl, app: cl.Node(1), stats: &cl.MN.Stats,
		eng: cl.Eng, units: 24, preemptibleUnits: 12, close: cl.Close,
		kind: core.Memory, size: orderLease, preemptKey: "preempt.memory",
	}
}

func TestAdmissionClassOrdering(t *testing.T) {
	rigs := []func(*testing.T) *orderRig{flatRig, flatNICRig}
	for _, mk := range rigs {
		rig := mk(t)
		t.Run(rig.name, func(t *testing.T) {
			defer rig.close()
			acquire := func(p *sim.Proc, opts ...core.Option) (core.Lease, error) {
				req := core.NewRequest(rig.kind, rig.app, rig.size)
				return rig.plane.Acquire(p, req.With(opts...))
			}
			done := rig.app.Run("admission-order", func(p *sim.Proc) {
				// Saturate the Preemptible budget, then fill the rest of the
				// pool with untagged leases admission never sees.
				holders := 0
				for {
					_, err := acquire(p, core.WithTenant(uint64(100+holders), tenancy.Preemptible))
					if err != nil {
						if !errors.Is(err, core.ErrAdmissionRejected) {
							t.Errorf("holder %d: got %v, want ErrAdmissionRejected at budget", holders, err)
						}
						break
					}
					holders++
				}
				if holders != rig.preemptibleUnits {
					t.Errorf("Preemptible budget admitted %d leases, want %d", holders, rig.preemptibleUnits)
					return
				}
				fill := func() int {
					n := 0
					for {
						if _, err := acquire(p); err != nil {
							if !errors.Is(err, core.ErrUnavailable) {
								t.Errorf("untagged fill: got %v, want ErrUnavailable when the pool drains", err)
							}
							return n
						}
						n++
					}
				}
				if got := fill(); got != rig.units-rig.preemptibleUnits {
					t.Errorf("untagged fill took %d leases, want %d", got, rig.units-rig.preemptibleUnits)
					return
				}

				// Lowest class first: rejected outright, and never allowed to
				// preempt its own class.
				preempts := func() int64 { return rig.stats.Get(rig.preemptKey) }
				queued := func() int64 { return rig.stats.Get("admit.queued") }
				if _, err := acquire(p, core.WithTenant(1, tenancy.Preemptible)); !errors.Is(err, core.ErrAdmissionRejected) {
					t.Errorf("Preemptible under pressure: got %v, want ErrAdmissionRejected", err)
				}
				if got := preempts(); got != 0 {
					t.Errorf("Preemptible rejection triggered %d preemptions, want 0", got)
				}

				// Standard: queues for its bounded wait, then preempts in.
				q0 := queued()
				if _, err := acquire(p, core.WithTenant(2, tenancy.Standard)); err != nil {
					t.Errorf("Standard under pressure: got %v, want a preempted-in grant", err)
					return
				}
				stdPreempts := preempts()
				if stdPreempts == 0 {
					t.Error("Standard grant preempted nothing; it should have evicted Preemptible leases")
				}
				if queued() != q0+1 {
					t.Errorf("Standard grant queued %d times, want exactly 1", queued()-q0)
				}
				if rig.stdPreempts > 0 && stdPreempts != rig.stdPreempts {
					t.Errorf("Standard grant evicted %d leases, want exactly %d", stdPreempts, rig.stdPreempts)
				}

				// Latency: the full pool is re-filled, then the top class goes
				// straight to preemption — no queue wait at all.
				fill()
				q1 := queued()
				if _, err := acquire(p, core.WithTenant(3, tenancy.Latency)); err != nil {
					t.Errorf("Latency under pressure: got %v, want a preempted-in grant", err)
					return
				}
				if preempts() <= stdPreempts {
					t.Error("Latency grant preempted nothing; it should have evicted a Preemptible lease")
				}
				if rig.latPreempts > 0 && preempts()-stdPreempts != rig.latPreempts {
					t.Errorf("Latency grant evicted %d leases, want exactly %d", preempts()-stdPreempts, rig.latPreempts)
				}
				if queued() != q1 {
					t.Errorf("Latency grant queued (%d -> %d); the top class must never wait", q1, queued())
				}

				// A queued request bounded by a shorter client-side timeout
				// surfaces ErrTimeout promptly instead of hanging out the
				// MN-side wait.
				t0 := p.Now()
				_, err := acquire(p, core.WithTenant(4, tenancy.Standard), core.WithTimeout(200*sim.Microsecond))
				if !errors.Is(err, core.ErrTimeout) {
					t.Errorf("queued request with short timeout: got %v, want ErrTimeout", err)
				}
				if waited := p.Now().Sub(t0); waited >= sim.Millisecond {
					t.Errorf("timed-out request waited %v, want under the 1ms queue bound", waited)
				}
			})
			for !done.Done() && rig.eng.Step() {
			}
			if !done.Done() {
				t.Fatalf("admission-order scenario deadlocked")
			}
		})
	}
}

// TestTimedOutQueuedAcquireKeepsItsRecord: an acquire whose WithTimeout
// runs out while the MN holds its request in the admission queue leaves
// its grant call's record with the MN, which reads the request again
// when the wait ends and writes its late answer into the record. So the
// plane must not hand that record to the next acquire. Here the next
// acquire queues behind it and is still waiting when the first one's
// wait ends: each must be granted the window it asked for, so no two
// RAT rows may name one window, and the second lease must be the row
// its own answer named.
func TestTimedOutQueuedAcquireKeepsItsRecord(t *testing.T) {
	rig := flatRig(t)
	defer rig.close()
	mn := rig.plane.(*core.Cluster).MN
	acquire := func(p *sim.Proc, opts ...core.Option) (core.Lease, error) {
		return rig.plane.Acquire(p, core.NewRequest(rig.kind, rig.app, rig.size, opts...))
	}
	var second core.Lease
	done := rig.app.Run("timed-out-queue", func(p *sim.Proc) {
		// Saturate the Preemptible budget, then fill the rest of the pool.
		for i := 0; ; i++ {
			if _, err := acquire(p, core.WithTenant(uint64(100+i), tenancy.Preemptible)); err != nil {
				break
			}
		}
		for {
			if _, err := acquire(p); err != nil {
				break
			}
		}
		q0 := rig.stats.Get("admit.queued")
		if _, err := acquire(p, core.WithTenant(4, tenancy.Standard), core.WithTimeout(200*sim.Microsecond)); !errors.Is(err, core.ErrTimeout) {
			t.Errorf("queued request with short timeout: got %v, want ErrTimeout", err)
			return
		}
		var err error
		if second, err = acquire(p, core.WithTenant(5, tenancy.Standard)); err != nil {
			t.Errorf("second Standard request: %v", err)
			return
		}
		if got := rig.stats.Get("admit.queued") - q0; got != 2 {
			t.Errorf("test premise broken: %d requests queued, want both", got)
		}
	})
	for !done.Done() && rig.eng.Step() {
	}
	if !done.Done() || second == nil {
		t.Fatal("scenario did not finish")
	}
	rig.eng.RunFor(100 * sim.Millisecond) // let the first request's late grant land
	rows := mn.Allocations()
	windows := make(map[uint64]int)
	late := 0
	for _, a := range rows {
		if windows[a.RecipientBase]++; windows[a.RecipientBase] > 1 {
			t.Fatalf("two RAT rows name window %#x: %+v", a.RecipientBase, rows)
		}
		if a.Tenant == 4 {
			late++
		}
	}
	if late != 1 {
		t.Fatalf("test premise broken: %d rows hold the timed-out request's late grant, want 1", late)
	}
	base, _ := second.Window()
	for _, a := range rows {
		if a.RecipientBase == base {
			if a.Donor != second.Donor() || a.Tenant != 5 {
				t.Fatalf("the second lease (donor %v) is backed by row %+v", second.Donor(), a)
			}
			return
		}
	}
	t.Fatalf("no RAT row backs the second lease's window %#x", base)
}
