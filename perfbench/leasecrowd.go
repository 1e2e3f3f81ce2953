package main

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// lease-crowd: a flash crowd of class-tagged sessions, each leasing,
// touching and returning an 8 MiB window, competes with preemptible
// holders for a six-donor pool behind the MN's admission plane. Host
// time goes to the grant, admission, preemption and free path, to
// hot-remove and hot-return, and to proc switching; the fabric carries
// only control RPCs and 2 KiB fills.
const (
	crowdNodeMem      = 32 << 20
	crowdWarm         = 10 * sim.Millisecond // populates the RRT
	crowdLeaseBytes   = 8 << 20
	crowdReadBytes    = 2 << 10
	crowdThink        = 20 * sim.Microsecond
	crowdWorkers      = 8
	crowdUtil         = 0.7
	crowdCalibrate    = 200 // closed-loop sessions
	crowdHolders      = 16
	crowdHolderBase   = uint64(1) << 32 // holder tenant ids sit above the crowd's
	crowdHolderPoll   = 100 * sim.Microsecond
	crowdSettle       = 20 * sim.Millisecond // holders claim their class budget
	crowdTenants      = 4096
	crowdLatencyFrac  = 0.2
	crowdStandardFrac = 0.5
	crowdSLO          = 50
)

func leaseCrowd(t *trial, requests int) error {
	topo := fabric.Mesh3D(2, 2, 2)
	var cl *core.Cluster
	var err error
	t.setupPhase(phaseBuild, func() {
		cl = core.NewCluster(core.Config{
			Topology:     &topo,
			NodeMemBytes: crowdNodeMem,
			StartAgents:  true,
			Seed:         rigSeed(streamCluster),
			Admission:    tenancy.Default(),
		})
		// The MN (node 0) and the app (node 1) never donate: six donors
		// form the pool.
		for _, i := range []int{0, 1} {
			if err == nil {
				err = cl.Node(i).MemMgr.Reserve(cl.Node(i).MemMgr.Idle())
			}
		}
	})
	defer cl.Close()
	if err != nil {
		return err
	}
	defer t.watch(cl)()
	read := func() counters {
		return readCounters(cl.Eng, cl.Net, cl.Nodes, obs.SnapshotFlat(cl).Stats)
	}

	t.setupPhase(phaseWarm, func() { cl.RunFor(crowdWarm) })

	// Preemptible holders each keep one lease, learn of its eviction
	// from the plane's event stream, and re-acquire with backoff.
	app := cl.Node(1)
	preempted := make(map[uint64]bool)
	defer cl.Observe(func(ev core.Event) {
		if ev.Type == core.LeasePreempted {
			preempted[ev.Trace] = true
		}
	})()
	stop := false
	holders := sim.NewGroup(cl.Eng)
	for h := 0; h < crowdHolders; h++ {
		tenant := crowdHolderBase + uint64(h)
		holders.Add(1)
		app.Run("bench-holder", func(p *sim.Proc) {
			defer holders.Done()
			attempt := 0
			for !stop {
				l, err := cl.Acquire(p, core.NewRequest(core.Memory, app, crowdLeaseBytes,
					core.WithTenant(tenant, tenancy.Preemptible)))
				if err != nil {
					attempt++
					p.Sleep(tenancy.Backoff{}.Delay(attempt))
					continue
				}
				attempt = 0
				for !stop && !preempted[l.Trace()] {
					p.Sleep(crowdHolderPoll)
				}
				evicted := preempted[l.Trace()]
				l.Release(p)
				if evicted {
					attempt++
					p.Sleep(tenancy.Backoff{}.Delay(attempt))
				}
			}
		})
	}
	err = t.setupProc(phaseLease, app, func(p *sim.Proc) error { p.Sleep(crowdSettle); return nil })
	if err != nil {
		return err
	}

	// A session: a class-tagged acquire (the admission plane may admit,
	// degrade, queue, preempt for it or refuse it), one 2 KiB line fill,
	// think time, release.
	session := func(p *sim.Proc, r *request) error {
		var l core.Lease
		var err error
		t.timeSpan(p, r.id, spanAcquire, func() {
			l, err = cl.Acquire(p, core.NewRequest(core.Memory, app, crowdLeaseBytes,
				core.WithTenant(r.tenant, r.class), core.WithRetry(leaseRetry)))
		})
		if err != nil {
			return err
		}
		base, size := l.Window() // a degraded grant is smaller than asked
		t.timeSpan(p, r.id, spanFill, func() {
			app.EP.CRMA.Fill(p, base+r.off%(size-crowdReadBytes)&^63, crowdReadBytes)
		})
		t.timeSpan(p, r.id, spanThink, func() { p.Sleep(crowdThink) })
		t.timeSpan(p, r.id, spanRelease, func() { l.Release(p) })
		return nil
	}
	drawFrom := func(rng *sim.RNG) func(r *request) {
		return func(r *request) {
			switch u := rng.Float64(); {
			case u < crowdLatencyFrac:
				r.class = tenancy.Latency
			case u < crowdLatencyFrac+crowdStandardFrac:
				r.class = tenancy.Standard
			default:
				r.class = tenancy.Preemptible
			}
			r.tenant = 1 + rng.Uint64n(crowdTenants)
			r.off = rng.Uint64()
		}
	}

	// Capacity is what the workers sustain closed-loop on the crowd's
	// class mix under the holders' pressure: admission queueing at the MN
	// holds a worker, so an unloaded session time would overstate it.
	var cal tally
	t.setupPhase(phaseCalibrate, func() {
		err = drive(cl.Eng, load{
			requests:    crowdCalibrate,
			workers:     crowdWorkers,
			calibrating: true,
			draw:        drawFrom(sim.NewRNG(rigSeed(streamCalibrate))),
			serve:       session,
		}.start(cl.Eng, t, &cal), driveLimit)
	})
	if err != nil {
		return err
	}
	capacity := crowdCalibrate / cl.Eng.Now().Sub(cal.start).Seconds()
	service := sim.DurFromSeconds(crowdWorkers / capacity) // mean time a session holds a worker

	var offered, completed, refused [tenancy.NumClasses]int
	draw := drawFrom(sim.NewRNG(mix(t.seed, streamKeys)))
	err = t.measure(cl.Eng, load{
		requests: requests,
		workers:  crowdWorkers,
		arrivals: flashCrowd(sim.NewRNG(mix(t.seed, streamArrivals)), crowdUtil*capacity),
		deadline: crowdSLO * service,
		draw: func(r *request) {
			draw(r)
			offered[r.class]++
		},
		serve: func(p *sim.Proc, r *request) error {
			err := session(p, r)
			if err != nil {
				refused[r.class]++
			} else {
				completed[r.class]++
			}
			return err
		},
	}, read)
	if err != nil {
		return err
	}

	stop = true
	if err := runProc(app, func(p *sim.Proc) error { holders.Wait(p); return nil }); err != nil {
		t.failf("teardown: %v", err)
	}
	if t.opts.trace {
		t.atEnd = read()
	}
	// Every class's sessions are accounted for exactly once.
	for _, c := range tenancy.Classes() {
		if completed[c]+refused[c] != offered[c] {
			t.failf("%s class: %d completed + %d refused != %d offered", c, completed[c], refused[c], offered[c])
		}
	}
	t.checkLeases()
	return nil
}
