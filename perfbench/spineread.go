package main

import (
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
)

// spine-read: an app server in rack 0 of a four-rack spine fabric reads
// remote-memory windows, half of them delegated to other racks, while
// background tenants stream bulk RDMA reads across the spine. Host time
// goes to the fabric hop path and to CRMA line fills over multi-hop and
// spine routes; the monitor plane works only during set-up.
const (
	spineRacks        = 4
	spineSpines       = 2
	spineUplinks      = 2
	spineGbps         = 2.5
	spineBeat         = 30 * sim.Second // long beats: the MN is idle while serving
	spineWarm         = 1 * sim.Second  // covers the staggered first beats
	spineWindows      = 8
	spineCross        = spineWindows / 2
	spineWindowBytes  = 2 << 20
	spineReadBytes    = 2 << 10
	spineThink        = 2 * sim.Microsecond
	spineWorkers      = 2
	spineUtil         = 0.7
	spineCalibrate    = 48
	spineTenants      = 4 // per rack
	spineCrossTenants = 2 // per rack
	spineBulkBytes    = 32 << 10
	spineBulkThinkNS  = 1_000_000
	spineSLO          = 50 // deadline, in calibrated service times
)

func spineRead(t *trial, requests int) error {
	var cl *core.HierCluster
	t.setupPhase(phaseBuild, func() {
		cl = core.NewHierCluster(core.HierConfig{
			Racks: spineRacks, RackX: 4, RackY: 2, RackZ: 2,
			Spines: spineSpines, Uplinks: spineUplinks, SpineGbps: spineGbps,
			Seed:              rigSeed(streamCluster),
			HeartbeatInterval: spineBeat,
			RackBeatInterval:  spineBeat,
		})
	})
	defer cl.Close()
	defer t.watch(cl)()
	read := func() counters {
		return readCounters(cl.Eng, cl.Net, cl.Nodes, obs.SnapshotHier(cl).Stats)
	}

	t.setupPhase(phaseWarm, func() { cl.RunFor(spineWarm) })

	// Rack nodes 0 and 1 host the sub-MN and the uplinks; the app takes
	// node 2 of rack 0 and each rack's tenants the nodes after it.
	app := cl.Node(int(cl.Hier.RackNodes(0)[2]))
	var tenantNodes []*node.Node
	for r := 0; r < spineRacks; r++ {
		for i := 0; i < spineTenants; i++ {
			tenantNodes = append(tenantNodes, cl.Node(int(cl.Hier.RackNodes(r)[3+i])))
		}
	}
	var windows, bulk []*core.MemoryLease
	err := t.setupProc(phaseLease, app, func(p *sim.Proc) error {
		var err error
		windows, err = acquireWindows(p, cl, spineWindows, func(w int) core.Request {
			return core.NewRequest(core.Memory, app, spineWindowBytes, core.WithScope(rackScope(w < spineCross)))
		})
		if err != nil {
			return err
		}
		bulk, err = acquireWindows(p, cl, len(tenantNodes), func(k int) core.Request {
			return core.NewRequest(core.Memory, tenantNodes[k], spineWindowBytes,
				core.WithScope(rackScope(k%spineTenants < spineCrossTenants)))
		})
		return err
	})
	if err != nil {
		return err
	}

	// Background tenants stream from calibration to the end of serving.
	stop := false
	background := sim.NewGroup(cl.Eng)
	rng := sim.NewRNG(rigSeed(streamBackground))
	for k, l := range bulk {
		l, tn, trng := l, tenantNodes[k], rng.Fork()
		background.Add(1)
		tn.Run("bench-tenant", func(p *sim.Proc) {
			defer background.Done()
			for !stop {
				off := trng.Uint64n(l.Size-spineBulkBytes) &^ 63
				tn.EP.RDMA.Read(p, l.Donor(), l.DonorBase+off, spineBulkBytes)
				p.Sleep(sim.Dur(trng.Intn(spineBulkThinkNS)))
			}
		})
	}

	var service sim.Dur
	err = t.setupProc(phaseCalibrate, app, func(p *sim.Proc) error {
		crng := sim.NewRNG(rigSeed(streamCalibrate))
		start := p.Now()
		for j := 0; j < spineCalibrate; j++ {
			w := windows[j%spineWindows]
			app.Mem.Read(p, w.WindowBase+crng.Uint64n(w.Size-spineReadBytes)&^63, spineReadBytes)
			app.Mem.Think(p, spineThink)
		}
		service = p.Now().Sub(start) / spineCalibrate
		return nil
	})
	if err != nil {
		return err
	}

	keys := sim.NewRNG(mix(t.seed, streamKeys))
	err = t.measure(cl.Eng, load{
		requests: requests,
		workers:  spineWorkers,
		arrivals: poisson(sim.NewRNG(mix(t.seed, streamArrivals)), spineUtil*spineWorkers/service.Seconds()),
		deadline: spineSLO * service,
		draw: func(r *request) {
			r.key = keys.Intn(spineWindows)
			r.off = keys.Uint64n(spineWindowBytes-spineReadBytes) &^ 63
		},
		serve: func(p *sim.Proc, r *request) error {
			w := windows[r.key]
			t.timeSpan(p, r.id, spanMemRead, func() { app.Mem.Read(p, w.WindowBase+r.off, spineReadBytes) })
			t.timeSpan(p, r.id, spanMemThink, func() { app.Mem.Think(p, spineThink) })
			return nil
		},
	}, read)
	if err != nil {
		return err
	}

	stop = true
	err = runProc(app, func(p *sim.Proc) error {
		background.Wait(p)
		for _, l := range append(windows, bulk...) {
			l.Release(p)
		}
		return nil
	})
	if err != nil {
		t.failf("teardown: %v", err)
	}
	if t.opts.trace {
		t.atEnd = read()
	}
	t.checkLeases()
	return nil
}

// rackScope pins a lease rack-local, or to another rack when cross.
func rackScope(cross bool) monitor.AllocScope {
	if cross {
		return monitor.ScopeRemoteRack
	}
	return monitor.ScopeLocalRack
}

// leaseRetry rides out transiently drained donors while leasing.
var leaseRetry = core.RetryPolicy{Attempts: 3, Backoff: 200 * sim.Microsecond, Factor: 2}

// acquireWindows leases count memory windows through pl as one
// all-or-nothing batch; mk shapes window i.
func acquireWindows(p *sim.Proc, pl core.Plane, count int, mk func(i int) core.Request) ([]*core.MemoryLease, error) {
	reqs := make([]core.Request, count)
	for i := range reqs {
		reqs[i] = mk(i).With(core.WithRetry(leaseRetry))
	}
	leases, err := pl.AcquireAll(p, reqs...)
	if err != nil {
		return nil, err
	}
	out := make([]*core.MemoryLease, count)
	for i, l := range leases {
		out[i] = l.(*core.MemoryLease)
	}
	return out, nil
}
