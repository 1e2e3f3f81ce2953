package main

import (
	"fmt"
	"sort"

	"repro/internal/accel"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vnic"
)

// device-churn: an app runs FFT tasks on leased remote accelerators and
// ships results over a bond of leased remote NICs while donors crash in
// turn. Transport moves bulk RDMA chunks instead of cache lines, and the
// MN runs heartbeats, recovery sweeps and device failover instead of its
// grant path.
const (
	churnBeat         = 100 * sim.Microsecond
	churnBeatTimeout  = 500 * sim.Microsecond
	churnSweep        = 250 * sim.Microsecond
	churnWarm         = 10 * sim.Millisecond // devices ride the first beats into the RRT
	churnAccelsPer    = 2                    // accelerators per donor
	churnFFTMBps      = 360.0
	churnFFTSetup     = 10 * sim.Microsecond
	churnAccelLeases  = 2
	churnNICLeases    = 2
	churnTaskBytes    = 128 << 10
	churnRespBytes    = 4 << 10
	churnWorkers      = 2
	churnUtil         = 0.7
	churnCalibrate    = 32
	churnCrashPeriod  = 6 * sim.Millisecond
	churnOutage       = 4 * sim.Millisecond
	churnDrainRecover = 2 * sim.Millisecond // recovery settles after the last repair
	churnSLO          = 50
)

func deviceChurn(t *trial, requests int) error {
	topo := fabric.Mesh3D(2, 2, 2)
	var cl *core.Cluster
	var svcs []*accel.Service
	var err error
	t.setupPhase(phaseBuild, func() {
		cl = core.NewCluster(core.Config{
			Topology:          &topo,
			StartAgents:       true,
			StartRecovery:     true,
			HeartbeatInterval: churnBeat,
			HeartbeatTimeout:  churnBeatTimeout,
			SweepInterval:     churnSweep,
			Seed:              rigSeed(streamCluster),
		})
		// The MN never donates: crashing a donor must not take it down.
		err = cl.Node(0).MemMgr.Reserve(cl.Node(0).MemMgr.Idle())
		for i := 2; i < topo.N; i++ {
			devs := make([]*accel.Accelerator, churnAccelsPer)
			for j := range devs {
				devs[j] = accel.New(cl.Eng, cl.P, accel.FFT{MBps: churnFFTMBps, Setup: churnFFTSetup})
			}
			svcs = append(svcs, accel.Serve(cl.Node(i), devs...))
			cl.Agents[i].Devices[monitor.DevAccelerator] = churnAccelsPer
			cl.Agents[i].Devices[monitor.DevNIC] = 1
		}
	})
	defer func() {
		for _, s := range svcs {
			s.Shutdown()
		}
		cl.Close()
	}()
	if err != nil {
		return err
	}
	defer t.watch(cl)()
	inj := chaos.New(cl.Eng, cl.Net, cl.Agents)
	read := func() counters {
		return readCounters(cl.Eng, cl.Net, cl.Nodes, obs.SnapshotFlat(cl).Stats)
	}

	t.setupPhase(phaseWarm, func() { cl.RunFor(churnWarm) })

	app := cl.Node(1)
	var accels []*core.AccelLease
	var leases []core.Lease
	var bond *vnic.Bond
	err = t.setupProc(phaseLease, app, func(p *sim.Proc) error {
		client := accel.NewClient(app)
		var reqs []core.Request
		for i := 0; i < churnAccelLeases; i++ {
			reqs = append(reqs, core.NewRequest(core.Accel, app, 0, core.WithClient(client), core.WithRetry(leaseRetry)))
		}
		for i := 0; i < churnNICLeases; i++ {
			reqs = append(reqs, core.NewRequest(core.NIC, app, 0, core.WithRetry(leaseRetry)))
		}
		var err error
		if leases, err = cl.AcquireAll(p, reqs...); err != nil {
			return err
		}
		slaves := []vnic.Slave{&vnic.LocalSlave{NIC: vnic.NewNIC(cl.Eng, cl.P, "eth0")}}
		for _, l := range leases {
			switch l := l.(type) {
			case *core.AccelLease:
				accels = append(accels, l)
			case *core.NICLease:
				slaves = append(slaves, l)
			}
		}
		bond = vnic.NewBond(cl.P, slaves...)
		return nil
	})
	if err != nil {
		return err
	}

	task := func(p *sim.Proc, id int, a *core.AccelLease) {
		t.timeSpan(p, id, spanAccelRun, func() { a.Handle.Run(p, "fft", churnTaskBytes) })
		t.timeSpan(p, id, spanNICSend, func() { bond.Send(p, churnRespBytes) })
	}
	var service sim.Dur
	err = t.setupProc(phaseCalibrate, app, func(p *sim.Proc) error {
		start := p.Now()
		for j := 0; j < churnCalibrate; j++ {
			task(p, -1, accels[j%len(accels)])
		}
		service = p.Now().Sub(start) / churnCalibrate
		return nil
	})
	if err != nil {
		return err
	}

	// Donors crash nearest-first, one at a time, from the start of
	// serving until past the expected end of the arrivals.
	var donors []fabric.NodeID
	for i := 2; i < topo.N; i++ {
		donors = append(donors, fabric.NodeID(i))
	}
	sort.SliceStable(donors, func(i, j int) bool { return topo.HopCount(1, donors[i]) < topo.HopCount(1, donors[j]) })
	rate := churnUtil * churnWorkers / service.Seconds()
	cycles := int(float64(requests)/rate/churnCrashPeriod.Seconds()) + 2
	faultsEnd := cl.Eng.Now().Add(sim.Dur(cycles)*churnCrashPeriod + churnOutage + churnDrainRecover)
	if n, err := inj.Install(chaos.Schedule{Actions: chaos.Rolling(donors, churnCrashPeriod, churnOutage, cycles)}); err != nil || n == 0 {
		return fmt.Errorf("installing the crash schedule (%d actions): %v", n, err)
	}

	keys := sim.NewRNG(mix(t.seed, streamKeys))
	err = t.measure(cl.Eng, load{
		requests: requests,
		workers:  churnWorkers,
		arrivals: poisson(sim.NewRNG(mix(t.seed, streamArrivals)), rate),
		deadline: churnSLO * service,
		draw:     func(r *request) { r.key = keys.Intn(len(accels)) },
		serve: func(p *sim.Proc, r *request) error {
			task(p, r.id, accels[r.key])
			return nil
		},
	}, read)
	if err != nil {
		return err
	}

	// Release only after the last repair has been recovered from, so
	// teardown never races a crash.
	err = runProc(app, func(p *sim.Proc) error {
		if now := p.Now(); now < faultsEnd {
			p.Sleep(faultsEnd.Sub(now))
		}
		for i := len(leases) - 1; i >= 0; i-- {
			leases[i].Release(p)
		}
		return nil
	})
	if err != nil {
		t.failf("teardown: %v", err)
	}
	for _, a := range inj.Trace {
		if a.Action.Op == chaos.NodeDown {
			t.crashes++
		}
	}
	if t.opts.trace {
		t.atEnd = read()
	}
	t.checkLeases()
	return nil
}
