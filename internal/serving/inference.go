package serving

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/vnic"
)

// The inference scenario is the device-plane member of the serving
// family: an inference farm whose compute is leased remote accelerators
// (an FFT-style engine stands in for the model kernel) and whose result
// egress runs over a bond of leased remote NICs. Open-loop arrivals fan
// requests out across the accelerator leases; each request ships its
// input to the leased device over RDMA, runs the kernel, reads the
// result back, and pushes the response bytes through the NIC bond. On
// flat meshes a churn-style rolling-crash schedule walks the donor farm,
// so the cell measures device-lease failover — the MN retargets each
// orphaned lease onto a surviving donor and the accelerator handle
// replays its in-flight chunks there — in serving terms: the latency
// tail and zero lost completions. On rack/spine fabrics a CrossFrac
// share of the accelerator leases is delegated to other racks by the
// sharded monitor plane, putting every cross-rack request's data motion
// on the oversubscribed spine.

// Scenario-internal calibration constants (fixed, like the other
// scenarios': the sweep varies only load, scale, cross-rack mix, and
// fault rate).
const (
	inferClusterSeed = 2131
	inferChaosSeed   = 2132
	inferHierSeed    = 2134

	// The leased farm: each donor hosts inferAccelsPerDonor accelerators
	// and advertises one shareable NIC; the app leases inferAccelLeases
	// devices plus inferNICLeases NICs in one all-or-nothing batch.
	// Leasing fewer units than each donor advertises leaves failover
	// headroom: a crashed donor's lease always has a live candidate with
	// a free device.
	inferAccelLeases    = 2
	inferNICLeases      = 2
	inferAccelsPerDonor = 2

	// The stand-in kernel and per-request data motion: one task ships
	// inferTaskBytes of input (chunk-pipelined over RDMA), computes at
	// inferFFTMBps, returns the same volume, and the response summary
	// egresses over the NIC bond.
	inferFFTMBps   = 360.0
	inferFFTSetup  = 10 * sim.Microsecond
	inferTaskBytes = 128 << 10
	inferRespBytes = 4 << 10
	inferCalibrate = 32
)

// runInference serves the farm on the configured fabric shape. On a
// flat mesh (churnRig: MN on node 0, the app server on node 1, every
// other node donating accelerators and a NIC), fault rates above none
// roll crashes through the donor farm once calibration ends. On a
// rack/spine fabric (newHierRig), the app server in rack 0 leases
// CrossFrac of its accelerators from other racks through the sharded
// monitor plane (root-elected donor rack, delegated grant), so every
// cross-leased request's input/output motion rides the oversubscribed
// spine uplinks. NIC leases stay rack-local there — egress bonding
// across the spine would serialize on the same uplinks the sweep is
// measuring.
func runInference(cfg Config) (*Result, error) {
	var farms []*accel.Service
	shutdown := func() {
		for _, svc := range farms {
			svc.Shutdown()
		}
	}
	res := &Result{}
	if cfg.Racks <= 0 {
		rig, err := newChurnRig("inference", cfg.Nodes, cfg.Policy, cfg.Fault, core.Config{Seed: inferClusterSeed},
			inferChaosSeed, func(cl *core.Cluster) {
				for i := 2; i < len(cl.Nodes); i++ {
					farms = append(farms, inferFarm(cl.Eng, cl.P, cl.Node(i), cl.Agents[i]))
				}
			})
		if err != nil {
			return nil, err
		}
		defer rig.cl.Close()
		defer shutdown()
		err = runScenario(rig.cl.Eng, "inference", nil, func(pr *sim.Proc) error {
			return inferServe(pr, rig.cl, rig.app, cfg, res, func(int) []core.Option { return nil }, nil, rig.start)
		})
		if err != nil {
			return nil, err
		}
		res.Crashes = rig.crashes()
		res.DevFailovers = rig.cl.MN.Stats.Get("recover.devices_replaced")
		return res, nil
	}

	if cfg.Fault != "" && cfg.Fault != FaultNone {
		return nil, fmt.Errorf("serving: inference fault injection runs on flat meshes only (got Racks=%d, Fault=%q)", cfg.Racks, cfg.Fault)
	}
	// Every rack runs a donor farm on its nodes past the app's index
	// (clear of the sub-MN/uplink nodes 0 and 1), so remote racks have
	// devices for the root to delegate.
	cl, app, err := newHierRig("hierarchical inference", cfg, inferHierSeed, func(cl *core.HierCluster) {
		for r := 0; r < cfg.Racks; r++ {
			for _, id := range cl.Hier.RackNodes(r)[3:] {
				farms = append(farms, inferFarm(cl.Eng, cl.P, cl.Node(int(id)), cl.Agents[id]))
			}
		}
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	defer shutdown()
	// The first cross leases are forced onto other racks; the rest are
	// pinned rack-local, so CrossFrac is exact, not a policy accident.
	cross := int(cfg.CrossFrac*inferAccelLeases + 0.5)
	local := []core.Option{core.WithScope(monitor.ScopeLocalRack)}
	err = runScenario(cl.Eng, "inference", nil, func(pr *sim.Proc) error {
		return inferServe(pr, cl, app, cfg, res, func(i int) []core.Option {
			if i < cross {
				return []core.Option{core.WithScope(monitor.ScopeRemoteRack)}
			}
			return local
		}, local, func(int, float64) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// inferFarm installs accelerator services on one donor node and
// advertises its shareable devices through the node's agent.
func inferFarm(eng *sim.Engine, p *sim.Params, dn *node.Node, ag *monitor.Agent) *accel.Service {
	kernel := accel.FFT{MBps: inferFFTMBps, Setup: inferFFTSetup}
	devs := make([]*accel.Accelerator, inferAccelsPerDonor)
	for j := range devs {
		devs[j] = accel.New(eng, p, kernel)
	}
	svc := accel.Serve(dn, devs...)
	ag.Devices[monitor.DevAccelerator] = inferAccelsPerDonor
	ag.Devices[monitor.DevNIC] = 1
	return svc
}

// inferLeases acquires the farm's device working set — accelerator
// leases then NIC leases — as one all-or-nothing batch through the
// plane. accScope shapes accelerator lease i, nicScope every NIC lease.
func inferLeases(pr *sim.Proc, pl core.Plane, app *node.Node, client *accel.Client,
	accScope func(i int) []core.Option, nicScope []core.Option) ([]*core.AccelLease, []*core.NICLease, error) {
	reqs := make([]core.Request, 0, inferAccelLeases+inferNICLeases)
	for i := 0; i < inferAccelLeases; i++ {
		opts := append([]core.Option{core.WithClient(client), core.WithRetry(borrowRetry)}, accScope(i)...)
		reqs = append(reqs, core.NewRequest(core.Accel, app, 0, opts...))
	}
	for i := 0; i < inferNICLeases; i++ {
		opts := append([]core.Option{core.WithRetry(borrowRetry)}, nicScope...)
		reqs = append(reqs, core.NewRequest(core.NIC, app, 0, opts...))
	}
	leases, err := pl.AcquireAll(pr, reqs...)
	if err != nil {
		return nil, nil, err
	}
	accLs := make([]*core.AccelLease, inferAccelLeases)
	nicLs := make([]*core.NICLease, inferNICLeases)
	for i := 0; i < inferAccelLeases; i++ {
		accLs[i] = leases[i].(*core.AccelLease)
	}
	for i := 0; i < inferNICLeases; i++ {
		nicLs[i] = leases[inferAccelLeases+i].(*core.NICLease)
	}
	return accLs, nicLs, nil
}

// inferServe is the farm's scenario body: lease the devices, bond the
// NIC leases behind a local NIC, calibrate, call started (the flat rig
// installs its chaos schedule there), and run the measured phase.
func inferServe(pr *sim.Proc, pl core.Plane, app *node.Node, cfg Config, res *Result,
	accScope func(i int) []core.Option, nicScope []core.Option, started func(requests int, rps float64) error) error {
	accLs, nicLs, err := inferLeases(pr, pl, app, accel.NewClient(app), accScope, nicScope)
	if err != nil {
		return fmt.Errorf("serving: inference leases: %w", err)
	}
	slaves := []vnic.Slave{&vnic.LocalSlave{NIC: vnic.NewNIC(app.Eng, app.P, "eth0")}}
	for _, nl := range nicLs {
		slaves = append(slaves, nl)
	}
	bond := vnic.NewBond(app.P, slaves...)
	infer := func(p *sim.Proc, lease int) {
		accLs[lease].Handle.Run(p, "fft", inferTaskBytes)
		bond.Send(p, inferRespBytes)
	}

	// Closed-loop calibration under healthy conditions: one request's
	// mean accelerator round trip plus egress sets the capacity the
	// offered load is expressed against.
	res.ServiceNS = calibrate(pr, inferCalibrate, func(j int) { infer(pr, j%len(accLs)) })
	res.OfferedRPS = offeredRPS(cfg.Util, appWorkers, res.ServiceNS)
	if err := started(cfg.Requests, res.OfferedRPS); err != nil {
		return err
	}

	// Requests may stall through an outage while their lease fails over
	// and its chunks replay, but every one of them must complete.
	leaseRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
	ph, err := openLoop[int]{
		workers: appWorkers, arrivals: cfg.Arrivals,
		rps: res.OfferedRPS, seed: cfg.Seed, requests: cfg.Requests,
		next:  func() (int, int) { return leaseRng.Intn(len(accLs)), 0 },
		serve: func(wp *sim.Proc, _, lease int) bool { infer(wp, lease); return true },
	}.run(pr)
	res.measured(ph)
	return err
}
