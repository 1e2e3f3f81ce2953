package serving

import (
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/node"
	"repro/internal/sim"
)

// The churn scenario is the availability-under-failure complement to the
// load scenarios: an app server leases remote-memory windows through the
// Monitor Node and serves open-loop requests out of them while a chaos
// schedule rolls crashes through the donor population. What it measures
// is the recovery machinery itself — heartbeat-timeout detection, donor
// re-election, lease re-placement, and in-flight replay — expressed in
// serving terms: goodput (completions within an SLO deadline),
// unavailability windows (completion stalls), and the latency tail.

// FaultRate names the churn intensity a cell runs under.
type FaultRate string

// The swept churn intensities. Rates are expressed as the per-donor
// crash period of a rolling-churn plan (outage length is fixed), so
// "fast" means each donor crashes about every churnFastPeriod of
// virtual time.
const (
	FaultNone FaultRate = "none" // control: no faults
	FaultSlow FaultRate = "slow"
	FaultFast FaultRate = "fast"
)

// Scenario-internal calibration constants (shared by every cell, like
// the serving scenarios' — the sweep varies only load, scale, policy,
// and fault rate).
const (
	churnClusterSeed = 2121
	churnCalSeed     = 2123

	churnLeaseBytes = uint64(8 << 20)
	churnReadBytes  = 2048
	churnThink      = 20 * sim.Microsecond
	churnCalibrate  = 48

	churnBeatInterval = 100 * sim.Microsecond
	churnBeatTimeout  = 500 * sim.Microsecond
	churnSweep        = 250 * sim.Microsecond

	// Rolling-churn timing: each cycle crashes the next donor for
	// churnOutage; the period between crashes sets the fault rate.
	churnOutage     = 4 * sim.Millisecond
	churnSlowPeriod = 16 * sim.Millisecond
	churnFastPeriod = 6 * sim.Millisecond

	churnDeadlineMult = 50 // SLO deadline, multiples of mean service time
	churnStallMult    = 20 // unavailability threshold, multiples of mean service
)

// churnLeases is how many remote-memory windows the churn server
// spreads its working set over; each is placed independently by the
// policy, so they can land on different donors.
const churnLeases = 2

// leaseRead is one churn request: a line-aligned read at off into
// lease.
type leaseRead struct {
	lease int
	off   uint64
}

// runChurn executes one availability-under-churn scenario.
func runChurn(cfg Config) (*Result, error) {
	var setup func(*core.Cluster)
	if cfg.SparePool {
		// One spare per lease the server holds: a crashed donor can back
		// every lease it carried, so no failover in the burst goes cold.
		setup = func(cl *core.Cluster) { cl.MN.EnableSparePool(churnLeaseBytes, churnLeases) }
	}
	rig, err := newChurnRig(cfg, churnClusterSeed, setup)
	if err != nil {
		return nil, err
	}
	cl, app := rig.cl, rig.app
	defer cl.Close()
	if cfg.OnCluster != nil {
		cfg.OnCluster(cl)
	}

	res := &Result{}
	err = runScenario(cl.Eng, cfg, func(pr *sim.Proc) error {
		ls, err := borrowWindows(pr, cl, churnLeases, func(int) core.Request {
			return core.NewRequest(core.Memory, app, churnLeaseBytes)
		})
		if err != nil {
			return fmt.Errorf("serving: churn leases: %w", err)
		}
		read := func(p *sim.Proc, r leaseRead) {
			app.EP.CRMA.Fill(p, ls[r.lease].WindowBase+r.off, churnReadBytes)
			p.Sleep(churnThink)
		}

		// Closed-loop calibration under healthy conditions: the mean
		// remote read sets the capacity the offered load is against.
		calRng := sim.NewRNG(churnCalSeed)
		res.ServiceNS = calibrate(pr, churnCalibrate, func(j int) {
			l := j % len(ls)
			read(pr, leaseRead{l, calRng.Uint64n(ls[l].Size-churnReadBytes) &^ 63})
		})
		res.OfferedRPS = offeredRPS(cfg.Util, appWorkers, res.ServiceNS)
		res.Deadline = sim.Dur(churnDeadlineMult * res.ServiceNS)
		stallThresh := sim.Dur(churnStallMult * res.ServiceNS)
		if err := rig.start(cfg.Requests, res.OfferedRPS); err != nil {
			return err
		}

		offRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		ph, err := openLoop[leaseRead]{
			cfg: cfg, workers: appWorkers, rps: res.OfferedRPS,
			next: func() (leaseRead, int) {
				l := offRng.Intn(len(ls))
				return leaseRead{l, offRng.Uint64n(churnLeaseBytes-churnReadBytes) &^ 63}, 0
			},
			serve: func(wp *sim.Proc, _ int, r leaseRead) bool { read(wp, r); return true },
			done: func(ph *phase, _ leaseRead, now sim.Time, d sim.Dur) {
				if d > res.Deadline {
					res.Failed++
				}
				// Unavailability: completion-gap excess over the stall
				// threshold, from the second completion on.
				if gap := now.Sub(ph.lastDone); ph.completed > 0 && gap > stallThresh {
					res.UnavailNS += int64(gap - stallThresh)
				}
			},
		}.run(pr)
		if err != nil {
			return err
		}
		res.measured(ph)
		res.GoodputRPS = float64(ph.completed-res.Failed) / ph.window()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Crashes = rig.crashes()
	res.Recoveries = cl.MN.Stats.Get("recover.replaced")
	if res.Recoveries > 0 {
		res.RecoverMeanNS = float64(cl.MN.Stats.Get("recover.ns")) / float64(res.Recoveries)
	}
	res.DeadAccesses = app.EP.CRMA.Stats.DeadAccesses
	return res, nil
}

// churnRig is the flat-mesh rig churn and flat inference share: the MN
// on node 0, the app server on node 1, every other node a donor, the
// fast control plane, and a rolling crash schedule over the donors that
// start installs once calibration is done.
type churnRig struct {
	cl     *core.Cluster
	app    *node.Node
	inj    *chaos.Injector
	donors []fabric.NodeID
	period sim.Dur
}

// newChurnRig builds the rig on a cfg.Nodes-node mesh (0 means 8)
// under cfg's policy and fault rate, with the scenario's cluster seed;
// setup, when set, runs before the 10 ms RRT warm-up, while the MN's
// donor table is still empty.
func newChurnRig(cfg Config, clusterSeed uint64, setup func(*core.Cluster)) (*churnRig, error) {
	pol, err := policyOf(cfg)
	if err != nil {
		return nil, err
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 8
	}
	if nodes < 4 {
		return nil, fmt.Errorf("serving: %s needs >= 4 nodes (MN + server + two donors), got %d", cfg.Workload, nodes)
	}
	topo, err := topoFor(nodes)
	if err != nil {
		return nil, err
	}
	r := &churnRig{}
	switch cfg.Fault {
	case "", FaultNone:
	case FaultSlow:
		r.period = churnSlowPeriod
	case FaultFast:
		r.period = churnFastPeriod
	default:
		return nil, fmt.Errorf("serving: unknown fault rate %q", cfg.Fault)
	}

	r.cl = core.NewCluster(core.Config{
		Topology: &topo, Seed: clusterSeed, StartAgents: true, StartRecovery: true,
		HeartbeatInterval: churnBeatInterval, HeartbeatTimeout: churnBeatTimeout, SweepInterval: churnSweep,
	})
	r.cl.MN.Policy = pol
	// The MN must never be elected donor: its death model (and the
	// paper's un-replicated MN) is out of scope, and crashing a donor
	// must not take the control plane with it.
	mn := r.cl.Node(0).MemMgr
	if err := mn.Reserve(mn.Idle()); err != nil {
		r.cl.Close()
		return nil, fmt.Errorf("serving: reserving MN memory: %w", err)
	}
	if setup != nil {
		setup(r.cl)
	}
	r.cl.RunFor(10 * sim.Millisecond) // populate the RRT
	r.app = r.cl.Node(1)

	// Donor population: every node but the MN and the server, ordered
	// nearest-to-server first. Rolling churn walks this order, so the
	// early crashes hit the donors the distance-leaning policies favor —
	// the cell measures failover, not crashes of idle bystanders.
	for i := 2; i < nodes; i++ {
		r.donors = append(r.donors, fabric.NodeID(i))
	}
	sort.Slice(r.donors, func(i, j int) bool {
		hi, hj := topo.HopCount(1, r.donors[i]), topo.HopCount(1, r.donors[j])
		if hi != hj {
			return hi < hj
		}
		return r.donors[i] < r.donors[j]
	})
	r.inj = chaos.New(r.cl.Eng, r.cl.Net, r.cl.Agents)
	return r, nil
}

// start installs the rolling crash schedule, scheduling enough cycles
// to cover the expected measured window of requests at rps. Chaos
// starts only after calibration, so calibration is identical across the
// fault axis; its instants are fixed by the fault rate and the donor
// order, so every shard of a cell sees the same fault history.
func (r *churnRig) start(requests int, rps float64) error {
	if r.period == 0 {
		return nil
	}
	windowNS := float64(requests) / rps * 1e9
	cycles := int(windowNS/float64(r.period)) + 2
	n, err := r.inj.Install(chaos.Schedule{
		Actions: chaos.Rolling(r.donors, r.period, churnOutage, cycles),
	})
	if err != nil || n == 0 {
		return fmt.Errorf("serving: installing churn schedule (%d actions): %v", n, err)
	}
	return nil
}

// crashes counts the donor crashes the rig injected.
func (r *churnRig) crashes() int64 {
	var n int64
	for _, a := range r.inj.Trace {
		if a.Action.Op == chaos.NodeDown {
			n++
		}
	}
	return n
}
