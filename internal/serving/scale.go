package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
)

// The scale scenario takes the open-loop serving methodology to the
// multi-rack fabrics of fabric.RackSpine: an app server in rack 0
// serves requests whose working set lives in remote-memory windows
// leased through the sharded monitor plane, with CrossFrac of the
// windows deliberately delegated to other racks. Every cross-rack
// access shares the rack's few oversubscribed spine uplinks, so the
// sweep (node count × rack size × cross-rack fraction) measures what
// hierarchical sharing costs at the tail — the number the single-rack
// prototype cannot produce.

// Scale-scenario calibration constants; like the other scenarios they
// are fixed so the sweep varies only scale, mix, and load.
const (
	scaleClusterSeed = 2121
	scaleCalSeed     = 2122
	scaleTenantSeed  = 2123

	scaleWindows     = 8
	scaleWindowBytes = 2 << 20
	scaleReadBytes   = 2048
	scaleCalibration = 48
	scaleThink       = 2 * sim.Microsecond

	// Spine tier: 2 switches, 2 uplinks per rack, each uplink at half
	// the node link rate — a rack's nodes contend for 2×2.5 Gbps of
	// cross-rack bandwidth against 5 Gbps per intra-rack port.
	scaleSpines    = 2
	scaleUplinks   = 2
	scaleSpineGbps = 2.5

	// Background tenants: every rack runs RackNodes/scaleTenantDiv
	// tenants on its own nodes, each leasing one window (a CrossFrac
	// share of them cross-rack) and streaming RDMA bulk reads against it
	// for the scenario's duration. One 32 KiB transfer plus the think
	// gap sustains ~0.4 Gbps of demand per cross-rack tenant against the
	// rack's 2×2.5 Gbps of uplink capacity; tenant count scales with
	// rack size, so the rack-size axis sweeps spine utilization from
	// ~20% (8-node racks) toward saturation (32-node racks at high
	// CrossFrac) without tipping into open-ended collapse.
	scaleTenantDiv     = 4
	scaleTenantBulk    = 32 << 10
	scaleTenantThinkNS = 1_000_000
)

// scaleRackDims maps a supported per-rack node count onto mesh
// dimensions.
func scaleRackDims(rackNodes int) (x, y, z int, err error) {
	switch rackNodes {
	case 8:
		return 2, 2, 2, nil
	case 16:
		return 4, 2, 2, nil
	case 32:
		return 4, 4, 2, nil
	}
	return 0, 0, 0, fmt.Errorf("serving: unsupported rack size %d (want 8, 16, or 32)", rackNodes)
}

// newHierRig builds the rack/spine rig scale and hierarchical
// inference share: cfg.Racks racks of cfg.RackNodes-node meshes behind
// the oversubscribed spine, warmed for 1 s. setup, when set, runs
// before the warm-up. It returns the cluster and the app server, node 2
// of rack 0 (clear of the sub-MN/uplink nodes 0 and 1).
func newHierRig(name string, cfg Config, seed uint64, setup func(*core.HierCluster)) (*core.HierCluster, *node.Node, error) {
	if cfg.Racks < 2 {
		return nil, nil, fmt.Errorf("serving: %s needs >= 2 racks, got %d", name, cfg.Racks)
	}
	if !(cfg.CrossFrac >= 0 && cfg.CrossFrac <= 1) { // NaN fails too
		return nil, nil, fmt.Errorf("serving: CrossFrac %v out of [0, 1]", cfg.CrossFrac)
	}
	x, y, z, err := scaleRackDims(cfg.RackNodes)
	if err != nil {
		return nil, nil, err
	}
	cl := core.NewHierCluster(core.HierConfig{
		Racks: cfg.Racks, RackX: x, RackY: y, RackZ: z,
		Spines: scaleSpines, Uplinks: scaleUplinks, SpineGbps: scaleSpineGbps,
		Seed: seed,
		// Long periods keep the steady-state event count tractable; the
		// warm-up covers the staggered first beats that populate the
		// RRTs, the root's rack registry, and every donor's device
		// advertisement.
		HeartbeatInterval: 30 * sim.Second,
		RackBeatInterval:  30 * sim.Second,
	})
	if setup != nil {
		setup(cl)
	}
	cl.RunFor(1 * sim.Second)
	return cl, cl.Node(2), nil
}

// runScale executes the rack-scale serving scenario.
func runScale(cfg Config) (*Result, error) {
	cl, app, err := newHierRig("scale workload", cfg, scaleClusterSeed, nil)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	cross := int(cfg.CrossFrac*scaleWindows + 0.5)

	res := &Result{}
	stop := false
	err = runScenario(cl.Eng, cfg, func(pr *sim.Proc) error {
		// Lease the working set: the cross-rack share is delegated by the
		// root MN (most-idle rack election spreads consecutive windows
		// over distinct racks), the rest is pinned rack-local.
		windows, err := borrowWindows(pr, cl, scaleWindows, func(w int) core.Request {
			scope := monitor.ScopeLocalRack
			if w < cross {
				scope = monitor.ScopeRemoteRack
			}
			return core.NewRequest(core.Memory, app, scaleWindowBytes, core.WithScope(scope))
		})
		if err != nil {
			return fmt.Errorf("serving: working-set windows: %w", err)
		}

		// Background tenants on every rack (nodes past the app's index,
		// clear of the sub-MN/uplink nodes): each leases one window — a
		// CrossFrac share of them in another rack — and will stream
		// reads through it from calibration to the end of the measured
		// phase, loading the spine in proportion to rack fullness.
		tenantsPerRack := cfg.RackNodes / scaleTenantDiv
		crossTenants := int(cfg.CrossFrac*float64(tenantsPerRack) + 0.5)
		tenantRng := sim.NewRNG(scaleTenantSeed)
		tenantNodes := make([]*node.Node, 0, cfg.Racks*tenantsPerRack)
		for r := 0; r < cfg.Racks; r++ {
			for i := 0; i < tenantsPerRack; i++ {
				tenantNodes = append(tenantNodes, cl.Node(int(cl.Hier.RackNodes(r)[3+i])))
			}
		}
		tenantLeases, err := borrowWindows(pr, cl, len(tenantNodes), func(k int) core.Request {
			scope := monitor.ScopeLocalRack
			if k%tenantsPerRack < crossTenants {
				scope = monitor.ScopeRemoteRack
			}
			return core.NewRequest(core.Memory, tenantNodes[k], scaleWindowBytes, core.WithScope(scope))
		})
		if err != nil {
			return fmt.Errorf("serving: tenant windows: %w", err)
		}
		for k, lease := range tenantLeases {
			trng, tn := tenantRng.Fork(), tenantNodes[k]
			tn.Run("tenant", func(tp *sim.Proc) {
				for !stop {
					off := trng.Uint64n(lease.Size-scaleTenantBulk) &^ 63
					tn.EP.RDMA.Read(tp, lease.Donor(), lease.DonorBase+off, scaleTenantBulk)
					tp.Sleep(sim.Dur(trng.Intn(scaleTenantThinkNS)))
				}
			})
		}

		// One request reads a random line-aligned span of one window.
		read := func(p *sim.Proc, lease *core.MemoryLease, rng *sim.RNG) {
			off := rng.Uint64n(lease.Size-scaleReadBytes) &^ 63
			app.Mem.Read(p, lease.WindowBase+off, scaleReadBytes)
			app.Mem.Think(p, scaleThink)
		}
		// Closed-loop calibration over the same window mix the measured
		// phase will draw from, under the same background pressure.
		calRng := sim.NewRNG(scaleCalSeed)
		res.ServiceNS = calibrate(pr, scaleCalibration, func(j int) { read(pr, windows[j%scaleWindows], calRng) })
		res.OfferedRPS = offeredRPS(cfg.Util, appWorkers, res.ServiceNS)

		offRng := sim.NewRNG(cfg.Seed ^ 0xacce55)
		winRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		ph, err := openLoop[int]{
			cfg: cfg, workers: appWorkers, rps: res.OfferedRPS,
			next:  func() (int, int) { return winRng.Intn(scaleWindows), 0 },
			serve: func(wp *sim.Proc, _, w int) bool { read(wp, windows[w], offRng); return true },
		}.run(pr)
		stop = true
		res.measured(ph)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
