package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig14Result reproduces Fig. 14: the mini data-center of Fig. 13 — a
// Redis-like cache in front of a MySQL-like store — as the cache's
// memory grows in fixed steps, provided either locally (ideal) or by
// donor nodes over Venice. It reports execution time for the query batch
// and the cache miss rate at each size.
type Fig14Result struct {
	StepBytes   uint64
	Sizes       []uint64
	LocalTime   []sim.Dur
	RemoteTime  []sim.Dur
	LocalMiss   []float64
	RemoteMiss  []float64
	DonorImpact float64 // CC slowdown on a donor while serving (§7.1: negligible)
	Table       Table
}

// fig14Run measures one point of the sweep: steps memory increments,
// remote selects borrowed (CRMA) or local storage arenas.
func fig14Run(steps int, remote bool, seed uint64) (sim.Dur, float64) {
	c := core.NewCluster(core.Config{StartAgents: true, Seed: seed,
		HeartbeatInterval: 30 * sim.Second})
	defer c.Close()
	c.RunFor(1 * sim.Second) // populate the RRT

	redisNode := c.Node(1)
	var elapsed sim.Dur
	var missRatio float64
	done := redisNode.Run("redis", func(pr *sim.Proc) {
		cache := workloads.NewRedisCache(redisNode.Mem, fig14ValueBytes)
		if remote {
			// A minimal local slice plus donor memory in fixed steps —
			// the paper keeps 50 MB local and grows remote memory in
			// 70 MB increments.
			localSlice := uint64(fig14StepBytes) / 4
			base := uint64(64 << 20)
			cache.AddArena(workloads.NewArena(base, localSlice))
			for s := 0; s < steps; s++ {
				lease, err := c.Acquire(pr, core.NewRequest(core.Memory, redisNode, uint64(fig14StepBytes)))
				if err != nil {
					panic(err)
				}
				cache.AddArena(workloads.NewArena(lease.Window()))
			}
			// Trim the local slice from the comparison by shrinking the
			// first arena's share of capacity: the sweep point is
			// steps*fig14StepBytes + the 1/4-step local minimum either way.
		} else {
			size := uint64(steps)*uint64(fig14StepBytes) + uint64(fig14StepBytes)/4
			cache.AddArena(workloads.NewArena(64<<20, size))
		}
		db := &workloads.TierDB{
			Redis:          cache,
			MySQL:          &workloads.MySQLModel{QueryTime: fig14MySQLms * sim.Millisecond},
			ClientOverhead: fig14ClientUs * sim.Microsecond,
		}
		// Warm until the cache reaches steady state (a uniform draw needs
		// several keyspace passes to touch ~every key), then measure.
		db.RunQueries(pr, sim.NewRNG(100), fig14Keys, fig14Keys*4)
		h0, m0 := cache.Hits, cache.Misses
		elapsed = db.RunQueries(pr, sim.NewRNG(101), fig14Keys, fig14Queries)
		hits, misses := cache.Hits-h0, cache.Misses-m0
		missRatio = float64(misses) / float64(hits+misses)
	})
	// Step only until the workload finishes: the agents would otherwise
	// heartbeat forever.
	for !done.Done() && c.Eng.Step() {
	}
	return elapsed, missRatio
}

// Seeds for the sweep cluster and the donor-impact rig, unchanged from
// the sequential code.
const (
	fig14SeedCluster = 14
	fig14SeedDonor   = 15
)

// fig14Spec decomposes the sweep into one trial per memory-size ×
// placement cell plus the two donor-impact runs.
func fig14Spec() harness.Spec {
	var trials []harness.Trial
	for s := 1; s <= fig14Steps; s++ {
		for _, remote := range []bool{false, true} {
			placement := "local"
			if remote {
				placement = "remote"
			}
			trials = append(trials, harness.Trial{
				ID: fmt.Sprintf("%s/%d", placement, s), Seed: fig14SeedCluster,
				Run: func(seed uint64) (harness.Values, error) {
					d, miss := fig14Run(s, remote, seed)
					return harness.Values{"ns": float64(d), "miss": miss}, nil
				},
			})
		}
	}
	for _, traffic := range []bool{false, true} {
		id := "donor/solo"
		if traffic {
			id = "donor/traffic"
		}
		trials = append(trials, harness.Trial{
			ID: id, Seed: fig14SeedDonor,
			Run: durTrial(func(seed uint64) sim.Dur { return fig14Donor(traffic, seed) }),
		})
	}
	return harness.Spec{
		Title:    "Fig. 14 — mini data-center Redis memory sweep",
		Trials:   trials,
		Assemble: assembleFig14,
	}
}

// assembleFig14 folds the sweep cells back into the sweep table.
func assembleFig14(r *harness.Result) (harness.Artifact, error) {
	res := &Fig14Result{
		StepBytes: uint64(fig14StepBytes),
		Table: Table{
			Title:   "Fig. 14 — Redis memory sweep (scaled 70 MB->3.5 MB steps): exec time and miss rate",
			Columns: []string{"memory", "local time", "remote time", "local miss", "remote miss"},
		},
	}
	for s := 1; s <= fig14Steps; s++ {
		lt := trialDur(r, fmt.Sprintf("local/%d", s))
		lm := r.Val(fmt.Sprintf("local/%d", s), "miss")
		rt := trialDur(r, fmt.Sprintf("remote/%d", s))
		rm := r.Val(fmt.Sprintf("remote/%d", s), "miss")
		res.Sizes = append(res.Sizes, uint64(s)*uint64(fig14StepBytes))
		res.LocalTime = append(res.LocalTime, lt)
		res.RemoteTime = append(res.RemoteTime, rt)
		res.LocalMiss = append(res.LocalMiss, lm)
		res.RemoteMiss = append(res.RemoteMiss, rm)
		res.Table.AddRow(fmt.Sprintf("%dMB-equiv", s*70), lt.String(), rt.String(),
			pct(lm*100), pct(rm*100))
	}
	solo := trialDur(r, "donor/solo")
	shared := trialDur(r, "donor/traffic")
	res.DonorImpact = 100 * (float64(shared) - float64(solo)) / float64(solo)
	res.Table.AddRow("donor CC impact", pct(res.DonorImpact), "", "", "")
	return res, nil
}

// String renders the figure's table.
func (r *Fig14Result) String() string { return r.Table.String() }

// fig14Donor measures a donor's own Connected Components job with or
// without a recipient hammering borrowed memory (§7.1 reports the
// serving impact is negligible because the sharing traffic is
// insignificant). The hammer wires its window without the Monitor Node,
// the controlled configuration of the §4.2 latency studies: the donor
// hot-removes the region and exports it, and the recipient maps it and
// hot-plugs it.
func fig14Donor(withTraffic bool, seed uint64) sim.Dur {
	p := sim.Default()
	rig := newPair(&p, seed)
	defer rig.close()
	local, donor := rig.Local, rig.Donor
	// Donor runs CC on its own memory.
	g := workloads.GenUniform(sim.NewRNG(5), 20000, 8)
	g.Place(workloads.NewArena(0, 8<<20), workloads.NewArena(8<<20, 32<<20),
		workloads.NewArena(48<<20, 8<<20))
	var ccTime sim.Dur
	ccDone := donor.Run("cc", func(pr *sim.Proc) {
		t0 := pr.Now()
		workloads.ConnectedComponents(pr, donor.Mem, g)
		ccTime = pr.Now().Sub(t0)
	})
	if withTraffic {
		// The recipient hammers borrowed donor memory meanwhile.
		local.Run("hammer", func(pr *sim.Proc) {
			const size = 64 << 20
			win := local.NextHotplugWindow(size)
			base, err := donor.MemMgr.HotRemove(pr, size)
			if err != nil {
				panic(err)
			}
			donor.EP.CRMA.Export(local.ID, win, size, base)
			if _, err := local.EP.CRMA.Map(win, size, donor.ID, base); err != nil {
				panic(err)
			}
			mustAdd(rig, &memsys.Region{Base: win, Size: size,
				Backend: &memsys.CRMARemote{CRMA: local.EP.CRMA, Donor: donor.ID}})
			pr.Sleep(p.HotplugOp) // the recipient's hot-plug (Fig. 10 step 2)
			rng := sim.NewRNG(6)
			for !ccDone.Done() {
				local.Mem.Read(pr, win+uint64(rng.Intn(size))&^63, 64)
			}
		})
	}
	rig.Eng.Run()
	return ccTime
}
