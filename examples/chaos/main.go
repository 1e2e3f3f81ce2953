// Chaos walkthrough: watch a remote-memory lease survive its donor.
// Three scenes:
//
//  1. kill the donor mid-stream and follow the recovery timeline —
//     heartbeat-timeout detection, donor re-election, lease
//     re-placement, and in-flight replay, with every read accounted
//     for;
//  2. crash-and-reboot *inside* the heartbeat timeout: missed beats
//     never accumulate, but the incarnation number on the returning
//     heartbeats betrays the reboot and the lease still moves;
//  3. rolling churn at two rates, read off the serving scenario as
//     goodput, SLO misses, and unavailability.
package main

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/serving"
	"repro/internal/sim"
)

// newChurnCluster builds the fast-detection cluster the scenes share:
// 8-node mesh, MN on node 0 (excluded from donation), 100 µs beats,
// 500 µs death timeout, 250 µs recovery sweep.
func newChurnCluster() *core.Cluster {
	topo := fabric.Mesh3D(2, 2, 2)
	cl := core.NewCluster(core.Config{
		Topology:          &topo,
		StartAgents:       true,
		StartRecovery:     true,
		HeartbeatInterval: 100 * sim.Microsecond,
		HeartbeatTimeout:  500 * sim.Microsecond,
		SweepInterval:     250 * sim.Microsecond,
		Seed:              7,
	})
	if err := cl.Node(0).MemMgr.Reserve(cl.Node(0).MemMgr.Idle()); err != nil {
		panic(err)
	}
	return cl
}

func scene1() {
	fmt.Println("— scene 1: kill the donor, watch the lease move —")
	cl := newChurnCluster()
	defer cl.Close()
	cl.RunFor(20 * sim.Millisecond)

	inj := chaos.New(cl.Eng, cl.Net, cl.Agents)
	tenant := cl.Node(4)
	done := tenant.Run("tenant", func(p *sim.Proc) {
		lease, err := cl.Acquire(p, core.NewRequest(core.Memory, tenant, 8<<20))
		if err != nil {
			panic(err)
		}
		ml := lease.(*core.MemoryLease)
		fmt.Printf("  lease: %d MiB on donor %v, window %#x\n", ml.Size>>20, ml.Donor(), ml.WindowBase)

		crashAt := p.Now().Add(1 * sim.Millisecond)
		cl.Eng.At(crashAt, func() {
			fmt.Printf("  t+%v: donor %v crashes\n", sim.Dur(0)+1*sim.Millisecond, ml.Donor())
			inj.KillNode(ml.Donor())
		})

		rng := sim.NewRNG(1)
		var worst sim.Dur
		for i := 0; i < 200; i++ {
			off := rng.Uint64n(ml.Size-2048) &^ 63
			t0 := p.Now()
			tenant.EP.CRMA.Fill(p, ml.WindowBase+off, 2048)
			if d := p.Now().Sub(t0); d > worst {
				worst = d
			}
			p.Sleep(20 * sim.Microsecond)
		}
		a, _ := cl.MN.Allocation(0)
		fmt.Printf("  200/200 reads completed; worst stall %v (detection + one hot-plug)\n", worst)
		fmt.Printf("  lease now on donor %v; MN replaced=%d, agent replayed in-flight ops=%d\n",
			a.Donor, cl.MN.Stats.Get("recover.replaced"), cl.Agents[4].Stats.Get("relocate.replayed"))
	})
	for !done.Done() && cl.Eng.Step() {
	}
}

func scene2() {
	fmt.Println("\n— scene 2: reboot faster than the timeout; incarnation gives it away —")
	cl := newChurnCluster()
	defer cl.Close()
	cl.RunFor(20 * sim.Millisecond)

	inj := chaos.New(cl.Eng, cl.Net, cl.Agents)
	tenant := cl.Node(4)
	done := tenant.Run("tenant", func(p *sim.Proc) {
		lease, err := cl.Acquire(p, core.NewRequest(core.Memory, tenant, 8<<20))
		if err != nil {
			panic(err)
		}
		donor := lease.Donor()
		fmt.Printf("  lease on donor %v; crash+reboot outage of 300µs (timeout is 500µs)\n", donor)
		cl.Eng.Schedule(1*sim.Millisecond, func() { inj.KillNode(donor) })
		cl.Eng.Schedule(1*sim.Millisecond+300*sim.Microsecond, func() { inj.RestartNode(donor) })
		p.Sleep(10 * sim.Millisecond)
		a, _ := cl.MN.Allocation(0)
		fmt.Printf("  missed-beat deaths: %d (outage too short), reboots seen via incarnation: %d\n",
			cl.MN.Stats.Get("recover.deaths"), cl.MN.Stats.Get("recover.reboots_seen"))
		fmt.Printf("  lease moved anyway: donor %v -> %v (a rebooted donor's memory is gone)\n", donor, a.Donor)
	})
	for !done.Done() && cl.Eng.Step() {
	}
}

func scene3() {
	fmt.Println("\n— scene 3: rolling churn as a serving scenario —")
	for _, fault := range []serving.FaultRate{serving.FaultNone, serving.FaultSlow, serving.FaultFast} {
		r, err := serving.Run(serving.Config{
			Workload: serving.Churn, Nodes: 8, Util: 0.7, Requests: 1200, Fault: fault, Seed: 5,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  fault=%-5s goodput %6.0f/%6.0f rps  SLO misses %4.1f%%  unavail %6.2fms  crashes %d  recoveries %d (mean %.2fms)  p99 %v\n",
			fault, r.GoodputRPS, r.OfferedRPS, 100*float64(r.Failed)/1200,
			float64(r.UnavailNS)/1e6, r.Crashes, r.Recoveries, r.RecoverMeanNS/1e6,
			sim.Dur(r.Lat.Quantile(99)))
	}
	fmt.Println("\nevery request completes — churn costs SLO misses and tail, never losses.")
	fmt.Println("sweep mesh × fault-rate × policy with: go run ./cmd/venice-bench -run serving-churn")
}

func main() {
	scene1()
	scene2()
	scene3()
}
