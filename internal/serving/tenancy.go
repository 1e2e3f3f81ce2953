package serving

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// The tenancy scenario is the millions-of-users complement to churn:
// instead of donors failing, the pool itself is oversubscribed by
// tenants of different SLO classes, and what's measured is the
// admission plane — per-class goodput, SLO-miss rate, and the
// preemption traffic that keeps the Latency class whole while the
// Preemptible class absorbs the pressure.
//
// The rig is a flat 8-node mesh with the MN on node 0 and the app
// server on node 1, both fully reserved so six donors back the pool. A
// population of background Preemptible-class holders saturates its
// class budget and sits on the leases; a flash-crowd MMPP stream of
// class-mixed sessions (Latency/Standard/Preemptible) then competes
// for the remainder. Under bursts the Standard class queues and —
// when the wait expires — preempts holders through the MN's admission
// plane; holders watch the plane's event stream for their eviction and
// re-acquire with backoff once pressure relents.

// TenancyConfig shapes one tenancy scenario run.
type TenancyConfig struct {
	// Util is offered load as a fraction of calibrated capacity.
	Util float64
	// Requests is the number of measured open-loop sessions.
	Requests int
	// Seed drives the arrival, class-mix, and offset streams (the shard
	// axis).
	Seed uint64
}

// ClassStats is one SLO class's ledger for a run. Every offered
// session is accounted exactly once: Completed + Rejected == Offered.
type ClassStats struct {
	// Offered counts arrivals tagged with this class.
	Offered int
	// Completed counts sessions whose lease was granted (possibly
	// degraded) and whose work finished.
	Completed int
	// Rejected counts sessions the admission plane turned away
	// (core.ErrAdmissionRejected, plus any terminal acquire failure).
	Rejected int
	// SLOMiss counts completions beyond the class deadline.
	SLOMiss int
	// Deadline is the class SLO: its configured SLOMult × the
	// calibrated mean service time.
	Deadline sim.Dur
	// Lat holds the class's end-to-end session latencies (completed
	// sessions only; arrival to completion, queueing included).
	Lat *sim.LatencyHist
}

// TenancyResult is one tenancy run's measurements.
type TenancyResult struct {
	// ServiceNS is the calibrated closed-loop mean session time
	// (acquire + read + release, untagged, unloaded).
	ServiceNS float64
	// OfferedRPS is the open-loop arrival rate across all classes.
	OfferedRPS float64
	// PerClass indexes the class ledgers by tenancy class
	// (ClassNone's slot stays zero).
	PerClass [tenancy.NumClasses]ClassStats
	// Preemptions counts Preemptible-class leases the MN revoked to
	// make room for a higher class ("preempt.memory").
	Preemptions int64
	// Degrades counts grants admitted at a reduced size
	// ("admit.degraded").
	Degrades int64
	// QueueAdmits counts grants admitted after a bounded queue wait
	// ("admit.queue_admits").
	QueueAdmits int64
	// HolderAcquires and HolderPreemptions count the background
	// population's lease grants and observed evictions.
	HolderAcquires    int64
	HolderPreemptions int64
	// Fairness is the Jain index over per-class completion ratios
	// (1 = every class completed the same fraction of its offered load).
	Fairness float64
}

// Scenario-internal constants (shared by every cell; the sweep varies
// only load and the shard seed).
const (
	tenancyClusterSeed = 3131
	tenancyCalSeed     = 3133

	tenancyNodeMem    = uint64(32 << 20)
	tenancyLeaseBytes = uint64(8 << 20)
	tenancyReadBytes  = 2048
	tenancyThink      = 20 * sim.Microsecond
	tenancyCalibrate  = 12

	// Class mix of the foreground sessions.
	tenancyLatencyFrac  = 0.2
	tenancyStandardFrac = 0.5

	// Tenant identity space: foreground sessions draw from a large flat
	// id space (the "millions of users" stand-in); holders live in a
	// disjoint range above it.
	tenancyTenants    = 4096
	tenancyHolderBase = uint64(1) << 32

	tenancyHolderPoll = 100 * sim.Microsecond
	tenancySettle     = 20 * sim.Millisecond

	// tenancyWorkers is the app-server dispatch concurrency. Each busy
	// worker holds one in-flight lease, so it also bounds the foreground
	// pool pressure.
	tenancyWorkers = 8
	// tenancyHolders is the background Preemptible-class tenant
	// population: two more than the class budget admits, so the degrade
	// and reject paths are exercised from the start.
	tenancyHolders = 16
)

// session is one tenancy request: a tenant of one SLO class leasing,
// reading, and releasing one window.
type session struct {
	tenant uint64
	class  tenancy.Class
}

// RunTenancy executes one multi-tenant admission scenario.
func RunTenancy(cfg TenancyConfig) (*TenancyResult, error) {
	if err := checkLoad(cfg.Requests, cfg.Util); err != nil {
		return nil, err
	}
	topo, err := topoFor(8)
	if err != nil {
		return nil, err
	}
	adm := tenancy.Default()
	cl := core.NewCluster(core.Config{
		Topology:     &topo,
		NodeMemBytes: tenancyNodeMem,
		StartAgents:  true,
		Seed:         tenancyClusterSeed,
		Admission:    adm,
	})
	defer cl.Close()
	// Keep the control plane (node 0) and the app server (node 1) out of
	// donor candidacy: the six remaining nodes form the shared pool.
	for _, i := range []int{0, 1} {
		if err := cl.Node(i).MemMgr.Reserve(cl.Node(i).MemMgr.Idle()); err != nil {
			return nil, fmt.Errorf("serving: reserving node %d memory: %w", i, err)
		}
	}
	cl.RunFor(10 * sim.Millisecond) // populate the RRT

	// Holders learn about their eviction from the plane's event stream:
	// the observer records preempted trace ids, each holder polls for
	// its own.
	preempted := make(map[uint64]bool)
	cancel := cl.Observe(func(ev core.Event) {
		if ev.Type == core.LeasePreempted {
			preempted[ev.Trace] = true
		}
	})
	defer cancel()

	app := cl.Node(1)
	res := &TenancyResult{}
	for c := range res.PerClass {
		res.PerClass[c].Lat = &sim.LatencyHist{}
	}
	stop := false

	// Background Preemptible-class tenants: each tries to hold one lease
	// indefinitely, re-acquiring with backoff after every eviction or
	// rejection. Their virtual time is spent asleep, so they load the
	// pool's capacity, not its request path.
	holderGrp := sim.NewGroup(cl.Eng)
	for h := 0; h < tenancyHolders; h++ {
		holderGrp.Add(1)
		app.Run(fmt.Sprintf("tenant-holder-%d", h), func(hp *sim.Proc) {
			defer holderGrp.Done()
			bo := tenancy.Backoff{}
			attempt := 0
			for !stop {
				l, err := cl.Acquire(hp, core.NewRequest(core.Memory, app, tenancyLeaseBytes,
					core.WithTenant(tenancyHolderBase+uint64(h), tenancy.Preemptible)))
				if err != nil {
					attempt++
					hp.Sleep(bo.Delay(attempt))
					continue
				}
				attempt = 0
				res.HolderAcquires++
				for !stop && !preempted[l.Trace()] {
					hp.Sleep(tenancyHolderPoll)
				}
				evicted := preempted[l.Trace()]
				// Release is safe after a preemption: the MN row is gone and
				// the window already dead; this tears down the local mapping.
				l.Release(hp)
				if evicted {
					res.HolderPreemptions++
					attempt++
					hp.Sleep(bo.Delay(attempt))
				}
			}
		})
	}

	err = runScenario(cl.Eng, "tenancy", nil, func(pr *sim.Proc) error {
		// Closed-loop calibration before the holders saturate anything:
		// untagged sessions bypass admission, so the measured mean is the
		// unloaded acquire + read + release cycle.
		calRng := sim.NewRNG(tenancyCalSeed)
		var calErr error
		res.ServiceNS = calibrate(pr, tenancyCalibrate, func(int) {
			if calErr != nil {
				return
			}
			l, err := cl.Acquire(pr, core.NewRequest(core.Memory, app, tenancyLeaseBytes))
			if err != nil {
				calErr = fmt.Errorf("serving: tenancy calibration: %w", err)
				return
			}
			base, size := l.Window()
			off := calRng.Uint64n(size-tenancyReadBytes) &^ 63
			app.EP.CRMA.Fill(pr, base+off, tenancyReadBytes)
			pr.Sleep(tenancyThink)
			l.Release(pr)
		})
		if calErr != nil {
			return calErr
		}
		res.OfferedRPS = offeredRPS(cfg.Util, tenancyWorkers, res.ServiceNS)
		for _, c := range tenancy.Classes() {
			res.PerClass[c].Deadline = sim.Dur(adm.PerClass[c].SLOMult * res.ServiceNS)
		}

		// Let the holder population claim its class budget before the
		// measured window opens, so every shard starts from the same
		// saturated pool.
		pr.Sleep(tenancySettle)

		// Open-loop flash-crowd arrivals with a per-request class draw.
		mixRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		_, err := openLoop[session]{
			workers: tenancyWorkers, arrivals: flashCrowd(),
			rps: res.OfferedRPS, seed: cfg.Seed, requests: cfg.Requests,
			next: func() (session, int) {
				var s session
				switch u := mixRng.Float64(); {
				case u < tenancyLatencyFrac:
					s.class = tenancy.Latency
				case u < tenancyLatencyFrac+tenancyStandardFrac:
					s.class = tenancy.Standard
				default:
					s.class = tenancy.Preemptible
				}
				res.PerClass[s.class].Offered++
				s.tenant = 1 + mixRng.Uint64n(tenancyTenants)
				return s, 0
			},
			serve: func(wp *sim.Proc, _ int, s session) bool {
				l, err := cl.Acquire(wp, core.NewRequest(core.Memory, app, tenancyLeaseBytes,
					core.WithTenant(s.tenant, s.class),
					core.WithRetry(borrowRetry)))
				if err != nil {
					// Admission rejections and exhausted retries both count
					// against the class's completion ratio.
					res.PerClass[s.class].Rejected++
					return false
				}
				base, size := l.Window()
				off := uint64(s.tenant*2048) % (size - tenancyReadBytes) &^ 63
				app.EP.CRMA.Fill(wp, base+off, tenancyReadBytes)
				wp.Sleep(tenancyThink)
				l.Release(wp)
				return true
			},
			done: func(_ *phase, s session, _ sim.Time, d sim.Dur) {
				cs := &res.PerClass[s.class]
				cs.Lat.AddDur(d)
				cs.Completed++
				if d > cs.Deadline {
					cs.SLOMiss++
				}
			},
		}.run(pr)
		stop = true
		holderGrp.Wait(pr)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Preemptions = cl.MN.Stats.Get("preempt.memory")
	res.Degrades = cl.MN.Stats.Get("admit.degraded")
	res.QueueAdmits = cl.MN.Stats.Get("admit.queue_admits")
	res.Fairness = tenancyFairness(res)
	return res, nil
}

// tenancyFairness computes the Jain index over per-class completion
// ratios. Classes with no offered load are excluded.
func tenancyFairness(res *TenancyResult) float64 {
	var ratios []float64
	for _, c := range tenancy.Classes() {
		cs := res.PerClass[c]
		if cs.Offered > 0 {
			ratios = append(ratios, float64(cs.Completed)/float64(cs.Offered))
		}
	}
	return tenancy.Jain(ratios)
}
