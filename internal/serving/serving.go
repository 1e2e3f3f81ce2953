package serving

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// Workload selects the served application.
type Workload string

const (
	// KV is the replicated key-value tier: clients on the serving node
	// fetch records from DataServers spread across the mesh over QPairs
	// (the workloads/kvserver.go path).
	KV Workload = "kv"
	// Tier is the Redis-in-front-of-MySQL cache tier whose value storage
	// is partly leased remote memory brokered by the Monitor Node (the
	// workloads/tierdb.go path).
	Tier Workload = "tier"
	// Scale is the rack-scale read-serving tier: an app server on a
	// multi-rack spine fabric reads from remote-memory windows leased
	// through the sharded monitor plane, a configurable fraction of them
	// delegated cross-rack over the oversubscribed spine (scale.go).
	Scale Workload = "scale"
	// Inference is the device-plane inference farm: open-loop requests
	// fan out across leased remote accelerators and egress over a bond
	// of leased remote NICs — on flat meshes optionally under rolling
	// donor churn, on rack/spine fabrics with a CrossFrac share of the
	// accelerator leases delegated cross-rack (inference.go).
	Inference Workload = "inference"
	// Churn is availability under failure: an app server reads out of
	// leased remote-memory windows while rolling crashes walk the donor
	// population (churn.go).
	Churn Workload = "churn"
	// Tenancy is admission under oversubscription: class-tagged lease
	// sessions from thousands of tenants compete for a lease pool that
	// preemptible holders saturate (tenancy.go).
	Tenancy Workload = "tenancy"
)

// Config shapes one serving scenario run. Each field names the
// workloads that read it; the others ignore it.
type Config struct {
	Workload Workload
	// Nodes is the flat mesh size (KV, Tier, Churn and flat Inference):
	// 2, 4, or 8 (0 defaults to the prototype's 8-node mesh; all but KV
	// need >= 4 for donor diversity). Tenancy runs a fixed 8-node mesh.
	Nodes int
	// Util is the offered load as a fraction of the scenario's
	// calibrated service capacity (the open-loop arrival rate is
	// Util × capacity). Meaningful range (0, 1); above ~1 the open-loop
	// queue grows without bound for the whole horizon. Every workload.
	Util float64
	// Arrivals shapes the arrival process (zero value: Poisson). Every
	// workload but Tenancy, which runs its flash-crowd MMPP arrivals.
	Arrivals ArrivalSpec
	// Requests is the number of measured open-loop requests (Tenancy:
	// sessions). Every workload.
	Requests int
	// Tenants is the number of co-located tenants on the serving node,
	// each leasing remote memory through the Monitor Node and streaming
	// reads through it for the scenario's duration (Tier only).
	Tenants int
	// Policy names the Monitor Node sharing policy that places every
	// lease — the serving tier's and the tenants' (Tier, Churn and flat
	// Inference; "" = the prototype's distance-first).
	Policy string
	// Migrate turns on the windowed link-utilization plane and the MN's
	// lease-migration loop (Tier only): agents beat every
	// tierTelemetryBeat instead of staying silent for the run, each beat
	// carrying per-link recent utilization, and a lease serving through
	// a saturated path is retargeted to a cooler donor mid-run, reads
	// replaying transparently through the CRMA window.
	Migrate bool
	// Racks and RackNodes shape the hierarchical fabric (Scale, and
	// Inference when Racks > 0): Racks racks of RackNodes-node meshes
	// (8, 16, or 32 per rack) behind an oversubscribed spine.
	Racks     int
	RackNodes int
	// CrossFrac is the fraction of the working set's leases delegated
	// to other racks — the cross-rack traffic knob the sweep measures
	// the spine penalty with (Scale: remote-memory windows; Inference:
	// accelerator leases).
	CrossFrac float64
	// Fault selects the rolling donor-churn intensity (Churn, and
	// Inference on flat meshes; default FaultNone).
	Fault FaultRate
	// SparePool pre-plugs one lease-sized spare region per donor
	// (Churn only): the carve's hot-remove happens when the pool fills
	// (off the serving path), so a failover's replacement grant skips
	// the ~2 ms hot-plug and recovery latency collapses to the
	// control-plane round trips.
	SparePool bool
	// Seed drives the arrival and key streams (the shard axis). Every
	// workload. Everything else in the scenario, chaos instants
	// included, uses fixed internal seeds, so two runs with the same
	// Seed are identical and runs with different Seeds are independent
	// shards of the same cell, mergeable via sim.LatencyHist.
	Seed uint64

	// The remaining fields are observability hooks (venice-serve). All
	// run OUTSIDE virtual time — they may read simulation state but must
	// not sleep, block, or touch the engine — so leaving them nil (the
	// default) and setting them produce identical results
	// (TestRunHooksReachEveryWorkload checks it).

	// OnCluster, when set, receives the cluster after its RRT is
	// populated and before serving starts: the place to attach
	// lease-lifecycle observers or capture handles for snapshots
	// (Churn only).
	OnCluster func(*core.Cluster)
	// Throttle, when set, is called between engine steps on the driving
	// goroutine (every workload). venice-serve uses it to pace virtual
	// time against wall clock and to publish state snapshots at a safe
	// point.
	Throttle func()
	// Observe, when set, receives every completed request's end-to-end
	// latency as it completes, in addition to the run's histogram
	// (every workload; Tenancy: every completed session).
	Observe func(sim.Dur)
}

// Result is one scenario run's measurements. The fields past MaxQueue
// name the workloads that fill them; the rest stay zero.
type Result struct {
	// Lat holds every completed request's end-to-end latency (queueing
	// included — the arrival instant to the response; Churn: outage
	// stalls included).
	Lat *sim.LatencyHist
	// OfferedRPS is the open-loop arrival rate (Util × calibrated
	// capacity) in requests per second of virtual time.
	OfferedRPS float64
	// AchievedRPS is the measured completion throughput.
	AchievedRPS float64
	// ServiceNS is the calibrated closed-loop mean service time
	// (Tenancy: the acquire + read + release session, untagged and
	// unloaded).
	ServiceNS float64
	// MaxQueue is the deepest any request queue got.
	MaxQueue int
	// Crashes counts injected donor crashes (Churn, and flat Inference
	// under a fault rate).
	Crashes int64
	// DevFailovers counts completed device-lease re-placements
	// (Inference).
	DevFailovers int64

	// GoodputRPS counts only completions within the SLO deadline
	// (Churn).
	GoodputRPS float64
	// Deadline is the SLO the goodput is measured against
	// (churnDeadlineMult × ServiceNS; Churn).
	Deadline sim.Dur
	// Failed counts deadline misses (Churn). Every request still
	// completes — zero-loss accounting is asserted by the scenario — so
	// Failed is an SLO figure, not a loss figure.
	Failed int
	// UnavailNS totals completion-stall time (Churn): for each
	// inter-completion gap exceeding the stall threshold
	// (churnStallMult × ServiceNS), the excess is charged as
	// unavailability.
	UnavailNS int64
	// Recoveries counts completed lease re-placements and RecoverMeanNS
	// is their mean MN-side latency, detection excluded (Churn).
	Recoveries    int64
	RecoverMeanNS float64
	// DeadAccesses counts reads that hit a revoked window (re-placement
	// found no donor; Churn). Zero in every swept configuration —
	// rolling churn keeps a survivor available by construction.
	DeadAccesses int64

	// PerClass indexes the class ledgers by tenancy class (Tenancy;
	// ClassNone's slot stays zero).
	PerClass [tenancy.NumClasses]ClassStats
	// Preemptions counts Preemptible-class leases the MN revoked to
	// make room for a higher class ("preempt.memory"; Tenancy).
	Preemptions int64
	// Degrades counts grants admitted at a reduced size
	// ("admit.degraded"; Tenancy).
	Degrades int64
	// QueueAdmits counts grants admitted after a bounded queue wait
	// ("admit.queue_admits"; Tenancy).
	QueueAdmits int64
	// HolderAcquires and HolderPreemptions count the background
	// population's lease grants and observed evictions (Tenancy).
	HolderAcquires    int64
	HolderPreemptions int64
	// Fairness is the Jain index over per-class completion ratios
	// (Tenancy; 1 = every class completed the same fraction of its
	// offered load).
	Fairness float64
}

// Scenario-internal calibration constants. These are deliberately not
// configurable: every cell of the experiment sweep shares them, so the
// sweep varies only load, scale, policy, and arrival shape.
const (
	kvKeys        = 30_000
	kvRecordSize  = 64
	kvFanout      = 16
	kvThink       = 4 * sim.Microsecond
	kvCalibration = 48
	kvRecordBase  = 0x1000_0000 // server-side record arena base
	kvRigSeed     = 2101
	kvCalSeed     = 2102

	tierClusterSeed    = 2111
	tierTenantSeed     = 2112
	tierWarmSeed       = 2113
	tierCalSeed        = 2114
	tierValueBytes     = 1024
	tierKeys           = 3000
	tierLocalBase      = 64 << 20
	tierLocalBytes     = 512 << 10
	tierCacheLease     = 2 << 20
	tierZipfTheta      = 0.9
	tierCalibration    = 64
	tierWarmPasses     = 2
	tierMySQL          = 150 * sim.Microsecond
	tierClientOverhead = 3 * sim.Microsecond

	tenantLeaseBytes = 48 << 20
	tenantReadBytes  = 2048
	tenantThinkMaxNS = 4000

	// Telemetry-plane cadence (Tier cells with Migrate set): the beat
	// must be much shorter than the measured window for utilization to
	// resolve mid-run hotspots; the MN's migration loop scans every two
	// beats.
	tierTelemetryBeat = 250 * sim.Microsecond
	// tierMigrateSettle is the pause between the tenants lighting up and
	// calibration when the migration loop is on: one telemetry window to
	// see the new traffic, one scan to react, and slack for the move —
	// the settling time any closed-loop placer needs after load shifts.
	tierMigrateSettle = 4 * sim.Millisecond
)

// Run executes one serving scenario and returns its measurements.
func Run(cfg Config) (*Result, error) {
	if cfg.Requests <= 0 {
		return nil, fmt.Errorf("serving: Requests must be positive, got %d", cfg.Requests)
	}
	// NaN fails both comparisons, so a malformed Util is an error, not a
	// negative sleep.
	if !(cfg.Util > 0) || math.IsInf(cfg.Util, 1) {
		return nil, fmt.Errorf("serving: Util must be finite and positive, got %v", cfg.Util)
	}
	if err := cfg.Arrivals.validate(); err != nil {
		return nil, err
	}
	switch cfg.Workload {
	case KV:
		return runKV(cfg)
	case Tier:
		return runTier(cfg)
	case Scale:
		return runScale(cfg)
	case Inference:
		return runInference(cfg)
	case Churn:
		return runChurn(cfg)
	case Tenancy:
		return runTenancy(cfg)
	}
	return nil, fmt.Errorf("serving: unknown workload %q", cfg.Workload)
}

// measured copies a measured phase's outcome into the result.
func (r *Result) measured(ph *phase) {
	r.Lat, r.AchievedRPS, r.MaxQueue = ph.lat, float64(ph.completed)/ph.window(), ph.maxQueue
}

// topoFor maps a node count onto the meshes the prototype family
// supports.
func topoFor(n int) (fabric.Topology, error) {
	switch n {
	case 2:
		return fabric.Pair(), nil
	case 4:
		return fabric.Mesh3D(2, 2, 1), nil
	case 8:
		return fabric.Mesh3D(2, 2, 2), nil
	}
	return fabric.Topology{}, fmt.Errorf("serving: unsupported node count %d (want 2, 4, or 8)", n)
}

// runKV serves the replicated key-value tier: node 0 hosts the clients
// and the local index; every other node runs a DataServer holding a
// record replica. Requests hash to a server by key; each server's
// dispatcher issues synchronous gets, so per-server queueing (and with
// it the latency tail) emerges from the open-loop arrivals.
func runKV(cfg Config) (*Result, error) {
	nodeCount := cfg.Nodes
	if nodeCount == 0 {
		nodeCount = 8
	}
	topo, err := topoFor(nodeCount)
	if err != nil {
		return nil, err
	}
	p := sim.Default()
	eng := sim.New()
	defer eng.Close()
	net := fabric.NewNetwork(eng, &p, topo, sim.NewRNG(kvRigSeed))
	nodes := make([]*node.Node, topo.N)
	for i := range nodes {
		nodes[i] = node.New(eng, &p, net, fabric.NodeID(i), 1<<30)
	}
	servers := topo.N - 1

	res := &Result{}
	err = runScenario(eng, cfg, func(pr *sim.Proc) error {
		idx := workloads.BuildBTreeIndex(pr, nodes[0].Mem,
			workloads.NewArena(0, 128<<20), workloads.NewArena(kvRecordBase, 128<<20),
			kvKeys, kvRecordSize, kvFanout)
		rkvs := make([]*workloads.RemoteKV, servers)
		for i := range rkvs {
			qa, qb := transport.ConnectQPair(nodes[0].EP, nodes[i+1].EP, transport.QPairConfig{})
			workloads.ServeKV(eng, fmt.Sprintf("kv-server-%d", i+1),
				&workloads.DataServer{H: nodes[i+1].Mem, QP: qb, Think: kvThink})
			rkvs[i] = &workloads.RemoteKV{Index: idx, QP: qa}
		}

		// Closed-loop calibration: the mean synchronous round trip sets
		// the capacity the offered load is expressed against.
		calRng := sim.NewRNG(kvCalSeed)
		res.ServiceNS = calibrate(pr, kvCalibration, func(j int) {
			rkvs[j%servers].Get(pr, calRng.Intn(idx.Keys()))
		})
		res.OfferedRPS = offeredRPS(cfg.Util, servers, res.ServiceNS)

		// One dispatcher per data server, each with its own queue.
		keyRng := sim.NewRNG(cfg.Seed ^ 0x5eed)
		ph, err := openLoop[int]{
			cfg: cfg, workers: servers, ownQueue: true, rps: res.OfferedRPS,
			next: func() (int, int) {
				key := keyRng.Intn(idx.Keys())
				return key, key % servers
			},
			serve: func(wp *sim.Proc, w, key int) bool { rkvs[w].Get(wp, key); return true },
			exit:  func(wp *sim.Proc, w int) { rkvs[w].Close(wp) },
		}.run(pr)
		res.measured(ph)
		return err
	})
	eng.Run() // drain: each data server exits on its close message
	if err != nil {
		return nil, err
	}
	return res, nil
}

// policyOf resolves cfg.Policy to the MN's placement policy.
func policyOf(cfg Config) (*monitor.Policy, error) {
	pol, ok := monitor.PolicyByName(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("serving: unknown sharing policy %q (known: %v)", cfg.Policy, monitor.PolicyNames())
	}
	return pol, nil
}

// runTier serves the cache tier of Fig. 13 under open-loop load: the
// app server on node 0 answers queries from a Redis-like cache whose
// storage is partly remote memory leased through the Monitor Node,
// while co-located tenants lease and hammer their own remote windows.
// The active sharing policy places every lease, so policy choice
// decides which links the cache's fill traffic shares with the
// tenants' — the mechanism that moves the tail.
func runTier(cfg Config) (*Result, error) {
	pol, err := policyOf(cfg)
	if err != nil {
		return nil, err
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 8
	}
	topo, err := topoFor(nodes)
	if err != nil {
		return nil, err
	}
	if nodes < 4 {
		return nil, fmt.Errorf("serving: tier workload needs >= 4 nodes for donor diversity, got %d", nodes)
	}
	if cfg.Tenants < 0 {
		return nil, fmt.Errorf("serving: Tenants must be non-negative, got %d", cfg.Tenants)
	}
	// The baseline runs with agents effectively silent (one beat during
	// warm-up populates the RRT); the telemetry plane needs live beats.
	ccfg := core.Config{Topology: &topo, StartAgents: true,
		Seed: tierClusterSeed, HeartbeatInterval: 30 * sim.Second}
	if cfg.Migrate {
		ccfg.Migrate = true
		ccfg.HeartbeatInterval = tierTelemetryBeat
	}
	cl := core.NewCluster(ccfg)
	defer cl.Close()
	cl.MN.Policy = pol
	cl.RunFor(1 * sim.Second) // populate the RRT

	app := cl.Node(0)
	res := &Result{}
	stop := false
	err = runScenario(cl.Eng, cfg, func(pr *sim.Proc) error {
		// Co-located tenants lease first: their windows land wherever the
		// policy sends them, before the serving tier asks. The hammer
		// processes start only after warm-up — pressure during the
		// measured (and calibration) phase is what the scenario studies,
		// and an idle warm phase keeps the event count tractable.
		tenantRng := sim.NewRNG(tierTenantSeed)
		tenantLeases, err := borrowWindows(pr, cl, cfg.Tenants, func(int) core.Request {
			return core.NewRequest(core.Memory, app, tenantLeaseBytes)
		})
		if err != nil {
			return fmt.Errorf("serving: tenant leases: %w", err)
		}
		startTenants := func() {
			for t, lease := range tenantLeases {
				trng := tenantRng.Fork()
				app.Run(fmt.Sprintf("tenant-%d", t), func(tp *sim.Proc) {
					for !stop {
						off := trng.Uint64n(lease.Size-tenantReadBytes) &^ 63
						app.Mem.Read(tp, lease.WindowBase+off, tenantReadBytes)
						tp.Sleep(sim.Dur(trng.Intn(tenantThinkMaxNS)))
					}
				})
			}
		}

		// The serving tier's cache: a small local slice plus one leased
		// remote window, placed by the same policy.
		cache := workloads.NewRedisCache(app.Mem, tierValueBytes)
		cache.AddArena(workloads.NewArena(tierLocalBase, tierLocalBytes))
		// The cache window carries the measured query path's fill traffic:
		// latency-sensitive, so the migration loop (when on) clears bulk
		// tenants off its links instead of ever pausing the cache itself.
		lease, err := cl.Acquire(pr, core.NewRequest(core.Memory, app, tierCacheLease,
			core.WithRetry(borrowRetry), core.WithLatencySensitive()))
		if err != nil {
			return fmt.Errorf("serving: cache lease: %w", err)
		}
		cache.AddArena(workloads.NewArena(lease.Window()))
		db := &workloads.TierDB{
			Redis:          cache,
			MySQL:          &workloads.MySQLModel{QueryTime: tierMySQL},
			ClientOverhead: tierClientOverhead,
		}

		// Warm to steady state, then calibrate capacity under the same
		// co-location the measured phase will see.
		db.RunQueries(pr, sim.NewRNG(tierWarmSeed), tierKeys, tierKeys*tierWarmPasses)
		startTenants()
		if cfg.Migrate {
			pr.Sleep(tierMigrateSettle)
		}
		calZipf := sim.NewZipf(sim.NewRNG(tierCalSeed), tierKeys, tierZipfTheta)
		res.ServiceNS = calibrate(pr, tierCalibration, func(int) { db.Query(pr, calZipf.Next()) })
		res.OfferedRPS = offeredRPS(cfg.Util, appWorkers, res.ServiceNS)

		keys := sim.NewZipf(sim.NewRNG(cfg.Seed^0x5eed), tierKeys, tierZipfTheta)
		ph, err := openLoop[int]{
			cfg: cfg, workers: appWorkers, rps: res.OfferedRPS,
			next:  func() (int, int) { return keys.Next(), 0 },
			serve: func(wp *sim.Proc, _, key int) bool { db.Query(wp, key); return true },
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
