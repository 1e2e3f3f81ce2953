// Package core is the Venice library's public surface: it assembles a
// rack of nodes on the resource-sharing fabric, runs the
// resource-management runtime (Monitor Node + per-node agents), and
// exposes the paper's resource-joining sessions — borrowing remote
// memory directly (CRMA), as swap space (RDMA block device), attaching
// remote accelerators, and attaching remote NICs — behind a small,
// transparent API (§3, Fig. 2).
package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/tenancy"
)

// Config shapes a cluster. Zero values select the paper's prototype
// configuration (Table 1): eight 1 GB nodes on a 2x2x2 mesh, MN on node
// 0.
type Config struct {
	Params       *sim.Params      // nil: sim.Default()
	Topology     *fabric.Topology // nil: Mesh3D(2,2,2)
	NodeMemBytes uint64           // 0: 1 GiB
	MonitorNode  fabric.NodeID
	Seed         uint64 // 0: 1
	// StartAgents launches heartbeat daemons on every node (required for
	// MN-brokered sharing; controlled experiments may skip them).
	StartAgents bool
	// HeartbeatInterval overrides the agents' default period when >0.
	HeartbeatInterval sim.Dur
	// HeartbeatTimeout overrides the MN's death-detection threshold when
	// >0 (it should be several heartbeat intervals).
	HeartbeatTimeout sim.Dur
	// StartRecovery launches the MN's failure-detection and
	// lease-failover loop (see monitor.Monitor.StartRecovery). The loop
	// keeps the event queue alive, so drive such clusters with RunFor or
	// step-until-done, not Run.
	StartRecovery bool
	// SweepInterval overrides the recovery loop's scan period when >0.
	SweepInterval sim.Dur
	// Telemetry enables the windowed link-utilization plane: every
	// agent's heartbeats then carry per-link recent utilization, feeding
	// the monitor.View that telemetry-aware policies and the migration
	// loop consume. Off by default (the heartbeat payload is unchanged).
	Telemetry bool
	// MigrateInterval launches the MN's telemetry-driven lease-migration
	// loop at this period when >0 (see monitor.Monitor.StartMigration;
	// requires Telemetry to ever observe a hot path). Like recovery, the
	// loop keeps the event queue alive. MigrateUtil and MigrateMargin
	// override the loop's hot threshold and required cool-down when >0.
	MigrateInterval sim.Dur
	MigrateUtil     float64
	MigrateMargin   float64
	// SpareRegionBytes enables per-donor spare-region pools when >0:
	// SparesPerDonor regions (default 1) of this size are kept
	// pre-plugged on every donor so failover and migration skip the
	// hot-plug latency (see monitor.Monitor.EnableSparePool).
	SpareRegionBytes uint64
	SparesPerDonor   int
	// Admission installs the MN's tenancy admission policy (per-class
	// budgets, queue bounds, preemption; see tenancy.Default). nil — the
	// default — disables admission entirely: every request, tagged or
	// not, takes the pre-tenancy grant path.
	Admission *tenancy.Config
}

// Cluster is a running Venice rack. It implements Plane: acquire any
// shareable resource with Acquire/AcquireAll and watch lease lifecycles
// with Observe.
type Cluster struct {
	Eng    *sim.Engine
	P      *sim.Params
	Net    *fabric.Network
	Nodes  []*node.Node
	Agents []*monitor.Agent
	MN     *monitor.Monitor

	// hub fans lease-lifecycle events out to Observe subscribers.
	hub eventHub
}

// NewCluster builds the rack.
func NewCluster(cfg Config) *Cluster {
	p := cfg.Params
	if p == nil {
		d := sim.Default()
		p = &d
	}
	topo := fabric.Mesh3D(2, 2, 2)
	if cfg.Topology != nil {
		topo = *cfg.Topology
	}
	mem := cfg.NodeMemBytes
	if mem == 0 {
		mem = 1 << 30
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	eng := sim.New()
	net := fabric.NewNetwork(eng, p, topo, sim.NewRNG(seed))
	c := &Cluster{Eng: eng, P: p, Net: net}
	for i := 0; i < topo.N; i++ {
		n := node.New(eng, p, net, fabric.NodeID(i), mem)
		c.Nodes = append(c.Nodes, n)
		a := monitor.NewAgent(n.EP, n.MemMgr, net)
		if cfg.HeartbeatInterval > 0 {
			a.Interval = cfg.HeartbeatInterval
		}
		a.Telemetry = cfg.Telemetry
		c.Agents = append(c.Agents, a)
	}
	// The network's copy of the topology carries its routing tables even
	// when cfg.Topology was assembled field by field.
	c.MN = monitor.New(c.Nodes[cfg.MonitorNode].EP, net.Topo)
	// Surface the MN's recovery transitions (revocations, donor
	// failovers) on the plane's event stream.
	c.MN.Observe(c.hub.forwardRecovery)
	if cfg.HeartbeatTimeout > 0 {
		c.MN.HeartbeatTimeout = cfg.HeartbeatTimeout
	}
	if cfg.SweepInterval > 0 {
		c.MN.SweepInterval = cfg.SweepInterval
	}
	c.MN.Admission = cfg.Admission
	if cfg.StartAgents {
		for _, a := range c.Agents {
			a.Start(cfg.MonitorNode)
		}
	}
	if cfg.StartRecovery {
		c.MN.StartRecovery()
	}
	if cfg.SpareRegionBytes > 0 {
		per := cfg.SparesPerDonor
		if per <= 0 {
			per = 1
		}
		c.MN.EnableSparePool(cfg.SpareRegionBytes, per)
	}
	if cfg.MigrateInterval > 0 {
		c.MN.MigrateUtil = cfg.MigrateUtil
		c.MN.MigrateMargin = cfg.MigrateMargin
		c.MN.StartMigration(cfg.MigrateInterval)
	}
	return c
}

// Node returns node i.
func (c *Cluster) Node(i int) *node.Node { return c.Nodes[i] }

// Run drains the event queue (until all processes finish or deadlock).
func (c *Cluster) Run() { c.Eng.Run() }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d sim.Dur) { c.Eng.RunFor(d) }

// Close releases simulation resources; the cluster must not be used
// afterwards.
func (c *Cluster) Close() { c.Eng.Close() }

// String summarizes the cluster.
func (c *Cluster) String() string {
	return fmt.Sprintf("venice[%s, %d nodes, MN=%v]", c.Net.Topo.Name, len(c.Nodes), c.MN.Node())
}
