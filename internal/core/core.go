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
// configuration (Table 1): eight 1 GB nodes on a 2x2x2 mesh. The MN
// always runs on node 0, and every cluster runs on its own copy of the
// prototype's timing parameters (sim.Default(), Cluster.P).
type Config struct {
	Topology     *fabric.Topology // nil: Mesh3D(2,2,2)
	NodeMemBytes uint64           // 0: 1 GiB
	Seed         uint64           // 0: 1
	// StartAgents launches heartbeat daemons on every node. Without them
	// the MN learns of no donor, so the cluster can grant nothing.
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
	// Migrate turns on telemetry-driven lease migration: every agent's
	// heartbeats carry per-link recent utilization (the windowed
	// link-utilization plane feeding the monitor.View that
	// telemetry-aware policies read), and the MN runs its migration loop
	// on that view (see monitor.Monitor.StartMigration). Like recovery,
	// the loop keeps the event queue alive. Off by default: the
	// heartbeat payload is then unchanged.
	Migrate bool
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

	plane
}

// NewCluster builds the rack.
func NewCluster(cfg Config) *Cluster {
	d := sim.Default()
	p := &d
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
		a.Telemetry = cfg.Migrate
		c.Agents = append(c.Agents, a)
	}
	// The network's copy of the topology carries its routing tables even
	// when cfg.Topology was assembled field by field.
	c.MN = monitor.New(c.Nodes[0].EP, net.Topo)
	// Surface the MN's recovery transitions (revocations, failovers,
	// migrations, preemptions) on the plane's event stream.
	c.plane = plane{nodes: c.Nodes, broker: c.flatMN}
	c.MN.OnLease = c.hub.forwardRecovery
	if cfg.HeartbeatTimeout > 0 {
		c.MN.HeartbeatTimeout = cfg.HeartbeatTimeout
	}
	if cfg.SweepInterval > 0 {
		c.MN.SweepInterval = cfg.SweepInterval
	}
	c.MN.Admission = cfg.Admission
	if cfg.StartAgents {
		for _, a := range c.Agents {
			a.Start(c.MN.Node())
		}
	}
	if cfg.StartRecovery {
		c.MN.StartRecovery()
	}
	if cfg.Migrate {
		c.MN.StartMigration()
	}
	return c
}

// flatMN names the cluster's one MN, which brokers every grant.
func (c *Cluster) flatMN(*node.Node) (fabric.NodeID, error) { return c.MN.Node(), nil }

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
