package core

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/monitor"
	"repro/internal/node"
	"repro/internal/sim"
)

// HierConfig shapes a multi-rack fabric: racks of 3D-mesh nodes joined
// by an (optionally oversubscribed) spine, with one sub-MN per rack and
// a root MN on the first spine switch — the rack-scale assembly the
// sharded monitor plane (internal/monitor/shard.go) runs on. Every rack
// node has 1 GiB of memory. The fabric runs on its own copy of
// sim.Default(), with LinkPorts raised to fit the spine radix
// (HierCluster.P). Like the paper's prototype, the plane runs no
// recovery, migration or admission: those are the flat Cluster's.
type HierConfig struct {
	// Racks of RackX×RackY×RackZ mesh nodes (both required).
	Racks               int
	RackX, RackY, RackZ int

	// Spines and Uplinks shape the spine tier (0 defaults: 2 spine
	// switches, 2 uplinks per rack).
	Spines  int
	Uplinks int
	// SpineGbps overrides the bandwidth of every spine-tier link when
	// >0 — the oversubscription knob (rack-internal links keep
	// Params.LinkGbps).
	SpineGbps float64

	Seed uint64 // 0: 1

	// HeartbeatInterval is the agent beat period (agents report to their
	// rack's sub-MN); RackBeatInterval the sub-MN → root rack report
	// period (0 defaults: 500 ms and 1 s). A node or rack counts as live
	// for three of its periods after its last beat.
	HeartbeatInterval sim.Dur
	RackBeatInterval  sim.Dur
}

// HierCluster is a running multi-rack Venice fabric.
type HierCluster struct {
	Eng  *sim.Engine
	P    *sim.Params
	Net  *fabric.Network
	Hier fabric.Hier

	// Nodes holds every node including spine switches (indexed by node
	// id); Agents is indexed the same way and nil at spine indices.
	Nodes  []*node.Node
	Agents []*monitor.Agent

	// Subs holds each rack's sub-MN, indexed by rack; Root is the root
	// MN on spine switch 0.
	Subs []*monitor.Monitor
	Root *monitor.Root

	plane
}

// NewHierCluster builds the fabric, one sub-MN per rack (on the rack's
// first node, which is also its first uplink), the root MN on spine 0,
// and starts every agent and rackbeat loop.
func NewHierCluster(cfg HierConfig) *HierCluster {
	if cfg.Racks < 1 {
		panic("core: HierConfig needs at least one rack")
	}
	spines := cfg.Spines
	if spines == 0 {
		spines = 2
	}
	uplinks := cfg.Uplinks
	if uplinks == 0 {
		uplinks = 2
		if rs := cfg.RackX * cfg.RackY * cfg.RackZ; uplinks > rs {
			uplinks = rs
		}
	}
	h := fabric.RackSpine(cfg.Racks, cfg.RackX, cfg.RackY, cfg.RackZ, spines, uplinks)

	d := sim.Default()
	p := &d
	// Spine switches routinely exceed the prototype's radix-7 embedded
	// switch; model higher-radix spine silicon rather than refusing the
	// topology.
	if deg := h.MaxDegree(); deg > p.LinkPorts {
		p.LinkPorts = deg
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	hbInterval := cfg.HeartbeatInterval
	if hbInterval == 0 {
		hbInterval = 500 * sim.Millisecond
	}
	rbInterval := cfg.RackBeatInterval
	if rbInterval == 0 {
		rbInterval = sim.Second
	}

	eng := sim.New()
	net := fabric.NewNetwork(eng, p, h.Topology, sim.NewRNG(seed))
	c := &HierCluster{Eng: eng, P: p, Net: net, Hier: h}
	if cfg.SpineGbps > 0 {
		for _, e := range h.SpineEdges() {
			net.SetLinkGbps(e[0], e[1], cfg.SpineGbps)
		}
	}
	for i := 0; i < h.N; i++ {
		c.Nodes = append(c.Nodes, node.New(eng, p, net, fabric.NodeID(i), 1<<30))
	}
	c.Agents = make([]*monitor.Agent, h.N)
	c.plane = plane{nodes: c.Nodes, hier: true, broker: c.rackMN}

	// Tie the liveness windows to the beat periods: a cluster beating
	// every 30 s must not inherit the Monitor's absolute 3 s default and
	// read its whole fleet as dead.
	c.Root = monitor.NewRoot(c.Nodes[h.SpineID(0)].EP)
	c.Root.RackBeatTimeout = 3 * rbInterval

	for r := 0; r < cfg.Racks; r++ {
		subNode := c.SubNode(r)
		sub := monitor.New(c.Nodes[subNode].EP, h.Topology)
		sub.HeartbeatTimeout = 3 * hbInterval
		c.Subs = append(c.Subs, sub)
		for _, id := range h.RackNodes(r) {
			n := c.Nodes[id]
			a := monitor.NewAgent(n.EP, n.MemMgr, net)
			a.Interval = hbInterval
			c.Agents[id] = a
			a.Start(subNode)
		}
		sub.StartRackBeat(c.Root.Node(), r, rbInterval)
	}
	return c
}

// SubNode reports the node hosting rack r's sub-MN (the rack's first
// node, which is also its first spine uplink).
func (c *HierCluster) SubNode(r int) fabric.NodeID { return c.Hier.RackNodes(r)[0] }

// rackMN names the recipient's rack sub-MN, where every grant starts.
func (c *HierCluster) rackMN(on *node.Node) (fabric.NodeID, error) {
	rack, ok := c.Hier.RackOf(on.ID)
	if !ok {
		return 0, fmt.Errorf("%w: recipient %v is a spine switch, not a rack member", ErrBadRequest, on.ID)
	}
	return c.SubNode(rack), nil
}

// Node returns node i.
func (c *HierCluster) Node(i int) *node.Node { return c.Nodes[i] }

// RunFor advances virtual time by d.
func (c *HierCluster) RunFor(d sim.Dur) { c.Eng.RunFor(d) }

// Close releases simulation resources; the cluster must not be used
// afterwards.
func (c *HierCluster) Close() { c.Eng.Close() }

// String summarizes the cluster.
func (c *HierCluster) String() string {
	return fmt.Sprintf("venice[%s, %d racks x %d nodes + %d spines, root=%v]",
		c.Net.Topo.Name, c.Hier.Racks, c.Hier.RackSize, c.Hier.Spines, c.Root.Node())
}
