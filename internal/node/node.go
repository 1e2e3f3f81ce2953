// Package node assembles one Venice server node: CPU-visible memory
// hierarchy, transport endpoint (the three channels), OS memory manager,
// and the per-node agent daemon that reports to the Monitor Node.
package node

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Node is one server in the rack.
type Node struct {
	Eng *sim.Engine
	P   *sim.Params
	ID  fabric.NodeID

	EP     *transport.Endpoint
	Mem    *memsys.Hierarchy
	MemMgr *memsys.MemManager

	// DRAMBytes is the node's installed physical memory (Table 1: 1 GB
	// active per prototype node).
	DRAMBytes uint64

	hotplugBase uint64
}

// New builds a node with dramBytes of local memory mapped at address 0.
func New(eng *sim.Engine, p *sim.Params, net *fabric.Network, id fabric.NodeID, dramBytes uint64) *Node {
	n := &Node{
		Eng:       eng,
		P:         p,
		ID:        id,
		EP:        transport.NewEndpoint(eng, p, net, id),
		Mem:       memsys.NewHierarchy(eng, p),
		MemMgr:    memsys.NewMemManager(p, dramBytes),
		DRAMBytes: dramBytes,
	}
	if err := n.Mem.AS.Add(&memsys.Region{Base: 0, Size: dramBytes,
		Backend: &memsys.LocalDRAM{P: p}}); err != nil {
		panic(err)
	}
	// Hot-plugged regions appear above the node's own physical memory,
	// exactly like Fig. 10's 0x1_0000_0000 window on a 4 GB node.
	n.hotplugBase = dramBytes
	return n
}

// Run starts a named workload process on this node.
func (n *Node) Run(name string, fn func(p *sim.Proc)) *sim.Completion {
	return n.Eng.Go(fmt.Sprintf("%v/%s", n.ID, name), fn)
}

// NextHotplugWindow reserves an address window of size bytes above the
// local physical memory for a hot-plugged (borrowed) region and returns
// its base.
func (n *Node) NextHotplugWindow(size uint64) uint64 {
	base := n.hotplugBase
	n.hotplugBase += size
	return base
}

// String identifies the node.
func (n *Node) String() string { return n.ID.String() }
