// Package fabric implements the Venice resource-sharing interconnect
// (§5.1 of the paper): point-to-point links with bandwidth and
// propagation modeling, a datalink layer with credit-based flow control
// and CRC-detected replay, embedded low-radix switches for "switchless"
// direct chip-to-chip communication, an optional external one-level
// router (the Fig. 6 experiment), and standard topologies including the
// prototype's 3D mesh.
//
// Beyond the paper's single 8-node mesh, RackSpine builds hierarchical
// rack/spine fabrics (racks of meshes joined by spine switches over a
// configurable set of uplinks); per-link bandwidth overrides
// (Link.SetGbps, Network.SetLinkGbps) model oversubscribed spine
// uplinks, and the Hier type exposes the rack structure the sharded
// monitor plane (internal/monitor) and the scale experiments build on.
package fabric

import "fmt"

// NodeID identifies a node (an endpoint with an embedded switch) in the
// fabric. IDs are dense, starting at zero.
type NodeID int

// String formats the id as "n3".
func (n NodeID) String() string { return fmt.Sprintf("n%d", int(n)) }

// Packet is one transport-layer packet on the wire. The fabric treats the
// payload as opaque; Kind tags the packet for demux.
type Packet struct {
	Src, Dst NodeID
	Kind     string // e.g. "crma.req", "rdma.data", "qpair.msg", "credit"
	Size     int    // payload bytes (header overhead added by the link model)
	Payload  any    // transport-defined contents
	Hops     int    // incremented per switch traversal, for diagnostics

	held bool // a link armed a replay timer for it; see Held
}

// Held reports whether a link has armed a sender replay timer for the
// packet: on a down or corrupting link, on one slowed while the packet
// was in flight, or when Params.ReplayTO ≤ 0. A packet is delivered at
// most once (see taken in link.go), but a held one may be transmitted
// again after its receiver has taken it (the receiver acks that copy
// and drops it), and the replay reads the packet, so whoever sent it
// must not reuse it. No link refers to a packet that is not held once
// it has been delivered.
func (p *Packet) Held() bool { return p.held }

// String formats a packet for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("%s->%s %s %dB", p.Src, p.Dst, p.Kind, p.Size)
}
