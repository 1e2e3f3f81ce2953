package fabric

import "fmt"

// This file scales the fabric past the prototype's single 8-node mesh:
// a hierarchical rack/spine topology in which each rack is the familiar
// x×y×z mesh and racks are joined by a tier of spine switches over a
// configurable (typically oversubscribed) set of uplinks. The paper's
// Monitor Node design assumes one rack; internal/monitor's sharded
// plane (sub-MN per rack + root MN) rides on the rack structure this
// type exposes.

// Hier is a rack/spine topology: Racks meshes of RackSize nodes each,
// joined by Spines spine switches. It embeds the flat Topology the
// Network layer consumes, plus the rack structure the monitor plane and
// the experiments need.
//
// Node-id layout: rack r occupies ids [r*RackSize, (r+1)*RackSize);
// spine switch s has id Racks*RackSize + s. Uplink u of a rack is the
// rack's node with intra-rack index u, cabled to spine u % Spines; the
// spine switches themselves form a full mesh so every pair of racks is
// connected for any uplink/spine combination.
type Hier struct {
	Topology
	Racks    int
	RackSize int
	Spines   int
	Uplinks  int
}

// RackSpine builds a hierarchical fabric of racks×(x×y×z) mesh nodes
// behind spines spine switches, with uplinks uplink cables per rack.
// The rack tier reuses Mesh3D edge construction exactly, so intra-rack
// routes (and hop counts) match a standalone mesh of the same shape.
func RackSpine(racks, x, y, z, spines, uplinks int) Hier {
	rackSize := x * y * z
	if racks < 1 {
		panic("fabric: RackSpine needs at least one rack")
	}
	if x < 1 || y < 1 || z < 1 {
		panic("fabric: rack mesh dimensions must be positive")
	}
	if spines < 1 {
		panic("fabric: RackSpine needs at least one spine switch")
	}
	if uplinks < 1 || uplinks > rackSize {
		panic(fmt.Sprintf("fabric: uplinks %d out of [1, rack size %d]", uplinks, rackSize))
	}
	h := Hier{
		Racks:    racks,
		RackSize: rackSize,
		Spines:   spines,
		Uplinks:  uplinks,
	}
	h.Name = fmt.Sprintf("rack%dx(%dx%dx%d)+spine%d", racks, x, y, z, spines)
	h.N = racks*rackSize + spines
	mesh := Mesh3D(x, y, z)
	for r := 0; r < racks; r++ {
		base := NodeID(r * rackSize)
		for _, e := range mesh.Edges {
			h.Edges = append(h.Edges, [2]NodeID{base + e[0], base + e[1]})
		}
	}
	for r := 0; r < racks; r++ {
		for u := 0; u < uplinks; u++ {
			h.Edges = append(h.Edges, [2]NodeID{NodeID(r*rackSize + u), h.SpineID(u % spines)})
		}
	}
	for a := 0; a < spines; a++ {
		for b := a + 1; b < spines; b++ {
			h.Edges = append(h.Edges, [2]NodeID{h.SpineID(a), h.SpineID(b)})
		}
	}
	h.Topology = h.Topology.routed()
	return h
}

// RackOf reports which rack a node belongs to; ok is false for spine
// switches.
func (h Hier) RackOf(id NodeID) (rack int, ok bool) {
	if int(id) < 0 || int(id) >= h.Racks*h.RackSize {
		return 0, false
	}
	return int(id) / h.RackSize, true
}

// IsSpine reports whether id is a spine switch.
func (h Hier) IsSpine(id NodeID) bool {
	return int(id) >= h.Racks*h.RackSize && int(id) < h.N
}

// SpineID returns the node id of spine switch s.
func (h Hier) SpineID(s int) NodeID {
	if s < 0 || s >= h.Spines {
		panic(fmt.Sprintf("fabric: spine %d out of range [0, %d)", s, h.Spines))
	}
	return NodeID(h.Racks*h.RackSize + s)
}

// RackNodes lists the node ids of rack r in ascending order.
func (h Hier) RackNodes(r int) []NodeID {
	if r < 0 || r >= h.Racks {
		panic(fmt.Sprintf("fabric: rack %d out of range [0, %d)", r, h.Racks))
	}
	ids := make([]NodeID, h.RackSize)
	for i := range ids {
		ids[i] = NodeID(r*h.RackSize + i)
	}
	return ids
}

// SpineEdges lists every edge of the spine tier — rack-uplink↔spine and
// spine↔spine — in construction order. The scale scenarios apply the
// uplink bandwidth override to exactly these links.
func (h Hier) SpineEdges() [][2]NodeID {
	var edges [][2]NodeID
	for _, e := range h.Edges {
		if h.IsSpine(e[0]) || h.IsSpine(e[1]) {
			edges = append(edges, e)
		}
	}
	return edges
}

// MaxDegree reports the largest port count any node of the topology
// needs. Spine switches routinely exceed the prototype's radix-7
// embedded switch; callers building a Network for such a topology must
// provision Params.LinkPorts accordingly (modeling higher-radix spine
// silicon).
func (t Topology) MaxDegree() int {
	max := 0
	for _, nbrs := range t.tables().nbrs {
		if len(nbrs) > max {
			max = len(nbrs)
		}
	}
	return max
}
